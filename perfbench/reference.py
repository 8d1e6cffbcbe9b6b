"""Independent references and the output checker.

Compiled circuits are checked against a gate-list state-vector simulator
that never builds a layer matrix: a CNOT is an index permutation and a
one-wire gate a contraction on one axis.  The circuit text that `compile`
prints is checked by running it through a small layer simulator for the
cyclic group algebras, written here.  Non-unitary circuits are checked
against hopfcirc's `evaluate_bruteforce`, which shares no code path with
dense evaluation.

Tolerances are the project's contracts and are never loosened: 1e-12 for
map entries checked against the brute-force evaluator and for axiom
deviations, 1e-10 for compiled circuits.
"""

from __future__ import annotations

import cmath
import json
import math
import re

import numpy as np

MAP_TOL = 1e-12
COMPILE_TOL = 1e-10
AXIOM_TOL = 1e-12
AXIOM_FAMILIES = {"associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode"}


# --- gate-list simulator ------------------------------------------------------

def _u1(gate) -> np.ndarray:
    if gate.unitary == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    h = gate.angle / 2
    return np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]], dtype=complex)


def simulate_gates(n: int, gates, states: np.ndarray) -> np.ndarray:
    """Apply a gate list to a batch of states, shape (batch, 2**n).

    Wire 0 is the most significant bit.  CNOT(c, t) sets t to c XOR t.
    """
    x = np.array(states, dtype=complex).reshape(-1, 2**n)
    index = np.arange(2**n)
    for g in gates:
        if g.kind == "cnot":
            c, t = g.wires
            control = (index >> (n - 1 - c)) & 1
            x = x[:, index ^ (control << (n - 1 - t))]
        else:
            w = g.wires[0]
            y = x.reshape(x.shape[0], 2**w, 2, 2 ** (n - w - 1))
            x = np.einsum("ab,xwbz->xwaz", _u1(g), y).reshape(x.shape[0], 2**n)
    return x


def gate_map(n: int, gates) -> np.ndarray:
    """Full matrix of a gate list; column j is the image of basis state j."""
    return simulate_gates(n, gates, np.eye(2**n)).T


# --- layer simulator for circuit text over Z_d ---------------------------------

def _preset(name: str, angle: float | None) -> np.ndarray:
    s2 = 1 / math.sqrt(2)
    fixed = {
        "I": [[1, 0], [0, 1]], "X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]],
        "H": [[s2, s2], [s2, -s2]], "S_PHASE": [[1, 0], [0, 1j]], "T": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    }
    if name in fixed:
        return np.array(fixed[name], dtype=complex)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    rot = {
        "RX": [[c, -1j * s], [-1j * s, c]],
        "RY": [[c, -s], [s, c]],
        "RZ": [[cmath.exp(-1j * angle / 2), 0], [0, cmath.exp(1j * angle / 2)]],
    }
    return np.array(rot[name], dtype=complex)


def _cyclic_structure(d: int) -> dict[str, np.ndarray]:
    """Structure maps of the group algebra of Z_d as (input index, output
    index) tables: copy a to (a, a), multiply to a + b mod d, antipode to -a."""
    delta = np.zeros((d, d * d))
    mul = np.zeros((d * d, d))
    swap = np.zeros((d * d, d * d))
    antipode = np.zeros((d, d))
    for a in range(d):
        delta[a, a * d + a] = 1
        antipode[a, -a % d] = 1
        for b in range(d):
            mul[a * d + b, (a + b) % d] = 1
            swap[a * d + b, b * d + a] = 1
    unit = np.zeros((1, d))
    unit[0, 0] = 1
    return {"ID": np.eye(d), "S": antipode, "DELTA": delta, "M": mul, "SWAP": swap,
            "UNIT": unit, "COUNIT": np.ones((d, 1))}


_UREF = re.compile(r"^U\((\w+)\)$", re.IGNORECASE)
_ROT = re.compile(r"^(\w+)\((.*)\)$")


def _complex(token: str) -> complex:
    token = token.replace(" ", "")
    return complex(token[:-1] + "j" if token.endswith("i") else token)


def _parse_unitary(spec: str) -> np.ndarray:
    spec = spec.strip()
    if spec.startswith("["):
        return np.array([[_complex(e) for e in row.split(",")] for row in spec[1:-1].split(";")])
    m = _ROT.match(spec)
    return _preset(m.group(1).upper(), float(m.group(2))) if m else _preset(spec.upper(), None)


def simulate_text(text: str, states: np.ndarray) -> np.ndarray:
    """Run `.hopf` text over a cyclic group algebra Z_d on a batch of basis
    vectors, shape (batch, d**wires_in); returns (batch, d**wires_out)."""
    unitaries: dict[str, np.ndarray] = {}
    d, x = 0, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        keyword = keyword.lower()
        if keyword == "algebra":
            name = rest.strip().upper()
            if not re.fullmatch(r"Z\d+", name):
                raise ValueError(f"not a cyclic group algebra: {rest!r}")
            d = int(name[1:])
            structure = _cyclic_structure(d)
        elif keyword == "in":
            n = int(rest)
            x = np.array(states, dtype=complex).reshape((-1,) + (d,) * n)
        elif keyword == "unitary":
            name, spec = rest.strip().split(None, 1)
            unitaries[name] = _parse_unitary(spec)
        elif keyword == "layer":
            pos = 1
            for token in (t.strip() for t in rest.split(",")):
                if token.upper() == "ID":
                    pos += 1
                    continue
                uref = _UREF.match(token)
                table = unitaries[uref.group(1)].T if uref else structure[token.upper()]
                a, b = round(math.log(table.shape[0], d)), round(math.log(table.shape[1], d))
                moved = np.moveaxis(x, list(range(pos, pos + a)), list(range(x.ndim - a, x.ndim)))
                lead = moved.shape[: moved.ndim - a]
                y = (moved.reshape(lead + (d**a,)) @ table).reshape(lead + (d,) * b)
                x = np.moveaxis(y, list(range(y.ndim - b, y.ndim)), list(range(pos, pos + b)))
                pos += b
        else:
            raise ValueError(f"unknown statement {keyword!r}")
    return x.reshape(x.shape[0], -1)


# --- output checks ------------------------------------------------------------

class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _label_index(label: str, d: int, wires: int) -> int:
    digits = [int(t) for t in (label.split(",") if d > 10 else label)]
    _require(len(digits) == wires and all(0 <= v < d for v in digits), f"bad basis label {label!r}")
    index = 0
    for v in digits:
        index = index * d + v
    return index


def _vector(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _check_eval(out: dict, spec: dict, ref: np.ndarray) -> None:
    d, wo = spec["d"], spec["wires_out"]
    _require(out["d"] == d and out["wires_in"] == spec["wires_in"] and out["wires_out"] == wo, "shape fields")
    _require(out["unitary"] is spec["unitary"], "unitary flag")
    vec = _vector(out["vector"])
    _require(vec.shape == ref.shape, "vector length")
    _require(float(np.max(np.abs(vec - ref))) <= spec["tol"], "vector entries")
    norm = float(np.sum(np.abs(ref) ** 2))
    dist = out["distribution"]
    _require(abs(dist["norm_in"] - norm) <= spec["tol"] * max(1.0, norm), "norm_in")
    probs = np.zeros(ref.shape[0])
    for label, p in dist["outcomes"].items():
        probs[_label_index(label, d, wo)] = p
    _require(float(np.max(np.abs(probs - np.abs(ref) ** 2 / norm))) <= spec["tol"], "distribution")


def _check_sample(out: dict, spec: dict, ref: np.ndarray) -> None:
    counts = out["counts"]
    _require(out["shots"] == spec["shots"] and sum(counts.values()) == spec["shots"], "shot count")
    for label, k in counts.items():
        _require(k > 0 and abs(ref[_label_index(label, spec["d"], spec["wires_out"])]) > 0, f"drew {label}")


def _check_matrix(out: dict, spec: dict, ref: np.ndarray) -> None:
    _require(out["d"] == spec["d"] and out["wires_in"] == spec["wires_in"]
             and out["wires_out"] == spec["wires_out"], "shape fields")
    m = np.array(out["re"], dtype=float) + 1j * np.array(out["im"], dtype=float)
    _require(m.shape == ref.shape, "matrix shape")
    _require(float(np.max(np.abs(m - ref))) <= spec["tol"], "matrix entries")


def _check_compile(out: dict, spec: dict, ref: np.ndarray) -> None:
    n = spec["wires"]
    _require(out["wires"] == n and out["gates"] == spec["gates"], "wires/gates")
    _require(0 <= out["max_deviation"] <= COMPILE_TOL, "reported deviation")
    got = simulate_text(out["circuit"], np.eye(2**n)).T
    _require(got.shape == ref.shape, "compiled map shape")
    _require(float(np.max(np.abs(got - ref))) <= COMPILE_TOL, "compiled circuit map")


def _check_oracle(out: dict, spec: dict, ref) -> None:
    _require(out["inputs"] == spec["inputs"], "inputs checked")
    _require(out["passed"] is True and 0 <= out["max_deviation"] <= MAP_TOL, "oracle verdict")


def _check_axioms(out: dict, spec: dict, ref) -> None:
    _require(out["dim"] == spec["dim"] and out["passed"] is True, "verdict")
    _require(out["tol"] == AXIOM_TOL, "tolerance")
    axioms = out["axioms"]
    _require({a["name"] for a in axioms} == AXIOM_FAMILIES and len(axioms) == len(AXIOM_FAMILIES), "axiom families")
    _require(all(a["passed"] is True and 0 <= a["deviation"] <= AXIOM_TOL for a in axioms), "axiom deviations")
    _require(out["commutative"] is spec["abelian"] and out["cocommutative"] is True, "commutativity")


_CHECKS = {
    "eval": _check_eval,
    "sample": _check_sample,
    "matrix": _check_matrix,
    "compile": _check_compile,
    "oracle-check": _check_oracle,
    "check-axioms": _check_axioms,
}


def check(cmd: str, spec: dict, ref, rc: int, stdout: str, stderr: str) -> str | None:
    """None when the output is right, else a one-line reason."""
    try:
        if spec.get("expect_exit", 0) != 0:
            lines = stderr.splitlines()
            _require(rc == spec["expect_exit"], f"exit {rc}, expected {spec['expect_exit']}")
            _require(stdout == "" and len(lines) == 1 and lines[0].startswith("error: "), "error message")
            return None
        _require(rc == 0, f"exit {rc}: {stderr.strip()[:200]}")
        _require(stderr == "", "unexpected stderr")
        _CHECKS[cmd](json.loads(stdout), spec, ref)
        return None
    except Mismatch as exc:
        return f"{cmd}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{cmd}: malformed output ({type(exc).__name__}: {exc})"
