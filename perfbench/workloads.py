"""Seeded inputs for the three workloads, written by the benchmark itself.

Every input byte comes from this file and the seed: the `.hopf` text of
compiled circuits (with our own swap-ladder writer), the non-unitary
circuits, the gate-list JSON and the group-table JSON.  Nothing here calls
into hopfcirc, so a change to its compiler, printer or evaluators cannot
change what a workload runs.

A workload is a list of operations that the timed loop repeats in whole
rounds.  Within one width, every compiled circuit has the same number of
gates, CNOTs and swap layers, and every non-unitary circuit follows a fixed
wire profile, so the seed changes values and positions but not the dense
work per operation.  The round mixes are sized so that every reported
percentile falls inside a block of operations of equal cost.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import simulate_text

SHOTS = 1000


@dataclass
class Gate:
    kind: str  # "cnot" or "u1"
    wires: tuple[int, ...]
    unitary: str = ""  # "ry" or "h" for u1
    angle: float = 0.0


@dataclass
class CircuitInput:
    """One circuit file plus what the reference side needs to know about it."""

    name: str
    text: str
    d: int
    wires_in: int
    profile: list[int]  # wire count at every layer boundary
    swap_id_layers: int
    gates: list[Gate] | None = None  # compiled circuits only


@dataclass
class Op:
    cmd: str  # CLI subcommand
    argv: list[str]
    ref: str  # name of the input the reference is computed from
    digits: str = ""  # basis input of eval and sample


@dataclass
class Workload:
    name: str
    circuits: dict[str, CircuitInput] = field(default_factory=dict)
    gate_lists: dict[str, tuple[int, list[Gate]]] = field(default_factory=dict)
    tables: dict[str, dict] = field(default_factory=dict)  # name -> known answer
    files: dict[str, bytes] = field(default_factory=dict)  # relative path -> bytes
    round: list[Op] = field(default_factory=list)
    algebras: list[str] = field(default_factory=list)  # every algebra the workload resolves


# --- compiled circuits: gate lists and the swap-ladder writer ---------------

def _cnot_swaps(c: int, t: int) -> int:
    """Swap layers on both sides of one CNOT block."""
    return 2 * (t - c - 1) if c < t else 2 * (c - t)


def random_gate_list(rng: random.Random, n: int, cnots: int, swaps: int, gates: int) -> list[Gate]:
    """RY on every wire, then `cnots` CNOTs on random pairs interleaved with
    RY/H gates, `gates` in all.  Pairs are redrawn until the swap ladders
    add up to exactly `swaps` layers, so every list of one width costs the
    same to evaluate densely."""
    for _ in range(100_000):
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(cnots)]
        if sum(_cnot_swaps(c, t) for c, t in pairs) == swaps:
            break
    else:
        raise RuntimeError(f"no CNOT pairs with {swaps} swap layers at {n} wires")
    gl = [Gate("u1", (w,), "ry", rng.uniform(0.1, 2 * math.pi - 0.1)) for w in range(n)]
    singles = gates - n - cnots
    kinds = ["cnot"] * cnots + ["u1"] * singles
    rng.shuffle(kinds)
    it = iter(pairs)
    for kind in kinds:
        if kind == "cnot":
            gl.append(Gate("cnot", next(it)))
        elif rng.random() < 0.25:
            gl.append(Gate("u1", (rng.randrange(n),), "h"))
        else:
            gl.append(Gate("u1", (rng.randrange(n),), "ry", rng.uniform(0.1, 2 * math.pi - 0.1)))
    return gl


def _swap_id_layers(layers: list[list[str]]) -> int:
    return sum(1 for layer in layers if all(p in ("ID", "SWAP") for p in layer))


def _padded(n: int, at: int, prims: list[str]) -> list[str]:
    return ["ID"] * at + prims + ["ID"] * (n - at - sum(2 if p in ("M", "SWAP") else 1 for p in prims))


def write_compiled(name: str, n: int, gl: list[Gate]) -> CircuitInput:
    """`.hopf` text of a gate list: a CNOT is DELTA on the control then M into
    the target, with adjacent-swap ladders that bring the control next to
    the target and take it back afterwards."""
    header = ["algebra Z2", f"in {n}"]
    layers: list[list[str]] = []
    unitaries: dict[str, str] = {}
    for g in gl:
        if g.kind == "u1":
            if g.unitary == "h":
                uname, spec = "h", "H"
            else:
                uname, spec = f"ry{len(unitaries)}", f"RY({g.angle!r})"
            unitaries.setdefault(uname, spec)
            layers.append(_padded(n, g.wires[0], [f"U({uname})"]))
            continue
        c, t = g.wires
        if c < t:
            ladder = list(range(c, t - 1))  # walk the control right to t-1
            at = t - 1
        else:
            ladder = list(range(c - 1, t, -1)) + [t]  # walk left, then cross the target
            at = t
        for p in ladder:
            layers.append(_padded(n, p, ["SWAP"]))
        layers.append(_padded(n, at, ["DELTA"]))
        layers.append(_padded(n + 1, at, ["ID", "M"]))
        for p in reversed(ladder):
            layers.append(_padded(n, p, ["SWAP"]))
    text = "\n".join(
        header
        + [f"unitary {u} {spec}" for u, spec in unitaries.items()]
        + ["layer " + ", ".join(layer) for layer in layers]
    ) + "\n"
    profile = [n] + [n + 1 if "DELTA" in layer else n for layer in layers]
    return CircuitInput(name, text, 2, n, profile, _swap_id_layers(layers), gates=gl)


def gate_list_json(gl: list[Gate]) -> bytes:
    items = []
    for g in gl:
        if g.kind == "cnot":
            items.append({"cnot": list(g.wires)})
        else:
            m = u1_matrix(g)
            items.append({"u1": {
                "wire": g.wires[0],
                "name": g.unitary,
                "matrix": {"re": [[z.real for z in row] for row in m],
                           "im": [[z.imag for z in row] for row in m]},
            }})
    return (json.dumps(items, indent=1) + "\n").encode()


def u1_matrix(g: Gate) -> list[list[complex]]:
    if g.unitary == "h":
        s = 1 / math.sqrt(2)
        return [[s, s], [s, -s]]
    h = g.angle / 2
    return [[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]]


# --- non-unitary circuits ---------------------------------------------------

_CONSUMES = {"ID": 1, "S": 1, "U": 1, "DELTA": 1, "COUNIT": 1, "M": 2, "SWAP": 2, "UNIT": 0}


def _complex_literal(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _fourier(d: int) -> str:
    rows = []
    for j in range(d):
        rows.append(", ".join(
            _complex_literal(complex(math.cos(2 * math.pi * j * k / d), math.sin(2 * math.pi * j * k / d)) / math.sqrt(d))
            for k in range(d)
        ))
    return "[" + "; ".join(rows) + "]"


def _nonunitary_layer(rng: random.Random, w: int, w_next: int) -> list[str]:
    """A layer taking w wires to w_next, made mostly of DELTA and M."""
    delta = w_next - w
    for _ in range(10_000):
        shrink = rng.randint(0, max(0, (w - max(delta, 0)) // 3))
        grow = delta + shrink
        if grow < 0:
            continue
        prims = ["DELTA"] * grow + ["M"] * shrink
        if grow and rng.random() < 0.15:
            prims[0] = "UNIT"
        if shrink and rng.random() < 0.15:
            prims[grow] = "COUNIT"
        room = w - sum(_CONSUMES[p] for p in prims)
        if room < 0:
            continue
        while room > 0:
            p = rng.choices(["ID", "S", "U", "SWAP"], weights=[5, 1, 2, 1])[0]
            if _CONSUMES[p] <= room:
                prims.append(p)
                room -= _CONSUMES[p]
        rng.shuffle(prims)
        return prims
    raise RuntimeError(f"no layer from {w} to {w_next} wires")


def write_nonunitary(rng: random.Random, name: str, algebra: str, d: int, profile: list[int]) -> CircuitInput:
    """Random DELTA/M-heavy circuit whose wire count follows `profile`; the
    one-wire unitary is H for d = 2 and the d-point Fourier matrix otherwise.

    The profile reaches its widest only in the last layer, which grows one
    wire and is always IDs then DELTA: its matrix is the largest the circuit
    builds, so fixing its layout keeps peak memory the same for every seed.
    """
    if profile.count(max(profile)) != 1 or profile[-1] != profile[-2] + 1 or profile[-1] != max(profile):
        raise ValueError(f"profile {profile} must reach its maximum only by growing one wire at the end")
    layers = [_nonunitary_layer(rng, w, w_next) for w, w_next in zip(profile[:-2], profile[1:-1])]
    layers.append(["ID"] * (profile[-2] - 1) + ["DELTA"])
    spec = "H" if d == 2 else _fourier(d)
    lines = [f"algebra {algebra}", f"in {profile[0]}", f"unitary f {spec}"]
    lines += ["layer " + ", ".join("U(f)" if p == "U" else p for p in layer) for layer in layers]
    return CircuitInput(name, "\n".join(lines) + "\n", d, profile[0], list(profile), _swap_id_layers(layers))


# --- group tables ---------------------------------------------------------

def _perm_group(perms: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]


def _closure(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    ident = tuple(range(len(gens[0])))
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(a[g[x]] for x in range(len(a)))
                if b not in elems:
                    elems.append(b)
                    nxt.append(b)
        frontier = nxt
    return elems


def _product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    nb = len(b)
    pairs = list(itertools.product(range(len(a)), range(nb)))
    return [[a[i][k] * nb + b[j][l] for k, l in pairs] for i, j in pairs]


def _cyclic(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _quaternion() -> list[list[int]]:
    # Q8 as 2x2 complex matrices: +-1, +-i, +-j, +-k
    one = ((1, 0), (0, 1))
    i = ((1j, 0), (0, -1j))
    j = ((0, 1), (-1, 0))
    k = ((0, 1j), (1j, 0))

    def mul(x, y):
        return tuple(tuple(sum(x[r][s] * y[s][c] for s in range(2)) for c in range(2)) for r in range(2))

    def neg(x):
        return tuple(tuple(-v for v in row) for row in x)

    elems = [one, neg(one), i, neg(i), j, neg(j), k, neg(k)]
    return [[elems.index(mul(x, y)) for y in elems] for x in elems]


def group_tables() -> dict[str, list[list[int]]]:
    """Groups of order 6 to 8, identity first."""
    return {
        "Z6": _cyclic(6),
        "D3": _perm_group(_closure([(1, 2, 0), (1, 0, 2)])),
        "Z7": _cyclic(7),
        "Z8": _cyclic(8),
        "Z2xZ4": _product_table(_cyclic(2), _cyclic(4)),
        "D4": _perm_group(_closure([(1, 2, 3, 0), (3, 2, 1, 0)])),
        "Q8": _quaternion(),
    }


def relabel(rng: random.Random, table: list[list[int]]) -> list[list[int]]:
    """The same group with its elements listed in a random order."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)  # old index -> new index
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def is_abelian(table: list[list[int]]) -> bool:
    return all(table[a][b] == table[b][a] for a in range(len(table)) for b in range(len(table)))


def invalid_tables(rng: random.Random) -> dict[str, list[list[int]]]:
    """Tables that are not groups; the documented answer is exit 2."""
    n = 6
    latin = _cyclic(n)
    # a Latin square with an identity that is not associative: swap two
    # entries in each of two rows so that rows and columns stay permutations
    loop = [row[:] for row in latin]
    loop[1][2], loop[1][3] = loop[1][3], loop[1][2]
    loop[2][2], loop[2][3] = loop[2][3], loop[2][2]
    repeated = [row[:] for row in relabel(rng, _cyclic(5))]
    r = rng.randrange(5)
    repeated[r][0] = repeated[r][1]
    difference = [[(i - j) % n for j in range(n)] for i in range(n)]  # 0 is only a right identity
    return {"not_associative": relabel(rng, loop), "repeated_entry": repeated, "no_identity": difference}


# --- workloads --------------------------------------------------------------

def _basis_input(rng: random.Random, c: CircuitInput) -> str:
    """Random input digits; for non-unitary circuits, one whose output is
    not annihilated, since every operation of a workload must succeed."""
    for _ in range(1000):
        digits = "".join(str(rng.randrange(c.d)) for _ in range(c.wires_in))
        if c.gates is not None:
            return digits
        basis = np.zeros(c.d**c.wires_in)
        basis[int(digits, c.d)] = 1
        if np.max(np.abs(simulate_text(c.text, basis))) > 1e-6:
            return digits
    raise RuntimeError(f"{c.name}: every input drawn was annihilated")


def _hopf_ops(w: Workload, c: CircuitInput, rng: random.Random, cmds: list[str]) -> None:
    w.circuits[c.name] = c
    path = f"{c.name}.hopf"
    w.files[path] = c.text.encode()
    for cmd in cmds:
        digits = _basis_input(rng, c) if cmd in ("eval", "sample") else ""
        if cmd == "eval":
            w.round.append(Op("eval", ["eval", path, "--input", digits, "--json"], c.name, digits))
        elif cmd == "sample":
            seed = rng.randrange(2**31)
            w.round.append(Op("sample", ["sample", path, "--input", digits, "--shots", str(SHOTS),
                                         "--seed", str(seed), "--json"], c.name, digits))
        else:
            w.round.append(Op(cmd, [cmd, path, "--json"], c.name))


# Round mixes.  Each round is short, so that every operation repeats ten
# or more times in a run and its best latency is found; the classes of
# operation cost are far apart and sized so that the median and the 90th
# percentile of the round, and the median of each subcommand, land on a
# fixed class whatever the seed.

def build_wide_state(rng: random.Random) -> Workload:
    w = Workload("wide_state", algebras=["Z2", "Z3"])
    # 30 gates each, RY on every wire first; 15 CNOTs with a fixed total of swap layers
    for i, cmd in enumerate(("eval", "sample")):
        _hopf_ops(w, write_compiled(f"c8_{i}", 8, random_gate_list(rng, 8, 15, 74, 30)), rng, [cmd])
    for i, cmd in enumerate(("eval", "eval", "sample", "sample")):
        _hopf_ops(w, write_compiled(f"c7_{i}", 7, random_gate_list(rng, 7, 15, 64, 30)), rng, [cmd])
    for i, cmd in enumerate(("eval", "sample")):
        _hopf_ops(w, write_nonunitary(rng, f"n2_{i}", "Z2", 2, [4, 5, 6, 6, 7, 7, 6, 7, 7, 6, 7, 8]), rng, [cmd])
    _hopf_ops(w, write_nonunitary(rng, "n3_0", "Z3", 3, [3, 4, 5, 5, 6, 5, 6, 6, 7]), rng, ["eval"])
    return w


def build_full_map(rng: random.Random) -> Workload:
    w = Workload("full_map", algebras=["Z2", "Z3", "S3"])
    swaps = {5: 44, 7: 64}
    for n, k in ((5, 1), (7, 4)):
        for i in range(k):
            _hopf_ops(w, write_compiled(f"c{n}_{i}", n, random_gate_list(rng, n, 15, swaps[n], 30)), rng, ["matrix"])
    for n, k in ((5, 1), (7, 3)):
        for i in range(k):
            gname = f"g{n}_{i}"
            w.gate_lists[gname] = (n, random_gate_list(rng, n, 15, swaps[n], 30))
            w.files[f"{gname}.json"] = gate_list_json(w.gate_lists[gname][1])
            w.round.append(Op("compile", ["compile", "--wires", str(n), "--gates", f"{gname}.json", "--json"], gname))
    for i in range(3):
        _hopf_ops(w, write_compiled(f"o5_{i}", 5, random_gate_list(rng, 5, 15, swaps[5], 30)), rng, ["oracle-check"])
    c = write_nonunitary(rng, "n3", "Z3", 3, [3, 4, 3, 4, 4, 3, 4, 5])
    _hopf_ops(w, c, rng, ["matrix", "oracle-check"])
    c = write_nonunitary(rng, "s3", "S3", 6, [2, 3, 2, 3, 3, 2, 3, 4])
    _hopf_ops(w, c, rng, ["matrix", "oracle-check"])
    return w


def _table_file(w: Workload, path: str, table: list[list[int]], answer: dict) -> None:
    labels = [f"{Path(path).stem.lower()}_{i}" for i in range(len(table))]
    w.files[path] = (json.dumps({"labels": labels, "table": table}) + "\n").encode()
    w.tables[path] = answer
    if answer["valid"]:
        w.algebras.append(path)


def build_algebra_axioms(rng: random.Random) -> Workload:
    w = Workload("algebra_axioms")
    for name, dim, abelian in (("Z2", 2, True), ("Z3", 3, True), ("Z4", 4, True), ("Z5", 5, True), ("S3", 6, False)):
        w.tables[name] = {"valid": True, "dim": dim, "abelian": abelian}
        w.algebras.append(name)
    groups = group_tables()
    order8 = rng.sample(["Z8", "Z2xZ4", "D4", "Q8"], 3)
    for name in ["Z6", "D3"] * 2 + ["Z7"] + order8:
        t = relabel(rng, groups[name])
        _table_file(w, f"{name}_{len(w.files)}.json", t, {"valid": True, "dim": len(t), "abelian": is_abelian(t)})
    for name, table in invalid_tables(rng).items():
        _table_file(w, f"bad_{name}.json", table, {"valid": False})
    for alg in w.tables:
        w.round.append(Op("check-axioms", ["check-axioms", "--algebra", alg, "--json"], alg))
    return w


BUILDERS = {"wide_state": build_wide_state, "full_map": build_full_map, "algebra_axioms": build_algebra_axioms}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    w = BUILDERS[name](rng)
    rng.shuffle(w.round)
    return w


def write_inputs(w: Workload, workdir: Path) -> str:
    """Write every input file and return the SHA-256 over names and bytes."""
    digest = hashlib.sha256()
    for rel in sorted(w.files):
        data = w.files[rel]
        (workdir / rel).write_bytes(data)
        digest.update(rel.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def properties(w: Workload) -> dict:
    """Input properties a later optimisation may depend on."""
    mix: dict[str, int] = {}
    for op in w.round:
        mix[op.cmd] = mix.get(op.cmd, 0) + 1
    circuits = [w.circuits[op.ref] for op in w.round if op.ref in w.circuits]
    for op in w.round:  # compile inputs are gate lists; count their compiled form
        if op.cmd == "compile":
            n, gl = w.gate_lists[op.ref]
            circuits.append(write_compiled(op.ref, n, gl))
    layers = sum(len(c.profile) - 1 for c in circuits)
    swap_id = sum(c.swap_id_layers for c in circuits)
    nonunitary = sum(1 for op in w.round if op.ref in w.circuits and w.circuits[op.ref].gates is None)
    dims = sorted({c.d for c in circuits} | {t["dim"] for t in w.tables.values() if t.get("valid")})
    return {
        "circuit.swap_id_layer_share": swap_id / layers if layers else 0.0,
        "circuit.max_state_entries": max((c.d ** max(c.profile) for c in circuits), default=0),
        "algebra_dims": dims,
        "nonunitary_op_share": nonunitary / len(w.round),
        "subcommand_mix": {k: v / len(w.round) for k, v in sorted(mix.items())},
    }
