"""Command-line front end: axiom checking, evaluation, compilation, sampling.

Basis convention, used by every command: wire 0 is the leftmost tensor
factor and the most significant (slowest-varying) digit of basis labels,
so on two qubits the basis order is 00, 01, 10, 11.

Exit codes: 0 success, 1 usage, 2 parse/validate, 3 numeric failure,
4 annihilated state.  Failures print one line "error: <category>: <detail>"
to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import _json_int, _only_keys, _read_json, check_axioms, resolve_algebra
from .circuit import (
    AnnihilatedStateError,
    Cnot,
    U1,
    _basis_labels,
    _echo,
    basis_state,
    compile_gate_circuit,
    direct_gate_map,
    evaluate_bruteforce_map,
    measure,
)
from .dsl import ParseError, _format_complex, circuit_to_document, parse_circuit, print_circuit, to_circuit
from .engine import circuit_is_unitary, evaluate, run

__all__ = ["cli_run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_ANNIHILATED = 4

ORACLE_TOL = 1e-12
COMPILE_TOL = 1e-10

#: sample refuses more shots than this before drawing: 128 MiB of int64 draws
MAX_SHOTS = 2**24

_BASIS_NOTE = (
    "Basis convention: wire 0 is the leftmost tensor factor and the most "
    "significant (slowest-varying) digit of every basis label and matrix "
    "index; on two qubits the basis order is 00, 01, 10, 11.  Layers in a "
    "circuit file are written in application order (first line acts first)."
)


class UsageError(Exception):
    pass


class _Number:
    """Stands in for argparse's negative-number pattern: matches every
    string that float() reads."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only "-1" and "-0.5" as negative numbers: it takes
        # "-1e-3", "-5." or "-inf" after a flag for an option, and the flag
        # for one without its value; here "--tol -1e-3" means "--tol=-1e-3"
        self._negative_number_matcher = _Number

    def _get_values(self, action, arg_strings):
        # argparse drops a "--" among a flag's values, so "--tol=--" would set
        # tol to an empty list; here it is the value "--", as after "--tol="
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number, got {_echo(text)}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused: parsing
    does not change it."""
    parser = _Parser(
        prog="hopfcirc",
        description="Circuits as compositions of Hopf-algebra structure maps. " + _BASIS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="verify the Hopf axioms of an algebra")
    p.add_argument("--algebra", required=True, help="built-in name (Z2..Z5, S3) or group-table JSON path")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.add_argument("--json", action="store_true", help="print only the JSON report")
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("eval", help="apply a circuit file to a basis input")
    p.add_argument("file")
    p.add_argument("--input", required=True, help="basis digits, e.g. 10 (or comma-separated for d>10)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("matrix", help="print the full linear map of a circuit file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("compile", help="compile a JSON gate list to circuit text")
    p.add_argument("--wires", type=int, required=True)
    p.add_argument("--gates", required=True, help="JSON gate list file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("sample", help="draw shots from a circuit's exact output distribution")
    p.add_argument("file")
    p.add_argument("--input", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed for the NumPy PCG64 generator")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("oracle-check", help="compare evaluation against the brute-force evaluator")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_circuit(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return to_circuit(parse_circuit(text))


def _parse_input_digits(text: str, d: int, wires: int) -> list[int]:
    try:
        if "," in text:
            digits = [int(tok) for tok in text.split(",")]
        else:
            digits = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"bad input string {_echo(text)}: expected base-{d} digits") from None
    if len(digits) != wires:
        raise ValueError(f"input {_echo(text)} has {len(digits)} digits, circuit consumes {wires} wires")
    for dgt in digits:
        if not 0 <= dgt < d:
            raise ValueError(f"input digit {dgt} out of range for dimension {d}")
    return digits


def _load_input(args):
    """The circuit of args.file and the basis input args.input as a
    (d^wires_in, 1) column.  The circuit validates itself as it is built,
    so its errors come before those of the input."""
    circuit = _load_circuit(args.file)
    d = circuit.algebra.dim
    digits = _parse_input_digits(args.input, d, circuit.wires_in)
    return circuit, basis_state(d, digits)[:, None]


# --- subcommands -------------------------------------------------------------

def _cmd_check_axioms(args) -> int:
    if args.tol < 0:
        raise ValueError("tolerance must be nonnegative")
    algebra = resolve_algebra(args.algebra)
    report = check_axioms(algebra, args.tol)
    payload = {"algebra": args.algebra, "dim": algebra.dim, **report.as_dict()}
    if not args.json:
        print(f"algebra {args.algebra} (dim {algebra.dim}), tol {args.tol!r}")
        width = max(len(c.name) for c in report.checks)
        print(f"{'axiom'.ljust(width)}  {'deviation':<12}  pass")
        for c in report.checks:
            print(f"{c.name.ljust(width)}  {c.deviation!r:<12}  {'yes' if c.passed else 'NO'}")
        print(
            f"info: commutative={'yes' if report.commutative else 'no'} "
            f"cocommutative={'yes' if report.cocommutative else 'no'}"
        )
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    print(_dump_json(payload))
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _format_vector(vec: np.ndarray, d: int, wires: int) -> list[str]:
    """eval's lines for the nonzero entries of an output vector: at least
    one, as eval measures first, and so refuses a zero vector, unless the
    map is unitary."""
    nz = np.flatnonzero(vec)
    return [
        f"  {label}  {_format_complex(z)}"
        for label, z in zip(_basis_labels(nz, d, wires), vec[nz].tolist())
    ]


def _cmd_eval(args) -> int:
    circuit, column = _load_input(args)
    d = circuit.algebra.dim
    wires_in, wires_out = circuit.wires_in, circuit.profile[-1]
    # decided before the run: it builds the map, and so meets the map-entry
    # limit, only when the plan cannot certify the answer
    unitary = circuit_is_unitary(circuit)
    out = run(circuit, column)[:, 0]
    distribution = None
    if args.json or not unitary:
        distribution = measure(out, d)

    if args.json:
        payload = {
            "input": args.input,
            "d": d,
            "wires_in": wires_in,
            "wires_out": wires_out,
            "unitary": unitary,
            "vector": {"re": out.real.tolist(), "im": out.imag.tolist()},
            "distribution": distribution.as_dict(),
        }
        print(_dump_json(payload))
        return EXIT_OK

    print(f"input {args.input}")
    print(f"map: {wires_in} -> {wires_out} wires (d={d}), "
          f"{'unitary' if unitary else 'not unitary'}")
    print("output vector:")
    for line in _format_vector(out, d, wires_out):
        print(line)
    if distribution is not None:
        print(f"distribution (norm_in={distribution.norm_in!r}):")
        for label, prob in distribution.entries:
            print(f"  {label}  {prob!r}")
    return EXIT_OK


def _cmd_matrix(args) -> int:
    circuit = _load_circuit(args.file)
    linmap = evaluate(circuit)
    if args.json:
        linmap.write_json(sys.stdout)
        return EXIT_OK
    rows, cols = linmap.matrix.shape
    print(f"map: {linmap.wires_in} -> {linmap.wires_out} wires (d={linmap.base_dim}), "
          f"matrix {rows}x{cols}")
    for row in linmap.matrix:
        print("  " + "  ".join(_format_complex(complex(z)) for z in row))
    return EXIT_OK


def _matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError(f"{where}: matrix must be an object with 're' (and optional 'im') rows")
    _only_keys(obj, ("re", "im"), f"{where}: matrix")
    for rows in (obj["re"], obj.get("im")):
        if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
            if len({len(row) for row in rows}) > 1:
                raise ValueError(f"{where}: matrix rows must have equal lengths")
            # numpy would read "1" or true as 1.0; the schema's numbers are neither
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for row in rows for v in row):
                raise ValueError(f"{where}: matrix entries must be numbers")
    try:
        re_part = np.array(obj["re"], dtype=float)
        im_part = np.array(obj.get("im", np.zeros_like(re_part)), dtype=float)
    except (TypeError, ValueError):  # an object, null, string or list among the entries
        raise ValueError(f"{where}: matrix entries must be numbers") from None
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{where}: matrix entries must fit in a float") from None
    if re_part.shape != im_part.shape or re_part.ndim != 2:
        raise ValueError(f"{where}: 're' and 'im' must be equal-shaped 2-d arrays")
    return re_part + 1j * im_part


def _wire(value, where: str) -> int:
    value = _json_int(value)
    # bool is an int subclass, but true/false are not wire indices
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: wire must be an integer, got {_echo(value)}")
    return value


def _load_gates(path: str) -> list[Cnot | U1]:
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: gate list must be a JSON array")
    gates: list[Cnot | U1] = []
    for i, item in enumerate(doc):
        where = f"{path}: gate {i}"
        if not isinstance(item, dict) or len(item) != 1:
            raise ValueError(f"{where}: expected an object with exactly one of 'cnot' or 'u1'")
        if "cnot" in item:
            pair = item["cnot"]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"{where}: 'cnot' must be [control, target]")
            gates.append(Cnot(_wire(pair[0], where), _wire(pair[1], where)))
        elif "u1" in item:
            spec = item["u1"]
            if not isinstance(spec, dict) or "wire" not in spec or "matrix" not in spec:
                raise ValueError(f"{where}: 'u1' needs 'wire' and 'matrix'")
            _only_keys(spec, ("wire", "name", "matrix"), f"{where}: u1")
            name = spec.get("name", "u")
            if not isinstance(name, str):
                raise ValueError(f"{where}: 'name' must be a string, got {_echo(name)}")
            gates.append(
                U1(
                    wire=_wire(spec["wire"], where),
                    matrix=_matrix_from_json(spec["matrix"], where),
                    name=name,
                )
            )
        else:
            raise ValueError(f"{where}: unknown gate kind {_echo(list(item))}")
    return gates


def _cmd_compile(args) -> int:
    if args.wires < 0:
        raise ValueError(f"--wires must be nonnegative, got {args.wires}")
    algebra = resolve_algebra("Z2")
    gates = _load_gates(args.gates)
    circuit = compile_gate_circuit(algebra, args.wires, gates)
    text = print_circuit(circuit_to_document(circuit, "Z2"))
    compiled = evaluate(circuit)
    direct = direct_gate_map(algebra, args.wires, gates)
    deviation = float(np.max(np.abs(compiled.matrix - direct.matrix)))
    if args.json:
        payload = {
            "wires": args.wires,
            "gates": len(gates),
            "circuit": text,
            "max_deviation": deviation,
        }
        print(_dump_json(payload))
    else:
        print(text, end="")
        print(f"max deviation: {deviation!r}")
    return EXIT_OK if deviation <= COMPILE_TOL else EXIT_NUMERIC


def _cmd_sample(args) -> int:
    if not 1 <= args.shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 1 and {MAX_SHOTS}, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    circuit, column = _load_input(args)
    distribution = measure(run(circuit, column)[:, 0], circuit.algebra.dim)
    probs = distribution.probabilities
    rng = np.random.default_rng(args.seed)
    draws = rng.choice(len(probs), size=args.shots, p=probs / probs.sum())
    tally = np.bincount(draws, minlength=len(probs))
    (drawn,) = tally.nonzero()  # only the outcomes drawn need their labels
    entries = distribution.entries
    counts = dict(sorted(zip([entries[i][0] for i in drawn.tolist()], tally[drawn].tolist())))
    if args.json:
        print(_dump_json({"input": args.input, "shots": args.shots, "seed": args.seed, "counts": counts}))
    else:
        print(f"input {args.input} shots {args.shots} seed {args.seed}")
        for lbl, n in counts.items():
            print(f"  {lbl} {n}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    circuit = _load_circuit(args.file)
    d = circuit.algebra.dim
    linmap = evaluate(circuit)
    n_inputs = d**linmap.wires_in
    reference = evaluate_bruteforce_map(circuit)
    deviation = float(np.max(np.abs(reference.matrix - linmap.matrix)))
    passed = deviation <= ORACLE_TOL
    if args.json:
        print(_dump_json({"inputs": n_inputs, "max_deviation": deviation, "passed": passed}))
    else:
        print(f"inputs checked: {n_inputs}")
        print(f"max deviation: {deviation!r}")
        print(f"oracle check: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERIC


# --- driver -------------------------------------------------------------------

def cli_run(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit status instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        # amplitudes that overflow reach a check that refuses them with one
        # error line; numpy's warnings on the way there would add more lines
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AnnihilatedStateError as exc:
        print(f"error: annihilated: {exc}", file=sys.stderr)
        return EXIT_ANNIHILATED
    except OSError as exc:  # a missing or unreadable input path, e.g. a directory
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: validate: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
