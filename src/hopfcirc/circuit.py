"""Layered circuits of algebra structure maps, their references, and
reading out results.

A circuit is a list of layers applied bottom-up (first layer touches the
inputs).  Each layer is a left-to-right list of primitives whose input
arities must add up to the wire count entering the layer; the wire count
leaving is the sum of output arities.  Because Mul, Comul, Unit and Counit
change the wire count, circuits need not be square maps: evaluation yields
a LinearMap from d^wires_in to d^wires_out and the output can be fed to a
Born-rule measurement even when the map is not unitary.

This module holds the primitives, Circuit, validate and the size limits,
the two references the engine (engine.py) is checked against, the
compilation of gate lists, measure and the basis bookkeeping.  It never
imports the engine, so neither reference can share a code path with it.

evaluate_bruteforce_map propagates a batch of basis inputs through an
explicit sum over all intermediate basis assignments, reading
structure-tensor entries directly: each assignment carries one amplitude
per input, and each branch weight scales that vector elementwise, so no
reshape, matrix multiplication or Kronecker product is involved; a run of
adjacent Ids in a layer copies its digits, with no table and no weight,
and a layer of only Ids and Swaps re-keys the assignments by a fixed
digit order and keeps their vectors.  evaluate_bruteforce is the same
sum on a batch of one input.

direct_gate_map is the reference for gate lists: the plain product of the
gates, each one-wire gate multiplied into the rows along its own wire and
each controlled-NOT applied as a row permutation.
"""

from __future__ import annotations

import functools
import math
import operator
import reprlib
from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .tensor import LinearMap

if TYPE_CHECKING:
    from .algebra import HopfAlgebra

__all__ = [
    "Primitive",
    "ID",
    "MUL",
    "COMUL",
    "UNIT",
    "COUNIT",
    "ANTIPODE",
    "SWAP",
    "unitary",
    "PRIMITIVES",
    "Circuit",
    "CircuitError",
    "AnnihilatedStateError",
    "OutcomeDistribution",
    "Cnot",
    "U1",
    "validate",
    "evaluate_bruteforce",
    "evaluate_bruteforce_map",
    "build_cnot",
    "compile_gate_circuit",
    "direct_gate_map",
    "measure",
    "is_unitary",
    "basis_state",
    "index_to_digits",
    "digits_to_index",
]


class PrimitiveSpec(NamedTuple):
    """One row of the primitive table."""

    wires_in: int
    wires_out: int
    token: str | None  # DSL token; a unitary is written U(name) instead


#: the primitive set, listed once: kind -> spec
PRIMITIVES = {
    "Id": PrimitiveSpec(1, 1, "ID"),
    "Mul": PrimitiveSpec(2, 1, "M"),
    "Comul": PrimitiveSpec(1, 2, "DELTA"),
    "Unit": PrimitiveSpec(0, 1, "UNIT"),
    "Counit": PrimitiveSpec(1, 0, "COUNIT"),
    "Antipode": PrimitiveSpec(1, 1, "S"),
    "Swap": PrimitiveSpec(2, 2, "SWAP"),
    "Unitary": PrimitiveSpec(1, 1, None),
}

#: states wider than this many entries are refused outright
MAX_STATE_ENTRIES = 2**20

#: full maps (and the identity batch that builds them) larger than this many
#: entries are refused before allocation: one 256 MiB complex array
MAX_MAP_ENTRIES = 2**24


class CircuitError(ValueError):
    """Circuit fails wire arithmetic or uses primitives inconsistently."""


class AnnihilatedStateError(ValueError):
    """A non-unitary circuit sent this input to the zero vector."""


UNITARY_TOL = 1e-10

#: longest echo of an input value in an error message, the "…" included
_ECHO_CHARS = 60

# reprlib bounds the work as well as the text: at most a few items per
# level and two levels deep, so a huge or deeply nested value is not
# rendered in full first
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 2
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = 4
_ECHO.maxstring = _ECHO.maxother = _ECHO.maxlong = _ECHO_CHARS


def _echo(value) -> str:
    """repr(value) for an error message, cut to _ECHO_CHARS characters with
    a trailing "…"; short values come out as repr gives them."""
    text = _ECHO.repr(value)
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 1] + "…"


def _gram_deviation(m: np.ndarray):
    """Largest entry of |m^H m - I|, as a float; for a (k, rows, cols)
    stack, the array of the k matrices' values, each equal bit for bit to
    the value of its matrix alone.  Huge entries overflow the Gram matrix
    to inf or nan; that gives an inf or nan deviation, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if m.ndim == 2:
            gram = m.conj().T @ m
            gram.flat[:: m.shape[1] + 1] -= 1  # gram - I, without an identity matrix
            return float(np.max(np.abs(gram)))
        gram = np.matmul(m.conj().transpose(0, 2, 1), m)
        n = m.shape[2]
        gram.reshape(-1, n * n)[:, :: n + 1] -= 1
        return np.abs(gram).max(axis=(1, 2))


@dataclass(frozen=True, eq=False)
class Primitive:
    kind: str
    name: str | None = None
    matrix: np.ndarray | None = None
    # the matrix's _gram_deviation when the caller computed it already, for
    # a batch of matrices at once; computed here otherwise
    gram: InitVar[float | None] = None
    # read off the primitive table once: the engine and validate read them
    # for every primitive of every layer
    wires_in: int = field(init=False)
    wires_out: int = field(init=False)
    # largest entry of matrix^H matrix - I, kept for circuit_is_unitary;
    # 0.0 for the structure maps, whose matrices belong to the algebra
    deviation: float = field(init=False, default=0.0)

    def __post_init__(self, gram):
        if self.kind not in PRIMITIVES:
            raise CircuitError(f"unknown primitive kind {self.kind!r}")
        object.__setattr__(self, "wires_in", PRIMITIVES[self.kind].wires_in)
        object.__setattr__(self, "wires_out", PRIMITIVES[self.kind].wires_out)
        if (self.kind == "Unitary") != (self.matrix is not None):
            raise CircuitError("exactly the Unitary primitive carries a matrix")
        if self.matrix is None:
            return
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise CircuitError(f"unitary {_echo(self.name)} must be square, got shape {arr.shape}")
        dev = _gram_deviation(arr) if gram is None else gram
        if not dev <= UNITARY_TOL:  # a nan deviation must not pass
            raise CircuitError(f"matrix for {_echo(self.name)} is not unitary (deviation {dev:.2e})")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "deviation", dev)

    def __repr__(self) -> str:
        if self.kind == "Unitary":
            return f"Primitive(Unitary {self.name!r})"
        return f"Primitive({self.kind})"


ID = Primitive("Id")
MUL = Primitive("Mul")
COMUL = Primitive("Comul")
UNIT = Primitive("Unit")
COUNIT = Primitive("Counit")
ANTIPODE = Primitive("Antipode")
SWAP = Primitive("Swap")


def unitary(name: str, matrix, gram: float | None = None) -> Primitive:
    """One-wire unitary gate on the algebra's basis; non-unitary matrices
    are rejected at construction.  gram is the matrix's _gram_deviation
    when the caller computed it for a stack of matrices at once."""
    return Primitive("Unitary", name=name, matrix=np.asarray(matrix, dtype=complex), gram=gram)


def _unitaries(names: Sequence[str], matrices: Sequence[np.ndarray]) -> list[Primitive]:
    """unitary(name, matrix) for each pair in order, the first that is not
    unitary refused, with one Gram computation for the stack of matrices,
    which must all have one shape."""
    if len(matrices) < 2:  # a stack of one costs more than the matrix alone
        return [unitary(*args) for args in zip(names, matrices)]
    stack = np.array(matrices, dtype=complex)
    return [unitary(*args) for args in zip(names, stack, _gram_deviation(stack).tolist())]


@dataclass(frozen=True, eq=False)
class Circuit:
    algebra: HopfAlgebra
    wires_in: int
    layers: tuple[tuple[Primitive, ...], ...] = field(default=())
    # the engine's plan (engine._Plan), built on first use; the circuit is
    # immutable, so the plan never goes stale
    _cached_plan: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # tuple() of a tuple is that tuple, so tuple layers keep their objects
        object.__setattr__(self, "layers", tuple(map(tuple, self.layers)))
        if self.wires_in < 0:
            raise CircuitError("wires_in must be nonnegative")


@functools.cache
def _max_wires(base_dim: int) -> int:
    """Largest wire count whose state fits in MAX_STATE_ENTRIES entries.

    A one-dimensional algebra would admit any width; it gets the width of
    the two-dimensional one, so the state tensor's axis count stays small.
    """
    w = 0
    while max(base_dim, 2) ** (w + 1) <= MAX_STATE_ENTRIES:
        w += 1
    return w


def _check_widths(widths: Sequence[int], d: int) -> None:
    """Refuse the first wire count above the width limit."""
    limit = _max_wires(d)
    if max(widths, default=0) <= limit:
        return
    for w in widths:
        if w > limit:
            raise CircuitError(
                f"circuit too wide: {w} wires at dimension {d} exceeds "
                f"{MAX_STATE_ENTRIES} state entries (at most {limit} wires)"
            )


def _check_unitary_shape(name: str | None, shape: Sequence[int], d: int, where: str = "") -> None:
    """Refuse a unitary whose matrix is not d x d; where prefixes the message.
    Callers that build a Primitive check this first, so no Gram matrix of a
    wrong size is formed."""
    if tuple(shape) != (d, d):
        raise CircuitError(
            f"{where}unitary {_echo(name)} is {'x'.join(map(str, shape))} "
            f"but the algebra dimension is {d}"
        )


def validate(circuit: Circuit) -> list[int]:
    """Thread wire counts through the layers; the profile has one entry per
    layer boundary, starting at wires_in.  Each distinct layer is checked
    once; a repeat is checked again only when it meets another wire count
    than its first, and so fails as a first sight would."""
    d = circuit.algebra.dim
    profile = [circuit.wires_in]
    wires = circuit.wires_in
    counted: dict[tuple[Primitive, ...], tuple[int, int]] = {}  # checked layer -> (wires in, wires out)
    for i, layer in enumerate(circuit.layers):
        counts = counted.get(layer)
        if counts is None or counts[0] != wires:
            if not layer:
                raise CircuitError(f"layer {i} is empty")
            consumed = produced = 0
            for p in layer:
                consumed += p.wires_in
                produced += p.wires_out
            if consumed != wires:
                raise CircuitError(f"layer {i} consumes {consumed} wires, {wires} available")
            for p in layer:
                if p.kind == "Unitary":
                    _check_unitary_shape(p.name, p.matrix.shape, d, f"layer {i}: ")
            counts = counted[layer] = (consumed, produced)
        wires = counts[1]
        profile.append(wires)
    _check_widths(profile, d)
    return profile


def _check_map_entries(d: int, wires_in: int, widest: int) -> None:
    """Refuse a map from wires_in wires whose widest boundary has widest
    wires before anything of that size is allocated.  Both wire counts must
    already be within the width limit, so the powers stay small."""
    if d**wires_in * d**widest > MAX_MAP_ENTRIES:
        raise CircuitError(
            f"map too large: {wires_in} input wires and up to {widest} wires "
            f"at dimension {d} exceed {MAX_MAP_ENTRIES} map entries"
        )


# --- brute-force evaluator -------------------------------------------------

def _transitions(algebra: HopfAlgebra, prim: Primitive):
    """List of (input digits, output digits, coefficient) read entry by entry
    from the structure tensors, zeros skipped, in the tensor's index order.
    Not for Id, whose digits the brute force copies."""
    d = algebra.dim
    if prim.kind == "Swap":
        return [((a, b), (b, a), 1.0 + 0j) for a in range(d) for b in range(d)]
    # the first wires_in axes of a structure tensor (mul, comul, unit,
    # counit, antipode: the kind in lower case) are inputs, the rest outputs;
    # a Unitary's matrix is (out, in), so its transpose is read
    arr = prim.matrix.T if prim.kind == "Unitary" else getattr(algebra, prim.kind.lower())
    n = prim.wires_in
    return [(tuple(idx[:n]), tuple(idx[n:]), complex(arr[tuple(idx)])) for idx in np.argwhere(arr).tolist()]


def _bruteforce_columns(circuit: Circuit, wires_out: int, inputs: Sequence[int]) -> np.ndarray:
    """Output columns of the basis inputs listed, as a (d^wires_out,
    len(inputs)) array, by explicit summation over all intermediate basis
    assignments.  The circuit must be validated.

    Every assignment holds a vector of amplitudes, one per input.  A layer's
    transition tables are built once, each (assignment, primitive) branch is
    walked once for the whole batch, and the product of a path's branch
    coefficients scales the assignment's vector elementwise.  A run of
    adjacent Ids copies its digits into every branch, with no table and no
    coefficient.  A layer of only Ids and Swaps sends each assignment to
    exactly one assignment with weight 1, so it re-keys the assignments by
    a fixed digit order and keeps their vectors: no table, no product and
    no sum.
    """
    d = circuit.algebra.dim
    one_hot = np.eye(len(inputs), dtype=complex)
    amplitudes = {
        tuple(index_to_digits(index, d, circuit.wires_in)): one_hot[j]
        for j, index in enumerate(inputs)
    }
    for layer in circuit.layers:
        kinds = {prim.kind for prim in layer}
        if kinds <= {"Id", "Swap"}:
            if "Swap" in kinds:
                order: list[int] = []  # output digit i is input digit order[i]
                for prim in layer:
                    pos = len(order)
                    order += [pos] if prim.kind == "Id" else [pos + 1, pos]
                pick = operator.itemgetter(*order)  # a Swap makes two or more, so pick gives tuples
                amplitudes = {pick(assignment): amp for assignment, amp in amplitudes.items()}
            continue
        tables = []  # (wires consumed, branches by input digits, or None for an Id run)
        for prim in layer:
            if prim.kind == "Id":
                if tables and tables[-1][1] is None:
                    tables[-1] = (tables[-1][0] + 1, None)
                else:
                    tables.append((1, None))
                continue
            by_input = defaultdict(list)
            for digits_in, digits_out, coeff in _transitions(circuit.algebra, prim):
                by_input[digits_in].append((digits_out, coeff))
            tables.append((prim.wires_in, by_input))

        next_amplitudes: dict[tuple[int, ...], np.ndarray] = {}
        for assignment, amp in amplitudes.items():
            partial = [((), 1.0 + 0j)]
            pos = 0
            for n_cons, by_input in tables:
                digits_in = assignment[pos : pos + n_cons]
                pos += n_cons
                if by_input is None:
                    partial = [(prefix + digits_in, weight) for prefix, weight in partial]
                    continue
                branches = by_input.get(digits_in, ())
                partial = [
                    (prefix + digits_out, weight * coeff)
                    for prefix, weight in partial
                    for digits_out, coeff in branches
                ]
                if not partial:
                    break
            for digits, weight in partial:
                value = amp * weight  # a new array, so it may be added to in place
                total = next_amplitudes.get(digits)
                if total is None:
                    next_amplitudes[digits] = value
                else:
                    total += value
        amplitudes = next_amplitudes

    columns = np.zeros((d**wires_out, len(inputs)), dtype=complex)
    for digits, amp in amplitudes.items():
        columns[digits_to_index(digits, d)] += amp
    return columns


def evaluate_bruteforce(circuit: Circuit, input_basis_index: int) -> np.ndarray:
    """Propagate one basis input by explicit summation over all intermediate
    basis assignments; returns the output column as a complex vector.

    The summation propagates a batch of basis inputs at once, one
    amplitude per input on every assignment (evaluate_bruteforce_map runs
    it on every input); here the batch holds this one input.  Independent
    of evaluate: branch weights scale the amplitude vectors elementwise,
    and no Kronecker products, reshapes or matrix multiplications are
    involved.
    """
    profile = validate(circuit)
    d = circuit.algebra.dim
    n_in = circuit.wires_in
    if not 0 <= input_basis_index < d**n_in:
        raise ValueError(
            f"input index {input_basis_index} out of range for {n_in} wires at dimension {d}"
        )
    return _bruteforce_columns(circuit, profile[-1], [input_basis_index])[:, 0]


def evaluate_bruteforce_map(circuit: Circuit) -> LinearMap:
    """The circuit's full linear map by one brute-force pass over every
    basis input at once; the reference evaluate is checked against.

    The map-entry limit is checked before the batch is allocated, as in
    evaluate.
    """
    profile = validate(circuit)
    d = circuit.algebra.dim
    _check_map_entries(d, circuit.wires_in, max(profile))
    columns = _bruteforce_columns(circuit, profile[-1], range(d**circuit.wires_in))
    return LinearMap(d, circuit.wires_in, profile[-1], columns)


# --- controlled-NOT and gate-list compilation ------------------------------

def build_cnot(algebra: HopfAlgebra) -> Circuit:
    """Copy the control, then multiply the copy into the target.

    For the two-element algebra this is the controlled-NOT; for a general
    group algebra it is the controlled shift sending (g, h) to (g, g*h).
    """
    return Circuit(algebra, wires_in=2, layers=((COMUL, ID), (ID, MUL)))


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int


@dataclass(frozen=True, eq=False)
class U1:
    wire: int
    matrix: np.ndarray
    name: str = "u"


def _padded(n: int, at: int, prims: Sequence[Primitive], span: int) -> tuple[Primitive, ...]:
    """Layer acting as `prims` on wires at..at+span-1 and Id elsewhere."""
    return tuple([ID] * at + list(prims) + [ID] * (n - at - span))


def _swap_layer(n: int, p: int) -> tuple[Primitive, ...]:
    return _padded(n, p, [SWAP], 2)


def compile_gate_circuit(
    algebra: HopfAlgebra, wires: int, gates: Sequence[Cnot | U1]
) -> Circuit:
    """Translate a gate list into a circuit over the primitive set.

    One-wire gates become a single layer; a controlled-NOT on adjacent
    wires (control immediately left of target) becomes the two-layer
    copy/multiply block; any other control/target pair is bracketed by
    ladders of adjacent swaps that move the control next to the target and
    unwind afterwards.  A width above the state limit is refused before
    any layer is built, and a unitary of the wrong size before its
    unitarity is checked.
    """
    _check_widths([wires], algebra.dim)
    n = wires
    layers: list[tuple[Primitive, ...]] = []
    for gi, gate in enumerate(gates):
        if isinstance(gate, U1):
            if not 0 <= gate.wire < n:
                raise CircuitError(f"gate {gi}: wire {gate.wire} out of range for {n} wires")
            _check_unitary_shape(gate.name, np.shape(gate.matrix), algebra.dim, f"gate {gi}: ")
            layers.append(_padded(n, gate.wire, [unitary(gate.name, gate.matrix)], 1))
            continue
        if not isinstance(gate, Cnot):
            raise CircuitError(f"gate {gi}: expected Cnot or U1, got {type(gate).__name__}")
        c, t = gate.control, gate.target
        if not (0 <= c < n and 0 <= t < n):
            raise CircuitError(f"gate {gi}: wires ({c},{t}) out of range for {n} wires")
        if c == t:
            raise CircuitError(f"gate {gi}: control and target must differ")
        if c < t:
            pre = [(i, i + 1) for i in range(c, t - 1)]  # walk control right to t-1
            block_at = t - 1
        else:
            pre = [(i - 1, i) for i in range(c, t + 1, -1)]  # walk control left to t+1
            pre.append((t, t + 1))  # cross over the target
            block_at = t
        for p, _ in pre:
            layers.append(_swap_layer(n, p))
        layers.append(_padded(n, block_at, [COMUL], 1))
        layers.append(_padded(n + 1, block_at, [ID, MUL], 3))
        for p, _ in reversed(pre):
            layers.append(_swap_layer(n, p))
    return Circuit(algebra, wires_in=n, layers=tuple(layers))


def direct_gate_map(algebra: HopfAlgebra, wires: int, gates: Sequence[Cnot | U1]) -> LinearMap:
    """Plain product of the gate list, for checking compiled circuits.

    A one-wire gate multiplies its d x d matrix into the total's rows along
    its own wire, O(d^(2n+1)) work on n wires, with no Kronecker product.
    Controlled-NOT acts as a basis permutation read off the group table:
    the target digit of every basis index is replaced by the product of the
    control and target digits, and the rows of the total move accordingly.
    No comultiplication is involved, and none of the engine's plan or
    state code, so this shares nothing with the compiled evaluation path.
    """
    d = algebra.dim
    if wires > _max_wires(d):
        raise CircuitError(f"{wires} wires at dimension {d} exceeds the width limit")
    _check_map_entries(d, wires, wires)
    dim = d**wires
    total = np.eye(dim, dtype=complex)
    product = np.argmax(algebra.mul, axis=2)  # product[a, b] = a * b
    index = np.arange(dim)
    digits = np.indices((d,) * wires).reshape(wires, dim)  # digits[k, i]: digit k of index i
    for gi, gate in enumerate(gates):
        if isinstance(gate, U1):
            if not 0 <= gate.wire < wires:
                raise CircuitError(f"gate {gi}: wire {gate.wire} out of range for {wires} wires")
            # the gate's wire is the middle axis of (wires before, d, the rest)
            u = np.asarray(gate.matrix, dtype=complex)
            total = np.matmul(u, total.reshape(d**gate.wire, d, -1)).reshape(dim, dim)
        else:
            c, t = gate.control, gate.target
            if not (0 <= c < wires and 0 <= t < wires) or c == t:
                raise CircuitError(f"gate {gi}: bad wire pair ({c},{t}) for {wires} wires")
            # row i of the total moves to row rows[i]; the group table makes
            # rows a permutation
            rows = index + (product[digits[c], digits[t]] - digits[t]) * d ** (wires - 1 - t)
            moved = np.zeros_like(total)
            moved[rows] = total
            total = moved
    return LinearMap(d, wires, wires, total)


# --- applying maps and reading out results ---------------------------------

@dataclass(frozen=True)
class OutcomeDistribution:
    """Born-rule probabilities over basis output strings.

    norm_in is the squared norm of the vector before renormalization; for a
    unitary map on a normalized input it is 1, and how far it strays from 1
    measures how non-unitary the circuit acted on this input.
    """

    entries: tuple[tuple[str, float], ...]
    norm_in: float

    def __post_init__(self):
        # a plain running sum of 2^20 probabilities drifts by about 1e-11
        total = math.fsum(p for _, p in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(not 0.0 <= p <= 1.0 for _, p in self.entries):
            raise ValueError("probabilities must lie in [0, 1]")

    def as_dict(self) -> dict:
        return {"norm_in": self.norm_in, "outcomes": {lbl: p for lbl, p in self.entries}}


ANNIHILATION_THRESHOLD = 1e-14


def measure(state: Sequence[complex], base_dim: int) -> OutcomeDistribution:
    """Born rule on the full output vector, renormalized.

    Raises AnnihilatedStateError when every amplitude magnitude is at most
    1e-14: the circuit destroyed this input, and inventing a distribution
    would be worse than failing.  Raises ValueError when the squared norm
    overflows, as no distribution can be read off such amplitudes.
    """
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if base_dim < 1 or (base_dim == 1 and vec.shape[0] != 1):
        raise ValueError(f"state length {vec.shape[0]} is not a power of {base_dim}")
    wires = 0
    while base_dim > 1 and base_dim**wires < vec.shape[0]:
        wires += 1
    if base_dim**wires != vec.shape[0]:
        raise ValueError(f"state length {vec.shape[0]} is not a power of {base_dim}")
    if float(np.max(np.abs(vec))) <= ANNIHILATION_THRESHOLD:
        raise AnnihilatedStateError(
            "all output amplitudes are at most 1e-14; the circuit annihilated this input"
        )
    weights = np.abs(vec) ** 2
    norm_in = float(weights.sum())
    if not math.isfinite(norm_in):
        raise ValueError(f"output amplitudes overflow: their squared norm is {norm_in}")
    nz = np.flatnonzero(weights > 0.0)
    entries = tuple(zip(_basis_labels(nz, base_dim, wires), (weights[nz] / norm_in).tolist()))
    return OutcomeDistribution(entries=entries, norm_in=norm_in)


def is_unitary(linmap: LinearMap, tol: float = 1e-10) -> bool:
    """True iff the map is square and its Gram matrix is the identity."""
    if linmap.wires_in != linmap.wires_out:
        return False
    return _gram_deviation(linmap.matrix) <= tol


# --- basis bookkeeping ------------------------------------------------------

def index_to_digits(index: int, base_dim: int, wires: int) -> list[int]:
    """Wire 0 is the most significant digit."""
    digits = []
    for k in range(wires - 1, -1, -1):
        digits.append((index // base_dim**k) % base_dim)
    return digits


def digits_to_index(digits: Sequence[int], base_dim: int) -> int:
    index = 0
    for dgt in digits:
        index = index * base_dim + dgt
    return index


def _basis_labels(indices: np.ndarray, base_dim: int, wires: int) -> list[str]:
    """basis_label(index_to_digits(i, base_dim, wires), base_dim) for each
    i of an integer array, one digit position at a time over all indices."""
    if wires == 0:
        return [""] * len(indices)
    digits = np.empty((len(indices), wires), dtype=np.uint8 if base_dim <= 10 else np.int64)
    rest = np.asarray(indices, dtype=np.int64)
    for k in range(wires - 1, -1, -1):
        rest, digits[:, k] = np.divmod(rest, base_dim)
    if base_dim <= 10:  # one ASCII digit per wire: each row holds a label's bytes
        digits += ord("0")
        text = digits.tobytes().decode("ascii")
        return [text[i : i + wires] for i in range(0, len(text), wires)]
    names = [str(dgt) for dgt in range(base_dim)]
    return [",".join([names[dgt] for dgt in row]) for row in digits.tolist()]


def basis_state(base_dim: int, digits: Sequence[int]) -> np.ndarray:
    vec = np.zeros(base_dim ** len(digits), dtype=complex)
    vec[digits_to_index(digits, base_dim)] = 1.0
    return vec
