"""Layered circuits of algebra structure maps, evaluation, and compilation.

A circuit is a list of layers applied bottom-up (first layer touches the
inputs).  Each layer is a left-to-right list of primitives whose input
arities must add up to the wire count entering the layer; the wire count
leaving is the sum of output arities.  Because Mul, Comul, Unit and Counit
change the wire count, circuits need not be square maps: evaluation yields
a LinearMap from d^wires_in to d^wires_out and the output can be fed to a
Born-rule measurement even when the map is not unitary.

Two evaluators are provided.  run pushes a batch of input columns through
the layers as a state tensor with one axis of extent d per wire: each
primitive acts on its own wires only, Id and Swap merely relabel axes, and
no layer matrix is ever formed.  evaluate is run on the identity batch.
evaluate_bruteforce_map propagates a batch of basis inputs through an
explicit sum over all intermediate basis assignments, reading
structure-tensor entries directly: each assignment carries one amplitude
per input, and each branch weight scales that vector elementwise, so no
reshape, matrix multiplication or Kronecker product is involved.
evaluate_bruteforce is the same sum on a batch of one input.  The engine
and the brute force share no code path and are tested against each other.

The engine runs a plan, compiled once per circuit on first use and kept on
the (immutable) circuit, so run, evaluate and circuit_is_unitary share one
validation and one walk over the layers.  The plan has one step per
primitive that does arithmetic: Ids give no step, and each run of Swaps
folds into one axis permutation applied before the next step (or at the
end).

circuit_is_unitary answers is_unitary(evaluate(circuit)) without the map
where the layers prove it: a map between different wire counts is not
unitary, and a square circuit of Id/Swap/Unitary/Antipode layers and
copy-then-multiply pairs (the paper's controlled shift) is certified from
the Gram deviations its primitives and algebra blocks carry.  Any other
circuit falls back to the full map.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
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
    "run",
    "evaluate",
    "evaluate_bruteforce",
    "evaluate_bruteforce_map",
    "build_cnot",
    "compile_gate_circuit",
    "direct_gate_map",
    "apply",
    "measure",
    "is_unitary",
    "circuit_is_unitary",
    "basis_state",
    "basis_label",
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


def _gram_deviation(m: np.ndarray) -> float:
    """Largest entry of |m^H m - I|.  Huge entries overflow the Gram matrix
    to inf or nan; that gives an inf or nan deviation, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.conj().T @ m
        gram.flat[:: m.shape[1] + 1] -= 1  # gram - I, without an identity matrix
        return float(np.max(np.abs(gram)))


@dataclass(frozen=True, eq=False)
class Primitive:
    kind: str
    name: str | None = None
    matrix: np.ndarray | None = None
    # read off the primitive table once: the engine and validate read them
    # for every primitive of every layer
    wires_in: int = field(init=False)
    wires_out: int = field(init=False)
    # largest entry of matrix^H matrix - I, kept for circuit_is_unitary;
    # 0.0 for the structure maps, whose matrices belong to the algebra
    deviation: float = field(init=False, default=0.0)

    def __post_init__(self):
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
            raise CircuitError(f"unitary {self.name!r} must be square, got shape {arr.shape}")
        dev = _gram_deviation(arr)
        if not dev <= UNITARY_TOL:  # a nan deviation must not pass
            raise CircuitError(f"matrix for {self.name!r} is not unitary (deviation {dev:.2e})")
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


def unitary(name: str, matrix) -> Primitive:
    """One-wire unitary gate on the algebra's basis; non-unitary matrices
    are rejected at construction."""
    return Primitive("Unitary", name=name, matrix=np.asarray(matrix, dtype=complex))


@dataclass(frozen=True, eq=False)
class Circuit:
    algebra: HopfAlgebra
    wires_in: int
    layers: tuple[tuple[Primitive, ...], ...] = field(default=())
    # the engine plan, built by _plan on first use; the circuit is immutable,
    # so the plan never goes stale
    _cached_plan: _Plan | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        if self.wires_in < 0:
            raise CircuitError("wires_in must be nonnegative")


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
            f"{where}unitary {name!r} is {'x'.join(map(str, shape))} "
            f"but the algebra dimension is {d}"
        )


def validate(circuit: Circuit) -> list[int]:
    """Thread wire counts through the layers; the profile has one entry per
    layer boundary, starting at wires_in."""
    d = circuit.algebra.dim
    profile = [circuit.wires_in]
    wires = circuit.wires_in
    for i, layer in enumerate(circuit.layers):
        if not layer:
            raise CircuitError(f"layer {i} is empty")
        consumed = sum([p.wires_in for p in layer])
        if consumed != wires:
            raise CircuitError(f"layer {i} consumes {consumed} wires, {wires} available")
        for p in layer:
            if p.kind == "Unitary":
                _check_unitary_shape(p.name, p.matrix.shape, d, f"layer {i}: ")
        wires = sum([p.wires_out for p in layer])
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


class _Step(NamedTuple):
    """One primitive of the plan that does arithmetic: matrix acts on wires
    pos..pos+wires_in-1 of the state after perm (None: no reordering)."""

    perm: tuple[int, ...] | None  # perm[i] is the state axis holding wire i
    pos: int
    wires_in: int
    wires_out: int
    matrix: np.ndarray


class _Plan(NamedTuple):
    """A validated circuit compiled for the engine."""

    dim: int
    profile: tuple[int, ...]
    steps: tuple[_Step, ...]
    final_perm: tuple[int, ...] | None


def _perm_or_none(axes: list[int] | None) -> tuple[int, ...] | None:
    """axes as a permutation, or None when the Swaps left every wire in place."""
    if axes is None:
        return None
    perm = tuple(axes)
    return None if perm == tuple(range(len(perm))) else perm


def _build_plan(circuit: Circuit) -> _Plan:
    """Validate once, then walk the layers once.

    Within a layer the primitives act on disjoint wires, so their order is
    free: the shrinking and width-preserving ones go first and Comul/Unit
    after them, and the state is never wider than the wider layer boundary.
    Id gives no step, and the Swaps before a step fold into its permutation.
    """
    profile = validate(circuit)
    algebra = circuit.algebra
    steps = []
    width = circuit.wires_in
    axes = None  # axes[i]: the state axis holding wire i, once a Swap moved one

    def step(pos: int, prim: Primitive) -> None:
        nonlocal axes, width
        matrix = prim.matrix if prim.kind == "Unitary" else algebra.maps[prim.kind]
        steps.append(_Step(_perm_or_none(axes), pos, prim.wires_in, prim.wires_out, matrix))
        axes = None
        width += prim.wires_out - prim.wires_in

    for layer in circuit.layers:
        pos = 0  # first wire of the next primitive, the growing ones still unapplied
        grown = 0  # the same once every primitive is applied
        growing = []
        for prim in layer:
            if prim.wires_out > prim.wires_in:
                growing.append((grown, prim))
                pos += prim.wires_in
            elif prim.kind == "Id":
                pos += 1
            elif prim.kind == "Swap":
                if axes is None:
                    axes = list(range(width))
                axes[pos], axes[pos + 1] = axes[pos + 1], axes[pos]
                pos += 2
            else:
                step(pos, prim)
                pos += prim.wires_out
            grown += prim.wires_out
        for pos, prim in growing:
            step(pos, prim)
    return _Plan(algebra.dim, tuple(profile), tuple(steps), _perm_or_none(axes))


def _plan(circuit: Circuit) -> _Plan:
    """The circuit's plan, built on first use and kept on the circuit."""
    plan = circuit._cached_plan
    if plan is None:
        plan = _build_plan(circuit)
        object.__setattr__(circuit, "_cached_plan", plan)
    return plan


def _push(plan: _Plan, columns: np.ndarray) -> np.ndarray:
    """Run a plan on a contiguous (d^wires_in, batch) array of columns.

    The state is kept as a contiguous array in wire order; a step reorders
    its axes only when Swaps came before it, then multiplies its matrix into
    the (d^pos, d^wires_in, rest) view.
    """
    d = plan.dim
    batch = columns.shape[1]
    state = columns
    for perm, pos, wires_in, _, matrix in plan.steps:
        if perm is not None:
            state = state.reshape((d,) * len(perm) + (batch,)).transpose(perm + (len(perm),))
        state = np.matmul(matrix, state.reshape(d**pos, d**wires_in, -1))
    perm = plan.final_perm
    if perm is not None:
        state = state.reshape((d,) * len(perm) + (batch,)).transpose(perm + (len(perm),))
    return state.reshape(d ** plan.profile[-1], batch)


def run(circuit: Circuit, states) -> np.ndarray:
    """Push a (d^wires_in, batch) array of input columns through the layers.

    Returns the (d^wires_out, batch) array of output columns, i.e.
    evaluate(circuit).matrix @ states, without forming any layer
    matrix or the map itself.  The result never shares memory with states.
    """
    plan = _plan(circuit)
    d = plan.dim
    columns = np.asarray(states, dtype=complex)
    if columns.ndim != 2 or columns.shape[0] != d**circuit.wires_in:
        raise ValueError(
            f"states must be a (d^wires_in, batch) = ({d**circuit.wires_in}, batch) array, "
            f"got shape {columns.shape}"
        )
    return np.array(_push(plan, np.ascontiguousarray(columns)))


def evaluate(circuit: Circuit) -> LinearMap:
    """The circuit's full linear map: run on the identity batch."""
    plan = _plan(circuit)
    d = plan.dim
    _check_map_entries(d, circuit.wires_in, max(plan.profile))
    out = _push(plan, np.eye(d**circuit.wires_in, dtype=complex))
    return LinearMap(d, circuit.wires_in, plan.profile[-1], out)


# --- brute-force evaluator -------------------------------------------------

def _transitions(algebra: HopfAlgebra, prim: Primitive):
    """List of (input digits, output digits, coefficient) read entry by entry
    from the structure tensors, zeros skipped."""
    d = algebra.dim
    out = []
    if prim.kind == "Id":
        for a in range(d):
            out.append(((a,), (a,), 1.0 + 0j))
    elif prim.kind == "Mul":
        arr = algebra.mul
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    if arr[a, b, c] != 0:
                        out.append(((a, b), (c,), complex(arr[a, b, c])))
    elif prim.kind == "Comul":
        arr = algebra.comul
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    if arr[a, b, c] != 0:
                        out.append(((a,), (b, c), complex(arr[a, b, c])))
    elif prim.kind == "Unit":
        arr = algebra.unit
        for a in range(d):
            if arr[a] != 0:
                out.append(((), (a,), complex(arr[a])))
    elif prim.kind == "Counit":
        arr = algebra.counit
        for a in range(d):
            if arr[a] != 0:
                out.append(((a,), (), complex(arr[a])))
    elif prim.kind == "Antipode":
        arr = algebra.antipode
        for a in range(d):
            for b in range(d):
                if arr[a, b] != 0:
                    out.append(((a,), (b,), complex(arr[a, b])))
    elif prim.kind == "Swap":
        for a in range(d):
            for b in range(d):
                out.append(((a, b), (b, a), 1.0 + 0j))
    else:  # Unitary: column a of the matrix lists the images of basis a
        for a in range(d):
            for b in range(d):
                v = prim.matrix[b, a]
                if v != 0:
                    out.append(((a,), (b,), complex(v)))
    return out


def _bruteforce_columns(circuit: Circuit, wires_out: int, inputs: Sequence[int]) -> np.ndarray:
    """Output columns of the basis inputs listed, as a (d^wires_out,
    len(inputs)) array, by explicit summation over all intermediate basis
    assignments.  The circuit must be validated.

    Every assignment holds a vector of amplitudes, one per input.  A layer's
    transition tables are built once, each (assignment, primitive) branch is
    walked once for the whole batch, and the product of a path's branch
    coefficients scales the assignment's vector elementwise.
    """
    d = circuit.algebra.dim
    one_hot = np.eye(len(inputs), dtype=complex)
    amplitudes = {
        tuple(index_to_digits(index, d, circuit.wires_in)): one_hot[j]
        for j, index in enumerate(inputs)
    }
    for layer in circuit.layers:
        tables = []
        for prim in layer:
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
    """Plain matrix product of the gate list, for checking compiled circuits.

    Controlled-NOT acts as a basis permutation read off the group table:
    the target digit of every basis index is replaced by the product of the
    control and target digits, and the rows of the total move accordingly.
    No comultiplication is involved, so this shares nothing with the
    compiled evaluation path.
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
            m = np.kron(
                np.kron(np.eye(d**gate.wire), np.asarray(gate.matrix, dtype=complex)),
                np.eye(d ** (wires - gate.wire - 1)),
            )
            total = m @ total
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

def apply(linmap: LinearMap, state: Sequence[complex]) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    expected = linmap.base_dim**linmap.wires_in
    if vec.shape != (expected,):
        raise ValueError(f"state has length {vec.shape[0]}, map consumes {expected}")
    return linmap.matrix @ vec


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


# --- unitarity without the full map ----------------------------------------

#: layer kinds whose layer map is a Kronecker product of one-wire maps and
#: wire permutations
_PASSIVE_KINDS = frozenset({"Id", "Swap", "Unitary", "Antipode"})

#: rounding allowance per layer, added to the certified deviation bound:
#: evaluate's rounding grows with depth, so a deep circuit needs a smaller
#: bound to be certified
_ROUNDING_PER_LAYER = 64 * np.finfo(float).eps


def _lone_kind_at(layer: tuple[Primitive, ...], kind: str) -> int | None:
    """Index of the one primitive of the given kind in a layer that is
    otherwise all Id, else None."""
    at = None
    for i, prim in enumerate(layer):
        if prim.kind == kind and at is None:
            at = i
        elif prim.kind != "Id":
            return None
    return at


def _deviation_bound(circuit: Circuit) -> float | None:
    """Upper bound on the spectral norm of M^H M - I for the circuit's map
    M, read off its layers, or None when some layer fits no pattern.

    A layer of Id, Swap, Unitary and Antipode is a Kronecker product of
    k x k maps up to a wire permutation, and a Comul at wire p followed by
    Ids and a Mul on wires p+1, p+2 is build_cnot's map on wires p, p+1.
    A block whose Gram matrix is off by dev in its largest entry is off by
    at most k * dev in spectral norm, and such bounds e_i combine over
    Kronecker products and compositions as prod(1 + e_i) - 1.  The
    deviations of the antipode and of build_cnot's map are computed only
    when a layer needs them.
    """
    algebra = circuit.algebra
    d = algebra.dim
    antipode = cnot = None  # the algebra blocks' bounds, once needed
    log_bound = 0.0  # sum of log(1 + e_i)
    layers = circuit.layers
    i = 0
    while i < len(layers):
        layer = layers[i]
        if all(prim.kind in _PASSIVE_KINDS for prim in layer):
            for prim in layer:
                if prim.kind == "Unitary":
                    log_bound += math.log1p(d * prim.deviation)
                elif prim.kind == "Antipode":
                    if antipode is None:
                        antipode = d * _gram_deviation(algebra.maps["Antipode"])
                    log_bound += math.log1p(antipode)
            i += 1
            continue
        p = _lone_kind_at(layer, "Comul")
        if p is None or i + 1 == len(layers) or _lone_kind_at(layers[i + 1], "Mul") != p + 1:
            return None
        if cnot is None:
            cnot = d * d * _gram_deviation(evaluate(build_cnot(algebra)).matrix)
        log_bound += math.log1p(cnot)
        i += 2
    return math.expm1(log_bound)


def circuit_is_unitary(circuit: Circuit) -> bool:
    """is_unitary(evaluate(circuit)), without the map where the layer
    structure proves the answer.

    A circuit with wires_in != wires_out is not unitary.  A square circuit
    built only of Id/Swap/Unitary/Antipode layers and copy-then-multiply
    layer pairs is certified unitary when the bound of _deviation_bound,
    plus a rounding allowance per layer, stays under UNITARY_TOL / 10: the
    exact map is then that close to unitary, which leaves nine tenths of
    UNITARY_TOL for the rounding of evaluate and is_unitary.  Every other
    circuit falls back to the full map, and so to its size limit.
    """
    profile = _plan(circuit).profile
    if profile[0] != profile[-1]:
        return False
    bound = _deviation_bound(circuit)
    if bound is not None and bound + len(circuit.layers) * _ROUNDING_PER_LAYER <= UNITARY_TOL / 10:
        return True
    return is_unitary(evaluate(circuit))


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


def basis_label(digits: Sequence[int], base_dim: int) -> str:
    if base_dim <= 10:
        return "".join(str(dgt) for dgt in digits)
    return ",".join(str(dgt) for dgt in digits)


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
