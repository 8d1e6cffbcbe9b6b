"""Layered circuits of algebra structure maps, evaluation, and compilation.

A circuit is a list of layers applied bottom-up (first layer touches the
inputs).  Each layer is a left-to-right list of primitives whose input
arities must add up to the wire count entering the layer; the wire count
leaving is the sum of output arities.  Because Mul, Comul, Unit and Counit
change the wire count, circuits need not be square maps: evaluation yields
a LinearMap from d^wires_in to d^wires_out and the output can be fed to a
Born-rule measurement even when the map is not unitary.

Two evaluators are provided.  run pushes a batch of input columns through
the layers as a state with one axis of extent d per wire: each primitive
acts on its own wires only, Id and Swap merely relabel axes, and no layer
matrix is ever formed.  evaluate is run on the identity batch.
evaluate_bruteforce_map propagates a batch of basis inputs through an
explicit sum over all intermediate basis assignments, reading
structure-tensor entries directly: each assignment carries one amplitude
per input, and each branch weight scales that vector elementwise, so no
reshape, matrix multiplication or Kronecker product is involved; a run of
adjacent Ids in a layer copies its digits, with no table and no weight,
and a layer of only Ids and Swaps re-keys the assignments by a fixed
digit order and keeps their vectors.  evaluate_bruteforce is the same
sum on a batch of one input.  The engine and the brute force share no
code path and are tested against each other.

direct_gate_map is the third, independent path for gate lists: the plain
product of the gates, each one-wire gate multiplied into the rows along
its own wire and each controlled-NOT applied as a row permutation.

The engine runs a plan, compiled once per circuit on first use and kept on
the (immutable) circuit, so run, evaluate and circuit_is_unitary share one
validation and one walk over the layers.  A Unitary, and each structure
map of an algebra without digit maps, is a matrix step: its matrix is
multiplied into its wires, after one axis permutation for the Swaps before
it.  A group algebra's structure maps are functions on basis digits (see
HopfAlgebra.digit_maps), so a run of them, with the Swaps among them, can
fold into one index step on the whole state: a gather of rows when the
run is a permutation, and, for the plan's first step only, a scatter-add
otherwise (see _build_plan for which runs fold).  When the plan starts
with an index step, evaluate writes its image of the identity directly.
Ids give no step.  validate and the plan walk handle each distinct layer
once, and the walk tracks a run's digits as symbols, so only a run that
folds builds arrays.

circuit_is_unitary answers is_unitary(evaluate(circuit)) without the map
where the plan proves it: a map between different wire counts is not
unitary, and a square plan of bijective index steps (exact permutations)
and Unitary and Antipode steps is certified from the Gram deviations of
its matrices.  Any other circuit falls back to the full map.
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
    # the engine plan, built by _plan on first use; the circuit is immutable,
    # so the plan never goes stale
    _cached_plan: _Plan | None = field(default=None, init=False, repr=False)

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


class _Step(NamedTuple):
    """A primitive whose matrix the engine multiplies in: matrix acts on
    wires pos..pos+wires_in-1 of the state after perm (None: no reordering)."""

    perm: tuple[int, ...] | None  # perm[i] is the state axis holding wire i
    pos: int
    wires_in: int
    wires_out: int
    matrix: np.ndarray
    prim: Primitive


class _Run(NamedTuple):
    """A run of structure maps that have digit maps, with the Swaps among
    them, folded into one function f on the basis indices of the whole
    state, from wires_in to wires_out wires (see _build_plan).  A bijective
    run keeps the inverse of f and is the gather of state rows index; any
    other run, always the plan's first step, keeps f and adds state row j
    into output row index[j]."""

    wires_in: int
    wires_out: int
    index: np.ndarray
    bijective: bool


class _Plan(NamedTuple):
    """A validated circuit compiled for the engine."""

    dim: int
    profile: tuple[int, ...]
    steps: tuple[_Step | _Run, ...]
    final_perm: tuple[int, ...] | None


def _perm_or_none(axes: list[int] | None) -> tuple[int, ...] | None:
    """axes as a permutation, or None when the Swaps left every wire in place."""
    if axes is None:
        return None
    perm = tuple(axes)
    return None if perm == tuple(range(len(perm))) else perm


@functools.cache
def _input_digits(d: int, wires: int) -> tuple[np.ndarray, ...]:
    """Digit k of a basis index of the given width, as an integer array
    over the grid (d^h, d^(wires-h)), h = wires // 2, whose row-major order
    is the index order: the first h digits vary along the rows, the others
    along the columns.  Arithmetic that broadcasts over two axes costs a
    fraction of what it costs over one axis per wire."""
    h = wires // 2
    rows, cols = np.arange(d**h, dtype=np.int32), np.arange(d ** (wires - h), dtype=np.int32)
    digits = [(rows // d ** (h - 1 - k) % d)[:, None] for k in range(h)]
    digits += [(cols // d ** (wires - 1 - k) % d)[None, :] for k in range(h, wires)]
    for row in digits:
        row.setflags(write=False)
    return tuple(digits)


class _OpenRun:
    """A run of primitives with digit maps that the plan walk is folding.

    Its digits are symbols, with no array behind them: symbol k below
    wires_in is the digit of the run's input wire k (state axis k when the
    run opened), and a larger symbol s is one table lookup, defs[s -
    wires_in] = (table, argument symbols), one per table output of a Mul,
    Unit or Antipode.  A copy keeps its symbol.  digits[i] is the symbol
    wire i carries, and consts holds the symbols of lookups that read no
    input digit.  Only a run that folds evaluates its symbols, in
    _fold_run; prims holds its primitives as (axes before, pos, prim), for
    a run that stays matrix steps.
    """

    __slots__ = ("digits", "defs", "consts", "wires_in", "leading", "lossy", "prims")

    def __init__(self, wires_in: int, axes: list[int] | None, leading: bool):
        self.digits = list(range(wires_in)) if axes is None else axes.copy()
        self.defs: list[tuple[np.ndarray, tuple[int, ...]]] = []
        self.consts: set[int] = set()
        self.wires_in = wires_in
        self.leading = leading  # whether the run is the plan's first step
        self.lossy = False  # whether a primitive of the run lost digits
        self.prims: list[tuple[list[int] | None, int, Primitive]] = []

    def lookup(self, table: np.ndarray, args: tuple[int, ...]) -> int:
        """The symbol of table[args]."""
        symbol = self.wires_in + len(self.defs)
        self.defs.append((table, args))
        if self.consts.issuperset(args):
            self.consts.add(symbol)
        return symbol


def _loses_digits(run: _OpenRun, pos: int, n: int) -> bool:
    """Whether a Mul or Counit on wires pos..pos+n-1 of an open run may
    send two basis states to one: none of its input digits is a constant
    or still carried by another wire, from which the group table would
    recover the rest.  A False answer is exact, a True one may not be."""
    ins = run.digits[pos : pos + n]
    # the wires carrying one of ins's symbols are exactly ins's own
    return run.consts.isdisjoint(ins) and sum(map(run.digits.count, set(ins))) == n


def _fold_run(run: _OpenRun, d: int) -> _Run:
    """The index step of a run whose output wire k carries digit
    run.digits[k].

    The symbols are evaluated as integer arrays over the grid of
    _input_digits.  A square run that changed few wires starts from the
    identity index and adds the change of each such wire; any other adds
    up its digits wire by wire, most significant first.  A run in which no
    primitive lost digits is injective, so a square one is a bijection; a
    square run that lost some is checked for one.  Every index is below
    MAX_STATE_ENTRIES, so the index arrays are int32, and the run keeps 4
    bytes per entry of its input state, a quarter of the state's own.
    """
    wires_in, digits = run.wires_in, run.digits
    values = list(_input_digits(d, wires_in))
    for table, args in run.defs:
        values.append(table[tuple(map(values.__getitem__, args))])
    h = wires_in // 2
    grid = (d**h, d ** (wires_in - h))
    square = len(digits) == wires_in
    # the identity plus a few changed wires costs fewer numpy calls than
    # adding up every wire, from 4 wires on and up to half of them changed
    changed = [k for k in range(wires_in) if digits[k] != k] if square and wires_in > 3 else None
    if changed is not None and 2 * len(changed) <= wires_in:
        index = np.arange(d**wires_in, dtype=np.int32).reshape(grid)
        for k in changed:
            index += (values[digits[k]] - values[k]) * d ** (wires_in - 1 - k)
    else:
        index = np.empty(grid, dtype=np.int32)
        index[...] = values[digits[0]] if digits else 0
        for symbol in digits[1:]:  # wire 0 is the most significant digit
            index *= d
            index += values[symbol]
    index = index.reshape(-1)
    if square:
        inverse = np.empty_like(index)
        if run.lossy:
            inverse.fill(-1)
        inverse[index] = np.arange(index.size, dtype=np.int32)
        if not run.lossy or inverse.min() >= 0:  # every output index is hit
            return _Run(wires_in, wires_in, inverse, True)
    return _Run(wires_in, len(digits), index, False)


def _build_plan(circuit: Circuit) -> _Plan:
    """Validate once, then walk the layers once.

    Within a layer the primitives act on disjoint wires, so their order is
    free: the shrinking and width-preserving ones go first and Comul/Unit
    after them, and the state is never wider than the wider layer boundary.
    Id gives no step.  Each distinct layer is sorted once.

    A primitive with a digit map opens a run, or joins the open one, as
    the digits its output wires carry: a copy or a drop of an input wire's
    digit, or one lookup in its table.  The next matrix step, or the end,
    closes the run, and it becomes one index step when it is the plan's
    first step, which meets one-hot columns, or a permutation: square, and
    no primitive of it lost digits.  Any other run, and a run of a single
    primitive (one multiplication costs less than a fold), stays matrix
    steps, and its digits are never evaluated.  After a matrix step, a
    primitive that loses digits ends the run and is a matrix step itself.
    So an index step never adds two nonzero terms: every sum is the matrix
    steps' own, with the same rounding.  Swaps inside a run exchange digits
    too; every Swap folds into the permutation of the next matrix step or
    of the end.
    """
    profile = validate(circuit)
    algebra = circuit.algebra
    d = algebra.dim
    digit_maps = algebra.digit_maps
    steps = []
    width = circuit.wires_in
    axes = None  # axes[i]: the state axis holding wire i, once a Swap moved one
    run = None  # the open run

    def matrix_step(before: list[int] | None, pos: int, prim: Primitive) -> None:
        matrix = prim.matrix if prim.kind == "Unitary" else algebra.maps[prim.kind]
        steps.append(_Step(_perm_or_none(before), pos, prim.wires_in, prim.wires_out, matrix, prim))

    def close_run() -> None:
        nonlocal axes, run
        square = len(run.digits) == run.wires_in
        if len(run.prims) > 1 and (run.leading or square and not run.lossy):
            steps.append(_fold_run(run, d))
            axes = None  # the Swaps after its last primitive are in the fold
        else:
            for before, pos, prim in run.prims:
                matrix_step(before, pos, prim)
        run = None

    # layer -> its primitives other than Id, each as (first wire it acts on,
    # prim, its digit map or None), in the order they are applied
    moves_of: dict[tuple[Primitive, ...], list[tuple[int, Primitive, tuple | None]]] = {}
    for layer in circuit.layers:
        moves = moves_of.get(layer)
        if moves is None:
            moves, growing = [], []
            pos = 0  # first wire of the next primitive, the growing ones still unapplied
            grown = 0  # the same once every primitive is applied
            for prim in layer:
                if prim.wires_out > prim.wires_in:
                    growing.append((grown, prim, digit_maps.get(prim.kind)))
                    pos += prim.wires_in
                else:
                    if prim.kind != "Id":
                        moves.append((pos, prim, digit_maps.get(prim.kind)))
                    pos += prim.wires_out
                grown += prim.wires_out
            moves += growing
            moves_of[layer] = moves
        for pos, prim, outputs in moves:
            n = prim.wires_in
            if outputs is None:
                if prim.kind == "Swap":
                    if run is not None:
                        digits = run.digits
                        digits[pos], digits[pos + 1] = digits[pos + 1], digits[pos]
                    if axes is None:
                        axes = list(range(width))
                    axes[pos], axes[pos + 1] = axes[pos + 1], axes[pos]
                    continue
                if run is not None:
                    close_run()
                matrix_step(axes, pos, prim)
            elif run is None and steps and prim.wires_out < n:
                # a run opened here would lose digits at once: its digits
                # are distinct inputs, none of them a constant
                matrix_step(axes, pos, prim)
            else:
                if run is None:
                    run = _OpenRun(width, axes, leading=not steps)
                loses = prim.wires_out < n and _loses_digits(run, pos, n)
                if loses and not run.leading:
                    close_run()
                    matrix_step(axes, pos, prim)
                else:
                    run.lossy = run.lossy or loses
                    run.prims.append((axes, pos, prim))
                    digits = run.digits
                    ins = tuple(digits[pos : pos + n])
                    digits[pos : pos + n] = [
                        ins[out] if type(out) is int else run.lookup(out, ins) for out in outputs
                    ]
            axes = None
            width += prim.wires_out - n
    if run is not None:
        close_run()
    return _Plan(d, tuple(profile), tuple(steps), _perm_or_none(axes))


def _plan(circuit: Circuit) -> _Plan:
    """The circuit's plan, built on first use and kept on the circuit."""
    plan = circuit._cached_plan
    if plan is None:
        plan = _build_plan(circuit)
        object.__setattr__(circuit, "_cached_plan", plan)
    return plan


def _scatter_add(index: np.ndarray, rows: np.ndarray, n_out: int) -> np.ndarray:
    """The (n_out, batch) array whose row i sums the rows j of a
    (len(index), batch) array with index[j] == i, in increasing j."""
    out = np.zeros((n_out, rows.shape[1]), dtype=complex)
    np.add.at(out, index, rows)
    return out


def _push(plan: _Plan, columns: np.ndarray, steps: Sequence[_Step | _Run]) -> np.ndarray:
    """Run the given steps of a plan on a contiguous (d^wires, batch) array
    of columns.

    The state is kept as a contiguous array in wire order.  A matrix step
    reorders the state's axes only when Swaps came before it, then
    multiplies its matrix into the (d^pos, d^wires_in, rest) view.  An index
    step moves whole rows of the (d^wires, batch) state: a gather when
    bijective, else a scatter-add.
    """
    d = plan.dim
    batch = columns.shape[1]
    state = columns
    for step in steps:
        if type(step) is _Run:
            rows = state.reshape(-1, batch)
            if step.bijective:
                state = np.take(rows, step.index, axis=0)
            else:
                state = _scatter_add(step.index, rows, d**step.wires_out)
            continue
        perm, pos, wires_in, _, matrix, _ = step
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
    columns = np.ascontiguousarray(columns)
    out = _push(plan, columns, plan.steps)
    return out.copy() if np.may_share_memory(out, columns) else out


def evaluate(circuit: Circuit) -> LinearMap:
    """The circuit's full linear map: run on the identity batch.

    When the plan starts with an index step, the identity's image under it
    is written directly: column j holds a single 1, in row f(j).
    """
    plan = _plan(circuit)
    d = plan.dim
    _check_map_entries(d, circuit.wires_in, max(plan.profile))
    n_in = d**circuit.wires_in
    steps = plan.steps
    if steps and type(steps[0]) is _Run:
        first, steps = steps[0], steps[1:]
        columns = np.zeros((d**first.wires_out, n_in), dtype=complex)
        if first.bijective:  # row i is the image of input inverse[i]
            columns[np.arange(n_in), first.index] = 1.0
        else:
            columns[first.index, np.arange(n_in)] = 1.0
    else:
        columns = np.eye(n_in, dtype=complex)
    out = _push(plan, columns, steps)
    return LinearMap(d, circuit.wires_in, plan.profile[-1], out)


# --- brute-force evaluator -------------------------------------------------

def _transitions(algebra: HopfAlgebra, prim: Primitive):
    """List of (input digits, output digits, coefficient) read entry by entry
    from the structure tensors, zeros skipped.  Not for Id, whose digits the
    brute force copies."""
    d = algebra.dim
    out = []
    if prim.kind == "Mul":
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

#: rounding allowance per plan step, added to the certified deviation bound:
#: evaluate's rounding grows with the number of steps, so a long plan needs
#: a smaller bound to be certified
_ROUNDING_PER_STEP = 64 * np.finfo(float).eps


def _deviation_bound(plan: _Plan) -> float | None:
    """Upper bound on the spectral norm of M^H M - I for the map M of a
    plan's steps, or None when some step has no bound.

    A bijective index step is an exact permutation and adds nothing.  A
    Unitary or Antipode step is a d x d block up to Kronecker products with
    identities and wire permutations; a block whose Gram matrix is off by
    dev in its largest entry is off by at most d * dev in spectral norm,
    and such bounds e_i combine over Kronecker products and compositions as
    prod(1 + e_i) - 1.  The antipode's deviation is computed only when a
    step needs it.  Any other step (an index step that is no bijection, or
    a structure matrix of an algebra without digit maps) has no bound.
    """
    d = plan.dim
    antipode = None  # the antipode block's bound, once needed
    log_bound = 0.0  # sum of log(1 + e_i)
    for step in plan.steps:
        if type(step) is _Run:
            if not step.bijective:
                return None
        elif step.prim.kind == "Unitary":
            log_bound += math.log1p(d * step.prim.deviation)
        elif step.prim.kind == "Antipode":
            if antipode is None:
                antipode = d * _gram_deviation(step.matrix)
            log_bound += math.log1p(antipode)
        else:
            return None
    return math.expm1(log_bound)


def circuit_is_unitary(circuit: Circuit) -> bool:
    """is_unitary(evaluate(circuit)), without the map where the plan proves
    the answer.

    A circuit with wires_in != wires_out is not unitary.  A square circuit
    whose plan steps are bijective index steps, Unitaries and Antipodes is
    certified unitary when the bound of _deviation_bound, plus a rounding
    allowance per step, stays under UNITARY_TOL / 10: the exact map is then
    that close to unitary, which leaves nine tenths of UNITARY_TOL for the
    rounding of evaluate and is_unitary.  Every other circuit falls back to
    the full map, and so to its size limit.
    """
    plan = _plan(circuit)
    if plan.profile[0] != plan.profile[-1]:
        return False
    bound = _deviation_bound(plan)
    if bound is not None and bound + len(plan.steps) * _ROUNDING_PER_STEP <= UNITARY_TOL / 10:
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
