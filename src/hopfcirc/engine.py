"""The state engine: a circuit's plan, the runs of it, and the unitarity
certificate read off the plan.

run pushes a batch of input columns through the layers as a state with
one axis of extent d per wire: each primitive acts on its own wires only,
Id and Swap merely relabel axes, and no layer matrix is ever formed.
evaluate is run on the identity batch.

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

This module imports circuit, never the other way round: the brute force
and direct_gate_map there, which the engine is checked against, cannot
call into it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (
    UNITARY_TOL,
    Circuit,
    Primitive,
    _check_map_entries,
    _gram_deviation,
    is_unitary,
    validate,
)
from .tensor import LinearMap

__all__ = ["run", "evaluate", "circuit_is_unitary"]


class _Step(NamedTuple):
    """A primitive whose matrix the engine multiplies in: matrix acts on
    wires pos..pos+wires_in-1 of the state after perm (None: no reordering)."""

    perm: tuple[int, ...] | None  # perm[i] is the state axis holding wire i
    pos: int
    wires_in: int
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
        steps.append(_Step(_perm_or_none(before), pos, prim.wires_in, matrix, prim))

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
            else:  # row i sums the rows j with index[j] == i, in increasing j
                state = np.zeros((d**step.wires_out, batch), dtype=complex)
                np.add.at(state, step.index, rows)
            continue
        perm, pos, wires_in, matrix, _ = step
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
