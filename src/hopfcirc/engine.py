"""The state engine: a circuit's plan, the runs of it, and the unitarity
certificate read off the plan.

run pushes a batch of input columns through the layers as a state with
one axis of extent d per wire: each primitive acts on its own wires only,
Id and Swap merely relabel axes, and no layer matrix is ever formed.
evaluate is run on the identity batch.

The engine runs a plan, compiled once per circuit on first use and kept on
the (immutable) circuit, so run, evaluate and circuit_is_unitary share one
walk over the layers; the circuit validated itself when it was built.  A
Unitary, and each structure map of an algebra without digit maps, is a
matrix step: its matrix is multiplied into its wires, after one axis
permutation for the Swaps before it.  A group algebra's structure maps
are functions on basis digits (see HopfAlgebra.digit_maps), so a run of
them, with the Swaps among them, can fold into one index step on the
whole state: a gather of rows when the run is a permutation, and, for the
plan's first step only, a scatter-add otherwise (see _walk for which runs
fold).  When the plan starts with an index step, evaluate writes its
image of the identity directly, and a plan of that one step, or of none,
gives the map as an integer array (_one_hot), which check_axioms compares
without writing it out.  Ids give no step.

A plan is built in two parts.  _walk reads the layers and only which
kinds have digit maps, never a table or a matrix: it handles each
distinct layer once, tracks a run's digits as symbols, and leaves a
skeleton of tuples, whose lookups name their table by (kind, slot).
_bind evaluates the skeleton's folds in one algebra's tables and picks
its matrices.  A circuit's plan is its walk bound to its algebra;
check_axioms binds the skeletons of its axiom circuits, walked once when
the algebra module is imported.

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
    state, from wires_in to wires_out wires (see _walk).  A bijective
    run keeps the inverse of f and is the gather of state rows index; any
    other run, always the plan's first step, keeps f and adds state row j
    into output row index[j]."""

    wires_in: int
    wires_out: int
    index: np.ndarray
    bijective: bool


class _Plan(NamedTuple):
    """A circuit compiled for the engine."""

    dim: int
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
    wires_in] = (kind, slot, argument symbols), one per table output of a
    Mul, Unit or Antipode, whose table is entry slot of that kind's digit
    map.  A copy keeps its symbol.  digits[i] is the symbol wire i carries,
    and consts holds the symbols of lookups that read no input digit.  Only
    a run that folds evaluates its symbols, in _fold_run; prims holds its
    primitives as (axes before, pos, prim), for a run that stays matrix
    steps.
    """

    __slots__ = ("digits", "defs", "consts", "wires_in", "lossy", "prims")

    def __init__(self, wires_in: int, axes: list[int] | None):
        self.digits = list(range(wires_in)) if axes is None else axes.copy()
        self.defs: list[tuple[str, int, tuple[int, ...]]] = []
        self.consts: set[int] = set()
        self.wires_in = wires_in
        self.lossy = False  # whether a primitive of the run lost digits
        self.prims: list[tuple[list[int] | None, int, Primitive]] = []

    def lookup(self, kind: str, slot: int, args: tuple[int, ...]) -> int:
        """The symbol of a lookup at args in entry slot of kind's digit map."""
        symbol = self.wires_in + len(self.defs)
        self.defs.append((kind, slot, args))
        if self.consts.issuperset(args):
            self.consts.add(symbol)
        return symbol


class _Fold(NamedTuple):
    """A closed run that folds into one index step once bound to an
    algebra: output wire k carries symbol digits[k], as in _OpenRun."""

    wires_in: int
    digits: tuple[int, ...]
    defs: tuple[tuple[str, int, tuple[int, ...]], ...]
    lossy: bool


class _Skeleton(NamedTuple):
    """A circuit's plan with no algebra in it, as _walk leaves it: each
    step a _Fold or a matrix step (perm, pos, prim), and the final perm.
    It holds only tuples, ints, strings and primitives."""

    steps: tuple[_Fold | tuple[tuple[int, ...] | None, int, Primitive], ...]
    final_perm: tuple[int, ...] | None


def _digit_pattern(digit_maps: dict) -> tuple:
    """What _walk reads of an algebra's digit maps, as a hashable key: for
    each kind with a digit map, each output as the input wire it copies,
    or None for a table lookup."""
    return tuple(sorted(
        (kind, tuple(out if type(out) is int else None for out in outputs))
        for kind, outputs in digit_maps.items()
    ))


def _loses_digits(run: _OpenRun | None, pos: int, n: int) -> bool:
    """Whether a Mul or Counit on wires pos..pos+n-1 of an open run may
    send two basis states to one: none of its input digits is a constant
    or still carried by another wire, from which the group table would
    recover the rest.  A False answer is exact, a True one may not be.
    With no open run (None), every wire carries its own input digit once,
    so the answer is True without a run to read it from."""
    if run is None:
        return True
    ins = run.digits[pos : pos + n]
    # the wires carrying one of ins's symbols are exactly ins's own
    return run.consts.isdisjoint(ins) and sum(map(run.digits.count, set(ins))) == n


def _fold_run(run: _Fold, d: int, tables: dict) -> _Run:
    """The index step of a fold whose output wire k carries digit
    run.digits[k], its lookups read in tables, an algebra's digit maps.

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
    for kind, slot, args in run.defs:
        values.append(tables[kind][slot][tuple(map(values.__getitem__, args))])
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


def _walk(wires_in: int, layers: Sequence[Sequence[Primitive]], digit_maps: dict) -> _Skeleton:
    """Walk the layers of a valid circuit once, for an algebra with these
    digit maps, of which only _digit_pattern is read: no table, matrix or
    dimension, so the skeleton is bound to any algebra of that pattern.

    Within a layer the primitives act on disjoint wires, so their order is
    free: the shrinking and width-preserving ones go first and Comul/Unit
    after them, and the state is never wider than the wider layer boundary.
    Id gives no step.  Each distinct layer is sorted once.

    A primitive with a digit map opens a run, or joins the open one, as
    the digits its output wires carry: a copy or a drop of an input wire's
    digit, or one lookup in its table.  The next matrix step, or the end,
    closes the run, and it becomes one fold when it is the plan's first
    step, which meets one-hot columns, or square.  After a matrix step, a
    primitive that loses digits ends the run and is a matrix step itself,
    so a later square run lost no digits: it is a permutation.  Any other
    run, and a run of a single primitive (one multiplication costs less
    than a fold), stays matrix steps, and its digits are never evaluated.
    So an index step never adds two nonzero terms: every sum is the matrix
    steps' own, with the same rounding.  Swaps inside a run exchange digits
    too; every Swap folds into the permutation of the next matrix step or
    of the end.
    """
    steps: list[_Fold | tuple] = []
    width = wires_in
    axes = None  # axes[i]: the state axis holding wire i, once a Swap moved one
    run = None  # the open run

    # no step is added while a run is open, so an open run is the plan's
    # first step exactly when steps is empty
    def close_run() -> None:
        nonlocal axes, run
        square = len(run.digits) == run.wires_in
        if len(run.prims) > 1 and (not steps or square):
            steps.append(_Fold(run.wires_in, tuple(run.digits), tuple(run.defs), run.lossy))
            axes = None  # the Swaps after its last primitive are in the fold
        else:
            steps.extend((_perm_or_none(before), pos, prim) for before, pos, prim in run.prims)
        run = None

    # layer -> its primitives other than Id, each as (first wire it acts on,
    # prim, its digit map or None), in the order they are applied
    moves_of: dict[tuple[Primitive, ...], list[tuple[int, Primitive, tuple | None]]] = {}
    for layer in layers:
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
                steps.append((_perm_or_none(axes), pos, prim))
            else:
                loses = prim.wires_out < n and _loses_digits(run, pos, n)
                if loses and steps:
                    if run is not None:
                        close_run()
                    steps.append((_perm_or_none(axes), pos, prim))
                else:
                    if run is None:
                        run = _OpenRun(width, axes)
                    run.lossy = run.lossy or loses
                    run.prims.append((axes, pos, prim))
                    digits = run.digits
                    ins = tuple(digits[pos : pos + n])
                    digits[pos : pos + n] = [
                        ins[out] if type(out) is int else run.lookup(prim.kind, slot, ins)
                        for slot, out in enumerate(outputs)
                    ]
            axes = None
            width += prim.wires_out - n
    if run is not None:
        close_run()
    return _Skeleton(tuple(steps), _perm_or_none(axes))


def _bind(skeleton: _Skeleton, algebra) -> _Plan:
    """The plan of a skeleton for an algebra of the digit pattern it was
    walked for: each fold evaluated in the algebra's tables (_fold_run),
    each matrix step given its Unitary's matrix or the algebra's structure
    matrix."""
    d, maps, tables = algebra.dim, algebra.maps, algebra.digit_maps
    steps = []
    for step in skeleton.steps:
        if type(step) is _Fold:
            steps.append(_fold_run(step, d, tables))
        else:
            perm, pos, prim = step
            matrix = prim.matrix if prim.kind == "Unitary" else maps[prim.kind]
            steps.append(_Step(perm, pos, prim.wires_in, matrix, prim))
    return _Plan(d, tuple(steps), skeleton.final_perm)


def _build_plan(circuit: Circuit) -> _Plan:
    """The circuit's plan: its layers walked, then bound to its algebra."""
    algebra = circuit.algebra
    return _bind(_walk(circuit.wires_in, circuit.layers, algebra.digit_maps), algebra)


def _plan(circuit: Circuit) -> _Plan:
    """The circuit's plan, built on first use and kept on the circuit."""
    plan = circuit._cached_plan
    if plan is None:
        plan = _build_plan(circuit)
        object.__setattr__(circuit, "_cached_plan", plan)
    return plan


def _push(plan: _Plan, columns: np.ndarray, steps: Sequence[_Step | _Run], wires_out: int) -> np.ndarray:
    """Run the given steps of a plan on a contiguous (d^wires, batch) array
    of columns; the result has d^wires_out rows.

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
    return state.reshape(d**wires_out, batch)


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
    out = _push(plan, columns, plan.steps, circuit.profile[-1])
    return out.copy() if np.may_share_memory(out, columns) else out


def _image(step: _Run) -> np.ndarray:
    """The index step's function f on basis indices: it sends input basis
    state j to output basis state f[j], with coefficient 1.  A bijective
    step keeps f's inverse, which is inverted here; any other keeps f."""
    if not step.bijective:
        return step.index
    image = np.empty_like(step.index)
    image[step.index] = np.arange(step.index.size, dtype=np.int32)
    return image


def _one_hot(plan: _Plan, profile: Sequence[int]) -> np.ndarray | None:
    """The map of a plan, whose circuit has this wire profile, as the
    function f on basis indices whose column j is basis state f[j] with
    coefficient 1, when the plan gives it whole: no step, or a single index
    step, and no final permutation.  None when the map needs _evaluate."""
    if plan.final_perm is not None or len(plan.steps) > 1:
        return None
    if not plan.steps:  # Ids, and Swaps that undo each other: the identity
        return np.arange(plan.dim ** profile[0], dtype=np.int32)
    step = plan.steps[0]
    return _image(step) if type(step) is _Run else None


def evaluate(circuit: Circuit) -> LinearMap:
    """The circuit's full linear map: run on the identity batch."""
    return _evaluate(_plan(circuit), circuit.profile)


def _evaluate(plan: _Plan, profile: Sequence[int]) -> LinearMap:
    """The full linear map of a plan whose circuit has this wire profile.

    When the plan starts with an index step, the identity's image under it
    is written directly: column j holds a single 1, in row f[j] of _image.
    """
    d = plan.dim
    wires_in = profile[0]
    _check_map_entries(d, wires_in, max(profile))
    n_in = d**wires_in
    steps = plan.steps
    if steps and type(steps[0]) is _Run:
        first, steps = steps[0], steps[1:]
        columns = np.zeros((d**first.wires_out, n_in), dtype=complex)
        columns[_image(first), np.arange(n_in)] = 1.0
    else:
        columns = np.eye(n_in, dtype=complex)
    out = _push(plan, columns, steps, profile[-1])
    return LinearMap(d, wires_in, profile[-1], out)


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
                antipode = d * float(_gram_deviation(step.matrix[None])[0])
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
    if circuit.wires_in != circuit.profile[-1]:
        return False
    plan = _plan(circuit)
    bound = _deviation_bound(plan)
    if bound is not None and bound + len(plan.steps) * _ROUNDING_PER_STEP <= UNITARY_TOL / 10:
        return True
    return is_unitary(evaluate(circuit))
