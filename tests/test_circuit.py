import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcirc.circuit
import hopfcirc.engine
from hopfcirc.algebra import HopfAlgebra, builtin_algebra, group_algebra, z2_algebra
from hopfcirc.circuit import (
    ANTIPODE,
    COMUL,
    COUNIT,
    ID,
    MUL,
    SWAP,
    UNIT,
    MAX_MAP_ENTRIES,
    AnnihilatedStateError,
    Circuit,
    CircuitError,
    Cnot,
    basis_state,
    build_cnot,
    compile_gate_circuit,
    digits_to_index,
    direct_gate_map,
    evaluate_bruteforce,
    evaluate_bruteforce_map,
    index_to_digits,
    is_unitary,
    measure,
    unitary,
    validate,
)
from hopfcirc.engine import circuit_is_unitary, evaluate, run


from helpers import (
    assert_same_plan,
    certificate_circuit,
    haar_unitary,
    loop_circuit_map,
    loop_measure,
    loop_transitions,
    near_unitary,
    random_circuit,
    random_gate_list,
)

Z2 = z2_algebra()
Z3 = builtin_algebra("Z3")

CNOT_TABLE = np.zeros((4, 4))
CNOT_TABLE[0, 0] = CNOT_TABLE[1, 1] = CNOT_TABLE[3, 2] = CNOT_TABLE[2, 3] = 1.0

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
H = unitary("h", HADAMARD)


def matrix_only(algebra: HopfAlgebra) -> HopfAlgebra:
    """The same structure tensors, constructed directly: no digit maps, so
    the engine multiplies every structure matrix in."""
    return HopfAlgebra(
        algebra.basis_labels,
        mul=algebra.mul,
        comul=algebra.comul,
        unit=algebra.unit,
        counit=algebra.counit,
        antipode=algebra.antipode,
    )


def generalized_circuit(u_matrix):
    """Two wires in, three out: copy both, multiply, rotate, multiply."""
    u = unitary("u0", u_matrix)
    return Circuit(
        Z2,
        wires_in=2,
        layers=(
            (COMUL, COMUL),
            (COMUL, MUL, ID),
            (ID, u, ID, ID),
            (ID, MUL, ID),
        ),
    )


class TestValidate:
    def test_cnot_profile(self):
        assert validate(build_cnot(Z2)) == [2, 3, 2]

    def test_generalized_profile(self):
        assert validate(generalized_circuit(np.eye(2))) == [2, 4, 4, 4, 3]

    def test_arity_mismatch_message(self):
        c = Circuit(Z2, wires_in=1, layers=((MUL,),))
        with pytest.raises(CircuitError, match=r"layer 0 consumes 2 wires, 1 available"):
            validate(c)

    def test_later_layer_mismatch_names_index(self):
        c = Circuit(Z2, wires_in=2, layers=((ID, ID), (ID,)))
        with pytest.raises(CircuitError, match=r"layer 1 consumes 1 wires, 2 available"):
            validate(c)

    def test_empty_layer_rejected(self):
        with pytest.raises(CircuitError, match="empty"):
            validate(Circuit(Z2, wires_in=0, layers=((),)))

    def test_width_limit(self):
        # 21 comultiplications take 21 wires to 42 > 2^20 entries at d=2
        c = Circuit(Z2, wires_in=21, layers=((COMUL,) * 21,))
        with pytest.raises(CircuitError, match="too wide"):
            validate(c)

    def test_unitary_dimension_checked_against_algebra(self):
        c = Circuit(Z3, wires_in=1, layers=((unitary("h", HADAMARD),),))
        with pytest.raises(CircuitError, match="dimension"):
            validate(c)

    def test_reused_layer_fails_where_its_wire_count_differs(self):
        # one layer object, valid at layer 2, meets three wires at layer 3
        keep, grow = (ID, ID), (COMUL, ID)
        c = Circuit(Z2, wires_in=2, layers=(keep, keep, grow, grow))
        with pytest.raises(CircuitError, match=r"^layer 3 consumes 2 wires, 3 available$"):
            validate(c)
        # and where a later boundary brings its count back, it is valid again
        c = Circuit(Z2, wires_in=2, layers=(grow, (ID, MUL), grow, (MUL, ID), keep, keep))
        assert validate(c) == [2, 3, 2, 3, 2, 2, 2]

    def test_reused_wrong_size_unitary_reports_its_first_layer(self):
        big = (unitary("big", np.eye(3)), ID)
        c = Circuit(Z2, wires_in=2, layers=((ID, ID), big, (ID, ID), big))
        with pytest.raises(CircuitError, match=r"^layer 1: unitary 'big' is 3x3 but the algebra dimension is 2$"):
            validate(c)

    def test_layers_given_as_lists_become_tuples(self):
        c = Circuit(Z2, wires_in=2, layers=[[COMUL, ID], [ID, MUL]])
        assert c.layers == ((COMUL, ID), (ID, MUL))
        assert type(c.layers) is tuple and all(type(layer) is tuple for layer in c.layers)

    def test_tuple_layers_keep_their_objects(self):
        layers = ((COMUL, ID), (ID, MUL))
        c = Circuit(Z2, wires_in=2, layers=layers)
        assert all(mine is given for mine, given in zip(c.layers, layers, strict=True))


def one_layer_map(algebra, layer):
    """Map of the one-layer circuit whose inputs are exactly the layer's."""
    return evaluate(Circuit(algebra, wires_in=sum(p.wires_in for p in layer), layers=(layer,)))


class TestLayerMap:
    def test_two_identities(self):
        m = one_layer_map(Z2, (ID, ID))
        assert np.array_equal(m.matrix, np.eye(4))

    def test_copy_extended_by_identity(self):
        m = one_layer_map(Z2, (COMUL, ID))
        assert m.matrix.shape == (8, 4)
        for a in range(2):
            for b in range(2):
                col = m.matrix[:, digits_to_index([a, b], 2)]
                expect = basis_state(2, [a, a, b])
                assert np.array_equal(col, expect)

    def test_swap_exchanges_basis(self):
        m = one_layer_map(Z2, (SWAP,))
        want = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.array_equal(m.matrix, want)

    def test_empty_layer_rejected(self):
        with pytest.raises(CircuitError, match="layer 0 is empty"):
            one_layer_map(Z2, ())


class TestEvaluate:
    def test_cnot_matches_truth_table(self):
        m = evaluate(build_cnot(Z2))
        assert np.array_equal(m.matrix, CNOT_TABLE)

    def test_empty_circuit_is_identity(self):
        m = evaluate(Circuit(Z2, wires_in=3, layers=()))
        assert np.array_equal(m.matrix, np.eye(8))

    def test_generalized_identity_copies_target(self):
        m = evaluate(generalized_circuit(np.eye(2)))
        assert m.matrix.shape == (8, 4)
        for a in range(2):
            for b in range(2):
                col = m.matrix[:, digits_to_index([a, b], 2)]
                assert np.array_equal(col, basis_state(2, [a, b, b]))

    def test_validation_error_propagates(self):
        with pytest.raises(CircuitError):
            evaluate(Circuit(Z2, wires_in=1, layers=((MUL,),)))

    def test_peak_memory_is_one_map(self):
        # the map owns the array the engine built: no second copy of it
        c = Circuit(Z2, wires_in=10, layers=((ID,) * 10,))
        tracemalloc.start()
        try:
            m = evaluate(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.matrix.shape == (2**10, 2**10)
        assert peak <= 1.1 * m.matrix.nbytes

    def test_maps_are_read_only(self):
        c = build_cnot(Z2)
        for m in (evaluate(c), evaluate_bruteforce_map(c), direct_gate_map(Z2, 2, [Cnot(0, 1)])):
            with pytest.raises(ValueError, match="read-only"):
                m.matrix[0, 0] = 2.0


class TestLimits:
    def test_huge_wire_count_refused_without_big_powers(self):
        with pytest.raises(CircuitError, match="too wide"):
            validate(Circuit(Z2, wires_in=10**20))

    def test_one_dimensional_algebra_width_capped(self):
        trivial = group_algebra(["e"], [[0]])
        assert validate(Circuit(trivial, wires_in=20)) == [20]
        with pytest.raises(CircuitError, match="too wide"):
            validate(Circuit(trivial, wires_in=21))

    def test_map_entry_limit(self):
        # 2^13 x 2^13 entries exceed the map limit; one state still runs
        c = Circuit(Z2, wires_in=13, layers=((ID,) * 13,))
        with pytest.raises(CircuitError, match="map too large"):
            evaluate(c)
        state = basis_state(2, [1] * 13)
        assert np.array_equal(run(c, state[:, None])[:, 0], state)

    def test_map_entry_limit_counts_widest_boundary(self):
        # 2^12 inputs alone fit, but a copy makes the map 2^13 x 2^12
        assert 2**12 * 2**12 <= MAX_MAP_ENTRIES < 2**12 * 2**13
        c = Circuit(Z2, wires_in=12, layers=((COMUL,) + (ID,) * 11, (MUL,) + (ID,) * 11))
        with pytest.raises(CircuitError, match="map too large"):
            evaluate(c)

    def test_bruteforce_map_refused_before_allocating(self):
        # the same over-limit map: refused before the batch exists
        c = Circuit(Z2, wires_in=12, layers=((COMUL,) + (ID,) * 11, (MUL,) + (ID,) * 11))
        tracemalloc.start()
        try:
            with pytest.raises(CircuitError, match="map too large"):
                evaluate_bruteforce_map(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_direct_gate_map_refused_past_map_limit(self):
        # 2^13 x 2^13 entries exceed the map limit, 2^20 x 2^20 would need 16 TiB
        for wires in (13, 20):
            with pytest.raises(CircuitError, match="map too large"):
                direct_gate_map(Z2, wires, [])
        with pytest.raises(CircuitError, match="width limit"):
            direct_gate_map(Z2, 10**20, [])


class TestRun:
    def test_cnot_on_one_state(self):
        out = run(build_cnot(Z2), basis_state(2, [1, 0])[:, None])
        assert np.array_equal(out[:, 0], basis_state(2, [1, 1]))

    def test_batch_equals_map_product(self):
        rng = np.random.default_rng(5)
        c = generalized_circuit(HADAMARD)
        batch = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        assert run(c, batch).shape == (8, 3)
        assert np.max(np.abs(run(c, batch) - evaluate(c).matrix @ batch)) <= 1e-12

    def test_swap_chain_moves_wire(self):
        # three adjacent swaps in one layer carry wire 0 to the far end
        c = Circuit(Z2, wires_in=4, layers=((SWAP, SWAP), (ID, SWAP, ID), (SWAP, SWAP)))
        out = run(c, basis_state(2, [1, 0, 1, 1])[:, None])[:, 0]
        assert np.array_equal(out, evaluate_bruteforce(c, digits_to_index([1, 0, 1, 1], 2)))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="batch"):
            run(build_cnot(Z2), np.ones(4))
        with pytest.raises(ValueError, match="batch"):
            run(build_cnot(Z2), np.ones((8, 1)))

    def test_validation_error_propagates(self):
        with pytest.raises(CircuitError, match="consumes"):
            run(Circuit(Z2, wires_in=1, layers=((MUL,),)), np.ones((2, 1)))

    @pytest.mark.parametrize(
        "layers", [(), ((ID, ID),), ((SWAP,),)], ids=["no-layers", "id", "swap"]
    )
    def test_output_never_aliases_input(self, layers):
        states = np.eye(4, dtype=complex)
        out = run(Circuit(Z2, wires_in=2, layers=layers), states)
        assert not np.shares_memory(out, states)


class TestLayerWidth:
    """Inside a layer the engine applies shrinking primitives before
    growing ones, so no state is wider than the wider layer boundary."""

    @pytest.mark.parametrize(
        "layer",
        [(COMUL, COMUL, MUL, MUL), (COMUL, SWAP, MUL, COMUL), (COMUL, UNIT, MUL, COUNIT, ANTIPODE)],
        ids=["copies-first", "interleaved", "unit-counit"],
    )
    @pytest.mark.parametrize("algebra", [Z2, Z3], ids=["Z2", "Z3"])
    def test_reordered_layer_matches_bruteforce(self, algebra, layer):
        c = Circuit(algebra, wires_in=sum(p.wires_in for p in layer), layers=(layer,))
        m = evaluate(c).matrix
        for idx in range(m.shape[1]):
            assert np.max(np.abs(evaluate_bruteforce(c, idx) - m[:, idx])) <= 1e-12

    def test_peak_memory_bounded_by_boundaries(self):
        # 12 wires in and out; applied left to right, the four copies would
        # first widen the state to 16 wires (2^16 entries, 1 MiB)
        c = Circuit(Z2, wires_in=12, layers=((COMUL,) * 4 + (MUL,) * 4,))
        state = basis_state(2, [1] * 12)[:, None]
        tracemalloc.start()
        try:
            out = run(c, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * state.nbytes
        assert np.array_equal(out[:, 0], evaluate_bruteforce(c, digits_to_index([1] * 12, 2)))


ENGINE_ALGEBRAS = {"Z2": Z2, "Z3": Z3, "S3": builtin_algebra("S3")}
#: widest layer boundary per algebra, so the brute force stays quick at d = 6
ENGINE_MAX_WIRES = {"Z2": 7, "Z3": 5, "S3": 3}
EDGE_UNIT_COUNIT = st.sampled_from(["none", "left", "right"])


@st.composite
def engine_circuits(draw):
    """Circuits with every primitive kind, swap chains and Unit/Counit at
    both ends of the first and last layers."""
    name = draw(st.sampled_from(sorted(ENGINE_ALGEBRAS)))
    algebra = ENGINE_ALGEBRAS[name]
    cap = ENGINE_MAX_WIRES[name]
    d = algebra.dim
    wires_in = draw(st.integers(0, cap - 1))
    wires = wires_in
    layers = []

    def edge_layer(kind, at):
        nonlocal wires
        if kind == UNIT and wires < cap:
            rest = (ID,) * wires
            layers.append((UNIT,) + rest if at == "left" else rest + (UNIT,))
            wires += 1
        elif kind == COUNIT and wires > 0:
            rest = (ID,) * (wires - 1)
            layers.append((COUNIT,) + rest if at == "left" else rest + (COUNIT,))
            wires -= 1

    at = draw(EDGE_UNIT_COUNIT)
    if at != "none":
        edge_layer(draw(st.sampled_from([UNIT, COUNIT])), at)
    for _ in range(draw(st.integers(0, 5))):
        if wires >= 2 and draw(st.booleans()):
            # a chain of adjacent swaps walking one wire across the others
            start, stop = sorted(draw(st.lists(st.integers(0, wires - 1), min_size=2, max_size=2, unique=True)))
            for p in range(start, stop):
                layers.append((ID,) * p + (SWAP,) + (ID,) * (wires - p - 2))
            continue
        layer = []
        remaining = wires
        produced = 0
        while remaining > 0 or not layer:
            choices = [ID, ANTIPODE, "U", COUNIT] if remaining >= 1 else []
            if remaining >= 2:
                choices += [MUL, SWAP]
            if remaining >= 1 and produced + remaining + 1 <= cap:
                choices.append(COMUL)
            if produced + remaining + 1 <= cap and layer.count(UNIT) < 2:
                choices.append(UNIT)
            prim = draw(st.sampled_from(choices))
            if prim == "U":
                seed = draw(st.integers(0, 2**32 - 1))
                prim = unitary("u", haar_unitary(np.random.default_rng(seed), d))
            layer.append(prim)
            remaining -= prim.wires_in
            produced += prim.wires_out
        layers.append(tuple(layer))
        wires = produced
    at = draw(EDGE_UNIT_COUNIT)
    if at != "none":
        edge_layer(draw(st.sampled_from([UNIT, COUNIT])), at)
    return Circuit(algebra, wires_in=wires_in, layers=tuple(layers))


@settings(max_examples=150, deadline=None)
@given(engine_circuits(), st.integers(0, 2**32 - 1))
def test_engine_matches_bruteforce_and_map(circuit, seed):
    m = evaluate(circuit).matrix
    for idx in range(m.shape[1]):
        assert np.max(np.abs(evaluate_bruteforce(circuit, idx) - m[:, idx])) <= 1e-12
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(m.shape[1], 3)) + 1j * rng.normal(size=(m.shape[1], 3))
    assert np.max(np.abs(run(circuit, batch) - m @ batch)) <= 1e-12


@st.composite
def repeated_layer_circuits(draw):
    """engine_circuits with some width-preserving layers repeated as the
    same objects, up to twice in a row, as a parsed document repeats equal
    layer lines."""
    circuit = draw(engine_circuits())
    profile = validate(circuit)
    layers = []
    for i, layer in enumerate(circuit.layers):
        repeats = draw(st.integers(0, 2)) if profile[i] == profile[i + 1] else 0
        layers += [layer] * (1 + repeats)
    return Circuit(circuit.algebra, circuit.wires_in, tuple(layers))


def eager_plan(circuit: Circuit):
    """The engine plan as the walk built it when every run carried its
    digits as arrays from its first primitive: each output digit looked up
    in its table as soon as the primitive joined the run, each fold added
    up wire by wire, and every layer sorted again at each occurrence.  The
    walk now tracks symbols and evaluates only the runs that fold, once per
    distinct layer; its plans must be these."""
    C = hopfcirc.engine
    profile = validate(circuit)
    algebra, d = circuit.algebra, circuit.algebra.dim
    steps, state = [], {"width": circuit.wires_in, "axes": None, "run": None}

    def matrix_step(before, pos, prim):
        matrix = prim.matrix if prim.kind == "Unitary" else algebra.maps[prim.kind]
        steps.append(C._Step(C._perm_or_none(before), pos, prim.wires_in, matrix, prim))

    def fold(run):
        wires_in, digits = run["wires_in"], run["digits"]
        h = wires_in // 2
        index = np.empty((d**h, d ** (wires_in - h)), dtype=np.int32)
        index[...] = digits[0] if digits else 0
        for digit in digits[1:]:
            index = index * d + digit
        index = index.reshape(-1).astype(np.int32)
        if len(digits) == wires_in:
            inverse = np.full(index.size, -1, dtype=np.int32)
            inverse[index] = np.arange(index.size, dtype=np.int32)
            if inverse.min() >= 0:
                return C._Run(wires_in, wires_in, inverse, True)
        return C._Run(wires_in, len(digits), index, False)

    def close_run():
        run = state["run"]
        if run is None:
            return
        square = len(run["digits"]) == run["wires_in"]
        if len(run["prims"]) > 1 and (run["leading"] or square and not run["lossy"]):
            steps.append(fold(run))
            state["axes"] = None
        else:
            for before, pos, prim in run["prims"]:
                matrix_step(before, pos, prim)
        state["run"] = None

    def step(pos, prim):
        outputs = algebra.digit_maps.get(prim.kind)
        axes = state["axes"]
        if outputs is None:
            close_run()
            matrix_step(state["axes"], pos, prim)
        else:
            if state["run"] is None:
                inputs = hopfcirc.engine._input_digits(d, state["width"])
                digits = list(inputs) if axes is None else [inputs[a] for a in axes]
                state["run"] = {"digits": digits, "wires_in": state["width"], "leading": not steps,
                                "lossy": False, "prims": []}
            run = state["run"]
            digits = run["digits"]
            ins = digits[pos : pos + prim.wires_in]
            rest = list(map(id, digits[:pos] + digits[pos + prim.wires_in :]))
            loses = prim.wires_out < prim.wires_in and not any(x.ndim == 0 or id(x) in rest for x in ins)
            if loses and not run["leading"]:
                close_run()
                matrix_step(state["axes"], pos, prim)
            else:
                run["lossy"] = run["lossy"] or loses
                run["prims"].append((axes, pos, prim))
                digits[pos : pos + prim.wires_in] = [
                    ins[out] if type(out) is int else out[tuple(ins)] for out in outputs
                ]
        state["axes"] = None
        state["width"] += prim.wires_out - prim.wires_in

    for layer in circuit.layers:
        pos = grown = 0
        growing = []
        for prim in layer:
            if prim.wires_out > prim.wires_in:
                growing.append((grown, prim))
                pos += prim.wires_in
            elif prim.kind == "Id":
                pos += 1
            elif prim.kind == "Swap":
                if state["run"] is not None:
                    digits = state["run"]["digits"]
                    digits[pos], digits[pos + 1] = digits[pos + 1], digits[pos]
                if state["axes"] is None:
                    state["axes"] = list(range(state["width"]))
                axes = state["axes"]
                axes[pos], axes[pos + 1] = axes[pos + 1], axes[pos]
                pos += 2
            else:
                step(pos, prim)
                pos += prim.wires_out
            grown += prim.wires_out
        for pos, prim in growing:
            step(pos, prim)
    close_run()
    return C._Plan(d, tuple(profile), tuple(steps), C._perm_or_none(state["axes"]))


@settings(max_examples=300, deadline=None)
@given(repeated_layer_circuits())
def test_plan_matches_eager_digit_walk(circuit):
    assert_same_plan(hopfcirc.engine._build_plan(circuit), eager_plan(circuit))


@settings(max_examples=60, deadline=None)
@given(repeated_layer_circuits())
def test_repeated_layers_match_bruteforce(circuit):
    got = evaluate(circuit).matrix
    assert np.max(np.abs(evaluate_bruteforce_map(circuit).matrix - got), initial=0.0) <= 1e-12


@pytest.mark.parametrize(
    "wires,gates",
    [
        (8, [Cnot(0, 7), Cnot(5, 2), Cnot(3, 4)]),  # one wire changed per run: from the identity
        (3, [Cnot(0, 2), Cnot(1, 0)]),  # below 4 wires: wire by wire
        (6, [Cnot(c, t) for c in range(6) for t in range(6) if c != t]),
    ],
    ids=["wide", "narrow", "all-pairs"],
)
def test_compiled_plan_matches_eager_digit_walk(wires, gates):
    c = compile_gate_circuit(Z2, wires, gates)
    assert_same_plan(hopfcirc.engine._build_plan(c), eager_plan(c))
    assert np.array_equal(evaluate(c).matrix, direct_gate_map(Z2, wires, gates).matrix)


def plan_kinds(circuit: Circuit) -> set[str]:
    """The kinds of step in the circuit's plan: "bijective run", "run"
    (one that is no bijection) and "matrix"."""
    return {
        ("bijective run" if step.bijective else "run") if type(step) is hopfcirc.engine._Run else "matrix"
        for step in hopfcirc.engine._plan(circuit).steps
    }


@settings(max_examples=150, deadline=None)
@given(engine_circuits(), st.integers(0, 2**32 - 1))
def test_index_runs_match_matrix_steps(circuit, seed):
    """Digit maps change how the engine computes, not what: against the
    same circuit over an algebra without them, maps are equal, because a
    leading run meets one-hot columns and every later index step is a
    gather, which moves values where a matrix step adds zeros to them.  A
    batch through a leading run that is no bijection is summed in another
    grouping, within 1e-12."""
    plain = Circuit(matrix_only(circuit.algebra), circuit.wires_in, circuit.layers)
    assert plan_kinds(plain) <= {"matrix"}
    assert np.array_equal(evaluate(circuit).matrix, evaluate(plain).matrix)
    rng = np.random.default_rng(seed)
    n_in = circuit.algebra.dim**circuit.wires_in
    batch = rng.normal(size=(n_in, 3)) + 1j * rng.normal(size=(n_in, 3))
    got, want = run(circuit, batch), run(plain, batch)
    if "run" in plan_kinds(circuit):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    else:
        assert np.array_equal(got, want)


def mixed_plan_circuit(algebra) -> Circuit:
    """Two wires: a copy and a unit (the leading run, no bijection), a
    rotation, two counits (matrix steps, as they lose digits after a matrix
    step), a CNOT (a bijective run) and a rotation."""
    u = unitary("u", haar_unitary(np.random.default_rng(algebra.dim), algebra.dim))
    return Circuit(algebra, 2, (
        (COMUL, ID), (ID, ID, ID, UNIT),
        (u, ID, ID, ID), (ID, COUNIT, ID, COUNIT),
        (COMUL, ID), (ID, MUL), (ID, u),
    ))


class TestIndexRuns:
    @pytest.mark.parametrize("name", sorted(ENGINE_ALGEBRAS))
    def test_mixed_plan_matches_matrix_steps_and_bruteforce(self, name):
        algebra = ENGINE_ALGEBRAS[name]
        c = mixed_plan_circuit(algebra)
        assert plan_kinds(c) == {"bijective run", "run", "matrix"}
        plain = Circuit(matrix_only(algebra), c.wires_in, c.layers)
        m = evaluate(c).matrix
        assert np.array_equal(m, evaluate(plain).matrix)
        assert np.max(np.abs(m - evaluate_bruteforce_map(c).matrix)) <= 1e-12
        batch = np.random.default_rng(1).normal(size=(m.shape[1], 4)).astype(complex)
        assert np.max(np.abs(run(c, batch) - run(plain, batch))) <= 1e-12
        assert np.max(np.abs(run(c, batch) - m @ batch)) <= 1e-12

    @pytest.mark.parametrize(
        "layers,kinds",
        [
            (((COMUL, ID), (ID, MUL)), {"bijective run"}),  # a CNOT
            (((COMUL,), (COMUL, ID)), {"run"}),  # two copies
            (((UNIT, ID), (COUNIT, ID)), {"bijective run"}),  # the counit drops the unit's digit
            (((UNIT, ID), (ID, COUNIT)), {"run"}),  # the counit drops the input's digit
            (((ANTIPODE, SWAP), (MUL, ID)), {"run"}),  # a square run that loses a digit
        ],
        ids=["cnot", "copies", "unit-drop-unit", "unit-drop-input", "lossy-square"],
    )
    def test_leading_run_written_one_hot(self, layers, kinds):
        # evaluate writes the image of the identity under a leading run:
        # column j holds one 1, in row f(j)
        wires = sum(p.wires_in for p in layers[0])
        c = Circuit(Z3, wires, layers)
        assert plan_kinds(c) == kinds
        m = evaluate(c).matrix
        assert np.array_equal(m, evaluate_bruteforce_map(c).matrix)
        assert np.array_equal(np.count_nonzero(m, axis=0), np.ones(m.shape[1]))

    def test_sums_after_a_matrix_step_grouped_as_matrix_steps(self):
        # rotated wires, then multiplications that sum them pairwise, then
        # the pair sums: they stay matrix steps, where one scatter-add of
        # all eight terms would round differently
        rng = np.random.default_rng(7)
        rotations = tuple(unitary("u", haar_unitary(rng, 2)) for _ in range(4))
        layers = (rotations, (MUL, MUL), (MUL,))
        c = Circuit(Z2, 4, layers)
        assert np.array_equal(evaluate(c).matrix, evaluate(Circuit(matrix_only(Z2), 4, layers)).matrix)

    @pytest.mark.parametrize(
        "layers,kinds",
        [
            (((COMUL, ID), (ID, ID, ID, UNIT)), ["Unitary", "Comul", "Unit"]),  # not square
            (((COMUL, ID), (ID, MUL), (MUL,)), ["Unitary", "bijective run", "Mul"]),  # the last Mul loses a digit
            (((COMUL, ID), (MUL, ID)), ["Unitary", "Comul", "Mul"]),  # (g, h) -> (g*g, h) loses g
        ],
        ids=["copy-unit", "cnot-then-mul", "square-mul"],
    )
    def test_run_after_a_matrix_step_folds_only_as_a_permutation(self, layers, kinds):
        c = Circuit(Z3, 2, ((unitary("f", haar_unitary(np.random.default_rng(3), 3)), ID),) + layers)
        steps = hopfcirc.engine._plan(c).steps
        assert [step.prim.kind if type(step) is hopfcirc.engine._Step else "bijective run" for step in steps] == kinds
        plain = Circuit(matrix_only(Z3), c.wires_in, c.layers)
        assert np.array_equal(evaluate(c).matrix, evaluate(plain).matrix)

    @pytest.mark.parametrize(
        "layers,kinds",
        [
            (((COMUL, ID), (H, ID, ID)), ["Comul", "Unitary"]),  # a leading copy
            (((H, ID), (ANTIPODE, ID), (H, ID)), ["Unitary", "Antipode", "Unitary"]),  # a permutation
        ],
        ids=["leading", "permutation"],
    )
    def test_lone_primitive_stays_a_matrix_step(self, layers, kinds):
        # one multiplication costs less than folding a run of one primitive
        c = Circuit(Z2, 2, layers)
        assert [step.prim.kind for step in hopfcirc.engine._plan(c).steps] == kinds
        assert np.max(np.abs(evaluate(c).matrix - evaluate_bruteforce_map(c).matrix)) <= 1e-12

    def test_max_wires_per_dimension(self):
        # cached per dimension; the loop is the reference
        for d in range(1, 17):
            w = 0
            while max(d, 2) ** (w + 1) <= hopfcirc.circuit.MAX_STATE_ENTRIES:
                w += 1
            assert hopfcirc.circuit._max_wires(d) == w
        assert [hopfcirc.circuit._max_wires(d) for d in (1, 2, 3, 6, 16)] == [20, 20, 12, 7, 5]


#: widest layer boundary per algebra for random_circuit, so that the
#: per-column brute force stays quick at d = 6
BATCH_MAX_WIRES = {"Z2": 5, "Z3": 4, "S3": 3}


def annihilating_prefix(algebra, wires: int) -> tuple:
    """Layers sending every basis input whose wire-0 digit is not 0 to zero:
    copy wire 0, apply the discrete Fourier transform to the copy and take
    its counit, which sums a column of the transform."""
    d = algebra.dim
    dft = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    rest = (ID,) * (wires - 1)
    return ((COMUL,) + rest, (unitary("f", dft), ID) + rest, (COUNIT, ID) + rest)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ENGINE_ALGEBRAS)), st.integers(0, 2**32 - 1), st.booleans())
def test_bruteforce_map_matches_columns_and_engine(name, seed, annihilate):
    algebra = ENGINE_ALGEBRAS[name]
    c = random_circuit(np.random.default_rng(seed), algebra, max_wires=BATCH_MAX_WIRES[name])
    if annihilate:
        c = Circuit(algebra, c.wires_in, annihilating_prefix(algebra, c.wires_in) + c.layers)
    got = evaluate_bruteforce_map(c)
    want = evaluate(c)
    assert (got.base_dim, got.wires_in, got.wires_out) == (want.base_dim, want.wires_in, want.wires_out)
    m = got.matrix
    assert m.shape == want.matrix.shape
    for idx in range(m.shape[1]):
        assert np.max(np.abs(m[:, idx] - evaluate_bruteforce(c, idx))) <= 1e-12
    assert np.max(np.abs(m - want.matrix)) <= 1e-12
    if annihilate:
        d = algebra.dim
        zero = [i for i in range(m.shape[1]) if index_to_digits(i, d, c.wires_in)[0] != 0]
        assert np.max(np.abs(m[:, zero])) <= 1e-12


class TestBruteForce:
    def test_map_of_cnot_is_its_table(self):
        assert np.array_equal(evaluate_bruteforce_map(build_cnot(Z2)).matrix, CNOT_TABLE)

    def test_cnot_flips_target_of_input_two(self):
        col = evaluate_bruteforce(build_cnot(Z2), 2)
        assert np.array_equal(col, basis_state(2, [1, 1]))

    def test_identity_circuit(self):
        c = Circuit(Z2, wires_in=2, layers=((ID, ID),))
        for i in range(4):
            col = evaluate_bruteforce(c, i)
            assert np.array_equal(col, np.eye(4)[:, i])
        c = Circuit(builtin_algebra("S3"), wires_in=3, layers=((ID, ID, ID),) * 3)
        assert np.array_equal(evaluate_bruteforce_map(c).matrix, np.eye(6**3))

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z5", "S3", "random"])
    def test_transitions_in_loop_order(self, name):
        # the order of the list is the brute force's summation order, which
        # a comparison to 1e-12 cannot see
        rng = np.random.default_rng(11)
        if name == "random":  # complex tensors of no group, some entries zero
            def rand(*shape):
                values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                return np.where(rng.random(shape) < 0.3, 0, values)

            algebra = HopfAlgebra(["b0", "b1", "b2"], rand(3, 3, 3), rand(3, 3, 3), rand(3), rand(3), rand(3, 3))
        else:
            algebra = builtin_algebra(name)
        prims = [MUL, COMUL, UNIT, COUNIT, ANTIPODE, SWAP, unitary("u", haar_unitary(rng, algebra.dim))]
        for prim in prims:
            assert hopfcirc.circuit._transitions(algebra, prim) == loop_transitions(algebra, prim), prim

    @pytest.mark.parametrize("name,n", [("Z2", 5), ("Z3", 4), ("S3", 3)])
    def test_id_runs_at_start_middle_and_end(self, name, n, monkeypatch):
        algebra = builtin_algebra(name)
        u = unitary("u", haar_unitary(np.random.default_rng(algebra.dim), algebra.dim))
        layers = (
            (u,) + (ID,) * (n - 1),  # a run at the end
            (ID,) * (n - 1) + (u,),  # at the start
            (u,) + (ID,) * (n - 2) + (u,),  # in the middle
            (ID, COMUL) + (ID,) * (n - 2),
            (ID,) * (n - 2) + (MUL, ID),
            (ANTIPODE, SWAP) + (ID,) * (n - 3),
            (ID,) * (n - 1) + (COUNIT,),
            (UNIT,) + (ID,) * (n - 1),
            (ID,) * n,
        )
        c = Circuit(algebra, wires_in=n, layers=layers)
        kinds = []
        transitions = hopfcirc.circuit._transitions

        def recording(algebra, prim):
            kinds.append(prim.kind)
            return transitions(algebra, prim)

        monkeypatch.setattr(hopfcirc.circuit, "_transitions", recording)
        got = evaluate_bruteforce_map(c).matrix
        assert np.max(np.abs(got - evaluate(c).matrix)) <= 1e-12
        assert kinds and "Id" not in kinds  # every Id run is a plain digit copy

    @pytest.mark.parametrize("name,n", [("Z2", 4), ("Z3", 4), ("S3", 3)])
    @pytest.mark.parametrize("rotated", [False, True], ids=["exact", "rotated"])
    def test_id_swap_layers_rekey_assignments(self, name, n, rotated, monkeypatch):
        # layers of only Ids and Swaps, alone and between layers whose
        # Mul and Counit merge assignments; a rotation makes the map inexact
        algebra = builtin_algebra(name)
        u = unitary("u", haar_unitary(np.random.default_rng(algebra.dim), algebra.dim))
        adjacent = ((SWAP, SWAP), (ID, SWAP, ID)) if n == 4 else ()
        layers = (
            ((u,) + (ID,) * (n - 1),) * rotated
            + ((ID,) * n, (SWAP,) + (ID,) * (n - 2), (ID,) * (n - 2) + (SWAP,))
            + adjacent
            + ((MUL,) + (ID,) * (n - 2), (ID,) * (n - 3) + (SWAP,), (SWAP,) + (ID,) * (n - 3))
            + ((ID,) * (n - 2) + (u,),) * rotated
            + ((COUNIT,) + (ID,) * (n - 2), (COMUL,) + (ID,) * (n - 3), (ID,) * (n - 3) + (SWAP,))
            + ((UNIT,) + (ID,) * (n - 1), (ID,) * (n - 2) + (SWAP,))
        )
        c = Circuit(algebra, wires_in=n, layers=layers)
        kinds = []
        transitions = hopfcirc.circuit._transitions

        def recording(algebra, prim):
            kinds.append(prim.kind)
            return transitions(algebra, prim)

        monkeypatch.setattr(hopfcirc.circuit, "_transitions", recording)
        got = evaluate_bruteforce_map(c).matrix
        assert {"Mul", "Counit"} <= set(kinds) and not {"Id", "Swap"} & set(kinds)
        for want in (evaluate(c).matrix, loop_circuit_map(c)):
            if rotated:
                assert np.max(np.abs(got - want)) <= 1e-12
            else:
                assert np.array_equal(got, want)
        for idx in range(0, got.shape[1], 7):
            assert np.array_equal(evaluate_bruteforce(c, idx), got[:, idx])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            evaluate_bruteforce(build_cnot(Z2), 4)

    @pytest.mark.parametrize("algebra", [Z2, Z3], ids=["Z2", "Z3"])
    def test_random_circuits_match_dense_evaluation(self, algebra):
        rng = np.random.default_rng(99)
        for _ in range(50):
            circuit = random_circuit(rng, algebra)
            dense = evaluate(circuit)
            n_in = dense.base_dim**dense.wires_in
            for idx in range(n_in):
                column = evaluate_bruteforce(circuit, idx)
                assert np.max(np.abs(column - dense.matrix[:, idx])) <= 1e-12

    def test_unit_and_counit_edges(self):
        # produce a wire from nothing, then absorb one
        c = Circuit(Z2, wires_in=1, layers=((UNIT, ID), (COUNIT, ANTIPODE)))
        dense = evaluate(c)
        for idx in range(2):
            column = evaluate_bruteforce(c, idx)
            assert np.array_equal(column, dense.matrix[:, idx])


class TestBuildCnot:
    def test_z2_matrix_entries(self):
        m = evaluate(build_cnot(Z2))
        ones = {(0, 0), (1, 1), (3, 2), (2, 3)}
        for r in range(4):
            for c in range(4):
                assert m.matrix[r, c] == (1.0 if (r, c) in ones else 0.0)

    def test_self_inverse(self):
        m = evaluate(build_cnot(Z2)).matrix
        assert np.array_equal(m @ m, np.eye(4))

    def test_z3_controlled_shift(self):
        out = evaluate(build_cnot(Z3)).matrix @ basis_state(3, [1, 1])
        assert np.array_equal(out, basis_state(3, [1, 2]))

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z5", "S3"])
    def test_group_cnot_is_permutation(self, name):
        algebra = builtin_algebra(name)
        m = evaluate(build_cnot(algebra)).matrix
        for col in m.T:
            assert np.count_nonzero(col) == 1 and np.max(col.real) == 1.0
        assert is_unitary(evaluate(build_cnot(algebra)))


class TestApplyMeasure:
    def test_apply_cnot(self):
        out = evaluate(build_cnot(Z2)).matrix @ basis_state(2, [1, 0])
        assert np.array_equal(out, basis_state(2, [1, 1]))

    def test_apply_identity(self):
        rng = np.random.default_rng(23)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = evaluate(Circuit(Z2, wires_in=2, layers=()))
        assert np.array_equal(m.matrix @ state, state)

    def test_measure_basis_vector(self):
        dist = measure(basis_state(2, [1, 0, 0]), 2)
        assert dist.entries == (("100", 1.0),)
        assert dist.norm_in == 1.0

    def test_measure_equal_superposition(self):
        bell = (basis_state(2, [0, 0]) + basis_state(2, [1, 1])) / np.sqrt(2)
        dist = measure(bell, 2)
        assert dict(dist.entries) == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}
        assert dist.norm_in == pytest.approx(1.0)

    def test_measure_reports_unnormalized_norm(self):
        dist = measure(2.0 * basis_state(2, [0]), 2)
        assert dist.norm_in == pytest.approx(4.0)
        assert dist.entries == (("0", 1.0),)

    def test_measure_generalized_output_matches_bruteforce(self):
        circuit = generalized_circuit(HADAMARD)
        idx = digits_to_index([1, 0], 2)
        column = evaluate_bruteforce(circuit, idx)
        dist = measure(column, 2)
        weights = np.abs(column) ** 2
        assert dist.norm_in == pytest.approx(float(weights.sum()))
        for label, prob in dist.entries:
            i = digits_to_index([int(ch) for ch in label], 2)
            assert prob == pytest.approx(float(weights[i] / weights.sum()))
        assert sum(p for _, p in dist.entries) == pytest.approx(1.0, abs=1e-12)

    def test_annihilated_state_raises(self):
        with pytest.raises(AnnihilatedStateError):
            measure(np.zeros(4, dtype=complex), 2)
        with pytest.raises(AnnihilatedStateError):
            measure(np.full(4, 1e-15, dtype=complex), 2)

    def test_annihilating_circuit(self):
        # rotate into (f0 - f1)/sqrt(2), then the counit sums the coefficients
        c = Circuit(Z2, wires_in=1, layers=((unitary("h", HADAMARD),), (COUNIT,)))
        out = evaluate(c).matrix @ basis_state(2, [1])
        with pytest.raises(AnnihilatedStateError, match="annihilated"):
            measure(out, 2)

    def test_measure_bad_length(self):
        with pytest.raises(ValueError, match="power"):
            measure(np.ones(3), 2)


class TestIsUnitary:
    def test_cnot_is_unitary(self):
        assert is_unitary(evaluate(build_cnot(Z2)))

    def test_generalized_map_is_not(self):
        assert not is_unitary(evaluate(generalized_circuit(HADAMARD)))

    def test_multiply_layer_is_not(self):
        m = one_layer_map(Z2, (MUL,))
        assert not is_unitary(m)

    def test_random_unitary_layer(self):
        rng = np.random.default_rng(31)
        u = unitary("r", haar_unitary(rng, 2))
        assert is_unitary(one_layer_map(Z2, (u, ID)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.7071067811865476, 3e-200,
                                  1e308, -1e308, np.inf, np.nan]), min_size=32, max_size=32),
    )
    def test_gram_deviation_matches_identity_subtraction(self, rows, cols, values):
        m = np.empty((rows, cols), dtype=complex)
        m.real.flat, m.imag.flat = values[: rows * cols], values[16 : 16 + rows * cols]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m.conj().T @ m
            want = float(np.max(np.abs(gram - np.eye(cols))))
        got = hopfcirc.circuit._gram_deviation(m)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, -0.0, 3e-200, 1e200, 1e308, -1e308, np.inf, np.nan]), max_size=6),
    )
    def test_stacked_gram_deviation_equals_each_matrix(self, d, k, seed, specials):
        # unitaries, near unitaries and arbitrary matrices, with huge,
        # infinite and nan entries placed at random
        rng = np.random.default_rng(seed)
        kinds = rng.integers(0, 3, size=k)
        stack = np.array([
            haar_unitary(rng, d) if kind == 0
            else near_unitary(rng, d, 1e-11) if kind == 1
            else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for kind in kinds
        ])
        for value in specials:
            i, r, c = rng.integers(0, k), rng.integers(0, d), rng.integers(0, d)
            stack[i, r, c] = complex(value, stack[i, r, c].imag) if rng.random() < 0.5 else complex(0, value)
        got = hopfcirc.circuit._gram_deviation(stack)
        assert got.shape == (k,)
        for m, dev in zip(stack, got.tolist()):
            want = hopfcirc.circuit._gram_deviation(m.copy())
            assert dev == want or (math.isnan(dev) and math.isnan(want))

    def test_peak_memory(self):
        # m^H, the Gram matrix and its absolute values; no identity matrix
        m = evaluate(Circuit(Z2, wires_in=10, layers=((ID,) * 10,)))
        tracemalloc.start()
        try:
            assert is_unitary(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * m.matrix.nbytes


def perturbed_z2(mul_scale: float, antipode_scale: float) -> HopfAlgebra:
    """Z2 with its multiplication and antipode scaled, so that the CNOT
    block and the antipode are off from unitary by about twice the excess
    of each scale over 1."""
    z2 = z2_algebra()
    return HopfAlgebra(
        z2.basis_labels,
        mul=z2.mul * mul_scale,
        comul=z2.comul,
        unit=z2.unit,
        counit=z2.counit,
        antipode=z2.antipode * antipode_scale,
    )


#: widest layer boundary per algebra, so that the full map stays small
CERTIFICATE_MAX_WIRES = {"Z2": 5, "Z3": 4, "S3": 3, "perturbed Z2": 5}


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(sorted(CERTIFICATE_MAX_WIRES)),
    st.sampled_from(["random", "compiled", "structured"]),
    st.integers(0, 2**32 - 1),
)
def test_certificate_agrees_with_map(name, family, seed):
    rng = np.random.default_rng(seed)
    if name == "perturbed Z2":
        algebra = perturbed_z2(1 + 10.0 ** rng.uniform(-15, -9), 1 + 10.0 ** rng.uniform(-15, -9))
    else:
        algebra = ENGINE_ALGEBRAS[name]
    max_wires = CERTIFICATE_MAX_WIRES[name]
    if family == "random":
        c = random_circuit(rng, algebra, max_wires=max_wires)
    elif family == "compiled":
        wires = int(rng.integers(1, max_wires))
        gates = random_gate_list(rng, wires, int(rng.integers(0, 12)), algebra.dim)
        c = compile_gate_circuit(algebra, wires, gates)
    else:
        c = certificate_circuit(rng, algebra, max_wires=max_wires)
    assert circuit_is_unitary(c) == is_unitary(evaluate(c))


class TestCircuitIsUnitary:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Record the input width of every circuit whose full map is built."""
        widths = []

        def recording(circuit):
            widths.append(circuit.wires_in)
            return evaluate(circuit)

        monkeypatch.setattr(hopfcirc.engine, "evaluate", recording)
        return widths

    def test_compiled_circuit_certified_without_its_map(self, evaluated):
        # every copy-then-multiply run is a bijective index step: no map at all
        gates = random_gate_list(np.random.default_rng(5), 6, 40)
        assert circuit_is_unitary(compile_gate_circuit(Z2, 6, gates))
        assert evaluated == []

    def test_wide_identity_certified_without_its_map(self, evaluated):
        assert circuit_is_unitary(Circuit(Z2, 20, ((ID,) * 20,)))
        assert circuit_is_unitary(Circuit(Z2, 3, ()))
        assert evaluated == []

    def test_non_square_is_false_without_its_map(self, evaluated):
        assert not circuit_is_unitary(generalized_circuit(HADAMARD))
        assert evaluated == []

    def test_misplaced_multiply_falls_back(self, evaluated):
        # copy wire 0, then multiply wires 0 and 1: (g, h) -> (g*g, h), which
        # for Z2 forgets g
        c = Circuit(Z2, 2, ((COMUL, ID), (MUL, ID)))
        assert not circuit_is_unitary(c)
        assert evaluated == [2]

    def test_unit_counit_pair_falls_back(self, evaluated):
        # x -> unit (x) x -> counit(unit) x = x: without digit maps the
        # structure matrices carry no bound, so the map decides
        layers = ((UNIT, ID), (COUNIT, ID))
        assert circuit_is_unitary(Circuit(matrix_only(Z2), 1, layers))
        assert evaluated == [1]
        # with them the pair folds into one index step, the identity
        assert circuit_is_unitary(Circuit(Z2, 1, layers))
        assert evaluated == [1]

    @pytest.mark.parametrize("repeats,expected", [(1, True), (2, False)])
    def test_near_edge_unitary_falls_back(self, evaluated, repeats, expected):
        # each factor is accepted on its own; two of them drift past 1e-10
        u = unitary("near", near_unitary(np.random.default_rng(9), 2, 0.99e-10))
        c = Circuit(Z2, 1, ((u,),) * repeats)
        assert circuit_is_unitary(c) is expected
        assert evaluated == [1]

    def test_small_deviations_certified_until_the_margin(self, evaluated):
        u = unitary("near", near_unitary(np.random.default_rng(3), 2, 1e-13))
        assert circuit_is_unitary(Circuit(Z2, 1, ((u,),) * 10))
        assert evaluated == []
        # 100 factors bound the deviation by about 2e-11, over the margin of
        # 1e-11, so the map decides; its deviation is about 1e-11
        assert circuit_is_unitary(Circuit(Z2, 1, ((u,),) * 100))
        assert evaluated == [1]

    def test_algebra_blocks_checked(self, evaluated):
        # a perturbed algebra has no digit maps: its copy and multiply carry
        # no bound, and an antipode off by ~2e-9 is no certificate, so the
        # map decides both
        assert not circuit_is_unitary(build_cnot(perturbed_z2(1 + 1e-9, 1.0)))
        assert evaluated == [2]
        assert not circuit_is_unitary(Circuit(perturbed_z2(1.0, 1 + 1e-9), 1, ((ANTIPODE,),)))
        assert evaluated == [2, 1]
        # (g, h) -> (g^-1, g^-1 h) is one bijective index step
        assert circuit_is_unitary(Circuit(Z3, 2, ((ANTIPODE, ID), (COMUL, ID), (ID, MUL))))
        assert evaluated == [2, 1]
        # an antipode matrix step adds its exact deviation, 0
        assert circuit_is_unitary(Circuit(matrix_only(Z3), 1, ((ANTIPODE,),)))
        assert evaluated == [2, 1]

    def test_primitive_keeps_its_deviation(self):
        assert unitary("h", HADAMARD).deviation <= 1e-15
        assert unitary("near", near_unitary(np.random.default_rng(1), 2, 5e-11)).deviation == (
            pytest.approx(5e-11, rel=1e-4)
        )
        assert ID.deviation == 0.0


class TestPlan:
    @pytest.mark.parametrize(
        "circuit",
        [
            compile_gate_circuit(Z2, 5, [Cnot(0, 4), Cnot(3, 1)]),
            generalized_circuit(HADAMARD),
            Circuit(Z2, 2, ((COMUL, ID), (MUL, ID))),  # falls back to the full map
            Circuit(Z3, 2, ((ANTIPODE, ID), (COMUL, ID), (ID, MUL))),
        ],
        ids=["compiled", "non-square", "fallback", "antipode"],
    )
    def test_one_plan_per_circuit(self, validated, circuit):
        d = circuit.algebra.dim
        column = basis_state(d, [1] * circuit.wires_in)[:, None]
        first = run(circuit, column)
        evaluate(circuit)
        circuit_is_unitary(circuit)
        assert np.array_equal(run(circuit, column), first)
        assert sum(c is circuit for c in validated) == 1

    def test_invalid_circuit_refused_on_every_call(self):
        c = Circuit(Z2, 2, ((ID,),))
        for _ in range(2):
            with pytest.raises(CircuitError, match="consumes 1 wires, 2 available"):
                run(c, np.eye(4))

    def test_ids_skipped_and_swap_runs_folded(self):
        # each CNOT is a Comul and a Mul between two ladders of Swaps; with
        # digit maps the whole circuit, Swaps included, is one bijective run
        gates = [Cnot(0, 4), Cnot(3, 1)]
        c = compile_gate_circuit(Z2, 5, gates)
        plan = hopfcirc.engine._plan(c)
        assert [(type(step), step.bijective) for step in plan.steps] == [(hopfcirc.engine._Run, True)]
        assert plan.final_perm is None
        assert plan.profile == tuple(validate(c))
        assert np.array_equal(evaluate(c).matrix, direct_gate_map(Z2, 5, gates).matrix)
        # without them, Ids give no step and the Swaps fold into the
        # permutations of the matrix steps and of the end
        c = compile_gate_circuit(matrix_only(Z2), 5, gates)
        plan = hopfcirc.engine._plan(c)
        assert [step.matrix.shape for step in plan.steps] == [(4, 2), (2, 4)] * 2
        assert [step.perm is not None for step in plan.steps] == [True, False, True, False]
        assert plan.final_perm is not None
        assert np.max(np.abs(evaluate(c).matrix - evaluate_bruteforce_map(c).matrix)) <= 1e-12


class TestPrimitives:
    def test_unitary_factory_rejects_nonunitary(self):
        with pytest.raises(CircuitError, match="not unitary"):
            unitary("bad", [[1, 0], [0, 2]])

    @pytest.mark.parametrize("entry", [1e308, np.nan, np.inf])
    def test_unitary_factory_rejects_overflow_and_nan_quietly(self, entry):
        # the Gram matrix overflows or is nan: rejected, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CircuitError, match="not unitary"):
                unitary("bad", [[entry, 0], [0, 1]])

    def test_unitary_factory_rejects_nonsquare(self):
        with pytest.raises(CircuitError, match="square"):
            unitary("bad", np.ones((2, 3)))

    def test_arities(self):
        assert (ID.wires_in, ID.wires_out) == (1, 1)
        assert (MUL.wires_in, MUL.wires_out) == (2, 1)
        assert (COMUL.wires_in, COMUL.wires_out) == (1, 2)
        assert (UNIT.wires_in, UNIT.wires_out) == (0, 1)
        assert (COUNIT.wires_in, COUNIT.wires_out) == (1, 0)
        assert (ANTIPODE.wires_in, ANTIPODE.wires_out) == (1, 1)
        assert (SWAP.wires_in, SWAP.wires_out) == (2, 2)


#: the widest vector per base dimension the label property draws
LABEL_MAX_ENTRIES = 4096


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(0, 0 if d == 1 else int(math.log(LABEL_MAX_ENTRIES, d) + 1e-9)),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_measure_matches_per_entry_labels(dim_wires, seed):
    """Labels (comma-separated above d = 10), entries and probabilities are
    exactly the per-entry loop's, zeros and underflowing weights skipped."""
    d, wires = dim_wires
    rng = np.random.default_rng(seed)
    n = d**wires
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec[rng.random(n) < rng.random()] = 0.0
    vec[rng.random(n) < 0.1] *= 1e-170  # squares to zero
    vec[rng.integers(n)] = 1.0  # never annihilated
    got = measure(vec, d)
    entries, norm_in = loop_measure(vec, d)
    assert got.entries == entries
    assert got.norm_in == norm_in


class TestWideDistribution:
    @pytest.mark.parametrize("wires", [19, 20])
    def test_product_state_probabilities_sum_to_one(self, wires):
        # a running sum of the 2^20 probabilities drifts past 1e-12
        half = 0.25
        ry = unitary("r", [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
        c = Circuit(Z2, wires, ((ry,) * wires,))
        distribution = measure(run(c, basis_state(2, [0] * wires)[:, None])[:, 0], 2)
        assert len(distribution.entries) == 2**wires
        assert distribution.entries[0][0] == "0" * wires
        assert distribution.entries[-1][0] == "1" * wires
        assert abs(math.fsum(p for _, p in distribution.entries) - 1.0) <= 1e-12


class TestBasisBookkeeping:
    def test_wire_zero_is_most_significant(self):
        assert digits_to_index([1, 0], 2) == 2
        assert index_to_digits(2, 2, 2) == [1, 0]
        assert digits_to_index([1, 2], 3) == 5
        assert index_to_digits(5, 3, 2) == [1, 2]

    def test_round_trip(self):
        for d, n in ((2, 4), (3, 3), (6, 2)):
            for i in range(d**n):
                assert digits_to_index(index_to_digits(i, d, n), d) == i
