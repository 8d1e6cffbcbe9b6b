import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcirc.algebra
import hopfcirc.engine
from hopfcirc.algebra import (
    _AXIOM_CIRCUITS,
    _AXIOM_SIDES,
    _deviation,
    BUILTIN_ALGEBRAS,
    GroupTableError,
    HopfAlgebra,
    builtin_algebra,
    check_axioms,
    cyclic_group_table,
    group_algebra,
    load_group_table,
    resolve_algebra,
    symmetric_group_3_table,
    z2_algebra,
)
from hopfcirc.circuit import ANTIPODE, COMUL, COUNIT, MUL, Circuit
from hopfcirc.engine import _one_hot, evaluate, run

from helpers import REPO_ROOT, loop_axiom_deviations, loop_group_tables

AXIOM_NAMES = ["associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode"]


class TestZ2Structure:
    def test_multiplication_table_is_xor(self):
        mul = z2_algebra().mul
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert mul[a, b, c] == (1.0 if c == a ^ b else 0.0)

    def test_comultiplication_is_copy(self):
        comul = z2_algebra().comul
        assert comul[0, 0, 0] == 1.0 and comul[1, 1, 1] == 1.0
        assert comul[0, 0, 1] == 0.0
        assert np.count_nonzero(comul) == 2

    def test_unit_counit_antipode(self):
        h = z2_algebra()
        assert np.array_equal(h.unit, [1.0, 0.0])
        assert np.array_equal(h.counit, [1.0, 1.0])
        assert np.array_equal(h.antipode, np.eye(2))

    def test_axioms_pass_with_zero_deviation(self):
        report = check_axioms(z2_algebra(), 0.0)
        assert report.passed
        assert report.max_deviation == 0.0
        assert [c.name for c in report.checks] == AXIOM_NAMES
        assert report.commutative and report.cocommutative


class TestDirectConstruction:
    STRUCTURE = {"mul": np.zeros((2, 2, 2)), "comul": np.zeros((2, 2, 2)), "unit": [1.0, 0.0],
                 "counit": [1.0, 1.0], "antipode": np.eye(2)}

    def test_rejects_nonfinite(self):
        for field in self.STRUCTURE:
            for bad in (np.nan, np.inf):
                structure = {k: np.array(v, dtype=complex) for k, v in self.STRUCTURE.items()}
                structure[field].flat[0] = bad
                with pytest.raises(ValueError, match=f"{field} tensor entries must be finite"):
                    HopfAlgebra(("f0", "f1"), **structure)

    def test_structure_tensors_read_only(self):
        h = z2_algebra()
        for field in self.STRUCTURE:
            with pytest.raises(ValueError, match="read-only"):
                getattr(h, field).flat[0] = 2.0

    def test_labels_checked(self):
        with pytest.raises(ValueError, match="^algebra needs at least one basis element$"):
            HopfAlgebra((), **self.STRUCTURE)
        with pytest.raises(ValueError, match="^basis labels must be distinct$"):
            HopfAlgebra(("f0", "f0"), **self.STRUCTURE)

    def test_equality_hash_and_repr(self):
        assert z2_algebra() == z2_algebra() and hash(z2_algebra()) == hash(z2_algebra())
        assert z2_algebra() != builtin_algebra("Z3")
        assert z2_algebra().__eq__("Z2") is NotImplemented and z2_algebra() != "Z2"
        assert repr(z2_algebra()) == "HopfAlgebra(dim=2, labels=['f0', 'f1'])"

    def test_caller_arrays_are_copied(self):
        mul = z2_algebra().mul.copy()
        h = HopfAlgebra(("f0", "f1"), mul, **{k: v for k, v in self.STRUCTURE.items() if k != "mul"})
        mul[0, 0, 0] = 5.0
        assert h.mul[0, 0, 0] == 1.0


def _act(h, prim, *elements):
    """An operation on algebra elements as a one-primitive circuit: prim run
    on the tensor product of the elements (one wire each)."""
    state = np.ones(1)
    for x in elements:
        state = np.kron(state, x)
    return run(Circuit(h, len(elements), ((prim,),)), state[:, None])[:, 0]


def _basis(h, index):
    return np.eye(h.dim)[index]


class TestElementOps:
    """Product, coproduct, counit and antipode of algebra elements, i.e. of
    one-wire states, through the engine."""

    def test_basis_products_match_xor(self):
        h = z2_algebra()
        f0, f1 = _basis(h, 0), _basis(h, 1)
        assert np.array_equal(_act(h, MUL, f1, f1), f0)
        assert np.array_equal(_act(h, MUL, f0, f1), f1)
        assert np.array_equal(_act(h, MUL, f1, f0), f1)
        assert np.array_equal(_act(h, MUL, f0, f0), f0)

    def test_unit_law(self):
        h = z2_algebra()
        f0 = _basis(h, 0)
        x = np.array([0.3 + 0.1j, -2.0])
        assert np.array_equal(_act(h, MUL, f0, x), x)
        assert np.array_equal(_act(h, MUL, x, f0), x)

    def test_bilinear_expansion_cancels(self):
        h = z2_algebra()
        f0, f1 = _basis(h, 0), _basis(h, 1)
        assert np.array_equal(_act(h, MUL, f0 + f1, f0 - f1), [0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_multiply_bilinear(self, seed1, seed2):
        h = builtin_algebra("Z3")
        rng = np.random.default_rng([seed1, seed2])
        x, y, z = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3))
        alpha, beta = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        left = _act(h, MUL, alpha * x + beta * y, z)
        right = alpha * _act(h, MUL, x, z) + beta * _act(h, MUL, y, z)
        assert np.max(np.abs(left - right)) <= 1e-13
        left = _act(h, MUL, z, alpha * x + beta * y)
        right = alpha * _act(h, MUL, z, x) + beta * _act(h, MUL, z, y)
        assert np.max(np.abs(left - right)) <= 1e-13

    def test_algebra_mismatch(self):
        # an element of Z3 has three coefficients: no wire of Z2 takes it
        with pytest.raises(ValueError, match="states must be"):
            _act(z2_algebra(), MUL, _basis(z2_algebra(), 0), _basis(builtin_algebra("Z3"), 0))

    def test_comultiply_basis_and_linearity(self):
        h = z2_algebra()
        d1 = _act(h, COMUL, _basis(h, 1)).reshape(2, 2)
        assert d1[1, 1] == 1.0 and np.count_nonzero(d1) == 1
        zero = _act(h, COMUL, [0.0, 0.0])
        assert np.count_nonzero(zero) == 0
        both = _act(h, COMUL, _basis(h, 0) + _basis(h, 1)).reshape(2, 2)
        assert both[0, 0] == 1.0 and both[1, 1] == 1.0 and np.count_nonzero(both) == 2

    def test_counit_values(self):
        h = z2_algebra()
        f0, f1 = _basis(h, 0), _basis(h, 1)
        assert np.array_equal(_act(h, COUNIT, f0), [1.0])
        assert np.array_equal(_act(h, COUNIT, f0 - f1), [0.0])
        z3 = builtin_algebra("Z3")
        assert np.array_equal(_act(z3, COUNIT, np.ones(3)), [3.0])

    def test_antipode_values(self):
        h = z2_algebra()
        f1 = _basis(h, 1)
        assert np.array_equal(_act(h, ANTIPODE, f1), f1)
        z3 = builtin_algebra("Z3")
        assert np.array_equal(_act(z3, ANTIPODE, _basis(z3, 1)), _basis(z3, 2))

    def test_antipode_is_involution(self):
        for name in ("Z2", "Z3", "Z4", "Z5", "S3"):
            h = builtin_algebra(name)
            rng = np.random.default_rng(5)
            x = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
            assert np.array_equal(_act(h, ANTIPODE, _act(h, ANTIPODE, x)), x)

    def test_coeff_length_checked(self):
        with pytest.raises(ValueError, match="states must be"):
            _act(z2_algebra(), ANTIPODE, [1.0, 0.0, 0.0])


def _group_table_cases() -> list:
    """(labels, table) of the built-in algebras, and of the benchmark's
    order-6 to order-8 groups, each of these relabelled so that its
    identity is not element 0."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    cases = [pytest.param(*cyclic_group_table(n), id=f"Z{n}") for n in (2, 3, 4, 5)]
    cases.append(pytest.param(*symmetric_group_3_table(), id="S3"))
    rng = random.Random(5)
    for name, table in workloads.group_tables().items():
        table = workloads.relabel(rng, table)
        while table[0][0] == 0:
            table = workloads.relabel(rng, table)
        cases.append(pytest.param([f"g{i}" for i in range(len(table))], table, id=f"relabelled-{name}"))
    return cases


class TestGroupAlgebra:
    def test_z2_table_reproduces_z2_algebra(self):
        # z2_algebra is built from this table, so compare both with the XOR
        # tensors written out by hand
        mul = np.zeros((2, 2, 2))
        mul[0, 0, 0] = mul[0, 1, 1] = mul[1, 0, 1] = mul[1, 1, 0] = 1.0
        comul = np.zeros((2, 2, 2))
        comul[0, 0, 0] = comul[1, 1, 1] = 1.0
        longhand = HopfAlgebra(("f0", "f1"), mul, comul, [1.0, 0.0], [1.0, 1.0], np.eye(2))
        assert group_algebra(["f0", "f1"], [[0, 1], [1, 0]]) == longhand
        assert z2_algebra() == longhand

    @pytest.mark.parametrize("labels,table", _group_table_cases())
    def test_tensors_and_digit_maps_equal_loop_built(self, labels, table):
        h = group_algebra(labels, table)
        want = loop_group_tables(table)
        for name, tensor in want["tensors"].items():
            assert np.array_equal(getattr(h, name), tensor), name
        longhand = HopfAlgebra(labels, **want["tensors"])
        assert h.maps.keys() == longhand.maps.keys()
        for kind, matrix in longhand.maps.items():
            assert np.array_equal(h.maps[kind], matrix), kind
        assert h.digit_maps.keys() == want["digit_maps"].keys()
        for kind, entries in want["digit_maps"].items():
            got = h.digit_maps[kind]
            assert len(got) == len(entries), kind
            for a, b in zip(got, entries):
                assert type(a) is type(b) and np.array_equal(a, b), kind
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape and not a.flags.writeable, kind

    @pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
    def test_builtin_is_the_group_algebra_of_its_table(self, name, monkeypatch):
        # builtin_algebra does not validate its table on a load: this test
        # does, and compares what it builds with group_algebra bit for bit
        labels, table = hopfcirc.algebra._BUILTIN_TABLES[name]()
        assert hopfcirc.algebra._validate_group_table(table) == 0  # the identity builtin_algebra assumes
        want = group_algebra(labels, table)
        validated = []
        monkeypatch.setattr(hopfcirc.algebra, "_validate_group_table", validated.append)
        got = builtin_algebra(name)
        assert validated == []

        def same(a, b):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

        # HopfAlgebra(...) converts what it is given to complex itself
        longhand = HopfAlgebra(labels, want.mul, want.comul, want.unit, want.counit, want.antipode)
        assert got.basis_labels == want.basis_labels == tuple(labels)
        for tensor in ("mul", "comul", "unit", "counit", "antipode"):
            same(getattr(got, tensor), getattr(want, tensor))
            same(getattr(got, tensor), getattr(longhand, tensor))
        assert got.maps.keys() == want.maps.keys()
        for kind, matrix in want.maps.items():
            same(got.maps[kind], matrix)
        assert got.digit_maps.keys() == want.digit_maps.keys()
        for kind, entries in want.digit_maps.items():
            assert len(got.digit_maps[kind]) == len(entries), kind
            for a, b in zip(got.digit_maps[kind], entries):
                assert type(a) is type(b), kind
                if isinstance(b, np.ndarray):
                    same(a, b)
                else:
                    assert a == b, kind

    def test_z3_antipode_swaps_inverses(self):
        labels, table = cyclic_group_table(3)
        h = group_algebra(labels, table)
        s = h.antipode
        assert s[0, 0] == 1.0 and s[1, 2] == 1.0 and s[2, 1] == 1.0
        assert check_axioms(h, 1e-12).passed

    def test_group_algebra_axioms_match_loop_oracle(self):
        for name in ("Z3", "S3"):
            h = builtin_algebra(name)
            report = check_axioms(h, 1e-12)
            oracle = loop_axiom_deviations(h)
            for c in report.checks:
                assert abs(c.deviation - oracle[c.name]) <= 1e-13

    def test_comul_of_basis_is_rank_one_diagonal(self):
        h = builtin_algebra("Z5")
        for g in range(h.dim):
            d = h.comul[g]  # the image of basis element g in the tensor square
            assert d[g, g] == 1.0 and np.count_nonzero(d) == 1

    def test_antipode_is_permutation_matrix(self):
        for name in ("Z2", "Z3", "Z4", "Z5", "S3"):
            s = builtin_algebra(name).antipode
            assert np.array_equal(np.sort(s.real, axis=1)[:, -1], np.ones(s.shape[0]))
            assert np.array_equal(s.real.sum(axis=0), np.ones(s.shape[0]))
            assert np.array_equal(s @ s, np.eye(s.shape[0]))

    def test_s3_is_noncommutative_but_valid(self):
        h = builtin_algebra("S3")
        assert h.dim == 6
        report = check_axioms(h, 1e-12)
        assert report.passed
        assert not report.commutative
        assert report.cocommutative

    def test_s3_table_is_a_group(self):
        labels, table = symmetric_group_3_table()
        assert sorted(labels) == ["012", "021", "102", "120", "201", "210"]
        # (01) composed with (12): left action gives (01)(12) = the 3-cycle 120
        assert labels[table[labels.index("102")][labels.index("021")]] == "120"

    def test_rows_not_permutations_rejected(self):
        with pytest.raises(GroupTableError, match="rows not permutations"):
            group_algebra(["a", "b"], [[0, 0], [0, 0]])

    def test_columns_not_permutations_rejected(self):
        with pytest.raises(GroupTableError, match="columns not permutations"):
            group_algebra(["a", "b"], [[0, 1], [0, 1]])

    def test_missing_identity_rejected(self):
        # subtraction mod 3 is a quasigroup with no two-sided identity
        table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(GroupTableError, match="no identity"):
            group_algebra(["a", "b", "c"], table)

    def test_nonassociative_loop_rejected(self):
        with pytest.raises(GroupTableError, match="associativity fails"):
            group_algebra(list("abcde"), NONASSOCIATIVE_LOOP)

    def test_bad_entries_rejected(self):
        with pytest.raises(GroupTableError, match="indices"):
            group_algebra(["a", "b"], [[0, 1], [1, 7]])
        with pytest.raises(GroupTableError, match="square"):
            group_algebra(["a", "b"], [[0, 1]])

    @pytest.mark.parametrize(
        "table",
        [[[True, False], [False, True]], [[0, 1], [1, 0.0]]],
        ids=["bools", "float"],
    )
    def test_type_confused_table_rejected(self, table):
        with pytest.raises(GroupTableError, match="not a group"):
            group_algebra(["a", "b"], table)

    @pytest.mark.parametrize(
        "table",
        [((0, 1), (1, 0)), [(0, 1), (1, 0)], np.array([[0, 1], [1, 0]])],
        ids=["tuple-table", "tuple-rows", "numpy"],
    )
    def test_non_list_sequences_accepted(self, table):
        assert group_algebra(["a", "b"], table).dim == 2

    @pytest.mark.parametrize(
        "table", [5, [5], "01", [[0, 1], "10"]], ids=["int", "int-row", "string", "string-row"]
    )
    def test_loaded_table_must_be_list_of_lists(self, tmp_path, table):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "table": table}))
        with pytest.raises(GroupTableError, match="'table' must be a list of rows"):
            load_group_table(path)

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            group_algebra(["only"], [[0, 1], [1, 0]])


class TestCheckAxioms:
    def test_corrupted_mul_fails(self):
        h = z2_algebra()
        mul = h.mul.copy()
        mul[1, 1, 0] = 0.0
        bad = HopfAlgebra(h.basis_labels, mul, h.comul, h.unit, h.counit, h.antipode)
        report = check_axioms(bad, 1e-12)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        # zeroing the 11->0 entry leaves both sides of the associativity
        # identity zero; what actually breaks is counit-of-product
        # compatibility and the antipode identity
        assert failing == {"bialgebra", "antipode"}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_random_algebra_matches_loop_oracle(self, d, seed, sym_mul, sym_comul):
        # random complex structure tensors satisfy no axiom, so a wrong wire
        # order in any axiom circuit shows up as a wrong deviation
        rng = np.random.default_rng(seed)

        def rand(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        mul, comul = rand(d, d, d), rand(d, d, d)
        if sym_mul:
            mul = (mul + mul.swapaxes(0, 1)) / 2
        if sym_comul:
            comul = (comul + comul.swapaxes(1, 2)) / 2
        h = HopfAlgebra(
            [f"b{i}" for i in range(d)],
            mul, comul, rand(d), rand(d), rand(d, d),
        )
        tol = 1e-12
        report = check_axioms(h, tol)
        oracle = loop_axiom_deviations(h)
        assert [c.name for c in report.checks] == AXIOM_NAMES
        for c in report.checks:
            assert abs(c.deviation - oracle[c.name]) <= 1e-12 * oracle[c.name]
            assert c.passed == (c.deviation <= tol)
        assert report.commutative == (np.max(np.abs(mul - mul.swapaxes(0, 1))) <= tol)
        assert report.cocommutative == (np.max(np.abs(comul - comul.swapaxes(1, 2))) <= tol)

    def test_order_above_limit_refused(self):
        d = 17
        zeros = np.zeros((d, d, d))
        h = HopfAlgebra(
            [str(i) for i in range(d)], zeros, zeros,
            np.zeros(d), np.zeros(d), np.zeros((d, d)),
        )
        with pytest.raises(ValueError, match="order 17 .*order at most 16"):
            check_axioms(h, 1e-12)

    def test_report_covers_exactly_six_families(self):
        report = check_axioms(builtin_algebra("Z4"), 1e-12)
        assert [c.name for c in report.checks] == AXIOM_NAMES
        assert report.passed and all(c.deviation == 0.0 for c in report.checks)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            check_axioms(z2_algebra(), -1.0)

    def test_as_dict_round_trips_fields(self):
        doc = check_axioms(z2_algebra(), 1e-12).as_dict()
        assert doc["passed"] is True
        assert {a["name"] for a in doc["axioms"]} == set(AXIOM_NAMES)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Circuits passed to the algebra module's evaluate, in call order."""
    calls = []
    real = hopfcirc.algebra.evaluate

    def counting(circuit):
        calls.append(circuit)
        return real(circuit)

    monkeypatch.setattr(hopfcirc.algebra, "evaluate", counting)
    return calls


@pytest.fixture
def planned(monkeypatch):
    """Circuits the engine builds a plan for, in call order."""
    calls = []
    real = hopfcirc.engine._build_plan

    def counting(circuit):
        calls.append(circuit)
        return real(circuit)

    monkeypatch.setattr(hopfcirc.engine, "_build_plan", counting)
    return calls


#: the sides a group algebra's plans leave to evaluate, as (wires in,
#: layers): a lone M or DELTA is a matrix step, so both sides of the two
#: informational rows are evaluated
DENSE_SIDES = [(wires, side) for _, wires, left, right in _AXIOM_CIRCUITS[-2:] for side in (left, right)]


class TestAxiomsEvaluatedOnce:
    """Each check_axioms call builds the 24 distinct circuits of the 14
    identities once, and plans each once; a group algebra's plans give 24
    of the 28 sides as functions on basis indices, so only the other 4 are
    evaluated.  Building or loading an algebra builds no circuit, and
    nothing is kept between calls."""

    def test_second_tolerance_evaluates_again(self, evaluate_calls):
        h = z2_algebra()
        mul = h.mul.copy()
        mul[1, 1, 0] = 0.0
        bad = HopfAlgebra(h.basis_labels, mul, h.comul, h.unit, h.counit, h.antipode)
        strict = check_axioms(bad, 0.0)
        assert len(evaluate_calls) == 2 * len(_AXIOM_CIRCUITS) == 28
        loose = check_axioms(bad, 1.0)
        assert len(evaluate_calls) == 4 * len(_AXIOM_CIRCUITS)
        assert [(c.name, c.deviation) for c in strict.checks] == [
            (c.name, c.deviation) for c in loose.checks
        ]
        # bialgebra and antipode deviate by exactly 1.0
        assert {c.name for c in strict.checks if not c.passed} == {"bialgebra", "antipode"}
        assert not strict.passed and loose.passed
        assert (strict.tol, loose.tol) == (0.0, 1.0)

    def test_loading_evaluates_nothing(self, evaluate_calls, planned, tmp_path):
        for name in BUILTIN_ALGEBRAS:
            builtin_algebra(name)
        group_algebra(*cyclic_group_table(8))
        path = tmp_path / "z2xz4.json"
        table = [[(a // 4 + b // 4) % 2 * 4 + (a + b) % 4 for b in range(8)] for a in range(8)]
        path.write_text(json.dumps({"labels": [f"g{i}" for i in range(8)], "table": table}))
        h = load_group_table(path)
        assert h.dim == 8 and evaluate_calls == [] and planned == []
        report = check_axioms(h, 0.0)
        assert len(planned) == len(_AXIOM_SIDES) == 24
        assert [(c.wires_in, c.layers) for c in planned] == list(_AXIOM_SIDES)
        assert [(c.wires_in, c.layers) for c in evaluate_calls] == DENSE_SIDES
        assert report.passed and report.max_deviation == 0.0
        assert report.commutative and report.cocommutative

    def test_each_algebra_object_evaluates_once(self, evaluate_calls, planned):
        # a second call on the same algebra builds and plans every circuit
        # again: nothing is kept between calls
        h = builtin_algebra("S3")
        first = check_axioms(h, 1e-12)
        assert len(planned) == 24 and len(evaluate_calls) == 4
        assert check_axioms(h, 1e-12) == first
        assert len(planned) == 48 and len(evaluate_calls) == 8
        assert len({id(c) for c in planned}) == 48
        assert [(c.wires_in, c.layers) for c in evaluate_calls] == 2 * DENSE_SIDES
        assert first.passed and not first.commutative and first.cocommutative

    def test_bad_arguments_refused_before_evaluating(self, evaluate_calls):
        with pytest.raises(ValueError, match="nonnegative"):
            check_axioms(z2_algebra(), -1.0)
        assert evaluate_calls == []

    def test_bad_arguments_refused_before_planning(self, evaluate_calls, planned):
        with pytest.raises(ValueError, match="nonnegative"):
            check_axioms(z2_algebra(), -1.0)
        d = 17
        zeros = np.zeros((d, d, d))
        big = HopfAlgebra([str(i) for i in range(d)], zeros, zeros, np.zeros(d), np.zeros(d), np.zeros((d, d)))
        with pytest.raises(ValueError, match="order 17 .*order at most 16"):
            check_axioms(big, 1e-12)
        assert planned == [] and evaluate_calls == []


#: a loop of order 5 with identity 0 that is not associative
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def dense_deviations(algebra) -> list[float]:
    """Each identity's deviation from its two evaluated maps."""
    return [
        float(np.abs(evaluate(Circuit(algebra, w, left)).matrix - evaluate(Circuit(algebra, w, right)).matrix).max())
        for _, w, left, right in _AXIOM_CIRCUITS
    ]


def deviations(algebra) -> tuple[list[float], int]:
    """Each identity's deviation from _deviation, and the number of
    identities whose two sides both have an index image."""
    devs, indexed = [], 0
    for _, w, left, right in _AXIOM_CIRCUITS:
        lhs, rhs = Circuit(algebra, w, left), Circuit(algebra, w, right)
        devs.append(_deviation(lhs, rhs))
        indexed += _one_hot(lhs) is not None and _one_hot(rhs) is not None
    return devs, indexed


def bits(values: list[float]) -> list[str]:
    return [float(v).hex() for v in values]


class TestDeviation:
    """An identity compared on index images gives the float its dense maps
    give: 0.0 or 1.0, bit for bit; every other pair is evaluated."""

    @pytest.mark.parametrize("labels,table", _group_table_cases())
    def test_group_algebra_on_index_images(self, labels, table):
        h = group_algebra(labels, table)
        got, indexed = deviations(h)
        assert bits(got) == bits(dense_deviations(h))
        assert indexed == 12  # all but the commutativity rows
        assert set(got[:12]) == {0.0} and got[-1] == 0.0

    def test_group_algebra_without_digit_maps(self):
        h = group_algebra(*symmetric_group_3_table())
        h.digit_maps = {}
        got, indexed = deviations(h)
        assert indexed == 0
        assert bits(got) == bits(dense_deviations(h))
        assert got[-2] == 1.0 and set(got[:-2] + got[-1:]) == {0.0}

    def test_nonassociative_loop_on_index_images(self, evaluate_calls):
        # tensors and digit maps set by hand from a loop table, which no
        # group validation lets through
        built = loop_group_tables(NONASSOCIATIVE_LOOP)
        h = HopfAlgebra(list("abcde"), **built["tensors"])
        h.digit_maps = built["digit_maps"]
        got, indexed = deviations(h)
        assert indexed == 12 and len(evaluate_calls) == 4
        assert bits(got) == bits(dense_deviations(h))
        assert got[0] == 1.0  # associativity
        evaluate_calls.clear()
        report = check_axioms(h, 1e-12)
        assert len(evaluate_calls) == 4
        oracle = loop_axiom_deviations(h)
        assert {c.name: c.deviation for c in report.checks} == oracle
        assert oracle["associativity"] == 1.0 and not report.passed


class TestResolution:
    def test_builtin_names(self):
        for name in ("Z2", "z3", "Z4", "z5", "S3"):
            assert resolve_algebra(name).dim in (2, 3, 4, 5, 6)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algebra"):
            resolve_algebra("Q8")
        with pytest.raises(ValueError, match=r"^unknown built-in algebra 'Q8' \(expected one of Z2, Z3, Z4, Z5, S3\)$"):
            builtin_algebra("Q8")
        with pytest.raises(ValueError, match="^cyclic group order must be positive$"):
            cyclic_group_table(0)

    def test_load_group_table_file(self, tmp_path):
        path = tmp_path / "z2.json"
        path.write_text('{"labels": ["e", "x"], "table": [[0, 1], [1, 0]]}')
        assert load_group_table(path) == group_algebra(["e", "x"], [[0, 1], [1, 0]])
        assert resolve_algebra(str(path)).dim == 2

    def test_load_rejects_non_string_labels(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"labels": ["e", 1], "table": [[0, 1], [1, 0]]}')
        with pytest.raises(ValueError, match="labels"):
            load_group_table(path)

    def test_load_rejects_extra_keys(self, tmp_path):
        # schemas/group_table.schema.json: "additionalProperties": false
        path = tmp_path / "extra.json"
        path.write_text('{"labels": ["e", "x"], "table": [[0, 1], [1, 0]], "extra": 1}')
        with pytest.raises(GroupTableError, match="unexpected key.*'extra'"):
            load_group_table(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"labels": ["e"]}')
        with pytest.raises(ValueError, match="table"):
            load_group_table(path)


@pytest.mark.parametrize("module", ["hopfcirc.algebra", "hopfcirc.circuit", "hopfcirc.engine"])
def test_module_imports_first(module):
    # algebra imports the engine, the engine imports circuit, and circuit
    # names HopfAlgebra only in annotations
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", f"import {module}"], env={**os.environ, "PYTHONPATH": path}, check=True
    )
