import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcirc.tensor
from hopfcirc.algebra import HopfAlgebra, z2_algebra
from hopfcirc.circuit import ID, SWAP, Circuit, CircuitError
from hopfcirc.engine import run
from hopfcirc.tensor import LinearMap

from helpers import dumped_map

# structure tensors of the two-element algebra, written out longhand so the
# map tests do not depend on the algebra's constructors
C_MUL = np.zeros((2, 2, 2))
C_MUL[0, 0, 0] = C_MUL[0, 1, 1] = C_MUL[1, 0, 1] = C_MUL[1, 1, 0] = 1.0
C_COMUL = np.zeros((2, 2, 2))
C_COMUL[0, 0, 0] = C_COMUL[1, 1, 1] = 1.0

CNOT_TABLE = np.zeros((4, 4))
CNOT_TABLE[0, 0] = CNOT_TABLE[1, 1] = CNOT_TABLE[3, 2] = CNOT_TABLE[2, 3] = 1.0


def longhand_z2() -> HopfAlgebra:
    return HopfAlgebra(("f0", "f1"), C_MUL, C_COMUL, [1.0, 0.0], [1.0, 1.0], np.eye(2))


def swap_layer(wires: int, pos: int) -> tuple:
    return (ID,) * pos + (SWAP,) + (ID,) * (wires - pos - 2)


def permuted(state: np.ndarray, wires: int, layers) -> np.ndarray:
    return run(Circuit(z2_algebra(), wires, tuple(layers)), state[:, None])[:, 0]


def random_state(seed: int, wires: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=2**wires) + 1j * rng.normal(size=2**wires)


class TestPermuteAxes:
    """Swap layers permute the axes of the state tensor, one axis per wire."""

    def test_identity_permutation(self):
        state = random_state(3, 3)
        assert np.array_equal(permuted(state, 3, [(ID, ID, ID)] * 2), state)

    def test_swap_exchanges_factors(self):
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        assert np.array_equal(permuted(ket01, 2, [(SWAP,)]), [0, 0, 1, 0])

    def test_double_application_composes(self):
        # two swaps carry wire 0 to the end: output axes (1, 2, 0) of the input
        state = random_state(11, 3)
        cycle = [swap_layer(3, 0), swap_layer(3, 1)]
        once = np.transpose(state.reshape(2, 2, 2), (1, 2, 0))
        assert np.array_equal(permuted(state, 3, cycle), once.reshape(-1))
        twice = np.transpose(once, (1, 2, 0))
        assert np.array_equal(permuted(state, 3, cycle * 2), twice.reshape(-1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 5), st.lists(st.integers(0, 3), max_size=8), st.integers(0, 2**31))
    def test_inverse_restores_exactly(self, wires, positions, seed):
        layers = [swap_layer(wires, p % (wires - 1)) for p in positions]
        state = random_state(seed, wires)
        assert np.array_equal(permuted(state, wires, layers + layers[::-1]), state)

    def test_invalid_permutation(self):
        with pytest.raises(CircuitError, match="consumes"):
            permuted(np.ones(8), 3, [(ID, SWAP, ID)])


class TestAsLinearMap:
    """algebra.maps holds the structure tensors as matrices, output axes first."""

    def test_cnot_tensor_reshapes_to_table(self):
        # copy the control, then multiply the copy into the target, as plain
        # Kronecker products of the algebra's maps
        h = longhand_z2()
        eye = np.eye(2)
        cnot = np.kron(eye, h.maps["Mul"]) @ np.kron(h.maps["Comul"], eye)
        assert cnot.shape == (4, 4)
        assert np.array_equal(cnot, CNOT_TABLE)

    def test_identity_tensor(self):
        assert np.array_equal(longhand_z2().maps["Antipode"], np.eye(2))

    def test_round_trip_restores_tensor(self):
        rng = np.random.default_rng(13)
        d = 3

        def rand(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        mul, comul, unit, counit, antipode = rand(d, d, d), rand(d, d, d), rand(d), rand(d), rand(d, d)
        h = HopfAlgebra(("a", "b", "c"), mul, comul, unit, counit, antipode)
        # mul (in,in,out) became (out,in,in), comul (in,out,out) (out,out,in)
        assert np.array_equal(h.maps["Mul"].reshape(d, d, d).transpose(1, 2, 0), mul)
        assert np.array_equal(h.maps["Comul"].reshape(d, d, d).transpose(2, 0, 1), comul)
        assert np.array_equal(h.maps["Unit"][:, 0], unit)
        assert np.array_equal(h.maps["Counit"][0], counit)
        assert np.array_equal(h.maps["Antipode"].T, antipode)
        # each map is a view of its read-only tensor, not a copy
        for kind, matrix in h.maps.items():
            assert np.shares_memory(matrix, getattr(h, kind.lower()))
            with pytest.raises(ValueError, match="read-only"):
                matrix.flat[0] = 0.0

    def test_scalar_map(self):
        m = LinearMap(3, 0, 0, [[2.0]])
        assert m.matrix.shape == (1, 1) and m.matrix[0, 0] == 2.0

    def test_order_and_extent_errors(self):
        for field, bad in (
            ("mul", np.zeros((2, 2))),
            ("comul", np.zeros((2, 2, 3))),
            ("unit", np.zeros(3)),
            ("counit", 1.0),
            ("antipode", np.zeros((2, 2, 1))),
        ):
            structure = {"mul": C_MUL, "comul": C_COMUL, "unit": [1.0, 0.0],
                         "counit": [1.0, 1.0], "antipode": np.eye(2)}
            structure[field] = bad
            with pytest.raises(ValueError, match=f"{field} tensor has shape"):
                HopfAlgebra(("f0", "f1"), **structure)


class TestLinearMap:
    def test_dimension_and_wire_counts_checked(self):
        with pytest.raises(ValueError, match="^base dimension must be positive, got 0$"):
            LinearMap(0, 0, 0, np.ones((1, 1)))
        with pytest.raises(ValueError, match="^wire counts must be nonnegative$"):
            LinearMap(2, -1, 0, np.ones((1, 1)))

    def test_repr(self):
        assert repr(LinearMap(2, 1, 0, np.ones((1, 2)))) == "LinearMap(d=2, 1->0)"

    def test_extent_validation(self):
        for shape in ((2, 3), (2, 0), (4,), (2, 2, 1)):
            with pytest.raises(ValueError, match="extents"):
                LinearMap(2, 1, 1, np.zeros(shape))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            matrix = np.eye(2, dtype=complex)
            matrix[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                LinearMap(2, 1, 1, matrix)

    def test_entries_read_only(self):
        # the map keeps the complex array it is given, without a copy
        matrix = np.eye(2, dtype=complex)
        m = LinearMap(2, 1, 1, matrix)
        assert m.matrix is matrix
        with pytest.raises(ValueError, match="read-only"):
            m.matrix[0, 0] = 5.0

    def test_zero_wire_sides_are_legal(self):
        col = LinearMap(2, 0, 1, np.zeros((2, 1)))
        row = LinearMap(2, 1, 0, np.zeros((1, 2)))
        assert col.matrix.shape == (2, 1) and row.matrix.shape == (1, 2)

    def test_write_json_shape(self):
        doc = json.loads(written(LinearMap(2, 1, 1, np.eye(2))))
        assert doc["d"] == 2 and doc["re"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["im"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_write_json_matches_per_element_conversion(self):
        # signed zeros and subnormals must come out exactly as float() gives them
        tiny = np.nextafter(0.0, 1.0)
        arr = np.empty((2, 2), dtype=complex)
        arr.real = [[-0.0, tiny], [-3 * tiny, 2.2250738585072014e-308]]
        arr.imag = [[0.5, -0.0], [-tiny, 0.0]]
        doc = json.loads(written(LinearMap(2, 1, 1, arr)))
        for part, array in (("re", arr.real), ("im", arr.imag)):
            want = [[float(x) for x in row] for row in array]
            assert all(type(x) is float for row in doc[part] for x in row)
            assert json.dumps(doc[part]) == json.dumps(want)
        assert json.dumps(doc["re"][0]) == "[-0.0, 5e-324]"


def written(m: LinearMap) -> str:
    stream = io.StringIO()
    m.write_json(stream)
    return stream.getvalue()


#: values that repeat, signed zeros, the smallest subnormal and normal, and
#: the largest finite floats
VALUE_POOL = (
    0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1 / 3, -2.5e-17,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e300,
)


class TestWriteJson:
    @settings(max_examples=150, deadline=None)
    @given(
        # (d, wires_in, wires_out): 1x1, row and column vectors and matrices
        shape=st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(0, 3)).filter(
            lambda t: t[0] ** (t[1] + t[2]) <= 300
        ),
        block_entries=st.integers(1, 40),
        data=st.data(),
    )
    def test_bytes_equal_json_dumps(self, shape, block_entries, data):
        # small blocks, so that most maps span several
        d, wires_in, wires_out = shape
        n = d ** (wires_in + wires_out)
        value = st.one_of(st.sampled_from(VALUE_POOL), st.floats(allow_nan=False, allow_infinity=False))
        arr = np.empty((d**wires_out, d**wires_in), dtype=complex)
        arr.real.flat = data.draw(st.lists(value, min_size=n, max_size=n))
        arr.imag.flat = data.draw(st.lists(value, min_size=n, max_size=n))
        m = LinearMap(d, wires_in, wires_out, arr)
        with mock.patch.object(hopfcirc.tensor, "_JSON_BLOCK_ENTRIES", block_entries):
            assert written(m) == dumped_map(m)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)).filter(
            lambda t: t[0] ** (t[1] + t[2]) <= 400
        ),
        block_entries=st.integers(1, 64),
        data=st.data(),
    )
    def test_sparse_blocks_equal_json_dumps(self, shape, block_entries, data):
        # at least 95% of each part is +0.0, the rest drawn from the pool of
        # signed zeros, subnormals and repeated values
        d, wires_in, wires_out = shape
        n = d ** (wires_in + wires_out)
        value = st.one_of(st.sampled_from(VALUE_POOL), st.floats(allow_nan=False, allow_infinity=False))
        arr = np.zeros((d**wires_out, d**wires_in), dtype=complex)
        for part in (arr.real, arr.imag):
            for index, x in data.draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=n // 20)):
                part.flat[index] = x
        m = LinearMap(d, wires_in, wires_out, arr)
        with mock.patch.object(hopfcirc.tensor, "_JSON_BLOCK_ENTRIES", block_entries):
            assert written(m) == dumped_map(m)

    @pytest.mark.parametrize("block_entries", [1, 5, 64])
    @pytest.mark.parametrize(
        "d,wires_in,wires_out,spots",
        [
            (2, 3, 3, {}),  # both parts all +0.0
            (2, 3, 3, {27: -0.0}),  # all +0.0 but one -0.0
            (2, 5, 0, {0: 5e-324, 31: 5e-324, 7: -1.0}),  # a single row
            (2, 0, 5, {0: -0.0, 17: 0.5, 31: 0.5}),  # a single column
            (1, 0, 0, {}),
        ],
        ids=["all-zero", "one-negative-zero", "row", "column", "1x1"],
    )
    def test_sparse_edge_cases_equal_json_dumps(self, d, wires_in, wires_out, spots, block_entries):
        arr = np.zeros((d**wires_out, d**wires_in), dtype=complex)
        for index, x in spots.items():
            arr.real.flat[index] = x
        m = LinearMap(d, wires_in, wires_out, arr)
        with mock.patch.object(hopfcirc.tensor, "_JSON_BLOCK_ENTRIES", block_entries):
            assert written(m) == dumped_map(m)

    @pytest.mark.parametrize(
        "d,wires_in,wires_out",
        [(1, 0, 0), (2, 0, 0), (2, 17, 0), (2, 0, 17), (2, 3, 14), (3, 1, 10)],
        ids=["1x1-d1", "1x1", "row", "column", "two-blocks", "ragged-last-block"],
    )
    def test_bytes_equal_json_dumps_at_block_size(self, d, wires_in, wires_out):
        rng = np.random.default_rng(d + 10 * wires_in + 100 * wires_out)
        shape = (d**wires_out, d**wires_in)
        pool = np.array(VALUE_POOL + tuple(rng.normal(size=20)))
        arr = np.empty(shape, dtype=complex)
        arr.real = rng.choice(pool, size=shape)
        arr.imag = rng.choice(pool, size=shape)
        m = LinearMap(d, wires_in, wires_out, arr)
        assert written(m) == dumped_map(m)
