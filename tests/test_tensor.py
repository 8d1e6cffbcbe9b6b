import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcirc.tensor import LinearMap, Tensor, as_linear_map, permute_axes

# structure tensors of the two-element algebra, written out longhand so the
# tensor tests do not depend on the algebra module
C_MUL = np.zeros((2, 2, 2))
C_MUL[0, 0, 0] = C_MUL[0, 1, 1] = C_MUL[1, 0, 1] = C_MUL[1, 1, 0] = 1.0
C_COMUL = np.zeros((2, 2, 2))
C_COMUL[0, 0, 0] = C_COMUL[1, 1, 1] = 1.0

CNOT_TABLE = np.zeros((4, 4))
CNOT_TABLE[0, 0] = CNOT_TABLE[1, 1] = CNOT_TABLE[3, 2] = CNOT_TABLE[2, 3] = 1.0


def small_tensors(max_order=4, max_extent=3):
    def build(dims_and_seed):
        dims, seed = dims_and_seed
        rng = np.random.default_rng(seed)
        data = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        return Tensor(data)

    dims = st.lists(st.integers(1, max_extent), min_size=0, max_size=max_order).map(tuple)
    return st.tuples(dims, st.integers(0, 2**31)).map(build)


class TestTensor:
    def test_scalar_has_empty_dims(self):
        t = Tensor(2.5 + 1j)
        assert t.dims == () and t.order == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            Tensor([np.inf, 0.0])

    def test_rejects_zero_extent(self):
        with pytest.raises(ValueError, match="positive"):
            Tensor(np.zeros((2, 0)))

    def test_entries_read_only(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0


class TestPermuteAxes:
    def test_identity_permutation(self):
        t = Tensor(np.arange(8).reshape(2, 2, 2))
        assert np.array_equal(permute_axes(t, (0, 1, 2)).array, t.array)

    def test_swap_exchanges_factors(self):
        ket01 = Tensor([0, 1, 0, 0], dims=(2, 2))
        swapped = permute_axes(ket01, (1, 0))
        assert np.array_equal(swapped.array.reshape(-1), [0, 0, 1, 0])

    def test_double_application_composes(self):
        rng = np.random.default_rng(11)
        t = Tensor(rng.normal(size=(2, 2, 2)))
        twice = permute_axes(permute_axes(t, (1, 2, 0)), (1, 2, 0))
        once = permute_axes(t, (2, 0, 1))
        assert np.array_equal(twice.array, once.array)

    @settings(max_examples=50, deadline=None)
    @given(small_tensors(), st.randoms(use_true_random=False))
    def test_inverse_restores_exactly(self, t, rnd):
        perm = list(range(t.order))
        rnd.shuffle(perm)
        inverse = [perm.index(i) for i in range(t.order)]
        back = permute_axes(permute_axes(t, perm), inverse)
        assert back.dims == t.dims
        assert np.array_equal(back.array, t.array)

    def test_invalid_permutation(self):
        t = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="permutation"):
            permute_axes(t, (0, 0))
        with pytest.raises(ValueError, match="permutation"):
            permute_axes(t, (0,))


class TestAsLinearMap:
    def test_cnot_tensor_reshapes_to_table(self):
        # comul's second output axis against mul's first input axis gives the
        # four-index controlled-NOT tensor; axes come out (i_c, o_c, i_t, o_t)
        h = Tensor(np.tensordot(C_COMUL, C_MUL, axes=([2], [0])))
        ordered = permute_axes(h, (1, 3, 0, 2))  # (o_c, o_t, i_c, i_t)
        m = as_linear_map(ordered, 2, 2, 2)
        assert m.matrix.dims == (4, 4)
        assert np.array_equal(m.matrix.array, CNOT_TABLE)

    def test_identity_tensor(self):
        m = as_linear_map(Tensor(np.eye(2)), 2, 1, 1)
        assert np.array_equal(m.matrix.array, np.eye(2))

    def test_round_trip_restores_tensor(self):
        rng = np.random.default_rng(13)
        t = Tensor(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        m = as_linear_map(t, 2, 2, 1)
        assert np.array_equal(m.matrix.array.reshape(t.dims), t.array)

    def test_scalar_map(self):
        m = as_linear_map(Tensor(2.0), 3, 0, 0)
        assert m.matrix.dims == (1, 1)

    def test_order_and_extent_errors(self):
        with pytest.raises(ValueError, match="order"):
            as_linear_map(Tensor(np.zeros((2, 2))), 2, 2, 1)
        with pytest.raises(ValueError, match="extent"):
            as_linear_map(Tensor(np.zeros((2, 3))), 2, 1, 1)


class TestLinearMap:
    def test_extent_validation(self):
        with pytest.raises(ValueError, match="extents"):
            LinearMap(2, 1, 1, Tensor(np.zeros((2, 3))))

    def test_zero_wire_sides_are_legal(self):
        col = LinearMap(2, 0, 1, Tensor(np.zeros((2, 1))))
        row = LinearMap(2, 1, 0, Tensor(np.zeros((1, 2))))
        assert col.matrix.dims == (2, 1) and row.matrix.dims == (1, 2)

    def test_to_json_shape(self):
        doc = LinearMap(2, 1, 1, Tensor(np.eye(2))).to_json()
        assert doc["d"] == 2 and doc["re"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["im"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_to_json_matches_per_element_conversion(self):
        # signed zeros and subnormals must come out exactly as float() gives them
        tiny = np.nextafter(0.0, 1.0)
        arr = np.empty((2, 2), dtype=complex)
        arr.real = [[-0.0, tiny], [-3 * tiny, 2.2250738585072014e-308]]
        arr.imag = [[0.5, -0.0], [-tiny, 0.0]]
        doc = LinearMap(2, 1, 1, Tensor(arr)).to_json()
        for part, array in (("re", arr.real), ("im", arr.imag)):
            want = [[float(x) for x in row] for row in array]
            assert all(type(x) is float for row in doc[part] for x in row)
            assert json.dumps(doc[part]) == json.dumps(want)
        assert json.dumps(doc["re"][0]) == "[-0.0, 5e-324]"
