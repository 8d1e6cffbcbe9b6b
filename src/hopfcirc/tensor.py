"""Immutable complex tensors, and the linear maps they reshape into.

Tensor holds the algebra's structure tensors and every map the package
returns; LinearMap is a Tensor read as a d^wires_out x d^wires_in matrix.
All composition happens in the state engine of circuit.py, so this module
only validates, permutes and reshapes.

Convention used everywhere in this package: entries are stored row-major
with the leftmost index varying slowest.  When a tensor is reshaped into a
matrix acting on wires, wire 0 is the leftmost tensor factor and therefore
the most significant digit of a flattened basis index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Tensor", "LinearMap", "permute_axes", "as_linear_map"]


class Tensor:
    """Immutable dense complex array with an explicit list of extents.

    An empty extent list is a scalar (a single entry).  Entries must be
    finite; NaN or infinity is rejected at construction.
    """

    __slots__ = ("array",)

    def __init__(self, data, dims: Sequence[int] | None = None):
        arr = np.array(data, dtype=complex)
        if dims is not None:
            arr = arr.reshape(tuple(dims))
        if any(e <= 0 for e in arr.shape):
            raise ValueError(f"tensor extents must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        self.array = arr

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def order(self) -> int:
        return self.array.ndim

    def __getitem__(self, idx):
        return self.array[idx]

    def __repr__(self) -> str:
        return f"Tensor(dims={list(self.dims)})"


class LinearMap:
    """A tensor reshaped into a matrix sending d^wires_in to d^wires_out.

    wires_in = 0 or wires_out = 0 are legal; the matrix then has a
    one-dimensional side (column/row vector, or a 1x1 scalar map).
    """

    __slots__ = ("base_dim", "wires_in", "wires_out", "matrix")

    def __init__(self, base_dim: int, wires_in: int, wires_out: int, matrix: Tensor):
        if base_dim < 1:
            raise ValueError(f"base dimension must be positive, got {base_dim}")
        if wires_in < 0 or wires_out < 0:
            raise ValueError("wire counts must be nonnegative")
        expected = (base_dim**wires_out, base_dim**wires_in)
        if matrix.dims != expected:
            raise ValueError(
                f"matrix extents {matrix.dims} do not match d^wires_out x d^wires_in = {expected}"
            )
        self.base_dim = base_dim
        self.wires_in = wires_in
        self.wires_out = wires_out
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"LinearMap(d={self.base_dim}, {self.wires_in}->{self.wires_out})"

    def to_json(self) -> dict:
        m = self.matrix.array.reshape(self.base_dim**self.wires_out, self.base_dim**self.wires_in)
        return {
            "d": self.base_dim,
            "wires_in": self.wires_in,
            "wires_out": self.wires_out,
            "re": m.real.tolist(),
            "im": m.imag.tolist(),
        }


def permute_axes(t: Tensor, perm: Sequence[int]) -> Tensor:
    """Reindex axes: result axis i is input axis perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.order)):
        raise ValueError(f"{list(perm)} is not a permutation of 0..{t.order - 1}")
    return Tensor(np.transpose(t.array, perm))


def as_linear_map(t: Tensor, base_dim: int, wires_out: int, wires_in: int) -> LinearMap:
    """Reshape a tensor whose output axes precede its input axes into a matrix.

    The row index enumerates output multi-indices (leftmost wire slowest),
    the column index input multi-indices likewise.
    """
    if t.order != wires_out + wires_in:
        raise ValueError(
            f"tensor order {t.order} does not match wires_out + wires_in = {wires_out + wires_in}"
        )
    if any(e != base_dim for e in t.dims):
        raise ValueError(f"every extent must equal base dimension {base_dim}, got {t.dims}")
    matrix = Tensor(t.array, dims=(base_dim**wires_out, base_dim**wires_in))
    return LinearMap(base_dim, wires_in, wires_out, matrix)
