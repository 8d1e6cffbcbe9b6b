"""Linear maps between tensor powers of the algebra's basis space.

Every array in the package is a read-only complex ndarray: the algebra's
structure tensors and the matrix of every LinearMap.  A LinearMap takes the
array the engine (or the brute force, or the gate product) built and keeps
it, without a copy, as a d^wires_out x d^wires_in matrix.  All composition
happens in the state engine of circuit.py.

Convention used everywhere in this package: entries are stored row-major
with the leftmost index varying slowest.  When a tensor is reshaped into a
matrix acting on wires, wire 0 is the leftmost tensor factor and therefore
the most significant digit of a flattened basis index.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearMap"]


class LinearMap:
    """A matrix sending d^wires_in to d^wires_out.

    wires_in = 0 or wires_out = 0 are legal; the matrix then has a
    one-dimensional side (column/row vector, or a 1x1 scalar map).  The map
    owns the array it is given: a complex array is kept as it is, not
    copied, and made read-only.  Entries must be finite.
    """

    __slots__ = ("base_dim", "wires_in", "wires_out", "matrix")

    def __init__(self, base_dim: int, wires_in: int, wires_out: int, matrix):
        if base_dim < 1:
            raise ValueError(f"base dimension must be positive, got {base_dim}")
        if wires_in < 0 or wires_out < 0:
            raise ValueError("wire counts must be nonnegative")
        matrix = np.asarray(matrix, dtype=complex)
        expected = (base_dim**wires_out, base_dim**wires_in)
        if matrix.shape != expected:
            raise ValueError(
                f"matrix extents {matrix.shape} do not match d^wires_out x d^wires_in = {expected}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("map entries must be finite")
        matrix.setflags(write=False)
        self.base_dim = base_dim
        self.wires_in = wires_in
        self.wires_out = wires_out
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"LinearMap(d={self.base_dim}, {self.wires_in}->{self.wires_out})"

    def to_json(self) -> dict:
        return {
            "d": self.base_dim,
            "wires_in": self.wires_in,
            "wires_out": self.wires_out,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }
