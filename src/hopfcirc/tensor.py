"""Linear maps between tensor powers of the algebra's basis space.

Every array in the package is a read-only complex ndarray: the algebra's
structure tensors and the matrix of every LinearMap.  A LinearMap takes the
array the engine (or the brute force, or the gate product) built and keeps
it, without a copy, as a d^wires_out x d^wires_in matrix.  All composition
happens in the state engine of engine.py.  LinearMap.write_json streams a
map as the JSON document of `hopfcirc matrix --json`, one row block at a
time, formatting each distinct nonzero value of a block once.

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
        if not np.isfinite(matrix).all():
            raise ValueError("map entries must be finite")
        matrix.setflags(write=False)
        self.base_dim = base_dim
        self.wires_in = wires_in
        self.wires_out = wires_out
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"LinearMap(d={self.base_dim}, {self.wires_in}->{self.wires_out})"

    def write_json(self, stream) -> None:
        """Write the map to a text stream as one line of JSON,

            {"d":2,"im":[[0.0,0.0],[0.0,0.0]],"re":[[1.0,0.0],[0.0,1.0]],"wires_in":1,"wires_out":1}

        and a newline: byte for byte what json.dumps(doc, sort_keys=True,
        separators=(",", ":")) gives for the document whose "re" and "im"
        are the rows as lists of Python floats.  The entries go out one row
        block at a time, so no list of the whole map is ever built.
        """
        stream.write(f'{{"d":{self.base_dim},"im":')
        _write_rows(stream, self.matrix.imag)
        stream.write(',"re":')
        _write_rows(stream, self.matrix.real)
        stream.write(f',"wires_in":{self.wires_in},"wires_out":{self.wires_out}}}\n')


#: entries per row block of write_json (whole rows, at least one): the
#: writer's memory beyond the map is a small multiple of this
_JSON_BLOCK_ENTRIES = 2**16


def _write_rows(stream, part: np.ndarray) -> None:
    """Write a 2-d array of finite floats as a JSON list of rows.

    json.dumps writes a float as its repr.  Within a block, the entries are
    deduplicated on their 64-bit patterns, which keeps -0.0, 0.0 and every
    subnormal apart, so repr runs once per distinct value.  +0.0, the
    all-zero pattern and most entries of a structure map, has the fixed
    text "0.0", so only the nonzero patterns are sorted.  Each row's texts
    are joined with "," and the rows with "],[".
    """
    rows, cols = part.shape
    block_rows = max(1, _JSON_BLOCK_ENTRIES // cols)
    stream.write("[[")
    for start in range(0, rows, block_rows):
        bits = np.ascontiguousarray(part[start : start + block_rows]).reshape(-1).view(np.uint64)
        nonzero = bits != 0
        patterns, codes = np.unique(bits[nonzero], return_inverse=True)
        texts = np.array(["0.0"] + [repr(x) for x in patterns.view(np.float64).tolist()], dtype=object)
        entry_codes = np.zeros(bits.size, dtype=np.intp)
        entry_codes[nonzero] = codes + 1
        entries = texts[entry_codes].tolist()
        if cols > 1:  # a column's rows are its entries, with nothing to join
            entries = [",".join(entries[i : i + cols]) for i in range(0, len(entries), cols)]
        stream.write("],[".join(entries))
        stream.write("]]" if start + block_rows >= rows else "],[")
