"""Shared test machinery: independent oracles and random generators.

Everything here deliberately avoids the code paths under test: the
axiom oracle sums over raw tensor entries, the group-algebra oracle fills
the tensors from the table with loops, the circuit oracle fills each
layer matrix entry by entry from the raw tensors, the gate simulator
propagates matrix rows by index arithmetic instead of Kronecker products
or layer maps, the measure oracle labels one basis index at a time, and
the transition oracle lists a tensor's entries with one loop per axis,
and the group-table oracle checks the group laws one entry at a time.
The Kronecker gate product is the plain textbook formula that
direct_gate_map is checked against.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from hopfcirc.circuit import (
    ANTIPODE,
    COMUL,
    COUNIT,
    ID,
    MUL,
    SWAP,
    UNIT,
    Circuit,
    Cnot,
    U1,
    _echo,
    _index_to_digits,
    unitary,
)
from hopfcirc.dsl import _format_complex

REPO_ROOT = Path(__file__).resolve().parents[1]


def basis_label(digits, base_dim: int) -> str:
    """A basis state's label: one character per digit up to dimension 10,
    comma-separated digits above it."""
    if base_dim <= 10:
        return "".join(str(dgt) for dgt in digits)
    return ",".join(str(dgt) for dgt in digits)


def loop_measure(state, base_dim: int) -> tuple[tuple[tuple[str, float], ...], float]:
    """measure's entries and norm_in, one basis index at a time: each label
    is built with _index_to_digits and basis_label."""
    vec = np.asarray(state, dtype=complex).reshape(-1)
    wires = 0
    while base_dim > 1 and base_dim**wires < vec.shape[0]:
        wires += 1
    weights = np.abs(vec) ** 2
    norm_in = float(weights.sum())
    entries = tuple(
        (basis_label(_index_to_digits(i, base_dim, wires), base_dim), float(w / norm_in))
        for i, w in enumerate(weights)
        if w > 0.0
    )
    return entries, norm_in


def loop_vector_lines(vec: np.ndarray, d: int, wires: int) -> list[str]:
    """eval's text lines for an output vector, one basis index at a time."""
    return [
        f"  {basis_label(_index_to_digits(i, d, wires), d)}  {_format_complex(complex(z))}"
        for i, z in enumerate(vec)
        if z != 0
    ]


def dumped_map(m) -> str:
    """The matrix --json document of a LinearMap as json.dumps writes it,
    from nested lists of Python floats built one entry at a time."""
    doc = {
        "d": m.base_dim,
        "wires_in": m.wires_in,
        "wires_out": m.wires_out,
        "re": [[float(z.real) for z in row] for row in m.matrix],
        "im": [[float(z.imag) for z in row] for row in m.matrix],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loop_axiom_deviations(algebra) -> dict[str, float]:
    """Hopf-axiom deviations summed over all index tuples with plain loops."""
    d = algebra.dim
    M = algebra.mul
    D = algebra.comul
    u = algebra.unit
    eps = algebra.counit
    S = algebra.antipode
    rng_d = range(d)
    dev = dict.fromkeys(
        ["associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode"], 0.0
    )

    for a, b, c, e in itertools.product(rng_d, repeat=4):
        left = sum(M[a, b, x] * M[x, c, e] for x in rng_d)
        right = sum(M[b, c, x] * M[a, x, e] for x in rng_d)
        dev["associativity"] = max(dev["associativity"], abs(left - right))
    for a, b in itertools.product(rng_d, repeat=2):
        delta = 1.0 if a == b else 0.0
        dev["unit"] = max(
            dev["unit"],
            abs(sum(u[x] * M[x, a, b] for x in rng_d) - delta),
            abs(sum(u[x] * M[a, x, b] for x in rng_d) - delta),
        )
    for a, i, j, k in itertools.product(rng_d, repeat=4):
        left = sum(D[a, x, k] * D[x, i, j] for x in rng_d)
        right = sum(D[a, i, x] * D[x, j, k] for x in rng_d)
        dev["coassociativity"] = max(dev["coassociativity"], abs(left - right))
    for a, b in itertools.product(rng_d, repeat=2):
        delta = 1.0 if a == b else 0.0
        dev["counit"] = max(
            dev["counit"],
            abs(sum(D[a, x, b] * eps[x] for x in rng_d) - delta),
            abs(sum(D[a, b, x] * eps[x] for x in rng_d) - delta),
        )
    for a, b, p, q in itertools.product(rng_d, repeat=4):
        left = sum(M[a, b, c] * D[c, p, q] for c in rng_d)
        right = sum(
            D[a, x, y] * D[b, z, w] * M[x, z, p] * M[y, w, q]
            for x, y, z, w in itertools.product(rng_d, repeat=4)
        )
        dev["bialgebra"] = max(dev["bialgebra"], abs(left - right))
    for p, q in itertools.product(rng_d, repeat=2):
        left = sum(u[a] * D[a, p, q] for a in rng_d)
        dev["bialgebra"] = max(dev["bialgebra"], abs(left - u[p] * u[q]))
    for a, b in itertools.product(rng_d, repeat=2):
        left = sum(M[a, b, c] * eps[c] for c in rng_d)
        dev["bialgebra"] = max(dev["bialgebra"], abs(left - eps[a] * eps[b]))
    dev["bialgebra"] = max(dev["bialgebra"], abs(sum(u[a] * eps[a] for a in rng_d) - 1.0))
    for a, b in itertools.product(rng_d, repeat=2):
        left = sum(
            D[a, x, y] * S[x, z] * M[z, y, b] for x, y, z in itertools.product(rng_d, repeat=3)
        )
        right = sum(
            D[a, x, y] * S[y, z] * M[x, z, b] for x, y, z in itertools.product(rng_d, repeat=3)
        )
        target = u[b] * eps[a]
        dev["antipode"] = max(dev["antipode"], abs(left - target), abs(right - target))
    return {k: float(v) for k, v in dev.items()}


def loop_group_tables(table: list[list[int]]) -> dict:
    """A group algebra's structure tensors and digit maps, filled entry by
    entry with plain loops over the table."""
    d = len(table)
    identity = next(e for e in range(d) if all(table[e][j] == j for j in range(d)))
    mul = np.zeros((d, d, d))
    comul = np.zeros((d, d, d))
    unit = np.zeros(d)
    antipode = np.zeros((d, d))
    inverse = np.empty(d, dtype=np.int32)
    for i in range(d):
        comul[i, i, i] = 1.0
        for j in range(d):
            mul[i, j, table[i][j]] = 1.0
            if table[i][j] == identity:
                inverse[i] = j
                antipode[i, j] = 1.0
    unit[identity] = 1.0
    return {
        "tensors": {"mul": mul, "comul": comul, "unit": unit, "counit": np.ones(d), "antipode": antipode},
        "digit_maps": {
            "Mul": (np.array(table, dtype=np.int32),),
            "Comul": (0, 0),
            "Unit": (np.array(identity, dtype=np.int32),),
            "Counit": (),
            "Antipode": (inverse,),
        },
    }


def loop_validate_group_table(table) -> int | str:
    """The identity element's index of a group table, or the message of
    the first group law it fails, checked entry by entry with plain loops:
    rows, then columns, then the identity, then associativity over (i, j,
    k) in lexicographic order."""
    d = len(table)
    if d < 1 or any(len(row) != d for row in table):
        return f"not a group: table must be square, got {d} rows"
    for row in table:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < d:
                return f"not a group: table entries must be indices in 0..{d - 1}, got {_echo(v)}"
    for row in table:
        if sorted(row) != list(range(d)):
            return "not a group: rows not permutations"
    for j in range(d):
        if sorted(table[i][j] for i in range(d)) != list(range(d)):
            return "not a group: columns not permutations"
    identity = None
    for e in range(d):
        if all(table[e][j] == j for j in range(d)) and all(table[i][e] == i for i in range(d)):
            identity = e
            break
    if identity is None:
        return "not a group: no identity element"
    for i, j, k in itertools.product(range(d), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return f"not a group: associativity fails at ({i},{j},{k})"
    return identity


def loop_transitions(algebra, prim) -> list:
    """The brute force's transition list of a primitive other than Id, read
    with one nested loop per tensor axis: (input digits, output digits,
    coefficient) for every nonzero entry, in the tensor's index order."""
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


def _loop_entry(algebra, prim, digits_in: tuple, digits_out: tuple) -> complex:
    """One primitive's amplitude from basis digits_in to basis digits_out,
    read from the raw structure tensors."""
    kind = prim.kind
    if kind == "Id":
        return 1.0 if digits_out == digits_in else 0.0
    if kind == "Swap":
        return 1.0 if digits_out == digits_in[::-1] else 0.0
    if kind == "Mul":
        return algebra.mul[digits_in[0], digits_in[1], digits_out[0]]
    if kind == "Comul":
        return algebra.comul[digits_in[0], digits_out[0], digits_out[1]]
    if kind == "Unit":
        return algebra.unit[digits_out[0]]
    if kind == "Counit":
        return algebra.counit[digits_in[0]]
    if kind == "Antipode":
        return algebra.antipode[digits_in[0], digits_out[0]]
    return prim.matrix[digits_out[0], digits_in[0]]  # Unitary


def loop_circuit_map(circuit: Circuit) -> np.ndarray:
    """The circuit's map as the product of its layer matrices, each entry of
    a layer matrix the product of its primitives' amplitudes, by loops over
    every pair of basis digit tuples.  Small circuits only."""
    d = circuit.algebra.dim
    total = np.eye(d**circuit.wires_in, dtype=complex)
    width = circuit.wires_in
    for layer in circuit.layers:
        width_out = sum(prim.wires_out for prim in layer)
        layer_matrix = np.zeros((d**width_out, d**width), dtype=complex)
        for col, digits_in in enumerate(itertools.product(range(d), repeat=width)):
            for row, digits_out in enumerate(itertools.product(range(d), repeat=width_out)):
                entry = 1.0 + 0j
                i = o = 0
                for prim in layer:
                    entry *= _loop_entry(
                        circuit.algebra,
                        prim,
                        digits_in[i : i + prim.wires_in],
                        digits_out[o : o + prim.wires_out],
                    )
                    i += prim.wires_in
                    o += prim.wires_out
                layer_matrix[row, col] = entry
        total = layer_matrix @ total
        width = width_out
    return total


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_circuit(rng: np.random.Generator, algebra, max_wires: int = 4, max_layers: int = 5) -> Circuit:
    """Random validated circuit; every layer boundary stays within max_wires."""
    d = algebra.dim
    wires_in = int(rng.integers(1, max_wires + 1))
    layers = []
    wires = wires_in
    u_count = 0
    for _ in range(int(rng.integers(0, max_layers + 1))):
        if wires == 0:
            layers.append((UNIT,))
            wires = 1
            continue
        layer = []
        remaining = wires
        produced = 0
        while remaining > 0:
            candidates = []
            for prim in (ID, MUL, COMUL, UNIT, COUNIT, ANTIPODE, SWAP, "U"):
                n_in, n_out = (1, 1) if prim == "U" else (prim.wires_in, prim.wires_out)
                if n_in <= remaining and produced + n_out + (remaining - n_in) <= max_wires:
                    candidates.append(prim)
            prim = candidates[int(rng.integers(len(candidates)))]
            if prim == "U":
                prim = unitary(f"u{u_count}", haar_unitary(rng, d))
                u_count += 1
            layer.append(prim)
            remaining -= prim.wires_in
            produced += prim.wires_out
        layers.append(tuple(layer))
        wires = produced
    return Circuit(algebra, wires_in, tuple(layers))


def random_gate_list(rng: np.random.Generator, wires: int, n_gates: int, d: int = 2) -> list:
    gates = []
    for _ in range(n_gates):
        if wires >= 2 and rng.random() < 0.5:
            c, t = rng.choice(wires, size=2, replace=False)
            gates.append(Cnot(int(c), int(t)))
        else:
            gates.append(U1(int(rng.integers(wires)), haar_unitary(rng, d), "u"))
    return gates


def near_unitary(rng: np.random.Generator, d: int, deviation: float) -> np.ndarray:
    """Haar unitary scaled so that its Gram matrix is (1 + deviation) I."""
    return haar_unitary(rng, d) * np.sqrt(1.0 + deviation)


def _lone(n: int, at: int, prim) -> tuple:
    """Layer of n primitives: prim at index at, Id elsewhere."""
    return (ID,) * at + (prim,) + (ID,) * (n - at - 1)


def certificate_circuit(rng: np.random.Generator, algebra, max_wires: int = 4, max_blocks: int = 8) -> Circuit:
    """Random square circuit made of the blocks a structural unitarity
    certificate meets, and of near misses to them.

    Blocks: layers of Id/Swap/Unitary/Antipode; copy-then-multiply pairs
    (Comul at wire p, then Mul on wires p+1, p+2); a Mul on any wires after
    the Comul; a layer between the Comul and the Mul; Unit then Counit; and
    one near-unitary matrix, with a Gram deviation from 1e-14 up to just
    under 1e-10, repeated up to 40 times on one wire so that the product
    may drift past 1e-10.  Every layer boundary stays within max_wires.
    """
    d = algebra.dim
    n = int(rng.integers(1, max_wires))  # a pair adds one wire
    deviation = 10.0 ** rng.uniform(-14, -10.0001)
    near = unitary("near", near_unitary(rng, d, deviation))

    def passive(width: int) -> tuple:
        layer = []
        while len(layer) < width:  # Swap takes two slots
            pick = int(rng.integers(5 if width - len(layer) >= 2 else 4))
            if pick == 4:
                layer.append(SWAP)
                layer.append(None)
            else:
                layer.append((ID, ANTIPODE, near, unitary("h", haar_unitary(rng, d)))[pick])
        return tuple(p for p in layer if p is not None)

    layers: list[tuple] = []
    for _ in range(int(rng.integers(0, max_blocks + 1))):
        block = rng.choice(["passive", "pair", "misplaced", "split", "unit", "repeat"])
        if block == "passive":
            layers.append(passive(n))
        elif block == "pair" and n >= 2:
            p = int(rng.integers(n - 1))
            layers += [_lone(n, p, COMUL), _lone(n, p + 1, MUL)]
        elif block == "misplaced":
            layers += [_lone(n, int(rng.integers(n)), COMUL), _lone(n, int(rng.integers(n)), MUL)]
        elif block == "split":
            p = int(rng.integers(n))
            layers += [_lone(n, p, COMUL), passive(n + 1), _lone(n, min(p + 1, n - 1), MUL)]
        elif block == "unit":
            layers += [(UNIT,) + (ID,) * n, _lone(n + 1, int(rng.integers(n + 1)), COUNIT)]
        elif block == "repeat":
            at = int(rng.integers(n))
            layers += [_lone(n, at, near)] * int(rng.integers(1, 41))
    return Circuit(algebra, n, tuple(layers))


def simulate_gates_rowwise(wires: int, gates: list) -> np.ndarray:
    """Full qubit-gate-list matrix built by index arithmetic on rows.

    Controlled-NOT permutes basis rows via XOR of the control/target bits;
    one-wire unitaries scale and add rows digit by digit.  No Kronecker
    products and no circuit layers, so this is independent of both package
    evaluation paths.
    """
    dim = 2**wires
    total = np.eye(dim, dtype=complex)

    def bit(index: int, wire: int) -> int:
        return (index >> (wires - 1 - wire)) & 1

    def with_bit(index: int, wire: int, value: int) -> int:
        mask = 1 << (wires - 1 - wire)
        return (index & ~mask) | (value * mask)

    for gate in gates:
        if isinstance(gate, Cnot):
            perm = np.empty(dim, dtype=int)
            for row in range(dim):
                flipped = bit(row, gate.target) ^ bit(row, gate.control)
                perm[with_bit(row, gate.target, flipped)] = row
            total = total[perm]
        else:
            new = np.zeros_like(total)
            for row in range(dim):
                a = bit(row, gate.wire)
                for b in range(2):
                    new[with_bit(row, gate.wire, b)] += gate.matrix[b, a] * total[row]
            total = new
    return total


def kron_gate_map(algebra, wires: int, gates: list) -> np.ndarray:
    """The gate list's full matrix with each one-wire gate as a Kronecker
    product I (x) u (x) I multiplied into the total; a controlled-NOT moves
    the total's rows by the group table, as in direct_gate_map."""
    d = algebra.dim
    dim = d**wires
    total = np.eye(dim, dtype=complex)
    product = np.argmax(algebra.mul, axis=2)  # product[a, b] = a * b
    index = np.arange(dim)
    digits = np.indices((d,) * wires).reshape(wires, dim)
    for gate in gates:
        if isinstance(gate, U1):
            m = np.kron(np.kron(np.eye(d**gate.wire), gate.matrix), np.eye(d ** (wires - gate.wire - 1)))
            total = m @ total
        else:
            c, t = gate.control, gate.target
            rows = index + (product[digits[c], digits[t]] - digits[t]) * d ** (wires - 1 - t)
            moved = np.zeros_like(total)
            moved[rows] = total
            total = moved
    return total


def document_strategy():
    """Hypothesis strategy over syntactically valid circuit documents."""
    from hypothesis import strategies as st

    from hopfcirc.dsl import CircuitDocument, UnitaryDef, PRESET_NAMES, ROTATION_NAMES

    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
    algebra_name = st.one_of(
        st.sampled_from(["Z2", "Z3", "Z4", "Z5", "S3"]),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_./-]{0,12}", fullmatch=True),
    )
    cplx = st.builds(complex, finite, finite)

    def rows_strategy():
        return st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(cplx, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n
            ).map(tuple)
        )

    unitary_def = st.one_of(
        st.sampled_from(PRESET_NAMES).map(lambda p: UnitaryDef(preset=p)),
        st.tuples(st.sampled_from(ROTATION_NAMES), finite).map(
            lambda t: UnitaryDef(preset=t[0], angle=t[1])
        ),
        rows_strategy().map(lambda rows: UnitaryDef(rows=rows)),
    )

    def build(draw_tuple):
        alg, wires, defs, layer_shape = draw_tuple
        unitaries = tuple(defs.items())
        unames = list(defs)
        layers = []
        for spec in layer_shape:
            layer = []
            for kind in spec:
                if kind < 7:
                    layer.append(("ID", "M", "DELTA", "UNIT", "COUNIT", "S", "SWAP")[kind])
                elif unames:
                    layer.append(("U", unames[kind % len(unames)]))
                else:
                    layer.append("ID")
            layers.append(tuple(layer))
        return CircuitDocument(
            algebra_name=alg, wires_in=wires, unitaries=unitaries, layers=tuple(layers)
        )

    return st.tuples(
        algebra_name,
        st.integers(0, 6),
        st.dictionaries(name, unitary_def, max_size=3),
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5), max_size=5),
    ).map(build)


def assert_same_plan(a, b) -> None:
    """Two engine plans are equal step by step: the same step types,
    positions, permutations and primitives, and equal index arrays of the
    same dtype."""
    assert (a.dim, a.final_perm) == (b.dim, b.final_perm)
    assert [type(s).__name__ for s in a.steps] == [type(s).__name__ for s in b.steps]
    for x, y in zip(a.steps, b.steps):
        if type(x).__name__ == "_Run":
            assert (x.wires_in, x.wires_out, x.bijective) == (y.wires_in, y.wires_out, y.bijective)
            assert x.index.dtype == y.index.dtype and np.array_equal(x.index, y.index)
        else:
            assert (x.perm, x.pos, x.wires_in) == (y.perm, y.pos, y.wires_in)
            assert x.prim.kind == y.prim.kind and x.prim.name == y.prim.name
            assert np.array_equal(x.matrix, y.matrix)


def layer_signature(circuit) -> tuple:
    """The circuit's layers with each primitive as (kind, name, matrix
    bytes), so circuits built apart compare equal when their layers do."""
    return tuple(
        tuple((p.kind, p.name, None if p.matrix is None else p.matrix.tobytes()) for p in layer)
        for layer in circuit.layers
    )


def comment_every_line(text: str) -> str:
    """The text with a distinct "# k" comment after every line, so no two
    lines of it are equal."""
    return "".join(f"{line}  # {k}\n" for k, line in enumerate(text.splitlines()))
