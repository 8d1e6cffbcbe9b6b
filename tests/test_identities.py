"""The paper's identities between two different circuits, as metamorphic
oracles.

Every other check compares the engine with a reference on one circuit, so
a fault that the engine and the reference share there goes unseen.  These
identities hold between different circuits, for any group algebra:

* the inverse controlled shift, (g, h) -> (g, g^-1 h), undoes the CNOT
  (g, h) -> (g, gh), exactly;
* for Z_d, conjugating the CNOT by the Fourier transform on both wires
  gives R: |x, y> -> |x - y, y>, itself a circuit of SWAP, COMUL, ANTIPODE
  and MUL;
* renaming a group's elements changes nothing but the names: a circuit
  over the renamed table has the map of the circuit over the original one
  conjugated by the renaming on every wire, and the axiom report is the
  same.

The group tables of the relabelled algebras are built here from
permutations and 2x2 matrices, not from hopfcirc's own table helpers.
"""

import itertools

import numpy as np
import pytest

from hopfcirc.algebra import builtin_algebra, check_axioms, group_algebra
from hopfcirc.circuit import ANTIPODE, COMUL, ID, MUL, SWAP, Circuit, build_cnot, evaluate_bruteforce_map, unitary
from hopfcirc.engine import evaluate

from helpers import random_circuit

#: the axiom and oracle tolerance
TOL = 1e-12


def permutation_group(generators: list[tuple[int, ...]]) -> list[list[int]]:
    """The group table of the permutations the generators generate, under
    composition (p * q)(x) = p(q(x)), elements in order of discovery."""
    elements = [tuple(range(len(generators[0])))]
    for p in elements:  # the list grows while it is walked
        for g in generators:
            q = tuple(p[g[x]] for x in range(len(g)))
            if q not in elements:
                elements.append(q)
    return [[elements.index(tuple(p[q[x]] for x in range(len(q)))) for q in elements] for p in elements]


def renamed(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same group with element i renamed perm[i]."""
    d = len(table)
    out = [[0] * d for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def relabelled(table: list[list[int]], rng: np.random.Generator) -> list[list[int]]:
    """The same group with element i renamed perm[i], perm random."""
    return renamed(table, rng.permutation(len(table)).tolist())


def matrix_group(generators: list[tuple[complex, ...]]) -> list[list[int]]:
    """The group table of the 2x2 matrices (a, b, c, d) = [[a, b], [c, d]]
    the generators generate under the matrix product, elements in order of
    discovery.  Entries of 0, +-1 and +-1j multiply exactly."""

    def product(p, q):
        return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
                p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])

    elements = [(1, 0, 0, 1)]
    for p in elements:  # the list grows while it is walked
        for g in generators:
            q = product(p, g)
            if q not in elements:
                elements.append(q)
    return [[elements.index(product(p, q)) for q in elements] for p in elements]


def _algebras() -> list:
    rng = np.random.default_rng(6)
    s3 = permutation_group([(1, 2, 0), (1, 0, 2)])
    d4 = permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)])
    assert (len(s3), len(d4)) == (6, 8)
    relabels = [("S3-relabelled", relabelled(s3, rng)), ("D4-relabelled", relabelled(d4, rng))]
    return [pytest.param(builtin_algebra(name), id=name) for name in ("Z2", "Z3", "Z4", "Z5", "S3")] + [
        pytest.param(group_algebra([f"g{i}" for i in range(len(t))], t), id=name) for name, t in relabels
    ]


#: (g, h) -> (g, g^-1 h): copy g, invert the copy, multiply it into h
INVERSE_SHIFT = ((COMUL, ID), (ID, ANTIPODE, ID), (ID, MUL))


@pytest.mark.parametrize("algebra", _algebras())
def test_inverse_shift_undoes_cnot(algebra):
    d = algebra.dim
    cnot = build_cnot(algebra).layers
    for layers in (cnot + INVERSE_SHIFT, INVERSE_SHIFT + cnot):
        circuit = Circuit(algebra, 2, layers)
        assert np.array_equal(evaluate(circuit).matrix, np.eye(d * d))
        assert np.max(np.abs(evaluate_bruteforce_map(circuit).matrix - np.eye(d * d))) <= TOL


def test_inverse_shift_is_not_the_cnot():
    # on a non-abelian group the shift and its inverse differ, so the
    # identity above does not hold by a symmetry of the two circuits
    s3 = builtin_algebra("S3")
    assert not np.array_equal(
        evaluate(Circuit(s3, 2, INVERSE_SHIFT)).matrix, evaluate(build_cnot(s3)).matrix
    )


def fourier(d: int) -> np.ndarray:
    """The d-point DFT, F[k, x] = exp(2 pi i k x / d) / sqrt(d)."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


#: |x, y> -> |x - y, y> on an abelian group: (y, x), (y, y, x), (y, -y, x),
#: (y, x - y), (x - y, y)
SUBTRACT = ((SWAP,), (COMUL, ID), (ID, ANTIPODE, ID), (ID, MUL), (SWAP,))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fourier_conjugate_of_cnot_subtracts(d):
    algebra = builtin_algebra(f"Z{d}")
    f = unitary("f", fourier(d))
    f_dagger = unitary("fh", fourier(d).conj().T)
    conjugated = Circuit(algebra, 2, ((f, f),) + build_cnot(algebra).layers + ((f_dagger, f_dagger),))
    subtract = Circuit(algebra, 2, SUBTRACT)
    want = np.zeros((d * d, d * d))
    for x, y in itertools.product(range(d), repeat=2):
        want[((x - y) % d) * d + y, x * d + y] = 1.0
    assert np.array_equal(evaluate(subtract).matrix, want)
    assert np.max(np.abs(evaluate(conjugated).matrix - evaluate(subtract).matrix)) <= TOL
    assert np.max(np.abs(evaluate_bruteforce_map(conjugated).matrix - want)) <= TOL


def test_fourier_conjugate_of_cnot_is_reversed_cnot_for_qubits():
    z2 = builtin_algebra("Z2")
    reversed_cnot = Circuit(z2, 2, ((SWAP,),) + build_cnot(z2).layers + ((SWAP,),))
    assert np.array_equal(evaluate(Circuit(z2, 2, SUBTRACT)).matrix, evaluate(reversed_cnot).matrix)


def _tables() -> list:
    """Z2-Z5 and S3 as built in, and D4 and Q8 relabelled at random."""
    rng = np.random.default_rng(8)
    d4 = permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)])
    q8 = matrix_group([(1j, 0, 0, -1j), (0, 1, -1, 0)])  # i and j
    assert (len(d4), len(q8)) == (8, 8)
    assert any(q8[a][b] != q8[b][a] for a in range(8) for b in range(8))
    builtin = [
        # the table of a group algebra is its mul tensor's output index
        pytest.param(np.argmax(builtin_algebra(name).mul, axis=2).tolist(), id=name)
        for name in ("Z2", "Z3", "Z4", "Z5", "S3")
    ]
    return builtin + [pytest.param(relabelled(t, rng), id=f"{name}-relabelled") for name, t in (("D4", d4), ("Q8", q8))]


def _wire_renaming(perm: list[int], wires: int) -> np.ndarray:
    """index[i]: the basis index over the renamed group of basis index i,
    each digit g renamed perm[g]."""
    d = len(perm)
    digits = np.indices((d,) * wires).reshape(wires, d**wires)
    index = np.zeros(d**wires, dtype=int)
    for k in range(wires):  # wire 0 is the most significant digit
        index = index * d + np.asarray(perm)[digits[k]]
    return index


def _monomial(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random permutation matrix with phases 1, -1, 1j, -1j: every entry
    of a map built from these and the 0/1 structure maps is a Gaussian
    integer, so any order of summation gives it exactly."""
    u = np.zeros((d, d), dtype=complex)
    u[rng.permutation(d), np.arange(d)] = rng.choice([1, -1, 1j, -1j], size=d)
    return u


@pytest.mark.parametrize("table", _tables())
def test_relabelling_conjugates_every_map(table):
    d = len(table)
    rng = np.random.default_rng(d)
    labels = [f"g{i}" for i in range(d)]
    original = group_algebra(labels, table)
    for _ in range(12):
        perm = rng.permutation(d).tolist()
        inverse = np.argsort(perm)  # element perm[i] of the renamed group is element i
        relabelled_algebra = group_algebra([labels[i] for i in inverse], renamed(table, perm))
        assert check_axioms(relabelled_algebra, 1e-12) == check_axioms(original, 1e-12)
        for _ in range(4):
            circuit = random_circuit(rng, original, max_wires=3, max_layers=6)
            layers = tuple(
                tuple(unitary(p.name, _monomial(rng, d)) if p.kind == "Unitary" else p for p in layer)
                for layer in circuit.layers
            )
            # the unitary over the renamed basis sends perm[j] where u sends j
            renamed_layers = tuple(
                tuple(unitary(p.name, p.matrix[np.ix_(inverse, inverse)]) if p.kind == "Unitary" else p
                      for p in layer)
                for layer in layers
            )
            m = evaluate(Circuit(original, circuit.wires_in, layers))
            got = evaluate(Circuit(relabelled_algebra, circuit.wires_in, renamed_layers)).matrix
            want = np.zeros_like(got)
            want[np.ix_(_wire_renaming(perm, m.wires_out), _wire_renaming(perm, m.wires_in))] = m.matrix
            assert np.array_equal(got, want)
