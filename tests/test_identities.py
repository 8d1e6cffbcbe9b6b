"""The paper's identities between two different circuits, as metamorphic
oracles.

Every other check compares the engine with a reference on one circuit, so
a fault that the engine and the reference share there goes unseen.  These
identities hold between different circuits, for any group algebra:

* the inverse controlled shift, (g, h) -> (g, g^-1 h), undoes the CNOT
  (g, h) -> (g, gh), exactly;
* for Z_d, conjugating the CNOT by the Fourier transform on both wires
  gives R: |x, y> -> |x - y, y>, itself a circuit of SWAP, COMUL, ANTIPODE
  and MUL.

The group tables of the relabelled algebras are built here from
permutations, not from hopfcirc's own table helpers.
"""

import itertools

import numpy as np
import pytest

from hopfcirc.algebra import builtin_algebra, group_algebra
from hopfcirc.circuit import ANTIPODE, COMUL, ID, MUL, SWAP, Circuit, build_cnot, evaluate_bruteforce_map, unitary
from hopfcirc.engine import evaluate

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


def relabelled(table: list[list[int]], rng: np.random.Generator) -> list[list[int]]:
    """The same group with element i renamed perm[i], perm random."""
    d = len(table)
    perm = rng.permutation(d).tolist()
    out = [[0] * d for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


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
