"""Finite-dimensional Hopf algebras built from finite group tables.

A finite group gives a Hopf algebra on the vector space spanned by its
elements: multiplication extends the group law bilinearly, comultiplication
is the copy map g -> g (x) g, the counit sends every basis element to 1 and
the antipode sends g to its inverse.  The two-element case encodes XOR and
is the algebra underlying the controlled-NOT construction in circuit.py.

Axis conventions, fixed project-wide: mul has axes (in, in, out), comul
(in, out, out), antipode (in, out).  Unit and counit are plain vectors.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuit import (
    ANTIPODE,
    COMUL,
    COUNIT,
    ID,
    MAX_MAP_ENTRIES,
    MUL,
    SWAP,
    UNIT,
    Circuit,
    _echo,
)
from .engine import evaluate

__all__ = [
    "HopfAlgebra",
    "AxiomCheck",
    "AxiomReport",
    "GroupTableError",
    "z2_algebra",
    "group_algebra",
    "cyclic_group_table",
    "symmetric_group_3_table",
    "builtin_algebra",
    "load_group_table",
    "resolve_algebra",
    "check_axioms",
    "BUILTIN_ALGEBRAS",
]

#: named algebras the CLI resolves without a table file
BUILTIN_ALGEBRAS = ("Z2", "Z3", "Z4", "Z5", "S3")


class GroupTableError(ValueError):
    """A multiplication table failed one of the group laws."""


class HopfAlgebra:
    """Bundle of structure tensors over a d-dimensional basis.

    The structure tensors are given as array-likes, each converted once to
    a read-only complex ndarray; maps holds them as read-only d^out x d^in
    matrices keyed by primitive kind ("Mul", "Comul", "Unit", "Counit",
    "Antipode") for the circuit engine.  Direct construction only checks
    shapes and finiteness.  The algebras of z2_algebra, group_algebra and
    builtin_algebra come from a validated group table and are Hopf exactly.

    digit_maps holds, for each kind whose map sends every basis input to a
    single basis output with coefficient 1, that function on basis digits:
    one entry per output wire, either the position of the input wire whose
    digit it copies or an integer array indexed by the input digits.  The
    engine folds runs of such maps into index steps.  group_algebra fills
    it from the group table; a directly constructed algebra has none, so
    the engine multiplies its structure matrices in.
    """

    __slots__ = ("dim", "basis_labels", "mul", "comul", "unit", "counit", "antipode", "maps", "digit_maps")

    def __init__(self, basis_labels: Sequence[str], mul, comul, unit, counit, antipode):
        d = len(basis_labels)
        if d < 1:
            raise ValueError("algebra needs at least one basis element")
        if len(set(basis_labels)) != d:
            raise ValueError("basis labels must be distinct")
        for name, data, shape in (
            ("mul", mul, (d, d, d)),
            ("comul", comul, (d, d, d)),
            ("unit", unit, (d,)),
            ("counit", counit, (d,)),
            ("antipode", antipode, (d, d)),
        ):
            arr = np.array(data, dtype=complex)
            if arr.shape != shape:
                raise ValueError(f"{name} tensor has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} tensor entries must be finite")
            arr.setflags(write=False)
            setattr(self, name, arr)
        self.dim = d
        self.basis_labels = tuple(basis_labels)
        # The structure tensors as d^out x d^in matrices, keyed by primitive
        # kind (see tensor.py for the wire conventions).  Output axes must
        # precede input axes, so mul (in,in,out) is permuted to (out,in,in)
        # and comul (in,out,out) to (out,out,in) before reshaping.  Each
        # reshape merges axes that stay contiguous, so every map is a view
        # of a read-only tensor, and read-only itself.
        self.maps = {
            "Mul": np.transpose(self.mul, (2, 0, 1)).reshape(d, d * d),
            "Comul": np.transpose(self.comul, (1, 2, 0)).reshape(d * d, d),
            "Unit": self.unit.reshape(d, 1),
            "Counit": self.counit.reshape(1, d),
            "Antipode": np.transpose(self.antipode),
        }
        self.digit_maps: dict[str, tuple[int | np.ndarray, ...]] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, HopfAlgebra):
            return NotImplemented
        return (
            self.basis_labels == other.basis_labels
            and np.array_equal(self.mul, other.mul)
            and np.array_equal(self.comul, other.comul)
            and np.array_equal(self.unit, other.unit)
            and np.array_equal(self.counit, other.counit)
            and np.array_equal(self.antipode, other.antipode)
        )

    def __hash__(self):
        return hash((self.basis_labels,))

    def __repr__(self) -> str:
        return f"HopfAlgebra(dim={self.dim}, labels={list(self.basis_labels)})"


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    deviation: float
    passed: bool


@dataclass(frozen=True)
class AxiomReport:
    """Per-family deviations of the Hopf axioms at a given tolerance.

    Commutativity and cocommutativity are informational only; nonabelian
    group algebras are perfectly good Hopf algebras.
    """

    tol: float
    checks: tuple[AxiomCheck, ...]
    commutative: bool
    cocommutative: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "axioms": [
                {"name": c.name, "deviation": c.deviation, "passed": c.passed}
                for c in self.checks
            ],
            "commutative": self.commutative,
            "cocommutative": self.cocommutative,
        }


#: each axiom as an equality of two circuits: (family, wires in, left layers,
#: right layers).  A family's deviation is the largest over its identities;
#: the last two rows are the informational flags, not axioms.
_AXIOM_CIRCUITS = (
    ("associativity", 3, ((MUL, ID), (MUL,)), ((ID, MUL), (MUL,))),
    ("unit", 1, ((UNIT, ID), (MUL,)), ()),
    ("unit", 1, ((ID, UNIT), (MUL,)), ()),
    ("coassociativity", 1, ((COMUL,), (COMUL, ID)), ((COMUL,), (ID, COMUL))),
    ("counit", 1, ((COMUL,), (COUNIT, ID)), ()),
    ("counit", 1, ((COMUL,), (ID, COUNIT)), ()),
    # the four compatibility identities making (mul, comul) a bialgebra
    ("bialgebra", 2, ((MUL,), (COMUL,)), ((COMUL, COMUL), (ID, SWAP, ID), (MUL, MUL))),
    ("bialgebra", 0, ((UNIT,), (COMUL,)), ((UNIT, UNIT),)),
    ("bialgebra", 2, ((MUL,), (COUNIT,)), ((COUNIT, COUNIT),)),
    ("bialgebra", 0, ((UNIT,), (COUNIT,)), ()),
    ("antipode", 1, ((COMUL,), (ANTIPODE, ID), (MUL,)), ((COUNIT,), (UNIT,))),
    ("antipode", 1, ((COMUL,), (ID, ANTIPODE), (MUL,)), ((COUNIT,), (UNIT,))),
    ("commutative", 2, ((SWAP,), (MUL,)), ((MUL,),)),
    ("cocommutative", 1, ((COMUL,), (SWAP,)), ((COMUL,),)),
)

#: largest order whose widest axiom maps (d^3 x d^3, and d^2 columns of
#: d^4 entries inside the bialgebra circuit) fit in MAX_MAP_ENTRIES
MAX_CHECKED_ORDER = next(n for n in itertools.count(1) if (n + 1) ** 6 > MAX_MAP_ENTRIES)


def _check_order(d: int) -> None:
    if d > MAX_CHECKED_ORDER:
        raise ValueError(
            f"algebra of order {d} is too large to check: its axiom circuits "
            f"exceed {MAX_MAP_ENTRIES} map entries (order at most {MAX_CHECKED_ORDER})"
        )


def check_axioms(algebra: HopfAlgebra, tol: float) -> AxiomReport:
    """Evaluate the six Hopf axiom families as circuit identities.

    Each identity is a pair of small circuits of structure maps, e.g. the
    bialgebra law M ; DELTA = DELTA,DELTA ; ID,SWAP,ID ; M,M, and its
    deviation is the largest entry of the difference of their maps.
    Families: associativity, unit, coassociativity, counit, the four
    bialgebra compatibility identities (reported as one family by their
    max deviation), and the antipode identity.  Every call evaluates the
    14 identities, i.e. 28 circuits.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    _check_order(algebra.dim)
    deviations: dict[str, float] = {}
    for family, wires, left, right in _AXIOM_CIRCUITS:
        lhs = evaluate(Circuit(algebra, wires, left)).matrix
        rhs = evaluate(Circuit(algebra, wires, right)).matrix
        deviation = float(np.abs(lhs - rhs).max())
        deviations[family] = max(deviations.get(family, 0.0), deviation)
    checks = tuple(
        AxiomCheck(name, dev, dev <= tol)
        for name, dev in deviations.items()
        if name not in ("commutative", "cocommutative")
    )
    return AxiomReport(
        tol=tol,
        checks=checks,
        commutative=deviations["commutative"] <= tol,
        cocommutative=deviations["cocommutative"] <= tol,
    )


def z2_algebra() -> HopfAlgebra:
    """The two-element algebra whose multiplication table is XOR."""
    return group_algebra(("f0", "f1"), [[0, 1], [1, 0]])


def _validate_group_table(table: Sequence[Sequence[int]]) -> int:
    """Return the identity element's index; raise GroupTableError otherwise."""
    d = len(table)
    if d < 1 or any(len(row) != d for row in table):
        raise GroupTableError(f"not a group: table must be square, got {d} rows")
    for row in table:
        for v in row:
            # bool is an int subclass, but True/False are not element indices
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < d:
                raise GroupTableError(
                    f"not a group: table entries must be indices in 0..{d - 1}, got {_echo(v)}"
                )
    for i, row in enumerate(table):
        if sorted(row) != list(range(d)):
            raise GroupTableError("not a group: rows not permutations")
    for j in range(d):
        if sorted(table[i][j] for i in range(d)) != list(range(d)):
            raise GroupTableError("not a group: columns not permutations")
    identity = None
    for e in range(d):
        if all(table[e][j] == j for j in range(d)) and all(table[i][e] == i for i in range(d)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("not a group: no identity element")
    for i, j, k in itertools.product(range(d), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise GroupTableError(f"not a group: associativity fails at ({i},{j},{k})")
    for g in range(d):
        if not any(table[g][h] == identity and table[h][g] == identity for h in range(d)):
            raise GroupTableError(f"not a group: element {g} has no inverse")
    return identity


def group_algebra(labels: Sequence[str], table: Sequence[Sequence[int]]) -> HopfAlgebra:
    """Hopf algebra of a finite group given by its multiplication table.

    table[i][j] is the index of (element i) * (element j).  The table is
    validated exhaustively (permutation rows/columns, identity,
    associativity, inverses) before any tensor is built.  Orders too large
    for check_axioms are refused first, before the O(d^3) validation.

    Nothing is checked after the table: the group laws make the Hopf
    axioms hold exactly.  Every tensor entry is 0 or 1, and each side of
    every axiom sends a basis input to a single basis output, so
    check_axioms finds every deviation to be exactly 0.0.

    Every structure map is a function on basis labels, so the algebra's
    digit_maps are read off the table too: Mul is the table, Comul copies
    its input digit twice, Unit writes the identity, Counit writes no
    digit and Antipode is the inverse.
    """
    _check_order(len(table))
    identity = _validate_group_table(table)
    d = len(table)
    if len(labels) != d:
        raise ValueError(f"got {len(labels)} labels for a {d}-element table")

    product = np.array(table, dtype=np.int32)
    eye = np.eye(d)
    mul = eye[product]  # mul[i, j] is the basis vector of table[i][j]
    comul = np.zeros((d, d, d))
    comul.reshape(-1)[:: d * d + d + 1] = 1.0  # the entries comul[g, g, g]
    unit = eye[identity]
    antipode = product == identity  # 1 at [g, h] where g * h is the identity
    inverse = antipode.argmax(axis=1).astype(np.int32)

    algebra = HopfAlgebra(
        tuple(labels),
        mul=mul,
        comul=comul,
        unit=unit,
        counit=np.ones(d),
        antipode=antipode,
    )
    unit_digit = np.array(identity, dtype=np.int32)  # indexed by no input digit
    for arr in (product, unit_digit, inverse):
        arr.setflags(write=False)
    algebra.digit_maps = {
        "Mul": (product,),
        "Comul": (0, 0),
        "Unit": (unit_digit,),
        "Counit": (),
        "Antipode": (inverse,),
    }
    return algebra


def cyclic_group_table(n: int) -> tuple[list[str], list[list[int]]]:
    """Addition mod n, with labels g0..g(n-1)."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    labels = [f"g{i}" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return labels, table


def symmetric_group_3_table() -> tuple[list[str], list[list[int]]]:
    """Permutations of three points in lexicographic one-line order."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    labels = ["".join(str(x) for x in p) for p in perms]
    # composition convention: (p * q)(x) = p(q(x))
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return labels, table


def builtin_algebra(name: str) -> HopfAlgebra:
    key = name.upper()
    if key == "Z2":
        return z2_algebra()
    if key in ("Z3", "Z4", "Z5"):
        return group_algebra(*cyclic_group_table(int(key[1])))
    if key == "S3":
        return group_algebra(*symmetric_group_3_table())
    raise ValueError(f"unknown built-in algebra {_echo(name)} (expected one of {', '.join(BUILTIN_ALGEBRAS)})")


def _read_json(path: str | Path):
    """The document in a JSON file.  Nesting too deep for the parser is
    refused like any other malformed document, with a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def load_group_table(path: str | Path) -> HopfAlgebra:
    """Load a group algebra from a JSON file {"labels": [...], "table": [[...]]}."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "labels" not in doc or "table" not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'labels' and 'table'")
    extra = sorted(set(doc) - {"labels", "table"})
    if extra:
        raise GroupTableError(f"{path}: unexpected key(s) {', '.join(map(_echo, extra))}; "
                              "only 'labels' and 'table' are allowed")
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(lbl, str) for lbl in labels):
        raise ValueError(f"{path}: 'labels' must be a list of strings")
    table = doc["table"]
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise GroupTableError(f"{path}: 'table' must be a list of rows, each a list")
    return group_algebra(labels, table)


def resolve_algebra(name: str) -> HopfAlgebra:
    """Resolve a built-in algebra name, or else a path to a group-table file."""
    if name.upper() in BUILTIN_ALGEBRAS:
        return builtin_algebra(name)
    try:
        exists = Path(name).exists()
    except OSError:  # e.g. a name too long to be a path
        exists = False
    if exists:
        return load_group_table(name)
    raise ValueError(f"unknown algebra {_echo(name)}: not a built-in name and not a file")

