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
from .engine import _bind, _digit_pattern, _evaluate, _one_hot, _walk

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

class GroupTableError(ValueError):
    """A multiplication table failed one of the group laws."""


class HopfAlgebra:
    """Bundle of structure tensors over a d-dimensional basis.

    The structure tensors are given as array-likes, each converted once to
    a read-only complex ndarray; maps holds them as read-only d^out x d^in
    matrices keyed by primitive kind ("Mul", "Comul", "Unit", "Counit",
    "Antipode") for the circuit engine.  Direct construction only checks
    shapes and finiteness.  The algebras of group_algebra come from a
    validated group table, those of builtin_algebra and z2_algebra from a
    table that is a group by construction, and all are Hopf exactly.

    digit_maps holds, for each kind whose map sends every basis input to a
    single basis output with coefficient 1, that function on basis digits:
    one entry per output wire, either the position of the input wire whose
    digit it copies or an integer array indexed by the input digits.  The
    engine folds runs of such maps into index steps.  A group algebra has
    it read off its table; a directly constructed algebra has none, so
    the engine multiplies its structure matrices in.
    """

    __slots__ = ("dim", "basis_labels", "mul", "comul", "unit", "counit", "antipode", "maps", "digit_maps")

    def __init__(self, basis_labels: Sequence[str], mul, comul, unit, counit, antipode):
        d = len(basis_labels)
        if d < 1:
            raise ValueError("algebra needs at least one basis element")
        if len(set(basis_labels)) != d:
            raise ValueError("basis labels must be distinct")
        tensors = []
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
            tensors.append(arr)
        self._set_tensors(tuple(basis_labels), *tensors, digit_maps={})

    def _set_tensors(self, basis_labels: tuple[str, ...], mul, comul, unit, counit, antipode, digit_maps) -> None:
        """Take the tensors as they are, with no copy and no check: each is
        already a read-only complex ndarray of its shape, as __init__ and
        _group_algebra build them."""
        d = len(basis_labels)
        self.dim = d
        self.basis_labels = basis_labels
        self.mul, self.comul, self.unit, self.counit, self.antipode = mul, comul, unit, counit, antipode
        # The structure tensors as d^out x d^in matrices, keyed by primitive
        # kind (see tensor.py for the wire conventions).  Output axes must
        # precede input axes, so mul (in,in,out) is permuted to (out,in,in)
        # and comul (in,out,out) to (out,out,in) before reshaping.  Each
        # reshape merges axes that stay contiguous, so every map is a view
        # of a read-only tensor, and read-only itself.
        self.maps = {
            "Mul": np.transpose(mul, (2, 0, 1)).reshape(d, d * d),
            "Comul": np.transpose(comul, (1, 2, 0)).reshape(d * d, d),
            "Unit": unit.reshape(d, 1),
            "Counit": counit.reshape(1, d),
            "Antipode": np.transpose(antipode),
        }
        self.digit_maps: dict[str, tuple[int | np.ndarray, ...]] = digit_maps

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

#: the distinct sides of the identities, as (wires in, layers): 24 of the 28
_AXIOM_SIDES = tuple(dict.fromkeys(
    (wires, side) for _, wires, left, right in _AXIOM_CIRCUITS for side in (left, right)
))

#: the identities as (family, left side, right side), each side its index
#: in _AXIOM_SIDES
_AXIOM_ROWS = tuple(
    (family, _AXIOM_SIDES.index((wires, left)), _AXIOM_SIDES.index((wires, right)))
    for family, wires, left, right in _AXIOM_CIRCUITS
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


def _deviation(left: tuple, right: tuple) -> float:
    """The largest entry of |map(left) - map(right)| for two sides with
    the same wires in and out, each given as (plan, wire profile).

    When the plans give both maps as functions on basis indices (one 1 per
    column, see engine._one_hot), every entry of the difference is 0 or
    +-1, so the largest is exactly 0.0 when the functions agree and 1.0
    when they do not: the float the dense maps give.  Any other pair is
    evaluated and subtracted.
    """
    f = _one_hot(*left)
    g = None if f is None else _one_hot(*right)
    if g is not None:
        return 0.0 if np.array_equal(f, g) else 1.0
    return float(np.abs(_evaluate(*left).matrix - _evaluate(*right).matrix).max())


def _walk_sides(digit_maps: dict) -> tuple:
    """The skeleton of each of _AXIOM_SIDES, in order, for algebras with
    these digit maps."""
    return tuple(_walk(wires, layers, digit_maps) for wires, layers in _AXIOM_SIDES)


def check_axioms(algebra: HopfAlgebra, tol: float) -> AxiomReport:
    """Evaluate the six Hopf axiom families as circuit identities.

    Each identity is a pair of small circuits of structure maps, e.g. the
    bialgebra law M ; DELTA = DELTA,DELTA ; ID,SWAP,ID ; M,M, and its
    deviation is the largest entry of the difference of their maps.
    Families: associativity, unit, coassociativity, counit, the four
    bialgebra compatibility identities (reported as one family by their
    max deviation), and the antipode identity.

    The 24 distinct sides of the 14 identities were validated and walked
    once, at import, for the two digit-map patterns algebras have: every
    group algebra's and none (_AXIOM_SKELETONS).  A call builds no circuit:
    it binds each skeleton to the algebra, which folds its runs in the
    algebra's own tables, and compares each identity's two sides with
    _deviation.  Digit maps of any other pattern, set by hand, are walked
    on the call.  Nothing is kept between calls.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    _check_order(algebra.dim)
    digit_maps = algebra.digit_maps
    skeletons = _AXIOM_SKELETONS.get(_digit_pattern(digit_maps)) or _walk_sides(digit_maps)
    sides = [(_bind(skeleton, algebra), profile) for skeleton, profile in zip(skeletons, _AXIOM_PROFILES)]
    deviations: dict[str, float] = {}
    for family, left, right in _AXIOM_ROWS:
        deviation = _deviation(sides[left], sides[right])
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
    t = np.array(table, dtype=np.intp)
    elements = np.arange(d)
    if (np.sort(t, axis=1) != elements).any():
        raise GroupTableError("not a group: rows not permutations")
    if (np.sort(t, axis=0) != elements[:, None]).any():
        raise GroupTableError("not a group: columns not permutations")
    # e is the identity when row e and column e each read 0..d-1; column 0
    # is a permutation, so only the row holding its 0 can be row e
    identity = int(t[:, 0].argmin())
    if t[identity].tolist() != list(range(d)) or t[:, identity].tolist() != list(range(d)):
        raise GroupTableError("not a group: no identity element")
    # t[t][i, j, k] is (ij)k and t[:, t][i, j, k] is i(jk); argwhere lists
    # the failing triples in (i, j, k) order
    fails = t[t] != t[:, t]
    if fails.any():
        i, j, k = np.argwhere(fails)[0]
        raise GroupTableError(f"not a group: associativity fails at ({i},{j},{k})")
    # inverses need no check: row g holds the identity at some h and column
    # g at some h', so g*h = h'*g = e, and h' = h'(gh) = (h'g)h = h
    return identity


def group_algebra(labels: Sequence[str], table: Sequence[Sequence[int]]) -> HopfAlgebra:
    """Hopf algebra of a finite group given by its multiplication table.

    table[i][j] is the index of (element i) * (element j).  The table is
    validated exhaustively (permutation rows/columns, identity and
    associativity, which give the inverses) before any tensor is built.
    Orders too large for check_axioms are refused first, before the O(d^3)
    validation.

    Nothing is checked after the table: the group laws make the Hopf
    axioms hold exactly.  Every tensor entry is 0 or 1, and each side of
    every axiom sends a basis input to a single basis output, so
    check_axioms finds every deviation to be exactly 0.0.
    """
    _check_order(len(table))
    identity = _validate_group_table(table)
    d = len(table)
    if len(labels) != d:
        raise ValueError(f"got {len(labels)} labels for a {d}-element table")
    return _group_algebra(tuple(labels), np.array(table, dtype=np.int32), identity)


def _group_algebra(labels: tuple[str, ...], product: np.ndarray, identity: int) -> HopfAlgebra:
    """The algebra of a group known to be one: product is its int32 table,
    product[i, j] the index of i * j, and identity the index of its
    identity.  Nothing is checked; group_algebra validates a table before it
    comes here, and the built-in tables are groups by construction.

    Each tensor is built here as a read-only complex array, so the algebra
    takes it as it is, with none of HopfAlgebra's copies or checks.  Every
    structure map is a function on basis labels, so the algebra's
    digit_maps are read off the table too: Mul is the table, Comul copies
    its input digit twice, Unit writes the identity, Counit writes no digit
    and Antipode is the inverse.
    """
    d = len(product)
    eye = np.eye(d, dtype=complex)
    eye.setflags(write=False)  # so its row, the unit, is a read-only view
    mul = eye[product]  # mul[i, j] is the basis vector of product[i, j]
    comul = np.zeros((d, d, d), dtype=complex)
    comul.reshape(-1)[:: d * d + d + 1] = 1.0  # the entries comul[g, g, g]
    is_inverse = product == identity  # [g, h] where g * h is the identity
    antipode = is_inverse.astype(complex)
    counit = np.ones(d, dtype=complex)
    inverse = is_inverse.argmax(axis=1).astype(np.int32)
    unit_digit = np.array(identity, dtype=np.int32)  # indexed by no input digit
    for arr in (mul, comul, antipode, counit, product, inverse, unit_digit):
        arr.setflags(write=False)
    algebra = HopfAlgebra.__new__(HopfAlgebra)
    algebra._set_tensors(labels, mul, comul, eye[identity], counit, antipode, digit_maps={
        "Mul": (product,),
        "Comul": (0, 0),
        "Unit": (unit_digit,),
        "Counit": (),
        "Antipode": (inverse,),
    })
    return algebra


def _axiom_constants() -> tuple[tuple, dict]:
    """The wire profile of each of _AXIOM_SIDES, and its skeletons by digit
    pattern.  Each side is validated once as a circuit of the one-element
    group algebra, whose digit maps have the pattern of every group
    algebra's, then walked for that pattern and for an algebra with none."""
    one = _group_algebra(("e",), np.zeros((1, 1), dtype=np.int32), 0)
    profiles = tuple(Circuit(one, wires, layers).profile for wires, layers in _AXIOM_SIDES)
    return profiles, {_digit_pattern(maps): _walk_sides(maps) for maps in (one.digit_maps, {})}


#: each axiom side's wire count at every layer boundary, and its skeleton
#: for each digit pattern check_axioms meets, built once at import
_AXIOM_PROFILES, _AXIOM_SKELETONS = _axiom_constants()


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


#: the algebras the CLI resolves without a table file: name -> its labels
#: and group table.  Each table is a group by construction, with the
#: identity at index 0, so builtin_algebra does not validate it; a test
#: does (tests/test_algebra.py)
_BUILTIN_TABLES = {
    "Z2": lambda: (["f0", "f1"], [[0, 1], [1, 0]]),
    **{f"Z{n}": lambda n=n: cyclic_group_table(n) for n in (3, 4, 5)},
    "S3": symmetric_group_3_table,
}
BUILTIN_ALGEBRAS = tuple(_BUILTIN_TABLES)


def builtin_algebra(name: str) -> HopfAlgebra:
    """The built-in algebra of that name (any case), built from its table
    with no validation: group_algebra of the same labels and table gives
    an equal algebra."""
    table_of = _BUILTIN_TABLES.get(name.upper())
    if table_of is None:
        raise ValueError(f"unknown built-in algebra {_echo(name)} (expected one of {', '.join(BUILTIN_ALGEBRAS)})")
    labels, table = table_of()
    return _group_algebra(tuple(labels), np.array(table, dtype=np.int32), 0)


def z2_algebra() -> HopfAlgebra:
    """The two-element algebra whose multiplication table is XOR."""
    return builtin_algebra("Z2")


def _read_json(path: str | Path):
    """The document in a JSON file.  Nesting too deep for the parser is
    refused like any other malformed document, with a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _only_keys(doc: dict, allowed: tuple[str, ...], where: str, error: type = ValueError) -> None:
    """Refuse a key of a JSON object that its schema does not allow."""
    extra = doc.keys() - allowed
    if extra:
        names = list(map(repr, allowed))
        raise error(f"{where}: unexpected key(s) {', '.join(map(_echo, sorted(extra)))}; "
                    f"only {', '.join(names[:-1])} and {names[-1]} are allowed")


def _json_int(value):
    """value as an int when it is an integral float, as JSON Schema's
    integer reads 1.0; any other value as it is, for the caller to check."""
    return int(value) if type(value) is float and value.is_integer() else value


def load_group_table(path: str | Path) -> HopfAlgebra:
    """Load a group algebra from a JSON file {"labels": [...], "table": [[...]]}.
    An integral float in the table is read as the integer it equals."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "labels" not in doc or "table" not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'labels' and 'table'")
    _only_keys(doc, ("labels", "table"), path, GroupTableError)
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(lbl, str) for lbl in labels):
        raise ValueError(f"{path}: 'labels' must be a list of strings")
    table = doc["table"]
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise GroupTableError(f"{path}: 'table' must be a list of rows, each a list")
    return group_algebra(labels, [[_json_int(v) for v in row] for row in table])


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

