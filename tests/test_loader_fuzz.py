"""Fuzzers for the JSON loaders.

Group tables: a loaded group algebra is Hopf exactly, and a corrupted
table is refused before any axiom circuit runs.  The group tables are built
here from first principles (addition mod n, composition of permutations,
componentwise products), not from hopfcirc's own table helpers.

Gate lists: any JSON document given to compile either compiles or is
refused with one error line.

Both loaders against their schemas: a group table that
schemas/group_table.schema.json rejects is refused with exit 2 and one
error line, and a gate list compiles only when
schemas/gate_list.schema.json accepts it.  The other way round, a
schema-valid group table, or a schema-valid gate list with in-range wires
and unitary matrices, loads and gives what its all-integer form gives:
JSON Schema's integer takes 1.0, and so do the loaders.
"""

import contextlib
import io
import itertools
import json
import math
import time
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

import hopfcirc.algebra
from hopfcirc.algebra import GroupTableError, _validate_group_table, check_axioms, load_group_table
from hopfcirc.cli import cli_run

from helpers import REPO_ROOT, loop_axiom_deviations, loop_validate_group_table


def _schema(name: str) -> Draft7Validator:
    return Draft7Validator(json.loads((REPO_ROOT / "schemas" / f"{name}.schema.json").read_text()))


TABLE_SCHEMA, GATE_LIST_SCHEMA = _schema("group_table"), _schema("gate_list")

#: largest order compared with the loop oracle, whose bialgebra sum runs
#: over d^8 index tuples: about 0.4 s at order 5, 1.6 s at 6 and 15 s at 8
LOOP_ORACLE_MAX_ORDER = 5


def _cyclic(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _s3() -> list[list[int]]:
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[x]] for x in range(3))) for q in perms] for p in perms]


def _product(orders: list[int]) -> list[list[int]]:
    """Table of Z_n1 x ... x Z_nk, elements numbered in mixed radix."""
    elements = list(itertools.product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elements)}
    return [
        [index[tuple((x + y) % n for x, y, n in zip(g, h, orders))] for h in elements]
        for g in elements
    ]


def _relabelled(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same group with element i renamed perm[i]."""
    d = len(table)
    out = [[0] * d for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


@st.composite
def group_tables(draw, max_order: int = 16) -> list[list[int]]:
    kinds = ["cyclic"] + ["product"] * (max_order >= 4) + ["S3"] * (max_order >= 6)
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        table = _cyclic(draw(st.integers(1, max_order)))
    elif kind == "product":  # two or more cyclic factors, each of order 2 or more
        orders = [draw(st.integers(2, max_order // 2))]
        orders.append(draw(st.integers(2, max_order // orders[0])))
        while 2 * math.prod(orders) <= max_order and draw(st.booleans()):
            orders.append(draw(st.integers(2, max_order // math.prod(orders))))
        table = _product(orders)
    else:
        table = _s3()
    return _relabelled(table, draw(st.permutations(range(len(table)))))


def _write(directory, doc) -> str:
    path = directory / "table.json"
    path.write_text(json.dumps(doc))
    return str(path)


@settings(max_examples=25, deadline=None)
@given(group_tables())
def test_loaded_group_algebra_is_exactly_hopf(tmp_path_factory, table):
    labels = [f"e{i}" for i in range(len(table))]
    h = load_group_table(_write(tmp_path_factory.mktemp("t"), {"labels": labels, "table": table}))
    report = check_axioms(h, 0.0)
    assert report.passed and report.max_deviation == 0.0
    assert report.cocommutative
    assert report.commutative == all(
        table[i][j] == table[j][i] for i, j in itertools.product(range(len(table)), repeat=2)
    )


@settings(max_examples=10, deadline=None)
@given(group_tables(max_order=LOOP_ORACLE_MAX_ORDER))
def test_loaded_group_algebra_matches_loop_oracle(tmp_path_factory, table):
    labels = [f"e{i}" for i in range(len(table))]
    h = load_group_table(_write(tmp_path_factory.mktemp("t"), {"labels": labels, "table": table}))
    oracle = loop_axiom_deviations(h)
    for c in check_axioms(h, 0.0).checks:
        assert c.deviation == oracle[c.name] == 0.0


@st.composite
def corrupted(draw, table: list[list[int]]) -> dict:
    """A table document broken in one drawn way."""
    d = len(table)
    labels = [f"e{i}" for i in range(d)]
    table = [list(row) for row in table]
    row = draw(st.integers(0, d - 1))
    col = draw(st.integers(0, d - 1))
    how = draw(
        st.sampled_from(
            ["swap", "out-of-range", "bool", "float", "ragged", "extra-key", "missing-key"]
            if d > 1
            else ["out-of-range", "bool", "float", "ragged", "extra-key", "missing-key"]
        )
    )
    if how == "swap":  # the row stays a permutation, but two columns repeat an entry
        other = (col + draw(st.integers(1, d - 1))) % d
        table[row][col], table[row][other] = table[row][other], table[row][col]
    elif how == "out-of-range":
        table[row][col] = draw(st.sampled_from([d, d + 7, -1]))
    elif how == "bool":
        table[row][col] = draw(st.booleans())
    elif how == "float":  # an integral float is an integer, as to the schema
        table[row][col] = table[row][col] + 0.5
    elif how == "ragged":
        table[row] = table[row][:-1] if draw(st.booleans()) else table[row] + [0]
    elif how == "extra-key":
        return {"labels": labels, "table": table, draw(st.sampled_from(["name", "x", ""])): 1}
    elif how == "missing-key":
        return draw(st.sampled_from([{"labels": labels}, {"table": table}]))
    return {"labels": labels, "table": table}


@settings(max_examples=60, deadline=None)
@given(group_tables(max_order=8), st.data())
def test_corrupted_table_refused_before_any_circuit(tmp_path_factory, table, data):
    path = _write(tmp_path_factory.mktemp("t"), data.draw(corrupted(table)))
    stdout, stderr = io.StringIO(), io.StringIO()  # hypothesis rules out capsys
    # check_axioms binds its axiom plans before it evaluates any of them
    real = hopfcirc.algebra._bind
    with mock.patch.object(hopfcirc.algebra, "_bind", side_effect=real) as spy, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_run(["check-axioms", "--algebra", path, "--json"])
    assert code == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue().startswith("error: validate: ") and stderr.getvalue().count("\n") == 1
    assert spy.call_count == 0


def _intercalate_switched(table: list[list[int]], draw) -> list[list[int]]:
    """The table with one drawn 2 x 2 subsquare a b / b a, away from the
    identity's row and column, turned into b a / a b: still a Latin square
    with the same identity, and usually no longer associative.  The table
    itself when it has no such subsquare."""
    d = len(table)
    spots = [
        (i, k, j, m)
        for i, k in itertools.combinations(range(1, d), 2)
        for j, m in itertools.combinations(range(1, d), 2)
        if table[i][j] == table[k][m] and table[i][m] == table[k][j]
    ]
    if not spots:
        return table
    i, k, j, m = draw(st.sampled_from(spots))
    out = [list(row) for row in table]
    out[i][j], out[i][m], out[k][j], out[k][m] = table[i][m], table[i][j], table[k][m], table[k][j]
    return out


@st.composite
def random_tables(draw) -> list[list[int]]:
    """Square tables of indices that fail the group laws in every way:
    arbitrary entries, permutation rows, a group table with its rows,
    columns and entries renamed apart (a Latin square, with an identity or
    without), and a group table (identity first) with an intercalate
    switched."""
    how = draw(st.sampled_from(["any", "rows", "isotope", "intercalate"]))
    if how in ("any", "rows"):
        d = draw(st.integers(1, 8))
        if how == "rows":
            return [draw(st.permutations(range(d))) for _ in range(d)]
        row = st.lists(st.integers(0, d - 1), min_size=d, max_size=d)
        return draw(st.lists(row, min_size=d, max_size=d))
    table = draw(group_tables(max_order=8))
    d = len(table)
    if how == "intercalate":
        identity = next(e for e in range(d) if table[e][e] == e)
        swap = list(range(d))
        swap[0], swap[identity] = identity, 0
        return _intercalate_switched(_relabelled(table, swap), draw)
    rows, cols, values = (draw(st.permutations(range(d))) for _ in range(3))
    return [[values[table[rows[i]][cols[j]]] for j in range(d)] for i in range(d)]


def _validated(table) -> int | str:
    try:
        return _validate_group_table(table)
    except GroupTableError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_validation_matches_loop_reference(data):
    # the array checks give the loops' identity, or their first failure,
    # with the same message
    source = data.draw(st.sampled_from(["random", "group", "corrupted"]))
    if source == "random":
        table = data.draw(random_tables())
    else:
        table = data.draw(group_tables(max_order=8))
        if source == "corrupted":
            table = data.draw(corrupted(table)).get("table", table)
    want = loop_validate_group_table(table)
    got = _validated(table)
    event(want if isinstance(want, str) else "a group")
    assert type(got) is type(want) and got == want


#: arbitrary JSON values, with the gate list's own keys among the object keys
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["cnot", "u1", "wire", "matrix", "re", "im", "name"]), inner, max_size=3),
    max_leaves=8,
)
_H = 2**-0.5
_ENTRY = st.sampled_from([0, 1, -1, 0.5, _H, -_H, 1e308]) | _JSON
_MATRIX = st.lists(st.lists(_ENTRY, min_size=1, max_size=3), min_size=1, max_size=3) | _JSON
_UNITARIES = [{"re": [[0, 1], [1, 0]]}, {"re": [[_H, _H], [_H, -_H]]}, {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 1]]}]
#: well-formed gates on 3 wires, so that some documents compile
_VALID_GATE = st.fixed_dictionaries(
    {"cnot": st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True)}
) | st.fixed_dictionaries(
    {"u1": st.fixed_dictionaries({"wire": st.integers(0, 2), "matrix": st.sampled_from(_UNITARIES)})}
)
_GATE = (
    _VALID_GATE
    | st.fixed_dictionaries({"cnot": st.lists(st.integers(-1, 3) | _JSON, max_size=3)})
    | st.fixed_dictionaries(
        {"u1": st.fixed_dictionaries(
            {"wire": st.integers(-1, 3) | _JSON, "matrix": st.fixed_dictionaries({"re": _MATRIX})},
            optional={"name": _JSON},
        )}
    )
    | _JSON
)


@st.composite
def near_valid_u1(draw) -> dict:
    """A u1 gate that would compile, but for an unknown key in it or in its
    matrix, or a name of any JSON type, each drawn or not."""
    spec = {"wire": draw(st.integers(0, 2)), "matrix": dict(draw(st.sampled_from(_UNITARIES)))}
    if draw(st.booleans()):
        spec[draw(st.sampled_from(["extra", "Wire", "cnot"]))] = draw(_JSON)
    if draw(st.booleans()):
        spec["matrix"][draw(st.sampled_from(["junk", "Re", "wire"]))] = draw(_JSON)
    if draw(st.booleans()):
        spec["name"] = draw(st.text(max_size=3) | _JSON)
    return {"u1": spec}


@settings(max_examples=150, deadline=None)
@given(st.lists(_VALID_GATE | near_valid_u1(), min_size=1, max_size=3) | st.lists(_GATE, max_size=4) | _JSON)
def test_gate_list_fuzz(tmp_path_factory, doc):
    path = _write(tmp_path_factory.mktemp("g"), doc)
    stdout, stderr = io.StringIO(), io.StringIO()  # hypothesis rules out capsys
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_run(["compile", "--wires", "3", "--gates", path])
    assert time.perf_counter() - start < 5.0
    event(f"exit {code}")
    if code == 0:
        # what compiles, the schema accepts: the loader is no laxer than it
        assert GATE_LIST_SCHEMA.is_valid(json.loads(json.dumps(doc)))
        assert stderr.getvalue() == "" and stdout.getvalue().startswith("algebra Z2\n")
    else:
        assert code == 2 and stdout.getvalue() == ""
        assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1



@st.composite
def table_documents(draw) -> object:
    """Group tables as loaded, corrupted, or as arbitrary JSON with the
    document's keys and one unknown key among its object keys."""
    table = draw(group_tables(max_order=6))
    kind = draw(st.sampled_from(["valid", "corrupted", "arbitrary"]))
    if kind == "valid":
        return {"labels": [f"e{i}" for i in range(len(table))], "table": table}
    if kind == "corrupted":
        return draw(corrupted(table))
    rows = st.lists(st.lists(st.integers(-1, 6) | _JSON, max_size=4), max_size=4)
    return draw(st.fixed_dictionaries({}, optional={
        "labels": st.lists(st.text(max_size=2), max_size=4) | _JSON,
        "table": st.just(table) | rows | _JSON,
        "extra": _JSON,
    }) | _JSON)


@settings(max_examples=100, deadline=None)
@given(table_documents())
def test_table_schema_rejection_exits_2(tmp_path_factory, doc):
    path = _write(tmp_path_factory.mktemp("t"), doc)
    stdout, stderr = io.StringIO(), io.StringIO()  # hypothesis rules out capsys
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_run(["check-axioms", "--algebra", path, "--json"])
    valid = TABLE_SCHEMA.is_valid(json.loads(json.dumps(doc)))
    event(f"schema {'accepts' if valid else 'rejects'}")
    if not valid:
        assert code == 2 and stdout.getvalue() == ""
        assert stderr.getvalue().startswith("error: validate: ") and stderr.getvalue().count("\n") == 1


def _cli(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()  # hypothesis rules out capsys
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _integer(value: int) -> st.SearchStrategy:
    """value, or the float equal to it: both are integers to JSON Schema."""
    return st.sampled_from([value, float(value)])


@settings(max_examples=40, deadline=None)
@given(group_tables(max_order=6), st.data())
def test_schema_valid_table_loads(tmp_path_factory, table, data):
    doc = {"labels": [f"e{i}" for i in range(len(table))], "table": table}
    floated = {**doc, "table": [[data.draw(_integer(v)) for v in row] for row in table]}
    assert TABLE_SCHEMA.is_valid(floated)
    path = _write(tmp_path_factory.mktemp("t"), floated)
    got = _cli(["check-axioms", "--algebra", path, "--json"])
    Path(path).write_text(json.dumps(doc))  # the same path: check-axioms prints it
    assert got == _cli(["check-axioms", "--algebra", path, "--json"])
    assert got[0] == 0


@st.composite
def schema_valid_gate_lists(draw) -> tuple[list, list]:
    """A gate list on 3 wires with in-range wires, distinct control and
    target and unitary matrices, as (integer wires, some wires as floats)."""
    gates = draw(st.lists(_VALID_GATE, max_size=4))
    floated = []
    for gate in gates:
        if "cnot" in gate:
            floated.append({"cnot": [draw(_integer(w)) for w in gate["cnot"]]})
        else:
            floated.append({"u1": {**gate["u1"], "wire": draw(_integer(gate["u1"]["wire"]))}})
    return gates, floated


@settings(max_examples=40, deadline=None)
@given(schema_valid_gate_lists())
def test_schema_valid_gate_list_compiles(tmp_path_factory, lists):
    gates, floated = lists
    assert GATE_LIST_SCHEMA.is_valid(floated)
    path = _write(tmp_path_factory.mktemp("g"), floated)
    got = _cli(["compile", "--wires", "3", "--gates", path])
    Path(path).write_text(json.dumps(gates))
    assert got == _cli(["compile", "--wires", "3", "--gates", path])
    assert got[0] == 0
