import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcirc.engine
from hopfcirc.circuit import (
    ANTIPODE,
    COMUL,
    COUNIT,
    ID,
    MUL,
    SWAP,
    UNIT,
    Circuit,
    CircuitError,
    Cnot,
    U1,
    compile_gate_circuit,
    unitary,
    validate,
)
from hopfcirc.algebra import z2_algebra
from hopfcirc.dsl import (
    CircuitDocument,
    ParseError,
    UnitaryDef,
    _format_complex,
    circuit_to_document,
    parse_circuit,
    print_circuit,
    to_circuit,
)

from hopfcirc.cli import cli_run
from hopfcirc.engine import evaluate

from helpers import (
    REPO_ROOT,
    assert_same_plan,
    comment_every_line,
    document_strategy,
    haar_unitary,
    layer_signature,
    near_unitary,
)

CNOT_SRC = "algebra Z2\nin 2\nlayer DELTA, ID\nlayer ID, M\n"
FIG2_SRC = (
    "algebra Z2\nin 2\nunitary u0 H\n"
    "layer DELTA, DELTA\nlayer DELTA, M, ID\nlayer ID, U(u0), ID, ID\nlayer ID, M, ID\n"
)

CNOT_TABLE = np.zeros((4, 4))
CNOT_TABLE[0, 0] = CNOT_TABLE[1, 1] = CNOT_TABLE[3, 2] = CNOT_TABLE[2, 3] = 1.0


class TestParse:
    def test_cnot_document(self):
        doc = parse_circuit(CNOT_SRC)
        assert doc == CircuitDocument(
            algebra_name="Z2",
            wires_in=2,
            unitaries=(),
            layers=(("DELTA", "ID"), ("ID", "M")),
        )
        m = evaluate(to_circuit(doc))
        assert np.array_equal(m.matrix, CNOT_TABLE)

    def test_fig2_document(self):
        doc = parse_circuit(FIG2_SRC)
        assert doc.unitaries[0][0] == "u0"
        assert doc.unitaries[0][1] == UnitaryDef(preset="H")
        circuit = to_circuit(doc)
        assert validate(circuit) == [2, 4, 4, 4, 3]

    def test_comments_blanks_and_case(self):
        src = "# a circuit\nALGEBRA Z2\n\nIn 2  # two wires\nLayer delta, id\nlayer id, m\n"
        doc = parse_circuit(src)
        assert doc == parse_circuit(CNOT_SRC)

    def test_unknown_primitive_names_position(self):
        with pytest.raises(ParseError, match="unknown primitive 'BOGUS'") as err:
            parse_circuit("algebra Z2\nin 2\nlayer BOGUS")
        assert err.value.line == 3 and err.value.column == 7

    def test_unknown_primitive_mid_layer(self):
        with pytest.raises(ParseError, match="NOPE") as err:
            parse_circuit("algebra Z2\nin 2\nlayer ID, NOPE, ID")
        assert err.value.line == 3 and err.value.column == 11

    def test_unknown_unitary_reference(self):
        with pytest.raises(ParseError, match="unknown unitary name 'u9'") as err:
            parse_circuit("algebra Z2\nin 1\nlayer U(u9)")
        assert err.value.line == 3 and err.value.column == 7

    @pytest.mark.parametrize(
        "layer,message,column",
        [
            ("layer ID,  U ( nope ) , ID", "unknown unitary name 'nope'", 12),
            ("  LAYER id ,u(a), bogus", "unknown primitive 'bogus'", 19),
            ("layer ID, , M", "empty primitive between commas", 10),
            ("layer ID,M,", "empty primitive between commas", 12),
            ("layer U(a)x", "unknown primitive 'U(a)x'", 7),
        ],
    )
    def test_layer_error_columns(self, layer, message, column):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_circuit(f"algebra Z2\nin 2\nunitary a H\n{layer}")
        assert err.value.line == 4 and err.value.column == column

    def test_error_after_repeated_lines_keeps_its_position(self):
        src = "algebra Z2\nin 2\nunitary a H\nlayer ID, U(a)\nlayer ID, U(a)\n  layer ID, U(b)\nlayer ID, U(a)\n"
        with pytest.raises(ParseError, match="unknown unitary name 'b'") as err:
            parse_circuit(src)
        assert (err.value.line, err.value.column) == (6, 13)

    def test_layer_line_before_header_fails_at_each_place(self):
        # a line that failed is not remembered: the same line fails again
        # where it comes first
        with pytest.raises(ParseError, match="layers must follow the header") as err:
            parse_circuit("layer ID\nalgebra Z2\nin 1\nlayer ID\n")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_repeated_lines_share_one_tuple(self):
        doc = parse_circuit(
            "algebra Z2\nin 2\nlayer DELTA, ID\nlayer ID, M\nlayer DELTA, ID\nlayer ID, M\nlayer  delta, id\n"
        )
        assert doc.layers == (("DELTA", "ID"), ("ID", "M")) * 2 + (("DELTA", "ID"),)
        assert doc.layers[0] is doc.layers[2] and doc.layers[4] is not doc.layers[0]
        circuit = to_circuit(doc)
        assert circuit.layers[0] is circuit.layers[2] is circuit.layers[4]
        assert circuit.layers[1] is circuit.layers[3]
        assert circuit.profile == (2, 3, 2, 3, 2, 3)

    def test_duplicate_unitary_definition(self):
        with pytest.raises(ParseError, match="duplicate unitary definition"):
            parse_circuit("algebra Z2\nin 1\nunitary a H\nunitary a X\nlayer U(a)")

    def test_unitary_after_layer_rejected(self):
        with pytest.raises(ParseError, match="precede layers"):
            parse_circuit("algebra Z2\nin 1\nlayer ID\nunitary a H")

    def test_header_required_and_ordered(self):
        with pytest.raises(ParseError, match="missing algebra"):
            parse_circuit("")
        with pytest.raises(ParseError, match="missing 'in'"):
            parse_circuit("algebra Z2\n")
        with pytest.raises(ParseError, match="follow the algebra"):
            parse_circuit("in 2\nalgebra Z2\n")
        with pytest.raises(ParseError, match="duplicate algebra"):
            parse_circuit("algebra Z2\nalgebra Z3\nin 1\n")
        with pytest.raises(ParseError, match="^line 3, column 1: duplicate 'in' line$"):
            parse_circuit("algebra Z2\nin 1\nin 1\n")
        with pytest.raises(ParseError, match="^line 1, column 9: expected a single algebra name$"):
            parse_circuit("algebra Z2 Z3\nin 1\n")

    @pytest.mark.parametrize(
        "first,message",
        [("in 1", "'in' must follow the algebra line"),
         ("unitary a H", "unitary definitions must follow the header"),
         ("layer ID", "layers must follow the header")],
    )
    def test_nothing_before_the_algebra_line(self, first, message):
        # each statement needs the one before it, so none can come first
        with pytest.raises(ParseError, match=f"^line 1, column 1: {message}$"):
            parse_circuit(f"{first}\nalgebra Z2\nin 1\n")

    def test_bad_wire_count(self):
        with pytest.raises(ParseError, match="integer wire count"):
            parse_circuit("algebra Z2\nin two\n")
        with pytest.raises(ParseError, match="nonnegative"):
            parse_circuit("algebra Z2\nin -1\n")

    def test_unknown_statement(self):
        with pytest.raises(ParseError, match="unknown statement 'wires'") as err:
            parse_circuit("algebra Z2\nin 2\nwires 3")
        assert err.value.line == 3

    def test_rotation_angle_errors(self):
        with pytest.raises(ParseError, match="needs an angle"):
            parse_circuit("algebra Z2\nin 1\nunitary r RX\nlayer U(r)")
        with pytest.raises(ParseError, match="bad angle"):
            parse_circuit("algebra Z2\nin 1\nunitary r RX(q)\nlayer U(r)")
        with pytest.raises(ParseError, match="takes no angle"):
            parse_circuit("algebra Z2\nin 1\nunitary h H(0.2)\nlayer U(h)")
        with pytest.raises(ParseError, match="angle must be finite"):
            parse_circuit("algebra Z2\nin 1\nunitary r RX(inf)\nlayer U(r)")

    def test_unknown_preset(self):
        with pytest.raises(ParseError, match="unknown preset 'CNOT'"):
            parse_circuit("algebra Z2\nin 1\nunitary g CNOT\nlayer U(g)")
        with pytest.raises(ValueError, match="^unknown preset 'Q'$"):
            UnitaryDef(preset="Q").matrix()

    def test_unitary_line_needs_a_definition(self):
        with pytest.raises(ParseError, match=r"expected: unitary NAME \(PRESET \| \[matrix\]\)") as err:
            parse_circuit("algebra Z2\nin 1\nunitary h\nlayer U(h)")
        assert (err.value.line, err.value.column) == (3, 9)

    def test_matrix_literals(self):
        src = "algebra Z2\nin 1\nunitary p [0.0+1.0i, 0.0+0.0i; 0.0+0.0i, 0.0-1.0i]\nlayer U(p)\n"
        doc = parse_circuit(src)
        assert doc.unitaries[0][1].rows == ((1j, 0), (0, -1j))
        with pytest.raises(ParseError, match="unequal"):
            parse_circuit("algebra Z2\nin 1\nunitary p [1, 0; 0]\nlayer U(p)")
        with pytest.raises(ParseError, match="complex literal"):
            parse_circuit("algebra Z2\nin 1\nunitary p [1, zz; 0, 1]\nlayer U(p)")
        assert parse_circuit("algebra Z2\nin 1\nunitary y [0, -1i; 1i, 0]\n").unitaries[0][1].rows == ((0, -1j), (1j, 0))
        with pytest.raises(ParseError, match=r"matrix literal must be enclosed in \[ \]"):
            parse_circuit("algebra Z2\nin 1\nunitary p [1, 0; 0, 1\nlayer U(p)")
        with pytest.raises(ParseError, match="matrix entries must be finite"):
            parse_circuit("algebra Z2\nin 1\nunitary p [1e999, 0; 0, 1]\nlayer U(p)")

    def test_empty_layer_line(self):
        with pytest.raises(ParseError, match="empty layer"):
            parse_circuit("algebra Z2\nin 1\nlayer")
        with pytest.raises(ParseError, match="between commas"):
            parse_circuit("algebra Z2\nin 2\nlayer ID,, ID")


class TestPrint:
    def test_idempotent_on_cnot(self):
        once = print_circuit(parse_circuit(CNOT_SRC))
        twice = print_circuit(parse_circuit(once))
        assert once == twice == CNOT_SRC

    def test_fig2_matches_golden_file(self):
        golden = (REPO_ROOT / "circuits" / "fig2.hopf").read_text()
        assert print_circuit(parse_circuit(golden)) == golden == FIG2_SRC

    def test_cnot_matches_golden_file(self):
        golden = (REPO_ROOT / "circuits" / "cnot.hopf").read_text()
        assert print_circuit(parse_circuit(golden)) == golden == CNOT_SRC

    def test_header_only_document(self):
        doc = CircuitDocument("Z2", 3, (), ())
        assert print_circuit(doc) == "algebra Z2\nin 3\n"
        assert parse_circuit(print_circuit(doc)) == doc

    def test_matrix_and_rotation_rendering(self):
        doc = CircuitDocument(
            "Z2",
            1,
            (("a", UnitaryDef(preset="RZ", angle=0.25)), ("b", UnitaryDef(rows=((0.5 - 0.5j,),)))),
            ((("U", "a"),), (("U", "b"),)),
        )
        text = print_circuit(doc)
        assert "unitary a RZ(0.25)" in text
        assert "unitary b [0.5-0.5i]" in text
        assert parse_circuit(text) == doc

    @settings(max_examples=100, deadline=None)
    @given(document_strategy())
    def test_parse_print_round_trip(self, doc):
        assert parse_circuit(print_circuit(doc)) == doc


class TestToCircuit:
    def test_presets_require_dim_two(self):
        src = "algebra Z3\nin 1\nunitary h H\nlayer U(h)\n"
        with pytest.raises(CircuitError, match="dimension 3"):
            to_circuit(parse_circuit(src))

    def test_all_presets_build_unitaries(self):
        names = ["I", "X", "Y", "Z", "H", "S_PHASE", "T", "RX(0.3)", "RY(-1.2)", "RZ(2.5)"]
        defs = "".join(f"unitary p{i} {p}\n" for i, p in enumerate(names))
        layers = "".join(f"layer U(p{i})\n" for i in range(len(names)))
        circuit = to_circuit(parse_circuit(f"algebra Z2\nin 1\n{defs}{layers}"))
        validate(circuit)
        m = evaluate(circuit)
        gram = m.matrix.conj().T @ m.matrix
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_nonunitary_matrix_rejected_at_build(self):
        src = "algebra Z2\nin 1\nunitary p [1.0+0.0i, 0.0+0.0i; 0.0+0.0i, 2.0+0.0i]\nlayer U(p)\n"
        with pytest.raises(CircuitError, match="not unitary"):
            to_circuit(parse_circuit(src))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["Z2", "Z3", "Z4"]), st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_definitions_checked_as_unitary_checks_each(self, algebra, seed, k):
        # unitaries, near unitaries on both sides of the tolerance, scaled
        # ones and entries so large that the Gram matrix overflows
        rng = np.random.default_rng(seed)
        d = int(algebra[1])
        matrices = []
        for kind in rng.integers(0, 5, size=k):
            m = haar_unitary(rng, d)
            if kind == 1:
                m = near_unitary(rng, d, 5e-11)
            elif kind == 2:
                m = near_unitary(rng, d, 2e-10)
            elif kind == 3:
                m = m * 1.5
            elif kind == 4:
                m[rng.integers(0, d), rng.integers(0, d)] = 1e300
            matrices.append(m)
        rows = ["; ".join(", ".join(_format_complex(complex(z)) for z in row) for row in m) for m in matrices]
        src = f"algebra {algebra}\nin 1\n" + "".join(f"unitary u{i} [{r}]\n" for i, r in enumerate(rows))
        src += "".join(f"layer U(u{i})\n" for i in range(k))
        want = None
        try:
            expected = [unitary(f"u{i}", np.array(parse_circuit(src).unitaries[i][1].rows)) for i in range(k)]
        except CircuitError as exc:
            want = str(exc)
        if want is not None:
            with pytest.raises(CircuitError) as err:
                to_circuit(parse_circuit(src))
            assert str(err.value) == want
            return
        circuit = to_circuit(parse_circuit(src))
        got = [layer[0] for layer in circuit.layers]
        assert [u.deviation for u in got] == [u.deviation for u in expected]
        assert all(np.array_equal(u.matrix, v.matrix) for u, v in zip(got, expected))

    def test_unitary_stack_stays_private(self):
        src = ("algebra Z2\nin 2\nunitary h H\nunitary r RY(0.3)\n"
               "unitary p [0.0+1.0i, 0.0+0.0i; 0.0+0.0i, 1.0+0.0i]\nlayer U(h), U(r)\nlayer U(p), ID\n")
        doc = parse_circuit(src)
        circuit = to_circuit(doc)
        prims = {p.name: p for layer in circuit.layers for p in layer if p.kind == "Unitary"}
        stack = prims["h"].matrix.base  # the definitions are rows of one read-only stack
        assert stack.shape == (3, 2, 2) and not stack.flags.writeable
        for name, udef in doc.unitaries:
            got, want = prims[name].matrix, udef.matrix()
            assert got.base is stack and not got.flags.writeable
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 0.0
        # matrix() hands out a new array: writing to it changes no later one
        written = doc.unitaries[0][1].matrix()
        written[:] = 0.0
        assert np.array_equal(UnitaryDef(preset="H").matrix(), prims["h"].matrix)
        # the public factory keeps its own copy of the caller's array
        caller = UnitaryDef(preset="H").matrix()
        gate = unitary("h", caller)
        caller[0, 0] = 5.0
        assert np.array_equal(gate.matrix, prims["h"].matrix) and not gate.matrix.flags.writeable

    def test_wrong_size_definition_after_a_non_unitary_one(self):
        # definitions fail in their order, whichever check refuses them
        bad = "unitary p [1.0+0.0i, 0.0+0.0i; 0.0+0.0i, 2.0+0.0i]\n"
        big = "unitary q [1.0, 0.0, 0.0; 0.0, 1.0, 0.0; 0.0, 0.0, 1.0]\n"
        with pytest.raises(CircuitError, match="^matrix for 'p' is not unitary"):
            to_circuit(parse_circuit(f"algebra Z2\nin 1\n{bad}{big}layer ID\n"))
        with pytest.raises(CircuitError, match="^unitary 'q' is 3x3 but the algebra dimension is 2$"):
            to_circuit(parse_circuit(f"algebra Z2\nin 1\n{big}{bad}layer ID\n"))
        with pytest.raises(CircuitError, match="^preset H defines a 2x2 matrix"):
            to_circuit(parse_circuit(f"algebra Z3\nin 1\nunitary f [1.0, 0.0, 0.0; 0.0, 1.0, 0.0; 0.0, 0.0, 1.0]\n"
                                     f"unitary h H\nlayer ID\n"))

    def test_unknown_algebra_surfaces(self):
        with pytest.raises(ValueError, match="unknown algebra"):
            to_circuit(parse_circuit("algebra Q8\nin 1\nlayer ID\n"))


class TestCircuitToDocument:
    def test_compiled_circuit_round_trips(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        circuit = compile_gate_circuit(z2_algebra(), 3, [U1(0, h, "h"), Cnot(0, 2), U1(0, h, "h")])
        doc = circuit_to_document(circuit, "Z2")
        # identical matrices share one definition
        assert [name for name, _ in doc.unitaries] == ["u0"]
        rebuilt = to_circuit(parse_circuit(print_circuit(doc)))
        got = evaluate(rebuilt).matrix
        want = evaluate(circuit).matrix
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_every_structure_primitive_round_trips(self):
        # the DSL tokens come from the circuit module's primitive table, and
        # parsing them gives back the circuit module's own primitives
        layers = ((ID, ID), (MUL,), (COMUL,), (UNIT, ID, ID), (COUNIT, ID, ID), (ANTIPODE, ID), (SWAP,))
        circuit = Circuit(z2_algebra(), 2, layers)
        doc = circuit_to_document(circuit, "Z2")
        assert doc.layers == (
            ("ID", "ID"), ("M",), ("DELTA",), ("UNIT", "ID", "ID"), ("COUNIT", "ID", "ID"), ("S", "ID"), ("SWAP",)
        )
        rebuilt = to_circuit(parse_circuit(print_circuit(doc)))
        assert all(mine is given for mine, given in zip(sum(rebuilt.layers, ()), sum(layers, ()), strict=True))


#: pieces of layer lines: every primitive token, unitary references, and junk
_LAYER_PIECES = st.one_of(
    st.sampled_from(["ID", "M", "DELTA", "UNIT", "COUNIT", "S", "SWAP"]).flatmap(
        lambda token: st.lists(st.booleans(), min_size=len(token), max_size=len(token)).map(
            lambda upper: "".join(c if up else c.lower() for c, up in zip(token, upper))
        )
    ),
    st.tuples(
        st.sampled_from(["U", "u"]),
        st.sampled_from(["", " ", "  "]),
        st.sampled_from(["a", "b", "nope", "1a", ""]),
        st.sampled_from(["", " "]),
    ).map(lambda t: f"{t[0]}{t[1]}({t[3]}{t[2]}{t[3]})"),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.sampled_from(["", " ", "\t"]),
    st.text(alphabet="()[];:.!@$%^&*-+=#\t abcU0", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["layer", "LAYER", "Layer"]),
    st.sampled_from([" ", "  ", "\t"]),
    st.lists(
        st.tuples(st.sampled_from(["", " ", "  "]), _LAYER_PIECES, st.sampled_from(["", " "])).map("".join),
        min_size=1,
        max_size=6,
    ),
)
def test_layer_line_fuzz(keyword, gap, pieces):
    """A layer line either parses to a document that prints back to itself,
    or fails with a position inside the text, and the CLI exits 2 with one
    error line."""
    text = f"algebra Z2\nin 2\nunitary a H\nunitary b X\n{keyword}{gap}{','.join(pieces)}\n"
    try:
        doc = parse_circuit(text)
    except ParseError as exc:
        lines = text.splitlines()
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.hopf"
            path.write_text(text)
            stderr = io.StringIO()  # hypothesis rules out function-scoped fixtures like capsys
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli_run(["matrix", str(path)])
        assert code == 2
        assert stderr.getvalue().startswith("error: parse: ") and stderr.getvalue().count("\n") == 1
        return
    assert parse_circuit(print_circuit(doc)) == doc


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_same_circuits(text: str, other: str) -> None:
    """Two texts give the same document, layers, plan and map."""
    doc, other_doc = parse_circuit(text), parse_circuit(other)
    assert doc == other_doc
    circuit, other_circuit = to_circuit(doc), to_circuit(other_doc)
    assert layer_signature(circuit) == layer_signature(other_circuit)
    assert_same_plan(hopfcirc.engine._plan(circuit), hopfcirc.engine._plan(other_circuit))
    assert np.array_equal(evaluate(circuit).matrix, evaluate(other_circuit).matrix)


def _benchmark_circuits() -> list:
    """(file name, text) of every circuit file the benchmark's wide_state
    and full_map workloads write at seed 1."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    return [
        pytest.param(path, data.decode(), id=f"{name}-{path}")
        for name in ("wide_state", "full_map")
        for path, data in workloads.build(name, 1).files.items()
        if path.endswith(".hopf")
    ]


class TestLayerMemo:
    """Each distinct layer line is parsed, resolved, validated and sorted
    once.  A comment that differs on every line defeats that, and must
    change nothing."""

    @pytest.mark.parametrize("name,text", _benchmark_circuits())
    def test_benchmark_circuit_unchanged_by_comments(self, tmp_path, name, text):
        commented = comment_every_line(text)
        _assert_same_circuits(text, commented)
        plain_path, commented_path = tmp_path / name, tmp_path / f"commented-{name}"
        plain_path.write_text(text)
        commented_path.write_text(commented)
        circuit = to_circuit(parse_circuit(text))
        digits = "".join(str(k % circuit.algebra.dim) for k in range(circuit.wires_in))
        for args in (
            ["eval", "--input", digits, "--json"],
            ["sample", "--input", digits, "--shots", "100", "--seed", "3", "--json"],
            ["matrix", "--json"],
        ):
            assert _cli([args[0], str(plain_path), *args[1:]]) == _cli([args[0], str(commented_path), *args[1:]])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_repeated_lines_unchanged_by_comments(self, data):
        wires = data.draw(st.integers(2, 5))
        tokens_1 = ["ID", "S", "U(a)", "u ( b )", "U(A)"]

        def spelled(token):  # random case for keywords, the unitary names kept
            if "(" in token:
                return token
            return "".join(c.lower() if data.draw(st.booleans()) else c for c in token)

        def line(tokens):
            gaps = st.sampled_from(["", " ", "  ", "\t"])
            body = ",".join(f"{data.draw(gaps)}{spelled(t)}{data.draw(gaps)}" for t in tokens)
            return f"{data.draw(gaps)}{spelled('layer')} {body}"

        def block():
            """One width-preserving layer, or a copy and a multiplication."""
            if data.draw(st.booleans()):
                at = data.draw(st.integers(0, wires - 2))
                return [line(["ID"] * at + ["DELTA"] + ["ID"] * (wires - at - 1)),
                        line(["ID"] * at + ["ID", "M"] + ["ID"] * (wires - at - 2))]
            tokens = []
            while len(tokens) < wires:
                if wires - len(tokens) >= 2 and data.draw(st.booleans()):
                    tokens.append("SWAP")
                    tokens.append(None)
                else:
                    tokens.append(data.draw(st.sampled_from(tokens_1)))
            return [line([t for t in tokens if t is not None])]

        pool = [block() for _ in range(data.draw(st.integers(1, 4)))]
        lines = [ln for i in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12)) for ln in pool[i]]
        text = "\n".join([f"algebra Z2\nin {wires}\nunitary a H\nunitary b RY(0.25)\nunitary A X", *lines]) + "\n"
        _assert_same_circuits(text, comment_every_line(text))
