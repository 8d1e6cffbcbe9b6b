import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    evaluate,
    validate,
)
from hopfcirc.algebra import z2_algebra
from hopfcirc.dsl import (
    CircuitDocument,
    ParseError,
    UnitaryDef,
    circuit_to_document,
    parse_circuit,
    print_circuit,
    to_circuit,
)

from hopfcirc.cli import cli_run

from helpers import REPO_ROOT, document_strategy

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

    def test_unknown_preset(self):
        with pytest.raises(ParseError, match="unknown preset 'CNOT'"):
            parse_circuit("algebra Z2\nin 1\nunitary g CNOT\nlayer U(g)")

    def test_matrix_literals(self):
        src = "algebra Z2\nin 1\nunitary p [0.0+1.0i, 0.0+0.0i; 0.0+0.0i, 0.0-1.0i]\nlayer U(p)\n"
        doc = parse_circuit(src)
        assert doc.unitaries[0][1].rows == ((1j, 0), (0, -1j))
        with pytest.raises(ParseError, match="unequal"):
            parse_circuit("algebra Z2\nin 1\nunitary p [1, 0; 0]\nlayer U(p)")
        with pytest.raises(ParseError, match="complex literal"):
            parse_circuit("algebra Z2\nin 1\nunitary p [1, zz; 0, 1]\nlayer U(p)")

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
        # the DSL tokens come from the circuit module's primitive table; each
        # layer takes two wires, and the layers are not chained (never validated)
        prims = (ID, MUL, COMUL, UNIT, COUNIT, ANTIPODE, SWAP)
        circuit = Circuit(z2_algebra(), 2, tuple((p,) + (ID,) * (2 - p.wires_in) for p in prims))
        doc = circuit_to_document(circuit, "Z2")
        assert doc.layers == tuple(
            (tok,) + ("ID",) * (2 - p.wires_in)
            for p, tok in zip(prims, ("ID", "M", "DELTA", "UNIT", "COUNIT", "S", "SWAP"))
        )
        rebuilt = to_circuit(parse_circuit(print_circuit(doc)))
        assert [[p.kind for p in layer] for layer in rebuilt.layers] == [
            [p.kind for p in layer] for layer in circuit.layers
        ]


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
