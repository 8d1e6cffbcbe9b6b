"""Fuzzers for the input surfaces the loader fuzzers leave out: the .hopf
header, unitary definitions with their matrix literals, and CLI flag
values.

Whatever the input, a command exits with a documented code (0-4), writes
at most one stderr line, which starts with "error: ", and returns in
bounded time.  Exits 0 and 3 (a failed numeric check, reported on
stdout) write nothing to stderr; every other exit writes its one line.
"""

import contextlib
import io
import time

from hypothesis import event, given, settings
from hypothesis import strategies as st

from hopfcirc.cli import cli_run

from helpers import REPO_ROOT

FIG2_FILE = str(REPO_ROOT / "circuits" / "fig2.hopf")

#: seconds any one fuzzed command may take
TIME_LIMIT = 5.0


def check_command(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()  # hypothesis rules out capsys
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    assert time.perf_counter() - start < TIME_LIMIT
    event(f"exit {code}")
    assert 0 <= code <= 4
    text = err.getvalue()
    if code in (0, 3):
        assert text == ""
    else:
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n")
    return code


def run_text(tmp_path_factory, text: str, argv: list[str]) -> int:
    path = tmp_path_factory.mktemp("c") / "c.hopf"
    path.write_text(text, encoding="utf-8")
    return check_command([argv[0], str(path)] + argv[1:])


#: short digit strings and junk for --input; "10" fits the 2-wire files
_INPUTS = st.just("10") | st.text(alphabet="0123,-x ", max_size=5) | st.sampled_from(["", "00", "1,0", "٣"])
#: the subcommands that read a .hopf file, with their flags
_FILE_COMMANDS = st.one_of(
    st.just(["matrix"]),
    st.just(["oracle-check", "--json"]),
    _INPUTS.map(lambda digits: ["eval", f"--input={digits}", "--json"]),
    _INPUTS.map(lambda digits: ["sample", f"--input={digits}", "--shots", "3", "--seed", "1"]),
)

# --- header -------------------------------------------------------------------

#: wire counts stay at 3 or below, or above the width limit, so that a
#: valid header never asks for a large map
_WIRE_COUNTS = st.just("2") | st.sampled_from(
    ["0", "1", "3", "-1", "21", "99999999999999999999", "1.5", "x", "", "+2", "0x2", "٣", "2 3"]
)
_ALGEBRA_NAMES = st.just("Z2") | st.sampled_from(["Z3", "S3", "z2", "Z9", "Q", "Z2 Z3", "", "missing.json", "#Z2"])
_ALGEBRA_LINE = st.tuples(st.sampled_from(["algebra", "ALGEBRA", "Algebra"]), _ALGEBRA_NAMES)
_IN_LINE = st.tuples(st.sampled_from(["in", "IN", "In"]), _WIRE_COUNTS)
_HEADER_LINE = st.one_of(
    _ALGEBRA_LINE,
    _IN_LINE,
    st.tuples(st.sampled_from(["unitary", "layer", "out", "#", ""]), st.sampled_from(["", "h H", "ID"])),
).map(" ".join)
#: an algebra line, then an in line, or any lines in any order
_HEADERS = st.tuples(_ALGEBRA_LINE.map(" ".join), _IN_LINE.map(" ".join)).map(list) | st.lists(_HEADER_LINE, max_size=4)
_BODIES = st.just("layer DELTA, ID\nlayer ID, M\n") | st.sampled_from(
    ["", "layer ID\n", "unitary h H\nlayer U(h), ID\n", "layer DELTA\nlayer M\n", "layer ID, ID\n"]
)


@settings(max_examples=150, deadline=None)
@given(_HEADERS, _BODIES, _FILE_COMMANDS)
def test_header_fuzz(tmp_path_factory, header, body, argv):
    run_text(tmp_path_factory, "\n".join(header) + "\n" + body, argv)


# --- unitary definitions and matrix literals ---------------------------------

_ENTRIES = st.sampled_from([
    "0", "1", "-1", "0.7071067811865476", "-0.7071067811865476", "1i", "-1i", "0.6+0.8i", "0.8-0.6i",
    "1e308", "1e309", "-1e400", "nan", "inf", "", ".5", "1.5-0.5i", "2i", "1e-320", "abc", "1+i", "1 + 0i",
])
_MATRICES = st.sampled_from([
    "[0, 1; 1, 0]", "[0.6, 0.8i; 0.8i, 0.6]", "[0, 0, 1; 1, 0, 0; 0, 1, 0]", "[1, 0, 0; 0, 1i, 0; 0, 0, -1]",
]) | st.tuples(
    st.sampled_from(["[", "", "[["]),
    st.lists(st.lists(_ENTRIES, min_size=1, max_size=3).map(", ".join), min_size=1, max_size=3).map("; ".join),
    st.sampled_from(["]", "", "]]", "];"]),
).map("".join)
_PRESETS = st.sampled_from([
    "H", "X", "Y", "Z", "I", "T", "S_PHASE", "h", "RX(0.5)", "RY(-1e3)", "RZ(nan)", "RZ(inf)",
    "RX()", "RX", "H(1)", "Q", "RY(1e308)", "RZ(1e400)", "RX(0.5)(1)",
])
_UNITARY_LINE = st.tuples(
    st.just("u") | st.sampled_from(["u_1", "1u", "u u"]), _PRESETS | _MATRICES
).map(lambda nd: f"unitary {nd[0]} {nd[1]}")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["Z2", "Z3"]),
    st.lists(_UNITARY_LINE, min_size=1, max_size=3),
    st.sampled_from([["matrix", "--json"], ["eval", "--input", "0", "--json"], ["oracle-check"]]),
)
def test_unitary_line_fuzz(tmp_path_factory, algebra, definitions, argv):
    text = f"algebra {algebra}\nin 1\n" + "\n".join(definitions) + "\nlayer U(u)\n"
    code = run_text(tmp_path_factory, text, argv)
    # a parsed matrix that passes the shape and Gram checks gives a unitary map
    assert code in (0, 2)


# --- flag values --------------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-1e-3", "0", "1e-12", "1e300", "-0.0", "1_0", "0x10", "", "-", "--"]),
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.text(max_size=4),
)


def _as_int(text: str) -> int | None:
    """The value argparse's int reads from text, or None."""
    try:
        return int(text)
    except ValueError:
        return None


def _flag(name: str, value: str, joined: bool) -> list[str]:
    return [f"{name}={value}"] if joined else [name, value]


@settings(max_examples=150, deadline=None)
@given(_NUMBERS, st.booleans(), st.sampled_from(["Z2", "Z3"]))
def test_tol_flag_fuzz(value, joined, algebra):
    check_command(["check-axioms", "--algebra", algebra, "--json"] + _flag("--tol", value, joined))


#: shots stay far below MAX_SHOTS unless they are refused
_SHOTS = _NUMBERS.filter(lambda text: _as_int(text) is None or not 1000 < _as_int(text) <= 2**24)


@settings(max_examples=150, deadline=None)
@given(_SHOTS, _NUMBERS, _INPUTS, st.booleans())
def test_sample_flag_fuzz(shots, seed, digits, joined):
    argv = ["sample", FIG2_FILE] + _flag("--shots", shots, joined) + _flag("--seed", seed, joined)
    check_command(argv + _flag("--input", digits, joined))


@settings(max_examples=100, deadline=None)
@given(_INPUTS | st.text(max_size=6), st.booleans())
def test_input_flag_fuzz(digits, joined):
    check_command(["eval", FIG2_FILE, "--json"] + _flag("--input", digits, joined))


#: a width of 4 or less, or past the state limit, so no large map is built
_WIRES = _NUMBERS.filter(lambda text: _as_int(text) is None or not 4 < _as_int(text) <= 20)


@settings(max_examples=100, deadline=None)
@given(_WIRES, st.booleans())
def test_wires_flag_fuzz(tmp_path_factory, wires, joined):
    path = tmp_path_factory.mktemp("g") / "gates.json"
    path.write_text('[{"cnot": [0, 1]}, {"u1": {"wire": 1, "matrix": {"re": [[0, 1], [1, 0]]}}}]')
    check_command(["compile", "--gates", str(path)] + _flag("--wires", wires, joined))
