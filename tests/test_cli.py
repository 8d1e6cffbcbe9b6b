import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator, ValidationError

import hopfcirc.algebra
import hopfcirc.circuit
import hopfcirc.cli
import hopfcirc.engine
from hopfcirc.algebra import builtin_algebra
from hopfcirc.circuit import (
    Cnot,
    U1,
    basis_state,
    compile_gate_circuit,
    is_unitary,
    measure,
    _index_to_digits,
)
from hopfcirc.cli import cli_run
from hopfcirc.dsl import circuit_to_document, print_circuit
from hopfcirc.engine import evaluate, run as run_circuit
from hopfcirc.tensor import LinearMap

from helpers import (
    REPO_ROOT,
    certificate_circuit,
    dumped_map,
    loop_measure,
    loop_vector_lines,
    random_circuit,
    random_gate_list,
)

CNOT_FILE = str(REPO_ROOT / "circuits" / "cnot.hopf")
FIG2_FILE = str(REPO_ROOT / "circuits" / "fig2.hopf")

ANNIHILATING_SRC = "algebra Z2\nin 1\nunitary h H\nlayer U(h)\nlayer COUNIT\n"

#: a non-unitary Z3 circuit with an explicit unitary, for the text output
Z3_SRC = (
    "algebra Z3\nin 2\nunitary r [0.6, -0.8, 0; 0.8, 0.6, 0; 0, 0, 1]\n"
    "layer U(r), U(r)\nlayer DELTA, DELTA\nlayer ID, M, ID\n"
)


def check_schema(payload: dict | list, name: str) -> None:
    schema = json.loads((REPO_ROOT / "schemas" / f"{name}.schema.json").read_text())
    Draft7Validator.check_schema(schema)
    Draft7Validator(schema).validate(payload)


def run(capsys, argv):
    code = cli_run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv) -> subprocess.CompletedProcess:
    """The command in a fresh interpreter: numpy warnings reach its stderr,
    where capsys and pytest's warning capture would not see them."""
    src = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hopfcirc.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )


@pytest.fixture
def gram_sizes(monkeypatch):
    """Record the side of every matrix whose Gram deviation is computed."""
    sizes = []
    gram_deviation = hopfcirc.circuit._gram_deviation

    def recording(m):
        sizes.append(m.shape[1])
        return gram_deviation(m)

    monkeypatch.setattr(hopfcirc.circuit, "_gram_deviation", recording)
    monkeypatch.setattr(hopfcirc.engine, "_gram_deviation", recording)
    return sizes


#: above both the 1e-12 oracle and the 1e-10 compile tolerance
CORRUPTION = 1e-9


@pytest.fixture
def corrupt_evaluate(monkeypatch):
    """Make the CLI's evaluate return a map with one entry of one column off
    by CORRUPTION."""

    def corrupted(circuit):
        good = evaluate(circuit)
        array = good.matrix.copy()
        array[0, 1] += CORRUPTION
        return LinearMap(good.base_dim, good.wires_in, good.wires_out, array)

    monkeypatch.setattr(hopfcirc.cli, "evaluate", corrupted)


class TestCheckAxioms:
    def test_z2_passes_with_table_and_json(self, capsys):
        code, out, _ = run(capsys, ["check-axioms", "--algebra", "Z2"])
        assert code == 0
        assert "associativity" in out and "overall: PASS" in out
        payload = json.loads(out.strip().splitlines()[-1])
        check_schema(payload, "axioms")
        assert payload["passed"] and payload["dim"] == 2

    @pytest.mark.parametrize("name", ["Z3", "Z4", "Z5", "S3"])
    def test_builtins_pass(self, capsys, name):
        code, out, _ = run(capsys, ["check-axioms", "--algebra", name, "--json"])
        payload = json.loads(out)
        check_schema(payload, "axioms")
        assert code == 0 and payload["passed"]

    def test_s3_reported_noncommutative(self, capsys):
        _, out, _ = run(capsys, ["check-axioms", "--algebra", "S3", "--json"])
        payload = json.loads(out)
        assert payload["commutative"] is False and payload["cocommutative"] is True

    def test_group_table_file(self, capsys, tmp_path):
        table = tmp_path / "z6.json"
        table.write_text(json.dumps({
            "labels": [f"g{i}" for i in range(6)],
            "table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
        }))
        code, out, _ = run(capsys, ["check-axioms", "--algebra", str(table), "--json"])
        assert code == 0 and json.loads(out)["dim"] == 6

    def test_extra_top_level_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"labels": ["e", "x"], "table": [[0, 1], [1, 0]], "extra": 1}))
        code, out, err = run(capsys, ["check-axioms", "--algebra", str(path)])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: validate:") and "'extra'" in err

    def test_non_group_table_exits_2(self, capsys, tmp_path):
        table = tmp_path / "bad.json"
        table.write_text('{"labels": ["a", "b"], "table": [[0, 0], [0, 0]]}')
        code, _, err = run(capsys, ["check-axioms", "--algebra", str(table)])
        assert code == 2
        assert err.startswith("error: validate: not a group: rows not permutations")

    def test_unknown_algebra_exits_2(self, capsys):
        code, _, err = run(capsys, ["check-axioms", "--algebra", "Q8"])
        assert code == 2 and err.startswith("error: validate:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-nan", "-Infinity", "NaN", "abc"])
    def test_nonfinite_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, ["check-axioms", "--algebra", "Z2", "--tol", tol, "--json"])
        assert code == 1 and out == ""
        assert err == f"error: usage: argument --tol: tolerance must be a finite number, got {tol!r}\n"

    def test_negative_tolerance_exits_2(self, capsys):
        code, out, err = run(capsys, ["check-axioms", "--algebra", "Z2", "--tol", "-1"])
        assert code == 2 and out == ""
        assert err == "error: validate: tolerance must be nonnegative\n"

    @pytest.mark.parametrize("tol", ["-0.001", "-1e-3", "-5.", "-1E3", "-.5", "-2e+1", "-1_0"])
    @pytest.mark.parametrize("joined", [False, True], ids=["space", "equals"])
    def test_negative_tolerance_spellings_exit_2(self, capsys, tol, joined):
        # a negative number after the flag is the flag's value, whatever its
        # spelling, just as after "--tol="
        flag = [f"--tol={tol}"] if joined else ["--tol", tol]
        code, out, err = run(capsys, ["check-axioms", "--algebra", "Z2", *flag])
        assert code == 2 and out == ""
        assert err == "error: validate: tolerance must be nonnegative\n"

    def test_option_after_tolerance_flag_is_usage_error(self, capsys):
        # a value that is no number is still read as an option
        code, out, err = run(capsys, ["check-axioms", "--algebra", "Z2", "--tol", "-x"])
        assert code == 1 and out == ""
        assert err == "error: usage: argument --tol: expected one argument\n"

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (["check-axioms", "--algebra", "Z2", "--tol=--"], 1,
             "usage: argument --tol: tolerance must be a finite number, got '--'"),
            (["sample", CNOT_FILE, "--input", "10", "--shots=--", "--seed", "1"], 1,
             "usage: argument --shots: invalid int value: '--'"),
            (["sample", CNOT_FILE, "--input", "10", "--shots", "1", "--seed=--"], 1,
             "usage: argument --seed: invalid int value: '--'"),
            (["compile", "--wires=--", "--gates", "none.json"], 1, "usage: argument --wires: invalid int value: '--'"),
            (["eval", CNOT_FILE, "--input=--"], 2, "validate: bad input string '--': expected base-2 digits"),
        ],
        ids=["tol", "shots", "seed", "wires", "input"],
    )
    def test_double_dash_after_equals_is_the_value(self, capsys, argv, code, err):
        # argparse alone would drop it and set the flag to an empty list
        assert run(capsys, argv) == (code, "", f"error: {err}\n")

    @pytest.mark.parametrize("algebra", ["nope", "table"])
    def test_negative_tolerance_refused_before_algebra(self, capsys, tmp_path, monkeypatch, algebra):
        # neither an unknown name nor a valid table file is looked at first
        if algebra == "table":
            algebra = tmp_path / "z3.json"
            algebra.write_text(json.dumps({"labels": ["a", "b", "c"],
                                           "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
        built = []
        monkeypatch.setattr(hopfcirc.algebra, "group_algebra", lambda *a: built.append(a))
        code, out, err = run(capsys, ["check-axioms", "--algebra", str(algebra), "--tol", "-1"])
        assert code == 2 and out == ""
        assert err == "error: validate: tolerance must be nonnegative\n"
        assert built == []

    @pytest.mark.parametrize(
        "doc",
        [
            {"labels": ["a"], "table": 5},
            {"labels": ["a"], "table": [5]},
            {"labels": ["a"], "table": "0"},
            {"labels": ["a", "b"], "table": [[True, False], [False, True]]},
            {"labels": ["a", "b"], "table": [[0, 1], [1, 0.5]]},
            {"labels": 5, "table": [[0]]},
        ],
        ids=["int-table", "int-row", "string-table", "bool-entries", "float-entry", "int-labels"],
    )
    def test_type_confused_table_exits_2(self, capsys, tmp_path, doc):
        table = tmp_path / "bad.json"
        table.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check-axioms", "--algebra", str(table)])
        assert code == 2 and out == ""
        assert err.startswith("error: validate:") and err.count("\n") == 1
        assert "Hopf axioms" not in err

    @staticmethod
    def cyclic_table_file(tmp_path, n):
        path = tmp_path / f"z{n}.json"
        path.write_text(json.dumps({
            "labels": [f"g{i}" for i in range(n)],
            "table": [[(i + j) % n for j in range(n)] for i in range(n)],
        }))
        return str(path)

    def test_order_12_table_passes(self, capsys, tmp_path):
        table = self.cyclic_table_file(tmp_path, 12)
        code, out, _ = run(capsys, ["check-axioms", "--algebra", table, "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["passed"] and payload["dim"] == 12

    def test_axiom_circuits_run_once(self, capsys, tmp_path, monkeypatch, validated):
        # loading the table builds no circuit, and neither does the command:
        # it binds the skeletons of the 24 distinct sides of the 14
        # identities, walked at import, once each, plans no circuit, and
        # evaluates only the 4 sides of the commutativity rows, whose lone M
        # or DELTA is a matrix step
        events = []
        evaluate, bind, build_plan = hopfcirc.algebra._evaluate, hopfcirc.algebra._bind, hopfcirc.engine._build_plan
        monkeypatch.setattr(hopfcirc.algebra, "_evaluate", lambda p, w: events.append(("evaluate", p)) or evaluate(p, w))
        monkeypatch.setattr(hopfcirc.algebra, "_bind", lambda s, a: events.append(("bind", bind(s, a))) or events[-1][1])
        monkeypatch.setattr(hopfcirc.engine, "_build_plan", lambda c: events.append(("plan", c)) or build_plan(c))
        real_load = hopfcirc.cli.resolve_algebra
        monkeypatch.setattr(hopfcirc.cli, "resolve_algebra", lambda name: events.append(("load", name)) or real_load(name))
        table = self.cyclic_table_file(tmp_path, 4)
        code, out, _ = run(capsys, ["check-axioms", "--algebra", table, "--json"])
        assert code == 0 and json.loads(out)["passed"]
        assert events[0] == ("load", table)
        bound = [p for kind, p in events if kind == "bind"]
        evaluated = [p for kind, p in events if kind == "evaluate"]
        assert len(bound) == len({id(p) for p in bound}) == 24
        assert len(evaluated) == 4 and {id(p) for p in evaluated} <= {id(p) for p in bound}
        assert [kind for kind, _ in events if kind == "plan"] == [] and validated == []

    @pytest.mark.parametrize("n", [17, 300])
    def test_order_above_limit_refused_fast(self, capsys, tmp_path, n):
        # refused before the O(n^3) table validation as well as the axiom circuits
        table = self.cyclic_table_file(tmp_path, n)
        start = time.perf_counter()
        code, out, err = run(capsys, ["check-axioms", "--algebra", table])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: validate: algebra of order {n} is too large")
        assert "order at most 16" in err


class TestEval:
    def test_cnot_flips_target(self, capsys):
        code, out, _ = run(capsys, ["eval", CNOT_FILE, "--input", "10"])
        assert code == 0
        assert "unitary" in out and "11" in out

    def test_cnot_json(self, capsys):
        code, out, _ = run(capsys, ["eval", CNOT_FILE, "--input", "10", "--json"])
        payload = json.loads(out)
        check_schema(payload, "eval")
        assert payload["unitary"] is True
        assert payload["vector"]["re"] == [0.0, 0.0, 0.0, 1.0]
        assert payload["distribution"]["outcomes"] == {"11": 1.0}

    def test_text_output_pinned(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["eval", FIG2_FILE, "--input", "10"])
        assert code == 0 and out == (
            "input 10\nmap: 2 -> 3 wires (d=2), not unitary\noutput vector:\n"
            "  100  -0.7071067811865475+0.0i\n  110  0.7071067811865475+0.0i\n"
            "distribution (norm_in=0.9999999999999998):\n  100  0.5\n  110  0.5\n"
        )
        path = tmp_path / "z3.hopf"
        path.write_text(Z3_SRC)
        code, out, _ = run(capsys, ["eval", str(path), "--input", "01"])
        assert code == 0 and out == (
            "input 01\nmap: 2 -> 3 wires (d=3), not unitary\noutput vector:\n"
            "  000  -0.48+0.0i\n  011  0.36+0.0i\n  110  -0.6400000000000001+0.0i\n"
            "  121  0.48+0.0i\n"
            "distribution (norm_in=1.0):\n"
            "  000  0.2304\n  011  0.1296\n  110  0.4096000000000002\n  121  0.2304\n"
        )

    @pytest.mark.parametrize("name", ["cnot.hopf", "fig2.hopf", "z3.hopf"])
    def test_text_output_matches_per_entry_reference(self, capsys, tmp_path, name):
        path = REPO_ROOT / "circuits" / name
        if name == "z3.hopf":
            path = tmp_path / name
            path.write_text(Z3_SRC)
        circuit = hopfcirc.cli._load_circuit(str(path))
        d, wires_in = circuit.algebra.dim, circuit.wires_in
        unitary = is_unitary(evaluate(circuit))
        for index in range(d**wires_in):
            digits = "".join(map(str, _index_to_digits(index, d, wires_in)))
            vec = run_circuit(circuit, basis_state(d, _index_to_digits(index, d, wires_in))[:, None])[:, 0]
            wires_out = evaluate(circuit).wires_out
            want = [
                f"input {digits}",
                f"map: {wires_in} -> {wires_out} wires (d={d}), {'unitary' if unitary else 'not unitary'}",
                "output vector:",
                *loop_vector_lines(vec, d, wires_out),
            ]
            if not unitary:
                entries, norm_in = loop_measure(vec, d)
                want.append(f"distribution (norm_in={norm_in!r}):")
                want.extend(f"  {label}  {prob!r}" for label, prob in entries)
            code, out, _ = run(capsys, ["eval", str(path), "--input", digits])
            assert code == 0 and out == "\n".join(want) + "\n"

    @pytest.mark.parametrize("path,calls", [(FIG2_FILE, 1), (CNOT_FILE, 1)], ids=["fig2", "cnot"])
    def test_circuit_validated_once(self, capsys, validated, path, calls):
        # the CNOT's certificate reads the circuit's own plan: no other
        # circuit is built or validated
        for extra in ([], ["--json"]):
            validated.clear()
            assert run(capsys, ["eval", path, "--input", "10", *extra])[0] == 0
            assert len(validated) == calls
            assert len({id(c) for c in validated}) == calls

    def test_fig2_distribution_printed_when_nonunitary(self, capsys):
        code, out, _ = run(capsys, ["eval", FIG2_FILE, "--input", "10"])
        assert code == 0
        assert "not unitary" in out and "distribution" in out
        assert "100" in out and "110" in out

    def test_fig2_json_halves(self, capsys):
        code, out, _ = run(capsys, ["eval", FIG2_FILE, "--input", "10", "--json"])
        payload = json.loads(out)
        check_schema(payload, "eval")
        assert payload["wires_out"] == 3 and payload["unitary"] is False
        outcomes = payload["distribution"]["outcomes"]
        assert outcomes["100"] == pytest.approx(0.5) and outcomes["110"] == pytest.approx(0.5)

    def test_identity_rotation_gives_deterministic_triple(self, capsys, tmp_path):
        path = tmp_path / "copytwice.hopf"
        path.write_text(
            "algebra Z2\nin 2\nunitary u0 I\n"
            "layer DELTA, DELTA\nlayer DELTA, M, ID\nlayer ID, U(u0), ID, ID\nlayer ID, M, ID\n"
        )
        code, out, _ = run(capsys, ["eval", str(path), "--input", "10", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["distribution"]["outcomes"] == {"100": 1.0}
        assert payload["distribution"]["norm_in"] == 1.0

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, ["eval", FIG2_FILE, "--input", "10", "--json"])
        _, second, _ = run(capsys, ["eval", FIG2_FILE, "--input", "10", "--json"])
        assert first == second

    def test_annihilated_input_exits_4(self, capsys, tmp_path):
        path = tmp_path / "ann.hopf"
        path.write_text(ANNIHILATING_SRC)
        code, _, err = run(capsys, ["eval", str(path), "--input", "1"])
        assert code == 4
        assert err.startswith("error: annihilated:")
        # input 0 maps to sqrt(2), not zero: fine
        code, out, _ = run(capsys, ["eval", str(path), "--input", "0"])
        assert code == 0 and "distribution" in out

    def test_bad_input_digits_exit_2(self, capsys):
        code, _, err = run(capsys, ["eval", CNOT_FILE, "--input", "2"])
        assert code == 2 and "error: validate:" in err
        code, _, err = run(capsys, ["eval", CNOT_FILE, "--input", "101"])
        assert code == 2
        code, _, err = run(capsys, ["eval", CNOT_FILE, "--input", "xy"])
        assert code == 2
        code, _, err = run(capsys, ["eval", CNOT_FILE, "--input", "20"])
        assert code == 2 and err == "error: validate: input digit 2 out of range for dimension 2\n"
        # comma-separated digits, as needed above dimension 10, read the same
        plain, commas = (run(capsys, ["eval", CNOT_FILE, "--input", text, "--json"])[1] for text in ("10", "1,0"))
        assert commas == plain.replace('"input":"10"', '"input":"1,0"')

    def test_algebra_from_table_file_inside_circuit(self, capsys, tmp_path):
        table = tmp_path / "z6.json"
        table.write_text(json.dumps({
            "labels": [f"g{i}" for i in range(6)],
            "table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
        }))
        circ = tmp_path / "shift.hopf"
        circ.write_text(f"algebra {table}\nin 2\nlayer DELTA, ID\nlayer ID, M\n")
        code, out, _ = run(capsys, ["eval", str(circ), "--input", "24", "--json"])
        payload = json.loads(out)
        assert code == 0
        # controlled shift: (2, 4) -> (2, 2+4 mod 6)
        assert payload["distribution"]["outcomes"] == {"20": 1.0}

    def test_six_dimensional_labels(self, capsys, tmp_path):
        circ = tmp_path / "invert.hopf"
        circ.write_text("algebra S3\nin 1\nlayer S\n")
        code, out, _ = run(capsys, ["eval", str(circ), "--input", "3", "--json"])
        payload = json.loads(out)
        assert code == 0
        # basis 3 is the three-cycle sending 0->1->2->0; its inverse is basis 4
        assert payload["distribution"]["outcomes"] == {"4": 1.0}

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.hopf"
        path.write_text("algebra Z2\nin 2\nlayer BOGUS\n")
        code, _, err = run(capsys, ["eval", str(path), "--input", "00"])
        assert code == 2
        assert err.startswith("error: parse: line 3")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, ["eval", "nope.hopf", "--input", "0"])
        assert code == 1 and err.startswith("error: usage:")

    def test_wide_identity_without_the_map(self, capsys, tmp_path):
        # the full map would be 4096 x 4096 complex entries, 256 MiB
        path = tmp_path / "id12.hopf"
        path.write_text("algebra Z2\nin 12\nlayer " + ", ".join(["ID"] * 12) + "\n")
        argv = ["eval", str(path), "--input", "101100111000", "--json"]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert time.perf_counter() - start < 0.1
        payload = json.loads(out)
        assert code == 0 and payload["unitary"] is True
        assert (payload["wires_in"], payload["wires_out"]) == (12, 12)
        assert payload["distribution"]["outcomes"] == {"101100111000": 1.0}
        tracemalloc.start()
        try:
            assert run(capsys, argv)[1] == out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_oversized_unitary_refused_before_its_gram_matrix(self, capsys, tmp_path, gram_sizes):
        rows = "; ".join(", ".join("1" if i == j else "0" for j in range(200)) for i in range(200))
        path = tmp_path / "big.hopf"
        path.write_text(f"algebra Z2\nin 1\nunitary big [{rows}]\nlayer ID\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["eval", str(path), "--input", "0"])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err == "error: validate: unitary 'big' is 200x200 but the algebra dimension is 2\n"
        assert gram_sizes == []


class TestMatrix:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["matrix", CNOT_FILE])
        assert code == 0 and "matrix 4x4" in out

    def test_json_matches_schema_and_table(self, capsys):
        code, out, _ = run(capsys, ["matrix", CNOT_FILE, "--json"])
        payload = json.loads(out)
        check_schema(payload, "matrix")
        want = np.zeros((4, 4))
        want[0, 0] = want[1, 1] = want[3, 2] = want[2, 3] = 1.0
        assert np.array_equal(np.array(payload["re"]), want)
        assert not np.any(np.array(payload["im"]))

    @pytest.mark.parametrize("path", [CNOT_FILE, FIG2_FILE])
    def test_json_bytes_equal_json_dumps(self, capsys, path):
        m = evaluate(hopfcirc.cli._load_circuit(path))
        code, out, err = run(capsys, ["matrix", path, "--json"])
        assert code == 0 and err == ""
        assert out == dumped_map(m)

    def test_json_is_streamed(self, tmp_path):
        # the 1024 x 1024 map takes 16 MiB; lists of Python floats of it
        # would take several times that
        path = tmp_path / "id10.hopf"
        path.write_text("algebra Z2\nin 10\nlayer " + ", ".join(["ID"] * 10) + "\n")
        map_bytes = 2**20 * np.dtype(complex).itemsize
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.start()
            try:
                code = cli_run(["matrix", str(path), "--json"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= 1.5 * map_bytes


class TestCompile:
    @pytest.fixture
    def gatefile(self, tmp_path):
        h = 1 / np.sqrt(2)
        gates = [
            {"u1": {"wire": 0, "name": "h", "matrix": {"re": [[h, h], [h, -h]]}}},
            {"cnot": [0, 1]},
            {"cnot": [2, 0]},
        ]
        check_schema(gates, "gate_list")
        path = tmp_path / "gates.json"
        path.write_text(json.dumps(gates))
        return str(path)

    def test_compile_emits_reparsable_circuit(self, capsys, gatefile):
        code, out, _ = run(capsys, ["compile", "--wires", "3", "--gates", gatefile])
        assert code == 0
        assert "max deviation:" in out
        deviation = float(out.strip().splitlines()[-1].split(":")[1])
        assert deviation <= 1e-10
        circuit_text = out[: out.rindex("max deviation:")]
        from hopfcirc.dsl import parse_circuit

        doc = parse_circuit(circuit_text)
        assert doc.algebra_name == "Z2" and doc.wires_in == 3

    def test_compile_json(self, capsys, gatefile):
        code, out, _ = run(capsys, ["compile", "--wires", "3", "--gates", gatefile, "--json"])
        payload = json.loads(out)
        check_schema(payload, "compile")
        assert code == 0 and payload["max_deviation"] <= 1e-10 and payload["gates"] == 3

    @pytest.mark.parametrize(
        "gates",
        [
            [{"cnot": [None, 1]}],
            [{"u1": {"wire": None, "matrix": {"re": [[1, 0], [0, 1]]}}}],
            [{"cnot": [True, 0.9]}],
            [{"cnot": ["1", 0]}],
        ],
        ids=["null-cnot", "null-u1", "bool-float-cnot", "string-cnot"],
    )
    def test_non_integer_wire_exits_2(self, capsys, tmp_path, gates):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(gates))
        code, out, err = run(capsys, ["compile", "--wires", "2", "--gates", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: validate:") and err.count("\n") == 1
        assert "wire must be an integer" in err

    @pytest.mark.parametrize(
        "matrix",
        [
            {"re": [[{}, 0], [0, 1]]},
            {"re": [[1, 0], [0, 1]], "im": [[0, {"a": 1}], [0, 0]]},
            {"re": [["one", 0], [0, 1]]},
            {"re": [[1, [0]], [0, 1]]},
            {"re": [["1", "0"], ["0", "1"]]},
            {"re": [[1, 0], [0, 1]], "im": [["0", 0], [0, "0"]]},
            {"re": [[True, False], [False, True]]},
            {"re": [[1, 0], "01"]},  # a row that is no list: numpy reads the entries
            {"re": [[1, 0], [0, 1]], "im": [[0, 0], None]},
        ],
        ids=["object-re", "object-im", "string-re", "list-re", "numeric-string-re", "numeric-string-im", "bool-re",
             "string-row-re", "null-row-im"],
    )
    def test_non_numeric_matrix_entry_exits_2(self, capsys, tmp_path, matrix):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"u1": {"wire": 0, "matrix": matrix}}]))
        code, out, err = run(capsys, ["compile", "--wires", "2", "--gates", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: validate: {path}: gate 0: matrix entries must be numbers\n"

    @pytest.mark.parametrize(
        "matrix,detail",
        [
            ({"re": [[1, 0], [0]]}, "matrix rows must have equal lengths"),
            ({"re": [[1, 0], [0, 1]], "im": [[0], [0, 0]]}, "matrix rows must have equal lengths"),
            ({"re": [[10**400, 0], [0, 1]]}, "matrix entries must fit in a float"),
            ({"re": [[1, 0], [0, 1]], "im": [[0, 0]]}, "'re' and 'im' must be equal-shaped 2-d arrays"),
            ({"re": [1, 0]}, "'re' and 'im' must be equal-shaped 2-d arrays"),
        ],
        ids=["ragged-re", "ragged-im", "huge-integer", "unequal-shapes", "one-dimensional"],
    )
    def test_malformed_matrix_exits_2_with_its_location(self, capsys, tmp_path, matrix, detail):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"cnot": [0, 1]}, {"u1": {"wire": 0, "matrix": matrix}}]))
        code, out, err = run(capsys, ["compile", "--wires", "2", "--gates", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: validate: {path}: gate 1: {detail}\n"

    def test_one_corrupted_entry_exits_3(self, capsys, gatefile, corrupt_evaluate):
        code, out, _ = run(capsys, ["compile", "--wires", "3", "--gates", gatefile, "--json"])
        payload = json.loads(out)
        check_schema(payload, "compile")
        assert code == 3
        assert payload["max_deviation"] == pytest.approx(CORRUPTION, rel=1e-6)

    @pytest.mark.parametrize("wires,pair", [(3000, [0, 2999]), (10**20, [0, 1])])
    def test_too_wide_refused_fast(self, capsys, tmp_path, wires, pair):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps([{"cnot": pair}]))
        start = time.perf_counter()
        code, out, err = run(capsys, ["compile", "--wires", str(wires), "--gates", str(path)])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("error: validate: circuit too wide") and err.count("\n") == 1

    def test_oversized_unitary_refused_before_its_gram_matrix(self, capsys, tmp_path, gram_sizes):
        n = 1000
        identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps([{"cnot": [0, 1]}, {"u1": {"wire": 1, "matrix": {"re": identity}}}]))
        start = time.perf_counter()
        code, out, err = run(capsys, ["compile", "--wires", "2", "--gates", str(path)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err == f"error: validate: gate 1: unitary 'u' is {n}x{n} but the algebra dimension is 2\n"
        assert gram_sizes == []

    def test_negative_wires_refused_before_reading(self, capsys, tmp_path):
        code, out, err = run(capsys, ["compile", "--wires", "-1", "--gates", str(tmp_path / "none.json")])
        assert code == 2 and out == ""
        assert err == "error: validate: --wires must be nonnegative, got -1\n"

    def test_bad_gate_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"u1": {"wire": 0}}]')
        code, _, err = run(capsys, ["compile", "--wires", "1", "--gates", str(path)])
        assert code == 2 and "error: validate:" in err
        for text, detail in (
            ('{"cnot": [0, 1]}', "gate list must be a JSON array"),
            ("[5]", "gate 0: expected an object with exactly one of 'cnot' or 'u1'"),
            ('[{"cnot": [0]}]', "gate 0: 'cnot' must be [control, target]"),
        ):
            path.write_text(text)
            code, out, err = run(capsys, ["compile", "--wires", "1", "--gates", str(path)])
            assert (code, out, err) == (2, "", f"error: validate: {path}: {detail}\n")

    @pytest.mark.parametrize(
        "u1,detail",
        [
            ({"wire": 0, "matrix": 5},
             "matrix must be an object with 're' (and optional 'im') rows"),
            ({"wire": 0, "extra": True, "matrix": {"re": [[0, 1], [1, 0]]}},
             "u1: unexpected key(s) 'extra'; only 'wire', 'name' and 'matrix' are allowed"),
            ({"wire": 0, "matrix": {"re": [[0, 1], [1, 0]], "junk": 1, "Im": 0}},
             "matrix: unexpected key(s) 'Im', 'junk'; only 're' and 'im' are allowed"),
            ({"wire": 0, "name": 5, "matrix": {"re": [[0, 1], [1, 0]]}},
             "'name' must be a string, got 5"),
        ],
        ids=["matrix-not-object", "u1-extra-key", "matrix-extra-keys", "name-not-string"],
    )
    def test_gate_refused_as_the_schema_refuses_it(self, capsys, tmp_path, u1, detail):
        # schemas/gate_list.schema.json: no key beyond those listed, and a
        # string name
        doc = [{"cnot": [0, 1]}, {"u1": u1}]
        with pytest.raises(ValidationError):
            check_schema(doc, "gate_list")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["compile", "--wires", "2", "--gates", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: validate: {path}: gate 1: {detail}\n"


class TestSample:
    def test_deterministic_for_fixed_seed(self, capsys):
        args = ["sample", FIG2_FILE, "--input", "10", "--shots", "1000", "--seed", "7"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second
        code, out, _ = run(capsys, args + ["--json"])
        payload = json.loads(out)
        check_schema(payload, "sample")
        assert sum(payload["counts"].values()) == 1000

    def test_output_pinned(self, capsys):
        code, out, _ = run(
            capsys, ["sample", FIG2_FILE, "--input", "10", "--shots", "1000", "--seed", "7", "--json"]
        )
        assert code == 0
        assert out == '{"counts":{"100":502,"110":498},"input":"10","seed":7,"shots":1000}\n'

    def test_shots_above_limit_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["sample", FIG2_FILE, "--input", "10", "--shots", str(2**24 + 1), "--seed", "1"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: validate: shots must be between 1 and 16777216")

    def test_frequencies_match_distribution_within_3_sigma(self, capsys):
        shots = 100_000
        code, out, _ = run(
            capsys,
            ["sample", FIG2_FILE, "--input", "10", "--shots", str(shots), "--seed", "12345", "--json"],
        )
        counts = json.loads(out)["counts"]
        assert set(counts) <= {"100", "110"}
        for label in ("100", "110"):
            p = 0.5
            bound = 3 * np.sqrt(shots * p * (1 - p))
            assert abs(counts.get(label, 0) - shots * p) <= bound

    def test_annihilated_exits_4(self, capsys, tmp_path):
        path = tmp_path / "ann.hopf"
        path.write_text(ANNIHILATING_SRC)
        code, _, err = run(
            capsys, ["sample", str(path), "--input", "1", "--shots", "10", "--seed", "1"]
        )
        assert code == 4 and err.startswith("error: annihilated:")

    def test_bad_shots_exit_2(self, capsys):
        code, _, _ = run(capsys, ["sample", FIG2_FILE, "--input", "10", "--shots", "0", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("path", [FIG2_FILE, CNOT_FILE], ids=["fig2", "cnot"])
    def test_circuit_validated_once(self, capsys, validated, path):
        args = ["sample", path, "--input", "10", "--shots", "10", "--seed", "1"]
        assert run(capsys, args)[0] == 0
        assert len(validated) == 1

    @pytest.mark.parametrize("wires", [19, 20])
    def test_wide_product_state(self, capsys, tmp_path, wires):
        # every wire rotated by RY(0.5), so all 2^wires outcomes are possible; a
        # running sum of their probabilities drifted past 1e-12 here
        path = tmp_path / "ry.hopf"
        path.write_text(f"algebra Z2\nin {wires}\nunitary r RY(0.5)\nlayer " + ", ".join(["U(r)"] * wires) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["sample", str(path), "--input", "0" * wires, "--shots", "10", "--seed", "1", "--json"])
        assert time.perf_counter() - start < 30.0
        assert code == 0, err
        counts = json.loads(out)["counts"]
        assert sum(counts.values()) == 10 and all(len(label) == wires for label in counts)

    def test_negative_seed_refused_before_reading(self, capsys, tmp_path):
        argv = ["sample", str(tmp_path / "none.hopf"), "--input", "10", "--shots", "5", "--seed", "-1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: validate: --seed must be nonnegative, got -1\n"


class TestLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix"],
            ["oracle-check"],
            ["eval", "--input", "0"],
            ["sample", "--input", "0", "--shots", "1", "--seed", "1"],
        ],
        ids=lambda a: a[0],
    )
    def test_huge_wire_count_fails_fast(self, capsys, tmp_path, argv):
        path = tmp_path / "huge.hopf"
        path.write_text("algebra Z2\nin 99999999999999999999\n")
        start = time.perf_counter()
        code, out, err = run(capsys, [argv[0], str(path)] + argv[1:])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        # the width check runs before the input digits are parsed
        assert err.startswith("error: validate: circuit too wide") and err.count("\n") == 1

    def test_map_entry_limit_spares_sample(self, capsys, tmp_path):
        # eval builds the map only when the plan cannot certify the unitary
        # flag: the 13-wire identity is certified, copy-then-square is not
        identity = tmp_path / "id13.hopf"
        identity.write_text("algebra Z2\nin 13\nlayer " + ", ".join(["ID"] * 13) + "\n")
        square = tmp_path / "square13.hopf"
        square.write_text(
            "algebra Z2\nin 13\nlayer " + ", ".join(["DELTA"] + ["ID"] * 12)
            + "\nlayer " + ", ".join(["M"] + ["ID"] * 12) + "\n"
        )
        for path, argv in ((identity, ["matrix"]), (identity, ["oracle-check"]), (square, ["eval", "--input", "1" * 13])):
            code, out, err = run(capsys, [argv[0], str(path)] + argv[1:])
            assert code == 2 and out == ""
            assert err.startswith("error: validate: map too large") and err.count("\n") == 1
        # the input digits are parsed before the map is refused
        code, out, err = run(capsys, ["eval", str(square), "--input", "1" * 12])
        assert code == 2 and out == "" and "has 12 digits" in err and err.count("\n") == 1
        code, out, _ = run(capsys, ["eval", str(identity), "--input", "1" * 13, "--json"])
        assert code == 0 and json.loads(out)["unitary"] is True
        for path, want in ((identity, "1" * 13), (square, "0" + "1" * 12)):
            code, out, _ = run(
                capsys, ["sample", str(path), "--input", "1" * 13, "--shots", "5", "--seed", "1", "--json"]
            )
            assert code == 0 and json.loads(out)["counts"] == {want: 5}

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_circuit_error_comes_before_input_error(self, capsys, tmp_path, command):
        # loading validates the circuit, and the input digits are read after
        path = tmp_path / "arity.hopf"
        path.write_text("algebra Z2\nin 2\nlayer M\nlayer ID, ID\n")
        argv = [command, str(path), "--input", "x"] + ["--shots", "1", "--seed", "1"] * (command == "sample")
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: validate: layer 1 consumes 2 wires, 1 available\n")

    def test_uncertified_eval_refused_before_the_run(self, capsys, tmp_path, monkeypatch):
        # 2000 one-wire H layers on 19 wires: too many steps for the
        # certificate's rounding allowance, and a map of 2^38 entries, so
        # eval refuses the circuit, and decides so before it runs the state
        n = 19
        path = tmp_path / "deep19.hopf"
        path.write_text(f"algebra Z2\nin {n}\nunitary h H\n" + "".join(
            "layer " + ", ".join(["ID"] * (k % n) + ["U(h)"] + ["ID"] * (n - 1 - k % n)) + "\n"
            for k in range(2000)
        ))

        def refuse(circuit, states):
            raise AssertionError("eval ran the state")

        monkeypatch.setattr(hopfcirc.cli, "run", refuse)
        code, out, err = run(capsys, ["eval", str(path), "--input", "1" * n, "--json"])
        assert code == 2 and out == ""
        assert err.startswith("error: validate: map too large") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,detail",
        [
            (["eval", "--input", "0"], "map entries must be finite"),
            (["sample", "--input", "0", "--shots", "10", "--seed", "1"],
             "output amplitudes overflow: their squared norm is nan"),
            (["matrix"], "map entries must be finite"),
            (["oracle-check"], "map entries must be finite"),
        ],
        ids=["eval", "sample", "matrix", "oracle-check"],
    )
    def test_overflowing_amplitudes_refused(self, capsys, tmp_path, argv, detail):
        # H, copy, multiply: each round scales the amplitude of 0 by sqrt(2),
        # so 2200 rounds overflow; eval cannot certify the copy-then-square,
        # so it builds the map, which the entry check refuses
        path = tmp_path / "grow.hopf"
        path.write_text("algebra Z2\nin 1\nunitary h H\n" + "layer U(h)\nlayer DELTA\nlayer M\n" * 2200)
        code, out, err = run(capsys, [argv[0], str(path)] + argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: validate: {detail}\n"

    def test_wide_compiled_eval_is_certified(self, capsys, tmp_path):
        # 16 wires: the map would hold 2^32 entries, eval pushes one state
        rng = np.random.default_rng(16)
        wires = 16
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        gates = [U1(w, h, "h") for w in range(wires)]
        for _ in range(40):
            if rng.random() < 0.3:
                gates.append(U1(int(rng.integers(wires)), h, "h"))
            else:
                c, t = rng.choice(wires, size=2, replace=False)
                gates.append(Cnot(int(c), int(t)))
        circuit = compile_gate_circuit(builtin_algebra("Z2"), wires, gates)
        path = tmp_path / "wide.hopf"
        path.write_text(print_circuit(circuit_to_document(circuit, "Z2")))
        digits = "1011001110001011"
        code, out, err = run(capsys, ["eval", str(path), "--input", digits, "--json"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        check_schema(payload, "eval")
        assert payload["unitary"] is True and payload["wires_out"] == wires
        # the distribution sample draws from, off the same run
        state = run_circuit(circuit, basis_state(2, [int(ch) for ch in digits])[:, None])[:, 0]
        assert payload["distribution"] == measure(state, 2).as_dict()
        assert payload["vector"] == {"re": state.real.tolist(), "im": state.imag.tolist()}


class TestOracleCheck:
    @pytest.mark.parametrize("path", [CNOT_FILE, FIG2_FILE])
    def test_goldens_pass(self, capsys, path):
        code, out, _ = run(capsys, ["oracle-check", path])
        assert code == 0 and "PASS" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["oracle-check", FIG2_FILE, "--json"])
        payload = json.loads(out)
        check_schema(payload, "oracle_check")
        assert payload["passed"] and payload["inputs"] == 4
        assert payload["max_deviation"] <= 1e-12

    @pytest.mark.parametrize("path", [CNOT_FILE, FIG2_FILE])
    def test_one_corrupted_entry_exits_3(self, capsys, path, corrupt_evaluate):
        code, out, _ = run(capsys, ["oracle-check", path, "--json"])
        payload = json.loads(out)
        check_schema(payload, "oracle_check")
        assert code == 3 and payload["passed"] is False and payload["inputs"] == 4
        assert payload["max_deviation"] == pytest.approx(CORRUPTION, rel=1e-6)
        code, out, _ = run(capsys, ["oracle-check", path])
        assert code == 3 and "oracle check: FAIL" in out


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "DIR", "--input", "0"],
            ["sample", "DIR", "--input", "0", "--shots", "1", "--seed", "1"],
            ["matrix", "DIR"],
            ["oracle-check", "DIR"],
            ["check-axioms", "--algebra", "DIR"],
            ["compile", "--wires", "2", "--gates", "DIR"],
        ],
        ids=lambda a: a[0],
    )
    def test_directory_path_exits_1(self, capsys, tmp_path, argv):
        argv = [str(tmp_path) if a == "DIR" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: usage:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,name,text",
        [
            (["eval", "FILE", "--input", "0"], "big.hopf",
             "algebra Z2\nin 1\nunitary u [1e308, 0; 0, 1]\nlayer U(u)\n"),
            (["compile", "--wires", "1", "--gates", "FILE"], "big.json",
             json.dumps([{"u1": {"wire": 0, "matrix": {"re": [[1e308, 0], [0, 1]]}}}])),
        ],
        ids=["hopf", "gate-list"],
    )
    def test_overflowing_unitary_gives_one_stderr_line(self, tmp_path, argv, name, text):
        # numpy warnings go to stderr, which only a separate process shows
        path = tmp_path / name
        path.write_text(text)
        proc = run_process([str(path) if a == "FILE" else a for a in argv])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: validate: matrix for 'u' is not unitary")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("repeats", [1030, 2200])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--input", "0"],
            ["eval", "--input", "0", "--json"],
            ["sample", "--input", "0", "--shots", "5", "--seed", "1"],
            ["matrix"],
            ["oracle-check"],
        ],
        ids=["eval", "eval-json", "sample", "matrix", "oracle-check"],
    )
    def test_overflowing_amplitudes_give_one_stderr_line(self, tmp_path, argv, repeats):
        # each repeat multiplies the map's one nonzero entry by sqrt(2):
        # 2^515 at 1030 repeats, whose square overflows, and inf at 2200
        path = tmp_path / "grow.hopf"
        path.write_text("algebra Z2\nin 1\nunitary h H\n" + "layer U(h)\nlayer DELTA\nlayer M\n" * repeats)
        proc = run_process([argv[0], str(path)] + argv[1:])
        if repeats == 1030 and argv[0] in ("matrix", "oracle-check"):
            # every entry is finite, so the map prints; still no warning
            assert proc.returncode == 0 and proc.stderr == ""
            return
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: validate: ") and proc.stderr.count("\n") == 1
        if argv[0] == "sample" or repeats == 1030:
            assert "output amplitudes overflow" in proc.stderr

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["check-axioms", "--algebra", "FILE"], '{"labels": ["a"], "table": %s}'),
            (["compile", "--wires", "2", "--gates", "FILE"], "%s"),
        ],
        ids=["group-table", "gate-list"],
    )
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "deep.json"
        path.write_text(doc % ("[" * 200_000 + "]" * 200_000))
        code, out, err = run(capsys, [str(path) if a == "FILE" else a for a in argv])
        assert code == 2 and out == ""
        assert err == f"error: validate: {path}: JSON nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "argv,name,text",
        [
            (["check-axioms", "--algebra", "FILE"], "t.json",
             json.dumps({"labels": ["a"], "table": [[[0] * 200_000]]})),
            (["check-axioms", "--algebra", "FILE"], "t.json",
             json.dumps({"labels": ["a"], "table": [[0]], "k" * 200_000: 1})),
            (["eval", "FILE", "--input", "0"], "c.hopf", "algebra " + "x" * 100_000 + "\nin 1\nlayer ID\n"),
            (["compile", "--wires", "2", "--gates", "FILE"], "g.json", json.dumps([{"cnot": [[0] * 200_000, 1]}])),
            (["compile", "--wires", "2", "--gates", "FILE"], "g.json", json.dumps([{"k" * 200_000: 1}])),
            (["compile", "--wires", "2", "--gates", "FILE"], "g.json",
             json.dumps([{"u1": {"wire": 0, "name": "n" * 100_000, "matrix": {"re": [[1, 0, 0]] * 3}}}])),
            (["compile", "--wires", "2", "--gates", "FILE"], "g.json",
             json.dumps([{"u1": {"wire": 0, "name": "n" * 100_000, "matrix": {"re": [[1, 0], [0, 2]]}}}])),
        ],
        ids=["table-entry", "extra-key", "algebra-name", "wire", "gate-kind", "gate-name-shape",
             "gate-name-unitarity"],
    )
    def test_long_input_is_not_echoed_in_full(self, capsys, tmp_path, argv, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, [str(path) if a == "FILE" else a for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("error: validate: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "text,category,digits",
        [
            ("algebra Z2\nin 1\nlayer " + "Q" * 100_000, "parse", "0"),
            ("Q" * 100_000 + " Z2", "parse", "0"),
            ("algebra Z2\nin " + "x" * 100_000, "parse", "0"),
            ("algebra Z2\nin 1\nunitary 1" + "u" * 100_000 + " H", "parse", "0"),
            ("algebra Z2\nin 1\n" + ("unitary " + "u" * 100_000 + " H\n") * 2, "parse", "0"),
            ("algebra Z2\nin 1\nlayer U(" + "v" * 100_000 + ")", "parse", "0"),
            ("algebra Z2\nin 1\nunitary u " + "P" * 100_000, "parse", "0"),
            ("algebra Z2\nin 1\nunitary u !" + "P" * 100_000, "parse", "0"),
            ("algebra Z2\nin 1\nunitary u RY(" + "x" * 100_000 + ")", "parse", "0"),
            ("algebra Z2\nin 1\nunitary u [" + "z" * 100_000 + "]", "parse", "0"),
            ("algebra Z3\nin 1\nunitary " + "u" * 100_000 + " [1, 0; 0, 1]", "validate", "0"),
            ("algebra Z2\nin 1\nlayer ID", "validate", "1" * 100_000),
            ("algebra Z2\nin 1\nlayer ID", "validate", "x" * 100_000),
        ],
        ids=["primitive", "keyword", "wire-count", "unitary-name", "duplicate-unitary", "unitary-reference",
             "preset", "definition", "angle", "complex-literal", "unitary-shape", "input-length", "input-digits"],
    )
    def test_long_token_is_not_echoed_in_full(self, capsys, tmp_path, text, category, digits):
        path = tmp_path / "c.hopf"
        path.write_text(text + "\n")
        code, out, err = run(capsys, ["eval", str(path), "--input", digits])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {category}: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_long_tolerance_is_not_echoed_in_full(self, capsys):
        code, out, err = run(capsys, ["check-axioms", "--algebra", "Z2", "--tol", "x" * 100_000])
        assert code == 1 and out == ""
        assert err.startswith("error: usage: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_no_command(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1 and err.startswith("error: usage:")

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, ["check-axioms", "--algebra", "Z2", "--frobnicate"])
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0 and "leftmost" in out

    def test_parser_reused_across_calls(self, capsys):
        _, first, _ = run(capsys, ["--help"])
        assert run(capsys, ["eval", CNOT_FILE])[0] == 1  # --input missing
        assert run(capsys, ["eval", CNOT_FILE, "--input", "10"])[0] == 0
        assert run(capsys, ["--help"])[1] == first
        assert hopfcirc.cli._build_parser() is hopfcirc.cli._build_parser()


#: built-in algebras and the widest layer boundary their circuits may reach
EVAL_ALGEBRAS = {"Z2": 5, "Z3": 4, "S3": 3}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(EVAL_ALGEBRAS)),
    st.sampled_from(["random", "compiled", "structured"]),
    st.integers(0, 2**32 - 1),
)
def test_eval_matches_map_column(name, family, seed):
    """eval pushes one state and reads the flag off the layers where it
    can; the full map's column, flag and wire counts must agree."""
    rng = np.random.default_rng(seed)
    algebra = builtin_algebra(name)
    d, max_wires = algebra.dim, EVAL_ALGEBRAS[name]
    if family == "random":
        c = random_circuit(rng, algebra, max_wires=max_wires)
    elif family == "compiled":
        wires = int(rng.integers(1, max_wires))
        c = compile_gate_circuit(algebra, wires, random_gate_list(rng, wires, int(rng.integers(0, 12)), d))
    else:
        c = certificate_circuit(rng, algebra, max_wires=max_wires)
    linmap = evaluate(c)
    index = int(rng.integers(d**c.wires_in))
    digits = _index_to_digits(index, d, c.wires_in)
    column = linmap.matrix[:, index]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.hopf"
        path.write_text(print_circuit(circuit_to_document(c, name)))
        stdout = io.StringIO()  # hypothesis rules out function-scoped fixtures like capsys
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_run(["eval", str(path), "--input", ",".join(map(str, digits)), "--json"])
    if code == 4:  # annihilated
        assert np.max(np.abs(column)) <= 1e-12
        return
    assert code == 0
    payload = json.loads(stdout.getvalue())
    assert payload["unitary"] == is_unitary(linmap)
    assert (payload["wires_in"], payload["wires_out"]) == (linmap.wires_in, linmap.wires_out)
    vector = np.array(payload["vector"]["re"]) + 1j * np.array(payload["vector"]["im"])
    assert np.max(np.abs(vector - column)) <= 1e-12
    want = measure(column, d)
    got = payload["distribution"]
    assert abs(got["norm_in"] - want.norm_in) <= 1e-12
    want_outcomes = dict(want.entries)
    for label in set(got["outcomes"]) | set(want_outcomes):
        assert abs(got["outcomes"].get(label, 0.0) - want_outcomes.get(label, 0.0)) <= 1e-12
