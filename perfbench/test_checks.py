"""Tests of the benchmark's own inputs, references and checker.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from hopfcirc import cli  # noqa: E402


def _small_workload(tmp_path: Path):
    rng = random.Random(7)
    gl = workloads.random_gate_list(rng, 3, 3, 6, 8)
    c = workloads.write_compiled("c3", 3, gl)
    path = tmp_path / "c3.hopf"
    path.write_text(c.text)
    ref = reference.simulate_gates(3, gl, np.eye(8)[5])[0]
    spec = {"d": 2, "wires_in": 3, "wires_out": 3, "unitary": True, "tol": reference.COMPILE_TOL}
    ops = [{"cmd": "eval", "argv": ["eval", str(path), "--input", "101", "--json"], "ref": "r", "spec": spec}]
    return ops, {"r": ref}


def _flip_first_amplitude(cli_module, argv):
    elapsed, rc, stdout, stderr = child.run_op(cli_module, argv)
    out = json.loads(stdout)
    k = int(np.argmax(np.abs(out["vector"]["re"])))
    out["vector"]["re"][k] = -out["vector"]["re"][k]
    return elapsed, rc, json.dumps(out), stderr


def test_corrupted_output_raises_error_rate(tmp_path):
    ops, refs = _small_workload(tmp_path)
    clean = child.run_rounds(cli, ops, refs, None, 3)
    corrupt = child.run_rounds(cli, ops, refs, None, 3, runner=_flip_first_amplitude)
    assert [ok for _, _, ok in clean["samples"]] == [True] * 3
    assert [ok for _, _, ok in corrupt["samples"]] == [False] * 3
    assert "vector entries" in corrupt["failures"][0]


def test_expected_error_must_be_one_line():
    spec = {"expect_exit": 2}
    assert reference.check("check-axioms", spec, None, 2, "", "error: validate: not a group\n") is None
    assert reference.check("check-axioms", spec, None, 0, "{}", "") is not None
    assert reference.check("check-axioms", spec, None, 2, "", "Traceback\nerror: x\n") is not None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_compiled_text_matches_gate_list(n):
    """The swap-ladder writer and the gate-list simulator agree, so the two
    references check each other."""
    gl = workloads.random_gate_list(random.Random(n), n, 6, {3: 10, 4: 14, 5: 18}[n], 14)
    c = workloads.write_compiled("c", n, gl)
    by_text = reference.simulate_text(c.text, np.eye(2**n)).T
    assert np.max(np.abs(by_text - reference.gate_map(n, gl))) <= 1e-12
    assert len(c.profile) - 1 == 14 + 6 + {3: 10, 4: 14, 5: 18}[n]


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = []
    for seed in (1, 1, 2):
        d = tmp_path / str(len(digests))
        d.mkdir()
        digests.append(workloads.write_inputs(workloads.build("full_map", seed), d))
    assert digests[0] == digests[1] != digests[2]


def _is_group(table) -> bool:
    n = len(table)
    elems = range(n)
    ident = [e for e in elems if all(table[e][x] == x == table[x][e] for x in elems)]
    return (
        all(sorted(row) == list(elems) for row in table)
        and len(ident) == 1
        and all(table[table[a][b]][c] == table[a][table[b][c]] for a in elems for b in elems for c in elems)
        and all(any(table[a][b] == ident[0] for b in elems) for a in elems)
    )


def test_group_tables_and_invalid_tables():
    for name, table in workloads.group_tables().items():
        assert _is_group(table), name
        assert _is_group(workloads.relabel(random.Random(3), table)), name
    for name, table in workloads.invalid_tables(random.Random(3)).items():
        assert not _is_group(table), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_state", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
