"""Benchmark of the hopfcirc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The command writes the workload's
inputs from the seed, computes every reference, measures set-up time in
fresh interpreters, runs the timed loop in a fresh child process and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a separate traced run.  Inputs, references, the
child's raw result and the spans go to perfbench/work/NAME/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread everywhere: with the default of one per core, a 5-wire
# evaluate varied by more than ten times between repeats.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the thread count is fixed)

import reference  # noqa: E402
import workloads  # noqa: E402

#: set-up runs: at least SETUP_MIN, then more while under SETUP_BUDGET_S, at most SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}

#: per-function self time per operation; `_total_ms` is inclusive of children
SELF_MS = [
    "circuit.evaluate", "circuit.layer_map", "circuit.is_unitary", "circuit.measure", "circuit.apply",
    "circuit.validate", "circuit.evaluate_bruteforce", "circuit.direct_gate_map",
    "circuit.compile_gate_circuit", "tensor.compose", "tensor.kron_maps", "algebra.check_axioms",
    "dsl.parse_circuit", "dsl.to_circuit", "dsl.print_circuit",
]
TOTAL_MS = ["circuit.evaluate", "algebra.check_axioms", "algebra.resolve_algebra"]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    # compiled bytecode is cached, as in an installed package, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(HERE / "work" / "pycache")
    return env


# --- references ----------------------------------------------------------------

def build_plan(w: workloads.Workload) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Every operation with what its check needs, and the reference arrays."""
    from hopfcirc.circuit import evaluate_bruteforce
    from hopfcirc.dsl import parse_circuit, to_circuit

    refs: dict[str, np.ndarray] = {}
    ops = []

    def bruteforce_columns(c: workloads.CircuitInput, columns) -> np.ndarray:
        circ = to_circuit(parse_circuit(c.text))
        return np.array([evaluate_bruteforce(circ, j) for j in columns]).T

    for op in w.round:
        spec: dict = {}
        key = op.ref
        if op.cmd in ("eval", "sample", "matrix", "oracle-check"):
            c = w.circuits[op.ref]
            compiled = c.gates is not None
            spec = {"d": c.d, "wires_in": c.wires_in, "wires_out": c.profile[-1],
                    "unitary": compiled, "tol": reference.COMPILE_TOL if compiled else reference.MAP_TOL}
            if op.cmd in ("eval", "sample"):
                key = f"{op.ref}:{op.digits}"
                index = int(op.digits, c.d)
                if key not in refs:
                    if compiled:
                        refs[key] = reference.simulate_gates(c.wires_in, c.gates, np.eye(2**c.wires_in)[index])[0]
                    else:
                        refs[key] = bruteforce_columns(c, [index])[:, 0]
                if op.cmd == "sample":
                    spec["shots"] = workloads.SHOTS
            elif op.cmd == "matrix" and key not in refs:
                if compiled:
                    refs[key] = reference.gate_map(c.wires_in, c.gates)
                else:
                    refs[key] = bruteforce_columns(c, range(c.d**c.wires_in))
            elif op.cmd == "oracle-check":
                spec["inputs"] = c.d**c.wires_in
        elif op.cmd == "compile":
            n, gl = w.gate_lists[op.ref]
            spec = {"wires": n, "gates": len(gl)}
            refs.setdefault(key, reference.gate_map(n, gl))
        else:  # check-axioms
            answer = w.tables[op.ref]
            spec = {"dim": answer["dim"], "abelian": answer["abelian"]} if answer["valid"] else {"expect_exit": 2}
        ops.append({"cmd": op.cmd, "argv": op.argv, "ref": key, "spec": spec})
    return ops, refs


# --- measurement ---------------------------------------------------------------

def measure_setup(w: workloads.Workload, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import hopfcirc and resolve every
    algebra the workload uses; one unmeasured import first warms the caches."""
    code = ("import sys\nimport hopfcirc.cli\nfrom hopfcirc.algebra import resolve_algebra\n"
            "for name in sys.argv[1:]:\n    resolve_algebra(name)\n")
    env = child_env()
    subprocess.run([sys.executable, "-c", "import hopfcirc.cli"], cwd=workdir, env=env, check=True, timeout=60)
    times: list[float] = []
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *w.algebras], cwd=workdir, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_child(workdir: Path, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(workdir), str(seconds), str(trace)],
        cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=max(120, 4 * seconds),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: benchmark child exited with {proc.returncode}")
    return json.loads((workdir / "result.json").read_text())


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def best_latencies(samples: list, n_ops: int) -> list[float]:
    """Fastest latency of each operation of the round over its repeats.

    Other tenants of a shared machine slow it in bursts of seconds; the
    fastest of several repeats is what the operation costs, while medians
    over one run moved by 20% between runs of identical work.
    """
    best = [float("inf")] * n_ops
    for i, t, _ in samples:
        best[i] = min(best[i], t)
    return best


def ops_per_s(samples: list, n_ops: int) -> float:
    """Correct operations per second of one client running the round at the
    operations' best latencies (the closed loop's throughput, 1 / mean)."""
    correct = sum(ok for _, _, ok in samples) / len(samples)
    return correct * n_ops / sum(best_latencies(samples, n_ops))


def end_to_end(ops: list[dict], timed: dict, setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    samples = timed["samples"]
    best_ms = [t * 1000 for t in best_latencies(samples, len(ops))]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s(samples, len(ops)),
        "op_ms_p50": float(np.percentile(best_ms, 50)),
        "op_ms_p90": float(np.percentile(best_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
    }
    by_cmd: dict[str, list[float]] = {}
    for op, t in zip(ops, best_ms):
        by_cmd.setdefault(op["cmd"], []).append(t)
    subcommands = {f"{cmd.replace('-', '_')}_ms_p50": (float(np.median(v)), len(v) * timed["rounds"])
                   for cmd, v in sorted(by_cmd.items())}
    return metrics, subcommands


def per_layer(result: dict, props: dict, n_ops: int) -> dict:
    traced, untraced = result["traced"], result["untraced"]
    n = len(traced["samples"])
    spans = result["trace"]

    def ms(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0) / 1e6 / n

    metrics = {f"{name}_ms": ms(name, "self_ns") for name in SELF_MS}
    metrics.update({f"{name}_total_ms": ms(name, "total_ns") for name in TOTAL_MS})
    for layer in ("circuit", "tensor", "algebra", "dsl"):
        metrics[f"{layer}.self_ms"] = sum(v["self_ns"] for k, v in spans.items() if k.startswith(layer + ".")) / 1e6 / n
    metrics["cli.self_ms"] = ms("cli.cli_run", "self_ns")
    metrics["cli.output_bytes"] = traced["output_bytes"] / n
    metrics["algebra.group_algebra_self_ms"] = ms("algebra.group_algebra", "self_ns")
    metrics["algebra.check_axioms_calls"] = spans.get("algebra.check_axioms", {}).get("calls", 0) / n
    tensor = [v for k, v in spans.items() if k.startswith("tensor.")]
    metrics["tensor.calls"] = sum(v["calls"] for v in tensor) / n
    metrics["tensor.entries_returned"] = sum(v.get("entries", 0) for v in tensor) / n
    metrics["circuit.swap_id_layer_share"] = props["circuit.swap_id_layer_share"]
    metrics["circuit.max_state_entries"] = props["circuit.max_state_entries"]
    metrics["trace.ops_per_s_ratio"] = ops_per_s(traced["samples"], n_ops) / ops_per_s(untraced["samples"], n_ops)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "hopfcirc" / "cli.py").is_file():
        print(f"error: no hopfcirc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = HERE / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w = workloads.build(args.workload, args.seed)
    digest = workloads.write_inputs(w, workdir)
    ops, refs = build_plan(w)
    np.savez(workdir / "refs.npz", **refs)
    (workdir / "plan.json").write_text(json.dumps({"workload": w.name, "seed": args.seed, "ops": ops}))
    props = workloads.properties(w)

    setup = [] if args.trace else measure_setup(w, workdir)
    result = run_child(workdir, args.seconds, args.trace)
    passes = [result["untraced"], result["traced"]] if args.trace else [result["timed"]]
    samples = [sample for p in passes for sample in p["samples"]]
    attempted, failed = len(samples), sum(not ok for _, _, ok in samples)

    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(f"inputs {len(w.files)} files sha256 {digest}")
    print("properties " + json.dumps(props, sort_keys=True))
    print(f"loop closed, 1 client: {sum(p['rounds'] for p in passes)} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed, error_rate {failed / attempted:.6g}")
    for reason in (reason for p in passes for reason in p["failures"]):
        print(f"failure {reason}")
    if args.trace:
        metrics = per_layer(result, props, len(ops))
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics, subcommands = end_to_end(ops, result["timed"], setup, result["peak_rss_mb"])
        units = dict(END_TO_END_UNITS)
        print(f"setup_s samples {[round(t, 4) for t in setup]}")
        for name, (value, count) in subcommands.items():
            print(f"metric {name} {value:.6g} ms (n={count})")
        print(f"metric error_rate {failed / attempted:.6g} ratio (n={attempted})")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}" + ("" if name == "setup_s" else f" (n={attempted})"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if "entries" in name:
        return "entries"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
