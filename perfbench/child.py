"""The timed loop: one client calling the CLI entry point in a closed loop.

Run as `python3 child.py WORKDIR SECONDS TRACE` in a fresh process whose
environment fixes the BLAS thread count.  Each operation is one call to
`hopfcirc.cli.cli_run(argv)` with stdout and stderr captured; only that
call is timed, and its output is checked against the reference after the
clock stops.  The loop repeats the workload's round until SECONDS have
been spent in the CLI and at least MIN_SAMPLES operations were run.

With TRACE=1 untraced rounds alternate with traced ones, in which every
public function of the five modules is wrapped (in every hopfcirc
namespace that binds it) and records one span per call.  Results go to WORKDIR/result.json, spans to
WORKDIR/spans.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import reference

LAYERS = ("cli", "dsl", "algebra", "circuit", "tensor")

#: enough operations that at least ten lie beyond the 90th percentile
MIN_SAMPLES = 100


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent, op]
        self.entries: dict[str, int] = {}  # tensor layer: matrix entries returned
        self.stack = [-1]
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count_entries = name.startswith("tensor.")
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1], self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count_entries:
                arr = getattr(getattr(result, "matrix", result), "array", None)
                if arr is not None:
                    self.entries[name] = self.entries.get(name, 0) + arr.size
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hopfcirc.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "hopfcirc" and not modname.startswith("hopfcirc."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    def summary(self) -> dict:
        """Per function: calls, self time and total time in ns."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(self.names[name_id], {"calls": 0, "self_ns": 0, "total_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child[i]
        for name, n in self.entries.items():
            out[name]["entries"] = n
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def run_op(cli, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.cli_run(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = -1
            print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_rounds(cli, ops: list[dict], refs: dict, seconds: float | None, rounds: int | None,
               tracer: Tracer | None = None, runner=run_op, min_samples: int = 0) -> dict:
    """Repeat the round until `seconds` are spent and `min_samples` taken, or
    for exactly `rounds` rounds."""
    samples: list[tuple[int, float, bool]] = []
    failures: list[str] = []
    verdicts: dict[tuple, str | None] = {}  # an output identical to one checked before has its verdict
    output_bytes = 0
    done = 0
    spent = 0.0
    while (rounds is None and (spent < seconds or len(samples) < min_samples)) or (
        rounds is not None and done < rounds
    ):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            elapsed, rc, stdout, stderr = runner(cli, op["argv"])
            spent += elapsed
            output_bytes += len(stdout.encode())
            key = (i, rc, stdout, stderr)
            if key not in verdicts:
                verdicts[key] = reference.check(op["cmd"], op["spec"], refs.get(op["ref"]), rc, stdout, stderr)
            reason = verdicts[key]
            if reason is not None and len(failures) < 20:
                failures.append(f"{' '.join(op['argv'])}: {reason}")
            samples.append((i, elapsed, reason is None))
        done += 1
    return {"samples": samples, "failures": failures, "rounds": done, "output_bytes": output_bytes}


def main(workdir: Path, seconds: float, trace: bool) -> None:
    plan = json.loads((workdir / "plan.json").read_text())
    ops = plan["ops"]
    with np.load(workdir / "refs.npz") as npz:
        refs = {k: npz[k] for k in npz.files}
    cli = importlib.import_module("hopfcirc.cli")
    # warm up lazy imports and first-call paths once per subcommand
    seen = set()
    for op in ops:
        if op["cmd"] not in seen:
            seen.add(op["cmd"])
            run_op(cli, op["argv"])
    result = {}
    if not trace:
        result["timed"] = run_rounds(cli, ops, refs, seconds, None, min_samples=MIN_SAMPLES)
    else:
        # untraced and traced rounds alternate, so that both see the same
        # machine; the ratio of their rates is the tracing overhead
        tracer = Tracer()
        passes = {"untraced": [], "traced": []}
        while sum(t for r in passes["untraced"] for _, t, _ in r["samples"]) < seconds / 2:
            passes["untraced"].append(run_rounds(cli, ops, refs, None, 1))
            tracer.install()
            try:
                passes["traced"].append(run_rounds(cli, ops, refs, None, 1, tracer))
            finally:
                tracer.uninstall()
        for name, rounds in passes.items():
            result[name] = {"samples": [s for r in rounds for s in r["samples"]],
                            "failures": [f for r in rounds for f in r["failures"]],
                            "rounds": len(rounds),
                            "output_bytes": sum(r["output_bytes"] for r in rounds)}
        result["trace"] = tracer.summary()
        tracer.write(workdir / "spans.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1")
