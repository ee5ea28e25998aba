"""One benchmark worker: a fresh process that imports exactquery and runs ops.

Usage (started by run.py): python3 worker.py JOB.json

Protocol on stdout: after the import and the untimed warm-up op the worker
prints one line, {"ready": ..., "warmup_error": ...}, then reads one line
from stdin.  "quit" ends it; "run" starts the closed loop (one client, each
op starts when the previous one has returned), after which it prints one
JSON result line and exits.  Untraced, an op's latency is the smallest over
its runs spread through the run, which filters the slow phases, seconds
long, that other tenants of a shared host cause.  Traced, each op runs
untraced and traced back to back.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def load_program():
    """Import exactquery from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import exactquery
    from exactquery import boolfn, cli, compose, qsim

    if os.path.dirname(os.path.abspath(exactquery.__file__)) != os.path.join(SRC, "exactquery"):
        raise ImportError(f"exactquery imported from {exactquery.__file__}, not {SRC}")
    return boolfn, cli, compose, qsim


class Runner:
    def __init__(self) -> None:
        self.boolfn, self.cli, self.compose, self.qsim = load_program()

    def run_op(self, op: dict) -> tuple[int, str]:
        """Exit code and stdout of one op.  Module attributes are looked up on
        every call, so a traced pass goes through the tracing wrappers."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op["kind"] == "cli":
                    rc = self.cli.main(op["argv"])
                else:
                    rc = self._gap(op)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            return -1, f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue()

    def _gap(self, op: dict) -> int:
        boolfn, compose, qsim = self.boolfn, self.compose, self.qsim
        h = boolfn.BooleanFunction(len(op["h"]).bit_length() - 1, op["h"])
        f1 = boolfn.named_function(op["f1"])
        alg = qsim.a1() if op["alg"] == "a1" else qsim.a2()
        report = compose.verify_gap(h, f1, qsim.relabel_outputs(alg, f1))
        sys.stdout.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
        return 0


def op_at(job: dict, i: int) -> dict:
    first, cycle = job["first"], job["cycle"]
    return first[i] if i < len(first) else cycle[(i - len(first)) % len(cycle)]


def run_ops(runner: Runner, job: dict, start: int, stop: int | None, seconds: float | None = None):
    """Run ops start, start+1, ... until index `stop`, or until `seconds` have
    passed after at least one op.

    Returns [(exit code, stdout, seconds)] and the wall time."""
    results = []
    t_start = time.perf_counter()
    i = start
    while (stop is None or i < stop) and (
        seconds is None or not results or time.perf_counter() - t_start < seconds
    ):
        t0 = time.perf_counter()
        rc, out = runner.run_op(op_at(job, i))
        results.append((rc, out, time.perf_counter() - t0))
        i += 1
    return results, time.perf_counter() - t_start


def first_runs(ops: list[dict], keys: list[str], first_s: dict, reported_s: list[float]) -> dict:
    """Per op label: distinct ops, median latency of each distinct op's first
    run in this process, and median of the reported latencies, in ms.

    Most ops repeat an input the process has already run, so a cache kept
    across ops would show here as a change in the gap between the two."""
    out = {}
    for label in dict.fromkeys(op["label"] for op in ops):
        distinct = dict.fromkeys(key for op, key in zip(ops, keys) if op["label"] == label)
        reported = [dt for op, dt in zip(ops, reported_s) if op["label"] == label]
        out[label] = {
            "distinct": len(distinct),
            "first_run_ms": round(statistics.median(first_s[key] for key in distinct) * 1e3, 3),
            "reported_ms": round(statistics.median(reported) * 1e3, 3),
        }
    return out


def timed_run(runner: Runner, job: dict, check_output) -> dict:
    """Two passes without tracing.  Pass 1 runs the "first" ops, then cycle
    ops for half the remaining time, wrapping round the cycle; pass 2 runs
    the same cycle ops again, so "first" ops run once.  An op's latency is
    the smallest over the repeat runs of the same op (same input) in both
    passes, or its one run if it has no repeat.  First runs are left out
    because they differ in kind, not by noise: at the seed version the first
    f3k:7 op in a process is often up to 25 % faster than any later one."""
    n_first = len(job["first"])
    head, head_wall = run_ops(runner, job, 0, n_first)
    body, _ = run_ops(runner, job, n_first, None, (job["limit"]["seconds"] - head_wall) / 2)
    pass1 = head + body
    pass2, _ = run_ops(runner, job, n_first, len(pass1))

    ops = [op_at(job, i) for i in range(len(pass1))]
    keys = [json.dumps(op, sort_keys=True) for op in ops]
    errors = [check_output(op, rc, out) for op, (rc, out, _) in zip(ops, pass1)]
    first: dict = {}
    best: dict = {}
    for key, (_, _, dt) in zip(keys, pass1):
        if key in first:
            best[key] = min(best.get(key, dt), dt)
        else:
            first[key] = dt
    for i, (rc, out, dt) in enumerate(pass2, start=n_first):
        error = check_output(ops[i], rc, out)
        if error is None and (rc, out) != pass1[i][:2]:
            error = "second run's stdout or exit code differs from the first"
        errors.append(error)
        best[keys[i]] = min(best.get(keys[i], dt), dt)
    latencies = [best.get(key, first[key]) for key in keys]
    # the workload's mix: its one-off ops and one whole cycle (or as much of
    # it as ran), so that the mix does not depend on how fast the host was
    mix = slice(0, n_first + len(job["cycle"]))
    return {
        "ops": len(errors),
        "errors": [e for e in errors if e is not None],
        "latencies_ms": [s * 1e3 for s in latencies],
        "mix_ops": len(latencies[mix]),
        "cycle_ops": len(latencies[mix]) - n_first,
        "cycle_s": sum(latencies[mix][n_first:]),
        "mix_s": sum(latencies[mix]),
        "mix_cells": sum(op["cells"] for op in ops[mix]),
        "first_runs": first_runs(ops, keys, first, latencies),
    }


def traced_run(runner: Runner, job: dict, check_output) -> dict:
    """A fixed number of ops, each run untraced and traced back to back, so
    that a slow period of the host slows both runs of an op alike.  The order
    alternates between ops, so neither run is always the warmer one."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    ops = [op_at(job, i) for i in range(job["limit"]["ops"])]
    errors, traced_ms, ratios = [], [], []
    for i, op in enumerate(ops):
        runs = {}
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.enable()
                tracer.op = i
            else:
                tracer.disable()
            (runs[traced],), _ = run_ops(runner, job, i, i + 1)
        tracer.disable()
        error = check_output(op, *runs[False][:2])
        if error is None and runs[True][:2] != runs[False][:2]:
            error = "traced stdout or exit code differs from the untraced run"
        errors.append(error)
        traced_ms.append(runs[True][2] * 1e3)
        ratios.append(runs[True][2] / runs[False][2])
    layers = tracer.metrics()
    layers["trace.overhead_pct"] = ((statistics.median(ratios) - 1) * 100, "%")
    tracer.write(job["spans_path"])
    return {
        "ops": 2 * len(ops),
        "errors": [e for e in errors if e is not None],
        "layers": layers,
        "breakdown": tracer.breakdown([op["label"] for op in ops], traced_ms),
    }


def main() -> None:
    proto = sys.stdout
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    runner = Runner()
    from workloads import check_output

    rc, out = runner.run_op(job["warmup"])
    proto.write(json.dumps({"ready": True, "warmup_error": check_output(job["warmup"], rc, out)}) + "\n")
    proto.flush()
    if sys.stdin.readline().strip() != "run":
        return
    report = (traced_run if job["trace"] else timed_run)(runner, job, check_output)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    proto.write(json.dumps(report) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
