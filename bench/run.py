"""exactquery benchmark: one workload per invocation.

    python3 bench/run.py --workload certify|complexity|exact-sim \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  Each
run builds its inputs from --seed, starts fresh worker processes (see
worker.py), checks every output and prints, as the last stdout line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  The line before
it holds provenance and the sample count behind every timing.

--trace 0 reports end-to-end metrics, measured without tracing.  --trace 1
runs a fixed number of ops once untraced and once traced, and reports
per-layer metrics; spans go to .bench_out/.  See NOTES.md for the
workloads and the map from layer metrics to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import TRACE_OPS, WORKLOADS, make_job

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUPS = 5          # fresh workers timed for setup_s; the last one runs the ops
DEADLINE_S = 170    # the whole run, set-up included, ends within this


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process and the line protocol described in worker.py."""

    def __init__(self, job_path: str, deadline: float) -> None:
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("EXACTQUERY_")}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        self.ready = self._line()
        self.setup_s = time.perf_counter() - self.started

    def _line(self) -> dict:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(0.0, self.deadline - time.perf_counter())):
                self.close()
                raise WorkerError("worker did not answer before the deadline")
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise WorkerError(f"worker exited with code {self.proc.wait()} before answering")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def result(self) -> dict:
        self.send("run")
        report = self._line()
        self.close()
        return report

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def prepare(workload: str, seed: int, trace: bool, limit: dict, tag: str) -> tuple[str, str]:
    """Write the job and its input files; returns (job path, work dir)."""
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    job = make_job(workload, seed, workdir)
    job["trace"] = trace
    job["limit"] = limit
    job["spans_path"] = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{tag}.json.gz")
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    return job_path, workdir


def run_job(workload: str, seed: int, trace: bool, limit: dict, tag: str, setups: int, deadline: float) -> dict:
    """Start `setups` fresh workers one after another, timing each one's set-up;
    the last one runs the ops."""
    job_path, workdir = prepare(workload, seed, trace, limit, tag)
    workers = []
    try:
        for _ in range(setups):
            if workers:
                workers[-1].send("quit")
                workers[-1].close()
            workers.append(Worker(job_path, deadline))
        report = workers[-1].result()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = [w.setup_s for w in workers]
    report["warmup_errors"] = [w.ready["warmup_error"] for w in workers if w.ready["warmup_error"]]
    return report


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def git_rev() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def llc_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                        return fh.read().strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "exactquery", "__init__.py")):
        print(f"no exactquery sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            limit = {"ops": TRACE_OPS[args.workload]}
            report = run_job(args.workload, args.seed, True, limit, "trace", 1, deadline)
        else:
            limit = {"seconds": args.seconds}
            report = run_job(args.workload, args.seed, False, limit, "e2e", SETUPS, deadline)
    except WorkerError as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    errors = report["warmup_errors"] + report["errors"]
    attempted = report["ops"] + len(report["setup_s"])
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
        "llc": llc_size(),
        "loop": "closed, one client, one fresh worker process",
        "first_errors": errors[:5],
    }
    if args.trace:
        metrics = report["layers"]
        provenance["samples"] = {
            "ops": report["ops"] // 2,
            "runs_per_op": 2,
            "trace.overhead_pct": "median over ops of traced / untraced latency, run back to back",
        }
        provenance["breakdown"] = report["breakdown"]
    else:
        lat = report["latencies_ms"]
        p, tail_ms = tail(lat)
        metrics = {
            "setup_s": (statistics.median(report["setup_s"]), "s"),
            "op_ms.p50": (statistics.median(lat), "ms"),
            "op_ms.tail": (tail_ms, "ms"),
            "ops_per_s": (report["cycle_ops"] / report["cycle_s"], "1/s"),
            "cells_per_s": (report["mix_cells"] / report["mix_s"], "1/s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        provenance["samples"] = {
            "setup_s": {"samples": len(report["setup_s"]), "stat": "median"},
            "op_ms.p50": {"samples": len(lat), "percentile": 50},
            "op_ms.tail": {"samples": len(lat), "percentile": p},
            "ops_per_s": {"samples": report["cycle_ops"], "over": "one cycle"},
            "cells_per_s": {"samples": report["mix_ops"], "over": "one-off ops and one cycle"},
        }
        provenance["first_run"] = report["first_runs"]
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
