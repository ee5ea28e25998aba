"""Check that the traced work counts repeat exactly between runs with one seed.

    python3 bench/check_counts.py --seed N

For each workload, makes the traced run of run.py twice with the same seed
and compares the counts.  Prints one JSON line per workload and exits 1 if
any count differs or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
from workloads import TRACE_OPS, WORKLOADS

COUNTED = (
    "boolfn.dp_states",
    "polynomial.transform_cells",
    "polynomial.transform_bytes",
    "lowdeg.table_cells",
    "qsim.simulate.calls",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        counts = []
        for tag in ("counts-a", "counts-b"):
            deadline = time.perf_counter() + run.DEADLINE_S
            limit = {"ops": TRACE_OPS[workload]}
            report = run.run_job(workload, args.seed, True, limit, tag, 1, deadline)
            errors = report["warmup_errors"] + report["errors"]
            if errors:
                print(f"{workload}: {len(errors)} failed ops, first: {errors[0]}", file=sys.stderr)
                ok = False
            counts.append({name: report["layers"][name][0] for name in COUNTED})
        repeat = counts[0] == counts[1]
        ok = ok and repeat
        print(json.dumps({"workload": workload, "seed": args.seed, "repeat": repeat, "counts": counts[0]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
