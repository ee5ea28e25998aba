"""Seeded inputs, reference values and output checks for the three workloads.

Everything here runs in the benchmark's parent process, outside any timed
region.  Reference values come from this file's own small implementations,
never from exactquery, so a wrong answer from the program cannot also be the
expected answer.

An op is a JSON-able dict:
  {"kind": "cli", "label": str, "argv": [...], "cells": int, "check": {...}}
  {"kind": "gap", "label": str, "h": [bits], "f1": "table1:3", "alg": "a1", "cells": int, "check": {...}}
A job is {"warmup": op, "first": [ops], "cycle": [ops]}: a pass runs the
ops of "first" once, then those of "cycle" over and over.
"""

from __future__ import annotations

import json
import os
import random
from functools import lru_cache

import numpy as np

WORKLOADS = ("certify", "complexity", "exact-sim")

# Paper facts per family: (n, degree).  f3k(k) has n = 3k and degree 2(k-1);
# f12 has degree 6; lemma3(k, t) triples the arity and doubles the degree t times.
FAMILY_FACTS = {
    "f9": (9, 4),
    "f12": (12, 6),
    "f3k:5": (15, 8),
    "f3k:7": (21, 12),
    "lemma3:3,1": (27, 8),
}

# complexity: ops per round for each table size n.  A pass has about 20 n=13
# ops, so the tail (about the 11th slowest op) sits inside the n=13 group,
# and n=10 plus n=11 fill 25-62% of the ops, so the median sits inside n=11.
COMPLEXITY_ROUND = {10: 2, 11: 3, 12: 2, 13: 1}
COMPLEXITY_CYCLE_ROUNDS = 4

# exact-sim: rounds of nine small gap ops (outer arity, inner fixture, count)
# and 30 single-input simulates: simulates are 77% of ops, so the median is a
# single-input op, and the tail (about the 11th slowest) sits in the upper
# part of the 9-variable (3, table1) group, of which a pass has 60-100.  Four
# rounds make the cycle: each gap op then runs about 15 times in a run, so the
# smallest of its runs rarely falls in a slow phase of the host, and the
# 9-variable group holds 12 distinct ops, whose cost varies 2x with h and f1,
# so the tail does not hang on a few draws.  There are no 12-variable
# compositions: they take 0.4-1.9 s, so they could run only once per run, and
# that one unfiltered run set the spread of cells_per_s.
GAP_ROUND = ((2, "table1", 3), (2, "table2", 3), (3, "table1", 3))
SIMULATES_PER_ROUND = 15  # per algorithm, a1 and a2
EXACT_SIM_CYCLE_ROUNDS = 4

# The traced run does a fixed number of ops, not a timed number, so its counts
# repeat exactly for a seed and its layer times compare across versions.  At
# the seed version a traced run takes under a minute on 2 vCPUs.
TRACE_OPS = {
    "certify": 1 + 8 * 3,
    "complexity": 16 * sum(COMPLEXITY_ROUND.values()),
    "exact-sim": 24 * (sum(c for _, _, c in GAP_ROUND) + 2 * SIMULATES_PER_ROUND),
}


# ---------------------------------------------------------------------------
# Reference implementations (index i: bit n-1-j of i is variable x_{j+1})
# ---------------------------------------------------------------------------

def ref_sensitivity(table: np.ndarray) -> int:
    n = table.size.bit_length() - 1
    idx = np.arange(table.size)
    flips = sum((table != table[idx ^ (1 << j)]).astype(np.int64) for j in range(n))
    return int(flips.max())


def ref_degree(table: np.ndarray) -> int:
    n = table.size.bit_length() - 1
    a = table.astype(np.int64)
    for j in range(n):
        a = a.reshape(-1, 2, 1 << j)
        a[:, 1, :] -= a[:, 0, :]
        a = a.reshape(-1)
    nz = np.flatnonzero(a)
    return max((bin(int(m)).count("1") for m in nz), default=0)


def ref_depth(table: tuple[int, ...]) -> int:
    """Exact decision-tree depth by plain recursion (small n only)."""
    n = len(table).bit_length() - 1

    @lru_cache(maxsize=None)
    def depth(fixed: tuple) -> int:
        values = {
            table[i]
            for i in range(len(table))
            if all(v is None or (i >> (n - 1 - j)) & 1 == v for j, v in enumerate(fixed))
        }
        if len(values) == 1:
            return 0
        return min(
            1 + max(depth(fixed[:j] + (b,) + fixed[j + 1:]) for b in (0, 1))
            for j, v in enumerate(fixed)
            if v is None
        )

    return depth((None,) * n)


def f3(bits: str) -> int:
    x1, x2, x3 = (int(b) for b in bits)
    return int(x1 == x2 and x1 != x3)


def g4(bits: str) -> int:
    x1, x2, x3, x4 = (int(b) for b in bits)
    return int(x1 != x2 and x3 != x4)


# ---------------------------------------------------------------------------
# Job generation
# ---------------------------------------------------------------------------

def _construct_op(family: str) -> dict:
    n, degree = FAMILY_FACTS[family]
    return {
        "kind": "cli",
        "label": family,
        "argv": ["construct", "--family", family, "--emit", "report"],
        "cells": 1 << n,
        "check": {"type": "certify", "n": n, "degree": degree},
    }


def _certify_job(rng: random.Random) -> dict:
    # One lemma3:3,1 per run (about 10 s, mostly its 2^27 transform), then
    # rounds of two f3k:7 and one of f9, f12, f3k:5 in seeded order: f3k:7 ops
    # are two thirds of the ops, so the median and the tail are f3k:7 ops.
    cycle = []
    for _ in range(3):
        small = ["f9", "f12", "f3k:5"]
        rng.shuffle(small)
        for family in small:
            round_ = ["f3k:7", "f3k:7", family]
            rng.shuffle(round_)
            cycle += round_
    return {
        "warmup": _construct_op("f9"),
        "first": [_construct_op("lemma3:3,1")],
        "cycle": [_construct_op(f) for f in cycle],
    }


def _write_table(workdir: str, name: str, table: np.ndarray) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": table.size.bit_length() - 1, "table_hex": np.packbits(table).tobytes().hex()}, fh)
    return path


def _analyze_op(workdir: str, name: str, table: np.ndarray) -> dict:
    n = table.size.bit_length() - 1
    return {
        "kind": "cli",
        "label": f"analyze:n{n}",
        "argv": ["analyze", _write_table(workdir, name, table), "--dcap", str(n)],
        "cells": 1 << n,
        "check": {
            "type": "analyze",
            "n": n,
            "sensitivity": ref_sensitivity(table),
            "degree": ref_degree(table),
            "complement_symmetric": bool(np.array_equal(table, table[::-1])),
        },
    }


def _random_table(gen: np.random.Generator, n: int, symmetric: bool) -> np.ndarray:
    table = gen.integers(0, 2, 1 << n, dtype=np.uint8)
    if symmetric:
        half = 1 << (n - 1)
        table[half:] = table[:half][::-1]
    return table


def _complexity_job(rng: random.Random, gen: np.random.Generator, workdir: str) -> dict:
    cycle = []
    for r in range(COMPLEXITY_CYCLE_ROUNDS):
        round_ = []
        for n, count in COMPLEXITY_ROUND.items():
            for c in range(count):
                # every other table is complement-symmetric, so both answers occur
                table = _random_table(gen, n, symmetric=(r + c) % 2 == 1)
                round_.append(_analyze_op(workdir, f"r{r}_n{n}_{c}.json", table))
        rng.shuffle(round_)
        cycle += round_
    warm = _random_table(gen, 8, symmetric=False)
    return {"warmup": _analyze_op(workdir, "warmup.json", warm), "first": [], "cycle": cycle}


def _full_depth_outer(gen: np.random.Generator, n: int) -> list[int]:
    while True:
        table = tuple(int(v) for v in gen.integers(0, 2, 1 << n))
        if ref_depth(table) == n:
            return list(table)


def _gap_op(gen: np.random.Generator, hn: int, fixture: str) -> dict:
    m = 3 if fixture == "table1" else 4
    total = hn * m
    return {
        "kind": "gap",
        "label": f"gap:{hn}x{fixture}",
        "h": _full_depth_outer(gen, hn),
        "f1": f"{fixture}:{int(gen.integers(1, 9))}",
        "alg": "a1" if fixture == "table1" else "a2",
        "cells": 1 << total,
        "check": {"type": "gap", "hn": hn, "m": m},
    }


def _simulate_op(alg: str, bits: str) -> dict:
    expected = f3(bits) if alg == "a1" else g4(bits)
    return {
        "kind": "cli",
        "label": f"simulate:{alg}",
        "argv": ["simulate", "--alg", f"builtin:{alg}", "--input", bits, "--trace"],
        "cells": 1,
        "check": {"type": "simulate", "outcome": expected},
    }


def _exact_sim_job(rng: random.Random, gen: np.random.Generator) -> dict:
    cycle = []
    for _ in range(EXACT_SIM_CYCLE_ROUNDS):
        round_ = [_gap_op(gen, hn, fixture) for hn, fixture, count in GAP_ROUND for _ in range(count)]
        for alg, n in (("a1", 3), ("a2", 4)):
            for _ in range(SIMULATES_PER_ROUND):
                round_.append(_simulate_op(alg, format(rng.randrange(1 << n), f"0{n}b")))
        rng.shuffle(round_)
        cycle += round_
    return {"warmup": _gap_op(gen, 2, "table1"), "first": [], "cycle": cycle}


def make_job(workload: str, seed: int, workdir: str) -> dict:
    """The job for one run; the same seed gives the same job."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    if workload == "certify":
        return _certify_job(rng)
    if workload == "complexity":
        return _complexity_job(rng, gen, workdir)
    if workload == "exact-sim":
        return _exact_sim_job(rng, gen)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks: the paper's facts, not byte-identical reports
# ---------------------------------------------------------------------------

def check_output(op: dict, rc: int, out: str) -> str | None:
    """None when the output is right, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    c = op["check"]
    kind = c["type"]
    if kind == "certify":
        want = {
            "n": c["n"],
            "claimed_degree": c["degree"],
            "computed_degree": c["degree"],
            "witness_sensitivity": c["n"],
            "status": "confirmed",
        }
    elif kind == "analyze":
        s, deg, d = doc.get("sensitivity"), doc.get("degree"), doc.get("d_exact")
        if not all(isinstance(v, int) for v in (s, deg, d)):
            return f"missing measures in {doc}"
        if not (s <= d and deg <= d <= c["n"]):
            return f"inequality s <= D, deg <= D <= n fails: s={s} deg={deg} D={d}"
        want = {
            "n": c["n"],
            "sensitivity": c["sensitivity"],
            "degree": c["degree"],
            "complement_symmetric": c["complement_symmetric"],
            "d_lower": max(c["sensitivity"], c["degree"]),
            "qe_lower": (c["degree"] + 1) // 2,
        }
    elif kind == "simulate":
        outcome = c["outcome"]
        want = {"outcome": outcome}
        if doc.get("probabilities", {}).get(str(outcome)) != "1":
            return f"probability of outcome {outcome} is not exactly 1: {doc.get('probabilities')}"
    elif kind == "gap":
        hn, m = c["hn"], c["m"]
        want = {"correct": True, "max_queries": 2 * hn, "d_exact": hn * m, "n_inputs": 1 << (hn * m)}
    else:
        return f"unknown check {kind!r}"
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key} is {doc.get(key)!r}, expected {value!r}"
    return None
