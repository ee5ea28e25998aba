"""Named verification suites behind the CLI's `verify` command.

Each suite returns a JSON-ready dict with per-check entries and an overall
flag.  Randomized suites take a seed and are deterministic for a given seed,
so CLI output stays byte-identical across runs.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from . import boolfn, compose, lowdeg, polynomial, qsim
from .boolfn import BooleanFunction, InputAssignment

DEFAULT_SEED = 977


def _check(name: str, expected, actual) -> dict:
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def _finish(name: str, checks: list[dict], extra: Optional[dict] = None) -> dict:
    report = {
        "suite": name,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
    if extra:
        report.update(extra)
    return report


# ---------------------------------------------------------------------------
# Fixture suites
# ---------------------------------------------------------------------------

_A1_TRACE_ON_011 = (
    ("1/2", "1/2", "1/2", "1/2"),
    ("1/2", "-1/2", "1/2", "-1/2"),
    ("1/2", "0", "-1/2 r2", "-1/2"),
    ("-1/2", "0", "1/2 r2", "1/2"),
    ("-1/2", "1/2", "-1/2", "1/2"),
    ("0", "-1", "0", "0"),
)


def suite_a1() -> dict:
    alg = qsim.a1()
    f3 = boolfn.named_function("F3")
    checks = [
        _check("query_count", 2, alg.query_count),
        _check("dim", 4, alg.dim),
        _check("exact_for_F3_on_all_8_inputs", True, qsim.is_exact(alg, f3)),
    ]
    final = qsim.simulate(alg, "011", trace=True)
    trace = tuple(tuple(str(a) for a in state) for state in final.trace)
    checks.append(_check("trace_on_011", list(map(list, _A1_TRACE_ON_011)), list(map(list, trace))))
    checks.append(_check("outcome_on_011", 0, final.deterministic_outcome()))
    return _finish("a1", checks)


def suite_a2() -> dict:
    alg = qsim.a2()
    g4 = boolfn.named_function("G4")
    checks = [
        _check("query_count", 2, alg.query_count),
        _check("dim", 4, alg.dim),
        _check("exact_for_G4_on_all_16_inputs", True, qsim.is_exact(alg, g4)),
        _check(
            "outcome_on_0101",
            1,
            qsim.simulate(alg, "0101").deterministic_outcome(),
        ),
    ]
    return _finish("a2", checks)


def suite_table1() -> dict:
    computed = boolfn.enumerate_complement_symmetric_full_d(3)
    expected = [boolfn.named_function(f"table1:{i}") for i in range(1, 9)]
    checks = [
        _check("count", 8, len(computed)),
        _check(
            "tables_bit_identical",
            sorted(f.packed().hex() for f in expected),
            sorted(f.packed().hex() for f in computed),
        ),
    ]
    return _finish("table1", checks)


def suite_table2() -> dict:
    computed = boolfn.enumerate_complement_symmetric_full_d(4)
    computed_set = {f.packed() for f in computed}
    checks = []
    for i in range(1, 9):
        g = boolfn.named_function(f"table2:{i}")
        checks.append(_check(f"table2:{i}_in_computed_set", True, g.packed() in computed_set))
        checks.append(_check(f"table2:{i}_depth", 4, boolfn.deterministic_complexity(g)))
        checks.append(
            _check(f"table2:{i}_complement_symmetric", True, boolfn.complement_symmetric(g))
        )
    return _finish("table2", checks, {"computed_set_size": len(computed)})


def suite_relabel3() -> dict:
    alg = qsim.a1()
    checks = []
    count = 0
    for f in boolfn.complement_symmetric_functions(3):
        relabeled = qsim.relabel_outputs(alg, f)
        ok = qsim.is_exact(relabeled, f) and relabeled.query_count == 2
        count += ok
    checks.append(_check("exact_relabelings_of_16_symmetric_functions", 16, count))
    return _finish("relabel3", checks)


def suite_relabel4() -> dict:
    alg = qsim.a2()
    checks = []
    for i in range(1, 9):
        g = boolfn.named_function(f"table2:{i}")
        relabeled = qsim.relabel_outputs(alg, g)
        checks.append(
            _check(
                f"table2:{i}_relabeled_exact_2_queries",
                (True, 2),
                (qsim.is_exact(relabeled, g), relabeled.query_count),
            )
        )
    return _finish("relabel4", checks)


def suite_compose() -> dict:
    and2 = BooleanFunction(2, (0, 0, 0, 1))
    checks = []
    for fixture, algorithm, d_exact, ratio in (
        ("table1", qsim.a1, 6, "2/3"),
        ("table2", qsim.a2, 8, "1/2"),
    ):
        for i in range(1, 9):
            f1 = boolfn.named_function(f"{fixture}:{i}")
            inner = qsim.relabel_outputs(algorithm(), f1)
            report = compose.verify_gap(and2, f1, inner)
            checks.append(
                _check(
                    f"and2_of_{fixture}:{i}",
                    {"correct": True, "max_queries": 4, "d_exact": d_exact, "ratio": ratio},
                    {
                        "correct": report.correct,
                        "max_queries": report.max_queries,
                        "d_exact": report.d_exact,
                        "ratio": str(report.ratio),
                    },
                )
            )
    return _finish("compose", checks)


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

def _pairing_checks(x: InputAssignment, part: lowdeg.GroupPartition) -> dict:
    """Evaluate every pairing identity on one (partition, input) pair."""
    k1, k2, k3 = lowdeg.group_weights(x, part)
    pairs = lowdeg.connection_pairs(x, part)
    value = lowdeg.connection_value(x, part)
    legal = True
    partner_count: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        gu, gv = part.assignment[u], part.assignment[v]
        if gu == gv or not (x.bits[u] and x.bits[v]):
            legal = False
        partner_count[(u, gv)] = partner_count.get((u, gv), 0) + 1
        partner_count[(v, gu)] = partner_count.get((v, gu), 0) + 1
    if any(c > 1 for c in partner_count.values()):
        legal = False
    return {
        "bound": 0 <= value <= max(part.sizes),
        "value_is_weight_spread": value == k1 - k3,
        "value_matches_pair_deficit": value == sum(x.bits) - len(pairs),
        "pair_count": len(pairs) == 2 * k3 + k2,
        "pairing_legal": legal,
    }


def suite_lemma1(count: int = 1000, seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    failures = []
    tested = 0

    part9 = lowdeg.GroupPartition.equal(3)
    for i in range(1 << 9):
        x = InputAssignment.from_index(9, i)
        result = _pairing_checks(x, part9)
        tested += 1
        if not all(result.values()):
            failures.append({"partition": "3+3+3", "input": str(x), "failed": result})

    for _ in range(count):
        sizes = [rng.randint(1, 6) for _ in range(3)]
        assignment = [g for g, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(assignment)
        part = lowdeg.GroupPartition(tuple(assignment))
        bits = tuple(rng.randint(0, 1) for _ in range(part.n))
        x = InputAssignment(part.n, bits)
        result = _pairing_checks(x, part)
        tested += 1
        if not all(result.values()):
            failures.append(
                {"partition": assignment, "input": str(x), "failed": result}
            )

    checks = [
        _check("pairs_tested", 512 + count, tested),
        _check("violations", [], failures),
    ]
    return _finish("lemma1", checks)


def suite_lemma2(k: int) -> dict:
    cf = lowdeg.build_f3k(k)
    report = lowdeg.certify(cf, mode="exact")
    checks = [
        _check("claimed_degree", 2 * (k - 1), cf.claimed_degree),
        _check("computed_degree", 2 * (k - 1), report.computed_degree),
        _check("witness_sensitivity", 3 * k, report.witness_sensitivity),
        _check("status", "confirmed", report.status),
    ]
    return _finish(f"lemma2:{k}", checks, {"report": report.to_json_dict()})


def suite_example1() -> dict:
    checks = [
        _check(
            "base_cubic_range_01",
            True,
            all(lowdeg.p4_eval(InputAssignment.from_index(4, i).bits) in (0, 1) for i in range(16)),
        )
    ]
    report = lowdeg.certify(lowdeg.build_f12(), mode="exact")
    checks += [
        _check("computed_degree", 6, report.computed_degree),
        _check("witness_sensitivity", 12, report.witness_sensitivity),
        _check("status", "confirmed", report.status),
    ]
    return _finish("example1", checks, {"report": report.to_json_dict()})


def suite_lemma3(k: int, t: int) -> dict:
    cf = lowdeg.build_lemma3(k, t)  # first: it caps t before 3^(t+1) is computed
    n, deg, _ = lowdeg.lemma3_params(k, t)
    report = lowdeg.certify(cf, mode="composition")
    checks = [
        _check("arity", n, report.n),
        _check("computed_degree", deg, report.computed_degree),
        _check("witness_sensitivity", n, report.witness_sensitivity),
        _check("status", "confirmed", report.status),
    ]
    # the composition data the certificate multiplies out agrees with the
    # 4-variable cubic collapsed by hand: S = 1,0,0,1 of its three block values
    hand = [
        (1, 0, 0, 1)[sum(lowdeg.p4_eval(bits[4 * b : 4 * b + 4]) for b in range(3))]
        for bits in (InputAssignment.from_index(12, i).bits for i in range(1 << 12))
    ]
    iterated = lowdeg.iterate_triple(lowdeg.p4_base(), 1).table().tolist()
    checks.append(_check("triple_iteration_matches_hand_composition", True, iterated == hand))
    return _finish(f"lemma3:{k},{t}", checks, {"report": report.to_json_dict()})


def suite_inequalities(count: int = 500, seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    violations = []
    tested = 0
    for index in range(count):
        n = rng.randint(3, 10)
        table = [rng.randint(0, 1) for _ in range(1 << n)]
        f = BooleanFunction(n, table)
        s = boolfn.sensitivity(f)
        deg = polynomial.degree_of(f)
        d = boolfn.deterministic_complexity(f)
        tested += 1
        ok = s <= d and deg <= d and d <= n
        if not ok:
            violations.append(
                {"index": index, "n": n, "s": s, "deg": deg, "d": d, "qe_lower": (deg + 1) // 2}
            )
    checks = [
        _check("functions_tested", count, tested),
        _check("violations", [], violations),
    ]
    return _finish("inequalities", checks)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class UnknownSuite(ValueError):
    """A suite name that names no suite."""


# keyed by boolfn.parse_spec usage, in the order the unknown-suite message lists them
_SUITES: dict[str, Callable[..., dict]] = {
    "a1": suite_a1,
    "a2": suite_a2,
    "table1": suite_table1,
    "table2": suite_table2,
    "relabel3": suite_relabel3,
    "relabel4": suite_relabel4,
    "compose": suite_compose,
    "example1": suite_example1,
    "lemma1": suite_lemma1,
    "inequalities": suite_inequalities,
    "lemma2:K": suite_lemma2,
    "lemma3:K,T": suite_lemma3,
}
_SAMPLED = ("lemma1", "inequalities")


def run_suite(spec: str, count: Optional[int] = None, seed: Optional[int] = None) -> dict:
    """Dispatch by suite name; parametric suites use name:args syntax.

    Only the sampled suites (lemma1, inequalities) take ``count`` and
    ``seed``; None keeps the suite's default.  Raises ``UnknownSuite`` for a
    name it does not know, and ``ValueError`` when a known suite rejects its
    parameters, ``count`` is not positive, or a fixed suite is given
    ``count`` or ``seed``.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    options = {key: value for key, value in (("count", count), ("seed", seed)) if value is not None}
    usage, params = boolfn.parse_spec(spec, _SUITES) or ("", [])
    if not usage:
        raise UnknownSuite(f"{spec!r}; suites are {', '.join(_SUITES)}")
    if usage in _SAMPLED:
        return _SUITES[usage](**options)
    if options:
        raise ValueError(
            f"takes no {' or '.join(options)}; only {' and '.join(_SAMPLED)} are sampled"
        )
    return _SUITES[usage](*params)
