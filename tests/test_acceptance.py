"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every check here is exact (rational equality or integer equality); the only
tolerances are the runtime budgets, asserted with wall-clock measurements.
A pass line per criterion is printed (visible with pytest -s).
"""

import time
from fractions import Fraction

import pytest

from exactquery import boolfn, compose, lowdeg, polynomial, qsim, suites
from exactquery.boolfn import BooleanFunction, InputAssignment, named_function
from exactquery.qsim import ONE, ZERO


def _announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


AND2 = BooleanFunction(2, (0, 0, 0, 1))

A1_TRACE_011 = [
    ("1/2", "1/2", "1/2", "1/2"),
    ("1/2", "-1/2", "1/2", "-1/2"),
    ("1/2", "0", "-1/2 r2", "-1/2"),
    ("-1/2", "0", "1/2 r2", "1/2"),
    ("-1/2", "1/2", "-1/2", "1/2"),
    ("0", "-1", "0", "0"),
]


def test_criterion_1_a1_exactness_and_trace():
    alg = qsim.a1()
    f3 = named_function("F3")

    def run_all():
        for i in range(8):
            final = qsim.simulate(alg, InputAssignment.from_index(3, i))
            assert final.outcome_prob[f3.value_at(i)] == ONE

    run_all()  # warm caches before timing
    elapsed = min(_timed(run_all) for _ in range(3))
    assert elapsed < 1e-3, f"8 exact simulations took {elapsed * 1e3:.3f} ms"

    final = qsim.simulate(alg, "011", trace=True)
    assert [tuple(str(a) for a in s) for s in final.trace] == A1_TRACE_011
    _announce(1, "A1 exact on all inputs, published trace reproduced bit-exactly")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_relabeling_covers_all_symmetric_3var_functions():
    t0 = time.perf_counter()
    alg = qsim.a1()
    full_depth = []
    for choice in range(16):
        table = [0] * 8
        for cls_index in range(4):
            v = (choice >> cls_index) & 1
            table[cls_index] = v
            table[7 ^ cls_index] = v
        f = BooleanFunction(3, table)
        relabeled = qsim.relabel_outputs(alg, f)
        assert relabeled.query_count == 2
        assert qsim.is_exact(relabeled, f)
        if boolfn.deterministic_complexity(f) == 3:
            full_depth.append(f)
    expected = {named_function(f"table1:{i}") for i in range(1, 9)}
    assert set(full_depth) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _announce(2, "all 16 symmetric 3-variable functions exact with 2 queries")


def test_criterion_3_a2_contract_and_table2():
    t0 = time.perf_counter()
    alg = qsim.a2()
    assert alg.query_count == 2
    assert alg.dim == 4
    assert qsim.is_exact(alg, named_function("G4"))
    for i in range(1, 9):
        g = named_function(f"table2:{i}")
        assert qsim.is_exact(qsim.relabel_outputs(alg, g), g)
        assert boolfn.deterministic_complexity(g) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _announce(3, "A2 exact for G4 and every table2 column via relabeling")


def test_criterion_4_composition_gaps():
    t0 = time.perf_counter()
    for i in range(1, 9):
        f1 = named_function(f"table1:{i}")
        report = compose.verify_gap(AND2, f1, qsim.relabel_outputs(qsim.a1(), f1))
        assert report.correct and report.n_inputs == 64
        assert report.max_queries == 4
        assert report.d_exact == 6
        assert report.ratio == Fraction(2, 3)
    for i in range(1, 9):
        g = named_function(f"table2:{i}")
        report = compose.verify_gap(AND2, g, qsim.relabel_outputs(qsim.a2(), g))
        assert report.correct and report.n_inputs == 256
        assert report.max_queries == 4
        assert report.d_exact == 8
        assert report.ratio == Fraction(1, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _announce(4, "2/3 gap over table1 and 1/2 gap over table2, exhaustively")


def test_criterion_5_degree_certificates():
    assert polynomial.degree_of(named_function("F3")) == 2

    budgets = {3: 0.1, 5: 5.0, 7: 120.0}
    expected_witness = {3: 9, 5: 15, 7: 21}
    for k, budget in budgets.items():
        t0 = time.perf_counter()
        report = lowdeg.certify(lowdeg.build_f3k(k), mode="exact")
        elapsed = time.perf_counter() - t0
        assert report.computed_degree == 2 * (k - 1)
        assert report.witness_sensitivity == expected_witness[k]
        assert report.status == "confirmed"
        assert elapsed < budget, f"k={k} took {elapsed:.2f} s"

    t0 = time.perf_counter()
    report = lowdeg.certify(lowdeg.build_f12(), mode="exact")
    elapsed = time.perf_counter() - t0
    assert report.computed_degree == 6
    assert report.witness_sensitivity == 12
    assert report.status == "confirmed"
    assert elapsed < 1.0, f"f12 took {elapsed:.2f} s"
    _announce(5, "degrees 2/4/6/8/12 and all sensitivity witnesses confirmed")


def test_criterion_6_pairing_property_suite():
    t0 = time.perf_counter()
    report = suites.suite_lemma1(count=1000)
    elapsed = time.perf_counter() - t0
    assert report["passed"], report
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _announce(6, "bounds and pairing identities on 512 exhaustive + 1000 random inputs")


def test_criterion_7_collapser_search_and_transcription():
    t0 = time.perf_counter()
    for k in (3, 5, 7, 9):
        values, poly = polynomial.find_collapser(k)
        assert poly.degree == k - 1
        assert set(values) <= {0, 1}
        assert values[0] == 1 and values[1] == 0
        for i, v in enumerate(values):
            assert poly(i) == v
    _, poly3 = polynomial.find_collapser(3)
    assert poly3.coefficients == (Fraction(1), Fraction(-3, 2), Fraction(1, 2))

    transcription = polynomial.collapser_transcription_report(
        polynomial.published_k7_collapser(), 7
    )
    # transcription check only: record the outcome, no pass/fail on the claim
    assert transcription["values"] == ["0", "0", "0", "1", "1", "0", "0", "0"]
    assert transcription["maps_to_01"] is True
    assert transcription["v0_ne_v1"] is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _announce(7, "collapsers for k in {3,5,7,9}; k=7 transcription recorded")


def test_criterion_8_complexity_inequalities():
    t0 = time.perf_counter()
    report = suites.suite_inequalities(count=500)
    elapsed = time.perf_counter() - t0
    assert report["passed"], report
    assert elapsed < 60.0, f"took {elapsed:.2f} s"
    _announce(8, "s <= D and deg <= D on 500 random functions, bounds reported")


def test_criterion_9_iterated_family_arithmetic_and_agreement():
    assert lowdeg.lemma3_params(3, 1) == (27, 8, Fraction(27, 8))
    assert lowdeg.lemma3_params(3, 2)[:2] == (81, 16)
    assert lowdeg.lemma3_params(5, 1)[:2] == (45, 16)

    direct = lowdeg.build_f12().table()
    iterated = lowdeg.iterate_triple(lowdeg.p4_base(), 1).table()
    assert (direct == iterated).all()
    _announce(9, "iterated-family arithmetic and 12-variable agreement (desk scale)")


@pytest.mark.slow
def test_criterion_9_slow_27var_exact_probe():
    t0 = time.perf_counter()
    report = lowdeg.certify(lowdeg.build_lemma3(3, 1))
    elapsed = time.perf_counter() - t0
    assert report.degree_mode == "exact"
    assert report.computed_degree == 8
    assert report.status == "confirmed"
    assert report.witness_sensitivity == 27
    assert elapsed < 600.0, f"took {elapsed:.2f} s"
    _announce(9, "27-variable exact degree 8 confirmed")
