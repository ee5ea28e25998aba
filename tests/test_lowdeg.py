"""Group partitions, pairings and the low-degree construction families."""

import random
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from exactquery.boolfn import BooleanFunction, InputAssignment, coerce_input
from exactquery import lowdeg, polynomial
from exactquery.lowdeg import (
    Compose,
    GroupPartition,
    build_f3k,
    build_f9,
    build_f12,
    build_lemma3,
    certify,
    connection_pairs,
    connection_value,
    group_weights,
    iterate_triple,
    lemma3_params,
    p4_base,
    p4_eval,
    witness_sensitivity,
)
from exactquery.polynomial import degree_of, fit_range_polynomial


def random_partition(rng, max_size=6):
    sizes = [rng.randint(1, max_size) for _ in range(3)]
    assignment = [g for g, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(assignment)
    return GroupPartition(tuple(assignment))


def random_input(rng, n):
    return InputAssignment(n, tuple(rng.randint(0, 1) for _ in range(n)))


# ---------------------------------------------------------------------------
# Partitions and pairings
# ---------------------------------------------------------------------------

def test_partition_basics():
    part = GroupPartition.contiguous(2, 3, 1)
    assert part.n == 6
    assert part.sizes == (2, 3, 1)
    assert part.groups == ((0, 1), (2, 3, 4), (5,))
    with pytest.raises(ValueError):
        GroupPartition((0, 0, 1, 1))  # group 2 empty
    with pytest.raises(ValueError):
        GroupPartition.contiguous(2, 0, 1)


FIG5_INPUT = "110011100"  # ones at variables 1,2,5,6,7 (1-based)
PART9 = GroupPartition.equal(3)


def test_connection_value_fixtures():
    assert group_weights(FIG5_INPUT, PART9) == (2, 2, 1)
    assert connection_value(FIG5_INPUT, PART9) == 1
    assert connection_value("0" * 9, PART9) == 0
    assert connection_value("1" * 9, PART9) == 0


def test_connection_pairs_fixtures():
    pairs = connection_pairs(FIG5_INPUT, PART9)
    assert len(pairs) == 4
    assert connection_pairs("0" * 9, PART9) == ()
    triangle = connection_pairs("100100100", PART9)
    assert set(triangle) == {(0, 3), (0, 6), (3, 6)}


def test_pairing_identities_random():
    rng = random.Random(97)
    for _ in range(300):
        part = random_partition(rng)
        x = random_input(rng, part.n)
        k1, k2, k3 = group_weights(x, part)
        pairs = connection_pairs(x, part)
        value = connection_value(x, part)
        assert len(pairs) == 2 * k3 + k2
        assert value == k1 - k3
        assert value == sum(x.bits) - len(pairs)
        assert 0 <= value <= max(part.sizes)
        partner_groups: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            assert part.assignment[u] != part.assignment[v]
            assert x.bits[u] == 1 and x.bits[v] == 1
            for point, other in ((u, part.assignment[v]), (v, part.assignment[u])):
                key = (point, other)
                partner_groups[key] = partner_groups.get(key, 0) + 1
                assert partner_groups[key] == 1


def test_connection_value_invariant_under_group_relabeling():
    rng = random.Random(101)
    for _ in range(50):
        part = random_partition(rng)
        x = random_input(rng, part.n)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        relabeled = GroupPartition(tuple(perm[g] for g in part.assignment))
        assert connection_value(x, part) == connection_value(x, relabeled)


def test_lemma1_bound_exhaustive_equal_groups():
    for i in range(1 << 9):
        x = InputAssignment.from_index(9, i)
        assert 0 <= connection_value(x, PART9) <= 3


def test_partition_mismatch():
    with pytest.raises(ValueError):
        connection_value("0101", PART9)


# ---------------------------------------------------------------------------
# The fixed connection graph
# ---------------------------------------------------------------------------

def base_connection_graph(part):
    """The canonical pairing of the fully-colored configuration.

    For three equal groups this is a disjoint triangle per position, one
    vertex in each group.  Fixing this graph turns the colored-minus-paired
    count into a genuine quadratic polynomial; on inputs whose colored points
    pack the leading positions of every group its value coincides with
    connection_value.
    """
    return connection_pairs(InputAssignment(part.n, (1,) * part.n), part)


def fixed_pairing_value(x, part):
    """|x| minus the number of base-graph connections with both ends colored."""
    x = coerce_input(x, part.n)
    return sum(x.bits) - sum(x.bits[u] & x.bits[v] for u, v in base_connection_graph(part))


def test_base_graph_is_position_triangles():
    graph = base_connection_graph(GroupPartition.equal(3))
    assert set(graph) == {
        (0, 3), (0, 6), (3, 6),
        (1, 4), (1, 7), (4, 7),
        (2, 5), (2, 8), (5, 8),
    }


def test_fixed_pairing_matches_spread_on_prefix_packed_inputs():
    rng = random.Random(103)
    for k in (3, 5):
        part = GroupPartition.equal(k)
        for _ in range(40):
            weights = [rng.randint(0, k) for _ in range(3)]
            bits = []
            for w in weights:
                bits += [1] * w + [0] * (k - w)
            x = InputAssignment(3 * k, tuple(bits))
            assert fixed_pairing_value(x, part) == connection_value(x, part)


def test_fixed_pairing_range():
    rng = random.Random(107)
    part = GroupPartition.equal(3)
    for _ in range(100):
        x = random_input(rng, 9)
        assert 0 <= fixed_pairing_value(x, part) <= 3


# ---------------------------------------------------------------------------
# The 3k-variable family
# ---------------------------------------------------------------------------

def reference_f3k_value(x, k, values):
    """Direct per-triangle recount, bypassing the package evaluator."""
    total = 0
    for pos in range(k):
        t = x.bits[pos] + x.bits[k + pos] + x.bits[2 * k + pos]
        total += t - comb(t, 2)
    return values[total]


def collapser(k):
    """V_k: 1 exactly at 0 and k."""
    return (1,) + (0,) * (k - 1) + (1,)


def test_f3k_table_matches_reference():
    for k in (3, 5):
        cf = build_f3k(k)
        assert tuple(cf.params["collapser_values"]) == collapser(k)
        table = cf.table()
        for i in range(1 << cf.n):
            x = InputAssignment.from_index(cf.n, i)
            assert table[i] == reference_f3k_value(x, k, collapser(k))
            assert cf.value_at(i) == table[i]


def test_f3k_blocks_are_base_graph_triangles():
    for k in (3, 5, 7, 15):
        blocks = build_f3k(k).structure.blocks
        pairs = {pair for block in blocks for pair in combinations(sorted(block), 2)}
        assert pairs == set(base_connection_graph(GroupPartition.equal(k)))
        assert sorted(var for block in blocks for var in block) == list(range(3 * k))


def test_large_tables_match_reference_on_samples():
    rng = np.random.default_rng(113)
    table = build_f3k(7).table()
    for i in rng.integers(0, 1 << 21, 4096):
        x = InputAssignment.from_index(21, int(i))
        assert table[i] == reference_f3k_value(x, 7, collapser(7))
    # lemma3(3, 1) = S(f9, f9, f9) on three contiguous blocks, S = 1,0,0,1
    table = build_lemma3(3, 1).table()
    for i in rng.integers(0, 1 << 27, 4096):
        bits = InputAssignment.from_index(27, int(i)).bits
        total = sum(
            reference_f3k_value(InputAssignment(9, bits[9 * b : 9 * b + 9]), 3, collapser(3))
            for b in range(3)
        )
        assert table[i] == collapser(3)[total]


def test_f3k_claims():
    for k, n in ((3, 9), (5, 15), (7, 21)):
        cf = build_f3k(k)
        assert cf.n == n
        assert cf.claimed_degree == 2 * (k - 1)
        assert cf.witness_input == (0,) * n
        assert cf.value_at(0) == 1


def test_f3k_validation():
    with pytest.raises(ValueError):
        build_f3k(4)
    with pytest.raises(ValueError):
        build_f3k(17)


def test_f3k_witness_sensitivity():
    assert witness_sensitivity(build_f3k(3)) == 9
    assert witness_sensitivity(build_f3k(5)) == 15


def test_f9_certification():
    report = certify(build_f9(), mode="exact")
    assert report.computed_degree == 4
    assert report.witness_sensitivity == 9
    assert report.status == "confirmed"
    assert report.qe_lower == 2
    assert report.degree_mode == "exact"


def test_f3k_symmetries():
    """Swapping whole groups or permuting positions in lockstep is invisible."""
    rng = random.Random(109)
    k = 3
    cf = build_f3k(k)
    for _ in range(50):
        x = random_input(rng, 3 * k)
        gperm = [0, 1, 2]
        rng.shuffle(gperm)
        pperm = list(range(k))
        rng.shuffle(pperm)
        permuted = [0] * (3 * k)
        for g in range(3):
            for pos in range(k):
                permuted[gperm[g] * k + pperm[pos]] = x.bits[g * k + pos]
        y = InputAssignment(3 * k, tuple(permuted))
        assert cf.evaluate(x) == cf.evaluate(y)


def test_f3k_7_records_transcription_substitution():
    cf = build_f3k(7)
    assert cf.params["collapser"] == "search"
    assert cf.params["collapser_values"] == [1, 0, 0, 0, 0, 0, 0, 1]
    assert any("p(0) == p(1)" in note for note in cf.notes)


def test_f3k_7_builds_and_certifies_without_a_collapser_fit(monkeypatch):
    # the collapser is searched in integers; only fit-collapser fits it
    def no_fit(values):
        raise AssertionError("fit_range_polynomial called")

    monkeypatch.setattr(polynomial, "fit_range_polynomial", no_fit)
    cf = build_f3k(7)
    assert cf.params["collapser_values"] == [1, 0, 0, 0, 0, 0, 0, 1]
    report = certify(cf)
    assert (report.degree_mode, report.computed_degree, report.status) == ("exact", 12, "confirmed")


def test_f45_composition_certification():
    cf = build_f3k(15)
    assert cf.n == 45
    assert cf.claimed_degree == 28
    report = certify(cf)
    assert report.degree_mode == "composition"
    assert report.computed_degree == 28
    assert report.degree_reason == "product of part degrees 14 x 2"
    assert report.witness_sensitivity == 45
    assert report.status == "confirmed"
    # pointwise evaluation still works at this size
    assert cf.value_at(0) == 1
    assert cf.value_at(1 << 44) == 0


# ---------------------------------------------------------------------------
# The 4-variable cubic and the 12-variable function
# ---------------------------------------------------------------------------

def test_p4_fixture_values():
    assert p4_eval("0000") == 0
    assert p4_eval("1111") == 0
    assert p4_eval("0111") == 1
    assert all(p4_eval(InputAssignment.from_index(4, i)) in (0, 1) for i in range(16))


def test_f12_fixture_values():
    cf = build_f12()
    assert cf.evaluate("1" * 12) == 1
    assert witness_sensitivity(cf) == 12


def test_f12_certification():
    report = certify(build_f12(), mode="exact")
    assert report.computed_degree == 6
    assert report.witness_sensitivity == 12
    assert report.status == "confirmed"


_INNER3 = (0, 1, 0, 0, 0, 1, 1, 1)  # changes when its variables are reversed
NON_CONSECUTIVE = {
    "each-block-reversed": Compose((1, 0, 1, 1), _INNER3, ((2, 1, 0), (5, 4, 3), (8, 7, 6))),
    "interleaved": Compose((1, 0, 1, 1), _INNER3, ((0, 4, 8), (3, 7, 2), (6, 1, 5))),
    "nested": Compose(
        (0, 1, 1),
        Compose((1, 0, 1), (0, 1, 0, 0), ((0, 2), (1, 3))),
        ((3, 2, 1, 0), (7, 6, 5, 4)),
    ),
}


def _value_at(f, i):
    """Scalar reference: the value of a truth table or a composition at input
    index i, by recursion over Python integers."""
    if isinstance(f, tuple):
        return f[i]
    total = 0
    for block in f.blocks:
        j = 0
        for var in block:
            j = (j << 1) | ((i >> (f.n - 1 - var)) & 1)
        total += _value_at(f.inner, j)
    return f.outer[total]


def _reference_sensitivity(cf):
    i = coerce_input(cf.witness_input, cf.n).index
    v = _value_at(cf.structure, i)
    return sum(_value_at(cf.structure, i ^ (1 << var)) != v for var in range(cf.n))


def _input_bits(n, start, stop):
    """The (stop - start, n) 0/1 matrix of inputs start..stop-1, x1 first."""
    index = np.arange(start, stop)[:, None]
    return ((index >> (n - 1 - np.arange(n))) & 1).astype(np.uint8)


@pytest.mark.parametrize("build", [build_f9, lambda: build_f3k(5), lambda: build_f3k(7), build_f12, p4_base],
                         ids=["f9", "f3k:5", "f3k:7", "f12", "p4"])
def test_values_match_table_on_every_input(build):
    cf = build()
    table = lowdeg._table(cf.structure)
    for start in range(0, 1 << cf.n, 1 << 16):  # 2^16 rows at a time
        stop = min(start + (1 << 16), 1 << cf.n)
        assert np.array_equal(lowdeg._values(cf.structure, _input_bits(cf.n, start, stop)), table[start:stop])


@pytest.mark.parametrize(
    "build",
    [*(lambda k=k: build_f3k(k) for k in range(3, 16, 2)), build_f12,
     lambda: build_lemma3(3, 1), lambda: build_lemma3(3, 2)],
    ids=[*(f"f3k:{k}" for k in range(3, 16, 2)), "f12", "lemma3:3,1", "lemma3:3,2"],
)
def test_witness_sensitivity_matches_scalar_reference(build):
    cf = build()
    assert witness_sensitivity(cf) == _reference_sensitivity(cf) == cf.n


def test_witness_sensitivity_peak_memory_at_the_cap():
    # lemma3:15,4, n = MAX_ITERATED_N = 3645: the (n+1, n) uint8 bit matrix
    # is 13.3 MB; the leaf gathers add about 9 MB more
    cf = build_lemma3(15, 4)
    assert cf.n == lowdeg.MAX_ITERATED_N
    tracemalloc.start()
    try:
        ws = witness_sensitivity(cf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws == cf.n
    assert peak <= 32_000_000


def test_value_at_rejects_out_of_range_index():
    cf = build_f3k(3)
    for i in (512, -1):
        with pytest.raises(ValueError, match="out of range"):
            cf.value_at(i)


@pytest.mark.parametrize("f", NON_CONSECUTIVE.values(), ids=NON_CONSECUTIVE.keys())
def test_compose_table_non_consecutive_blocks(f):
    expected = [_value_at(f, i) for i in range(1 << f.n)]
    assert lowdeg._table(f).tolist() == expected
    assert lowdeg._values(f, _input_bits(f.n, 0, 1 << f.n)).tolist() == expected
    for m in range(f.n + 1):
        for start in range(0, 1 << f.n, 1 << m):
            part = lowdeg._table(f, start, start + (1 << m))
            assert part.tolist() == expected[start : start + (1 << m)]


@pytest.mark.parametrize("build", [build_f9, build_f12, lambda: build_f3k(5), lambda: build_f3k(7)],
                         ids=["f9", "f12", "f3k:5", "f3k:7"])
def test_table_ranges_match_whole_table(build):
    # ranges of 2^m entries, m = 0..n: every one of a size with at most
    # 1024 of them, else 64 seeded ones
    cf = build()
    table = cf.table()
    rng = np.random.default_rng(cf.n)
    for m in range(cf.n + 1):
        count = 1 << (cf.n - m)
        starts = range(count) if count <= 1024 else rng.integers(0, count, 64)
        for start in (int(s) << m for s in starts):
            part = cf.table(start, start + (1 << m))
            assert np.array_equal(part, table[start : start + (1 << m)]), (cf.family, m, start)


def test_lemma3_table_ranges_match_whole_table():
    # the row blocks certify reads (2^19 entries), then seeded ranges of
    # every size up to 2^20
    cf = build_lemma3(3, 1)
    table = cf.table()
    rng = np.random.default_rng(127)
    for start in rng.integers(0, 1 << 8, 8):
        start = int(start) << 19
        part = cf.table(start, start + (1 << 19))
        assert np.array_equal(part, table[start : start + (1 << 19)])
    for m in range(21):
        for start in rng.integers(0, 1 << (27 - m), 4):
            start = int(start) << m
            part = cf.table(start, start + (1 << m))
            assert np.array_equal(part, table[start : start + (1 << m)])


def test_f12_table_matches_hand_composition():
    cf = build_f12()
    table = cf.table()
    for i in range(1 << 12):
        bits = InputAssignment.from_index(12, i).bits
        total = sum(p4_eval(bits[4 * b : 4 * b + 4]) for b in range(3))
        assert table[i] == (1, 0, 0, 1)[total]
        assert cf.value_at(i) == table[i]


def test_f12_degree_of_table():
    # The degree straight from the polynomial module, independent of certify.
    assert degree_of(build_f12().to_boolean_function()) == 6


# ---------------------------------------------------------------------------
# Triple iteration
# ---------------------------------------------------------------------------

def test_iterate_p4_once_equals_f12():
    direct = build_f12().table()
    iterated = iterate_triple(p4_base(), 1).table()
    assert (direct == iterated).all()


def test_iterate_claims():
    base = build_f3k(3)
    once = iterate_triple(base, 1)
    assert once.n == 27
    assert once.claimed_degree == 8
    twice = iterate_triple(base, 2)
    assert twice.n == 81
    assert twice.claimed_degree == 16
    assert twice.witness_input == (0,) * 81


def test_iterate_witness_propagates():
    cf = iterate_triple(build_f3k(3), 2)
    zero = 0
    assert cf.value_at(zero) == 1
    assert cf.value_at(zero ^ (1 << 80)) == 0
    assert cf.value_at(zero ^ (1 << 40)) == 0


def test_iterate_requires_positive_t():
    with pytest.raises(ValueError):
        iterate_triple(p4_base(), 0)


def test_table_unavailable_beyond_cap():
    cf = iterate_triple(build_f3k(3), 2)
    with pytest.raises(ValueError):
        cf.table()
    with pytest.raises(ValueError):
        cf.to_boolean_function()


# ---------------------------------------------------------------------------
# Iterated family parameters
# ---------------------------------------------------------------------------

def test_lemma3_params_fixtures():
    assert lemma3_params(3, 1) == (27, 8, Fraction(27, 8))
    assert lemma3_params(3, 2)[:2] == (81, 16)
    assert lemma3_params(5, 1)[:2] == (45, 16)


def test_lemma3_params_validation():
    with pytest.raises(ValueError):
        lemma3_params(4, 1)
    with pytest.raises(ValueError):
        lemma3_params(3, 0)


def test_lemma3_builder_flags_t1():
    cf = build_lemma3(3, 1)
    assert cf.family == "lemma3"
    assert cf.n == 27 and cf.claimed_degree == 8
    assert any("t > 1" in note for note in cf.notes)
    assert not any("t > 1" in note for note in build_lemma3(3, 2).notes)


def test_lemma3_arity_cap():
    assert build_lemma3(15, 4).n == lowdeg.MAX_ITERATED_N == 3645
    assert build_lemma3(5, 5).n == 3645
    for k, t in ((3, 6), (7, 5), (3, 10**9)):
        with pytest.raises(ValueError, match="exceed the cap of n=3645 variables"):
            build_lemma3(k, t)


# ---------------------------------------------------------------------------
# Certification modes
# ---------------------------------------------------------------------------

def test_certify_auto_picks_exact_for_small():
    report = certify(build_f9())
    assert report.degree_mode == "exact"


STREAMED = pytest.mark.parametrize(
    "cf",
    [build_f9(), build_f12(), build_f3k(5)]
    + [
        replace(build_f9(), n=f.n, witness_input=(0,) * f.n, structure=f)
        for f in NON_CONSECUTIVE.values()
    ],
    ids=["f9", "f12", "f3k:5", *NON_CONSECUTIVE],
)


@STREAMED
def test_certify_streams_small_row_blocks(cf, monkeypatch):
    expected = degree_of(BooleanFunction(cf.n, cf.table()))
    # the block sizes of test_table_degree_matches_reference[shrunk]
    monkeypatch.setattr(polynomial, "_LOW_BITS", 5)
    monkeypatch.setattr(polynomial, "_BLOCK", 1 << 7)
    monkeypatch.setattr(polynomial, "_SLAB", 1 << 13)
    ranges, layouts = [], set()
    compose_table = lowdeg.compose_table

    def recording(outer, inner, blocks, start=0, stop=None):
        ranges.append((start, stop))
        layouts.add(tuple(map(tuple, blocks)))
        return compose_table(outer, inner, blocks, start, stop)

    monkeypatch.setattr(lowdeg, "compose_table", recording)
    report = certify(cf, mode="exact")
    assert report.computed_degree == expected
    # the composition is read one block at a time, in order, never whole
    # (a nested composition's whole inner table is built for each block)
    blocks = [r for r in ranges if r != (0, None)]
    assert blocks == [(s, s + (1 << 7)) for s in range(0, 1 << cf.n, 1 << 7)]
    # every level is built in block order, so compose_table's transpose is
    # the identity
    for layout in layouts:
        m = len(layout[0])
        assert layout == tuple(tuple(range(j * m, j * m + m)) for j in range(len(layout)))


@STREAMED
def test_certify_threaded_reads_every_row_block_once(cf, monkeypatch):
    expected = degree_of(BooleanFunction(cf.n, cf.table()))
    # 3 workers from any n, with the block sizes above
    monkeypatch.setattr(polynomial, "_THREADED_N", 0)
    monkeypatch.setattr(polynomial, "_cpus", lambda: 3)
    monkeypatch.setattr(polynomial, "_LOW_BITS", 5)
    monkeypatch.setattr(polynomial, "_BLOCK", 1 << 7)
    monkeypatch.setattr(polynomial, "_SLAB", 1 << 13)
    ranges = []
    compose_table = lowdeg.compose_table

    def recording(outer, inner, blocks, start=0, stop=None):
        ranges.append((start, stop))
        return compose_table(outer, inner, blocks, start, stop)

    monkeypatch.setattr(lowdeg, "compose_table", recording)
    before = threading.active_count()
    report = certify(cf, mode="exact")
    assert threading.active_count() == before
    assert report.computed_degree == expected
    # in any order across the workers, each block once
    blocks = sorted(r for r in ranges if r != (0, None))
    assert blocks == [(s, s + (1 << 7)) for s in range(0, 1 << cf.n, 1 << 7)]


def _block_order_variables(f):
    """Original variable of each variable of lowdeg._in_block_order(f)."""
    if isinstance(f, tuple):
        return list(range(len(f).bit_length() - 1))
    inner = _block_order_variables(f.inner)
    return [block[v] for block in f.blocks for v in inner]


@pytest.mark.parametrize(
    "cf",
    [build_f9(), build_f12(), build_f3k(5), build_f3k(7)]
    + [
        replace(build_f9(), n=f.n, witness_input=(0,) * f.n, structure=f)
        for f in NON_CONSECUTIVE.values()
    ],
    ids=["f9", "f12", "f3k:5", "f3k:7", *NON_CONSECUTIVE],
)
def test_block_order_table_permutes_variables_and_keeps_degree(cf):
    table = cf.table()
    ordered = lowdeg._table(lowdeg._in_block_order(cf.structure))
    # entry i of the block-order table is the entry of the variable-order
    # table whose bits are i's bits moved to their original variables
    idx = np.arange(1 << cf.n)
    moved = np.zeros_like(idx)
    for new, old in enumerate(_block_order_variables(cf.structure)):
        moved |= ((idx >> (cf.n - 1 - new)) & 1) << (cf.n - 1 - old)
    assert np.array_equal(ordered, table[moved])
    if cf.structure in NON_CONSECUTIVE.values():
        assert not np.array_equal(ordered, table)
    # certify reads the block-order table; the degree ignores variable order
    assert certify(cf, mode="exact").computed_degree == degree_of(cf.to_boolean_function())
    # and cf.table keeps variable order
    for i in np.random.default_rng(cf.n).integers(0, 1 << cf.n, 256):
        assert table[i] == cf.value_at(int(i))


def test_certify_peak_memory_per_cell(monkeypatch):
    # V(NAE3, ..., NAE3) on eight position triangles, n = 24; V is 1 at 0 and 8
    outer = (1,) + (0,) * 7 + (1,)
    triangles = tuple((i, 8 + i, 16 + i) for i in range(8))
    cf = replace(build_f3k(3), n=24, claimed_degree=2 * fit_range_polynomial(outer).degree,
                 witness_input=(0,) * 24, structure=Compose(outer, lowdeg._NAE3, triangles))
    # two workers on any host: each adds its blocks and slabs, about 0.15
    # bytes a cell at n = 24
    monkeypatch.setattr(polynomial, "_cpus", lambda: 2)
    tracemalloc.start()
    try:
        report = certify(cf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # deg(f o g) = deg(f) deg(g); the int16 half-table alone is 1 byte a
    # cell (1.42-1.46 in all), and the whole int16 stage-1 array would be 2
    assert report.computed_degree == cf.claimed_degree == 16
    assert peak < 1.6 * (1 << 24)


def test_certify_mode_errors():
    with pytest.raises(ValueError):
        certify(build_f9(), mode="bogus")
    with pytest.raises(ValueError):
        certify(build_f3k(15), mode="exact")
    with pytest.raises(ValueError):
        certify(build_f12(), mode="mod-p")  # not a certification mode


def test_certify_refutes_wrong_claims():
    base = build_f9()
    for claimed_degree in (base.claimed_degree + 1, 6):
        doctored = replace(base, family="doctored", params={}, claimed_degree=claimed_degree)
        report = certify(doctored, mode="exact")
        assert report.status == "refuted"
        assert report.computed_degree == 4
        assert report.notes == ()


@pytest.mark.parametrize(
    "cf, exact",
    [
        (build_f9(), None),
        (build_f12(), None),
        (build_f3k(5), None),
        (build_f3k(7), None),
        # 27 variables: verify --suite lemma2:9 and the slow acceptance probe
        # run their exact transforms
        (build_f3k(9), 16),
        (build_lemma3(3, 1), 8),
    ]
    + [
        (replace(build_f9(), n=f.n, witness_input=(0,) * f.n, structure=f), None)
        for f in NON_CONSECUTIVE.values()
    ],
    ids=["f9", "f12", "f3k:5", "f3k:7", "f3k:9", "lemma3:3,1", *NON_CONSECUTIVE],
)
def test_composition_degree_equals_exact(cf, exact):
    report = certify(cf, mode="composition")
    if exact is None:
        exact = certify(cf, mode="exact").computed_degree
    assert report.degree_mode == "composition"
    assert report.computed_degree == exact


def test_composition_refutes_doctored_parts():
    cf = build_f3k(5)  # V_5(NAE3, ..., NAE3), degree 4 x 2
    for structure, degree in (
        (replace(cf.structure, outer=(1, 0, 0, 1, 0, 1)), 10),
        (replace(cf.structure, inner=(0,) * 7 + (1,)), 12),  # AND3
    ):
        doctored = replace(cf, structure=structure)
        report = certify(doctored, mode="composition")
        assert report.computed_degree == certify(doctored, mode="exact").computed_degree == degree
        assert report.status == "refuted"


def test_composition_degree_of_constant_inner_is_zero():
    cf = build_f3k(5)
    constant = replace(cf, structure=replace(cf.structure, inner=(1,) * 8))
    assert lowdeg.composition_degrees(constant.structure) == [4, 0]
    assert certify(constant, mode="composition").computed_degree == 0
    assert certify(constant, mode="exact").computed_degree == 0


def test_report_json_shape():
    data = certify(build_f9(), mode="exact").to_json_dict()
    assert data["n"] == 9
    assert data["family"] == "f3k"
    assert data["claimed_degree"] == 4
    assert data["computed_degree"] == 4
    assert data["witness_input"] == "0" * 9
    assert data["witness_sensitivity"] == 9
    assert data["status"] == "confirmed"
