"""Mobius coefficients, degrees, range polynomials and collapsers."""

import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from exactquery.boolfn import BooleanFunction, InputAssignment, compose_table, named_function
from exactquery import polynomial
from exactquery.polynomial import (
    collapser_transcription_report,
    degree_of,
    find_collapser,
    fit_range_polynomial,
    kth_finite_difference,
    published_k7_collapser,
)


def random_function(rng, n):
    return BooleanFunction(n, [rng.randint(0, 1) for _ in range(1 << n)])


def coefficient_by_subset_sum(f, mask):
    """Defining alternating sum over submasks, independent of the transform."""
    total = 0
    sub = mask
    while True:
        sign = (-1) ** (bin(mask).count("1") - bin(sub).count("1"))
        total += sign * f.value_at(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return total


def terms(f):
    """The nonzero coefficients of f, by mask."""
    coeffs = polynomial.mobius_coefficients(f.table())
    return {int(mask): int(coeffs[mask]) for mask in np.flatnonzero(coeffs)}


def value_at(coeffs, i):
    """The polynomial at input index i: the sum of the coefficients of the
    monomials it satisfies, the masks inside i."""
    masks = np.arange(coeffs.size)
    return int(coeffs[(masks & i) == masks].sum())


def zeta(coeffs):
    """Values from coefficients by mask: the inverse transform, in int64."""
    values = np.asarray(coeffs).astype(np.int64)
    for b in range(values.size.bit_length() - 1):
        v = values.reshape(-1, 2, 1 << b)
        v[:, 1, :] += v[:, 0, :]
    return values


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def test_interpolate_xor2():
    xor2 = BooleanFunction(2, (0, 1, 1, 0))
    # mask 2 = x1, mask 1 = x2, mask 3 = x1 x2
    assert polynomial.mobius_coefficients(xor2.table()).tolist() == [0, 1, 1, -2]
    assert degree_of(xor2) == 2


def test_interpolate_and_n():
    for n in (2, 4, 6):
        and_n = BooleanFunction(n, [0] * ((1 << n) - 1) + [1])
        assert terms(and_n) == {(1 << n) - 1: 1}
        assert degree_of(and_n) == n


def test_degree_fixtures():
    assert degree_of(named_function("F3")) == 2
    assert degree_of(BooleanFunction(4, [1] * 16)) == 0
    assert degree_of(BooleanFunction(4, [0] * 16)) == 0
    assert max(mask.bit_count() for mask in terms(named_function("F3"))) == 2


def test_interpolation_cap(monkeypatch):
    # the cap bounds only the CLI's polynomial emission
    monkeypatch.setattr(polynomial, "INTERPOLATION_CAP", 4)
    assert degree_of(BooleanFunction(5, [0] * 32)) == 0  # no cap below MAX_N


def test_coefficients_match_subset_sums():
    rng = random.Random(41)
    for _ in range(10):
        f = random_function(rng, 4)
        coeffs = polynomial.mobius_coefficients(f.table())
        for mask in range(16):
            assert coeffs[mask] == coefficient_by_subset_sum(f, mask)


def test_round_trip_pointwise():
    rng = random.Random(43)
    for n in (1, 2, 3, 5, 8):
        f = random_function(rng, n)
        coeffs = polynomial.mobius_coefficients(f.table())
        for i in range(1 << n):
            assert value_at(coeffs, i) == f.value_at(i)


def test_round_trip_sampled_larger():
    rng = random.Random(47)
    f = random_function(rng, 12)
    coeffs = polynomial.mobius_coefficients(f.table())
    for _ in range(50):
        i = rng.randrange(1 << 12)
        assert value_at(coeffs, i) == f.value_at(i)


def test_zeta_inverts_mobius():
    rng = random.Random(53)
    f = random_function(rng, 9)
    coeffs = polynomial.mobius_coefficients(f.table())
    assert (zeta(coeffs) == f.table()).all()


# ---------------------------------------------------------------------------
# The int32 subset-transform kernel
# ---------------------------------------------------------------------------

def test_mobius_coefficients_are_int32():
    coeffs = polynomial.mobius_coefficients(named_function("F3").table())
    assert coeffs.dtype == np.int32
    assert degree_of(named_function("F3")) == 2


def test_parity_20_full_mask_coefficient():
    n = 20
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        parity ^= ((idx >> b) & 1).astype(np.uint8)
    coeffs = polynomial.mobius_coefficients(parity)
    assert int(coeffs[(1 << n) - 1]) == (-2) ** (n - 1)  # the 2^(n-1) bound is tight
    assert degree_of(BooleanFunction(n, parity)) == n


def reference_passes(table, bits):
    """int64 Mobius transform over the ``bits`` lowest index bits, one pass
    per bit."""
    coeffs = np.asarray(table).astype(np.int64)
    for b in range(bits):
        v = coeffs.reshape(-1, 2, 1 << b)
        v[:, 1, :] -= v[:, 0, :]
    return coeffs


def assert_coefficients_match_reference(table, n):
    """mobius_coefficients equals the reference, shape included: 2^n
    coefficients also for n < 4, where the kernel pads the table to 16."""
    assert np.array_equal(polynomial.mobius_coefficients(table), reference_passes(table, n))


def reference_degree(table):
    """The full reference transform, then the largest popcount."""
    n = table.size.bit_length() - 1
    masks = np.flatnonzero(reference_passes(table, n))
    return int(sum((masks >> b) & 1 for b in range(n + 1)).max(initial=0))


def kernel_tables(rng, n):
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        parity ^= ((idx >> b) & 1).astype(np.uint8)
    # a random function of a few variables: its top monomials sit at
    # masks other than the full one, on both sides of the 14-bit split
    k = int(rng.integers(0, min(n, 5) + 1))
    junta = np.zeros(1 << n, dtype=np.int64)
    for var in rng.choice(n, size=k, replace=False):
        junta = (junta << 1) | ((idx >> var) & 1)
    return {
        "random": rng.integers(0, 2, 1 << n).astype(np.uint8),
        "parity": parity,
        "and": (idx == (1 << n) - 1).astype(np.uint8),
        "zero": np.zeros(1 << n, dtype=np.uint8),
        "one": np.ones(1 << n, dtype=np.uint8),
        "junta": rng.integers(0, 2, 1 << k).astype(np.uint8)[junta],
    }


def shrink_blocks(monkeypatch, low_bits=5):
    """``low_bits`` low bits, blocks of 4 rows, slabs of 2^13 entries: small
    tables then cross many blocks and slabs, stage 2 runs its passes from
    n = low_bits + 1 and the second half of the rows is merged into the
    first from n = low_bits + 4, where a table spans more than two blocks.
    With 5 low bits every block goes from the lookup (bits 0-3) through one
    int8 pass (bit 4) into the int16 array; with 7 it goes through the
    three int8 passes of bits 4-6, on the lookup's transposed order, as
    unshrunk.  Stage 1's int16 passes run only unshrunk, from n = 8."""
    monkeypatch.setattr(polynomial, "_LOW_BITS", low_bits)
    monkeypatch.setattr(polynomial, "_BLOCK", 4 << low_bits)
    monkeypatch.setattr(polynomial, "_SLAB", 1 << 13)


# unshrunk up to n = 20, so that a table spans two stage-1 blocks of 2^19
@pytest.mark.parametrize(
    "n, shrunk", [(n, shrunk) for n in range(21) for shrunk in (False, True) if n < 19 or not shrunk]
)
def test_table_degree_matches_reference(n, shrunk, monkeypatch):
    if shrunk:
        shrink_blocks(monkeypatch)
    tables = kernel_tables(np.random.default_rng(100 + n), n)
    for name, table in tables.items():
        assert polynomial.table_degree(table) == reference_degree(table), name
        assert_coefficients_match_reference(table, n)
    # from n = 7 on, parity's values after the lookup and the 3 int8 passes
    # reach that stage's bound of 64 = 2^6 exactly, so one more int8 pass
    # would overflow; from n = 15 on, its values after the 14 low passes
    # reach 2^13, and from n = 21 on the merged top pass 2^14
    # (test_table_degree_int16_headroom_of_the_merged_top_pass)
    if n >= 7:
        assert np.abs(reference_passes(tables["parity"], 7)).max() == 64
    assert polynomial.table_degree(tables["parity"]) == n


@pytest.mark.parametrize("n", range(19))
def test_table_degree_matches_reference_at_7_low_bits(n, monkeypatch):
    shrink_blocks(monkeypatch, 7)
    for name, table in kernel_tables(np.random.default_rng(200 + n), n).items():
        assert polynomial.table_degree(table) == reference_degree(table), name
        assert_coefficients_match_reference(table, n)


# shrunk to 5 low bits, a 2^13-entry slab holds a whole column up to n = 18
@pytest.mark.parametrize(
    "n, low_bits", [(8, None), (8, 5), (8, 7), (20, None), (18, 5), (20, 7)]
)
def test_table_degree_top_monomial_on_bits_3_to_7(n, low_bits, monkeypatch):
    # (x4 x5 x6) XOR (x3 XOR x7) by index bit: its only monomial of degree 5
    # spans index bits 3-7, across the lookup (bit 3), the transposed int8
    # passes (bits 4-6) and the first pass after them (bit 7), so a wrong
    # axis order in the transposed copy shows as a wrong degree
    if low_bits:
        shrink_blocks(monkeypatch, low_bits)
    idx = np.arange(1 << n)
    bit = lambda b: (idx >> b) & 1
    table = ((bit(4) & bit(5) & bit(6)) ^ bit(3) ^ bit(7)).astype(np.uint8)
    assert reference_degree(table) == 5
    assert polynomial.table_degree(table) == 5
    assert polynomial.table_degree(lambda start, stop: table[start:stop], n) == 5


def test_mobius16_lookup_matches_reference():
    lookup = polynomial._mobius16()
    assert lookup.dtype == np.int8 and lookup.shape == (1 << 16, 16)
    # entry k of row u is bit 15 - k of u: the first entry is the most
    # significant bit, as np.packbits and a big-endian uint16 view read it
    u = np.arange(1 << 16)
    patterns = (u[:, None] >> (15 - np.arange(16))) & 1
    # index bits 0-3 of the flattened patterns run within one row
    assert (lookup == reference_passes(patterns.reshape(-1), 4).reshape(-1, 16)).all()


@pytest.mark.parametrize("bad", [2, -1, 255, 0.5, 1.5, -0.5, float("nan")])
def test_table_degree_refuses_entries_other_than_0_and_1(bad, monkeypatch):
    # a float entry is refused, not read as a nonzero bit or cast to int16
    table = np.zeros(1 << 9, dtype=np.float64 if isinstance(bad, float) else np.int16)
    table[300] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        polynomial.table_degree(table)
    with pytest.raises(ValueError, match="0 or 1"):
        polynomial.mobius_coefficients(table)
    # a row source is checked block by block: the bad entry sits in the
    # third of four blocks
    shrink_blocks(monkeypatch)
    with pytest.raises(ValueError, match="0 or 1"):
        polynomial.table_degree(lambda start, stop: table[start:stop], 9)
    with pytest.raises(ValueError, match="0 or 1"):
        polynomial.table_degree(np.array([0, bad]))
    with pytest.raises(ValueError, match="0 or 1"):
        polynomial.mobius_coefficients(np.array([0, bad]))


def test_table_degree_accepts_bool_and_uint8_tables():
    table = kernel_tables(np.random.default_rng(5), 9)["random"]
    expected = reference_degree(table)
    for t in (table.astype(bool), table.astype(np.uint8), table.astype(np.int64), table.astype(np.float64)):
        assert polynomial.table_degree(t) == expected
        assert_coefficients_match_reference(t, 9)
        assert polynomial.table_degree(lambda start, stop: t[start:stop], 9) == expected


def test_transforms_restore_numpy_bufsize(monkeypatch):
    before = np.getbufsize()
    table = kernel_tables(np.random.default_rng(6), 9)["random"]
    polynomial.table_degree(table)
    polynomial.mobius_coefficients(table)
    assert np.getbufsize() == before
    # a source whose second block holds a 2 raises after the first block's
    # passes have run
    shrink_blocks(monkeypatch)
    bad = table.copy()
    bad[200] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        polynomial.table_degree(lambda start, stop: bad[start:stop], 9)
    assert np.getbufsize() == before


@pytest.mark.parametrize("n", range(6))
def test_table_degree_sets_no_bufsize_without_a_pass(n, monkeypatch):
    # up to n = 4 the lookup does every pass, and stage 2 runs none
    table = kernel_tables(np.random.default_rng(600 + n), n)["random"]
    calls = []
    setbufsize = np.setbufsize
    monkeypatch.setattr(np, "setbufsize", lambda size: calls.append(size) or setbufsize(size))
    assert polynomial.table_degree(table) == reference_degree(table)
    assert polynomial.table_degree(lambda start, stop: table[start:stop], n) == reference_degree(table)
    assert bool(calls) == (n > 4)


def test_table_degree_allocates_no_2n_int32_array():
    n = 22
    table = np.random.default_rng(71).integers(0, 2, 1 << n).astype(np.uint8)
    tracemalloc.start()
    try:
        degree = polynomial.table_degree(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degree == n
    assert peak < 3 << n  # an int32 coefficient array alone is 4 << n bytes


def thread_blocks(monkeypatch, n):
    """Run table_degree on 3 workers from any n, with 5 low bits, 2^(n-3)-entry
    blocks and 2^(n-3)-entry slabs: from n = 8, 8 blocks and 8 slabs."""
    monkeypatch.setattr(polynomial, "_THREADED_N", 0)
    monkeypatch.setattr(polynomial, "_cpus", lambda: 3)
    monkeypatch.setattr(polynomial, "_LOW_BITS", 5)
    monkeypatch.setattr(polynomial, "_BLOCK", 1 << max(5, n - 3))
    monkeypatch.setattr(polynomial, "_SLAB", 1 << max(0, n - 3))


def one_worker_degree(monkeypatch, source, n):
    with monkeypatch.context() as m:
        m.setattr(polynomial, "_THREADED_N", 99)
        return polynomial.table_degree(source, n)


def random_composition(rng, n):
    """A row source of a random outer table of k block values of one random
    b-variable inner table, k * b = n, its blocks a random partition."""
    b = int(rng.choice([b for b in range(2, n // 2 + 1) if n % b == 0]))
    k = n // b
    outer = rng.integers(0, 2, 1 << k).astype(np.uint8)
    inner = rng.integers(0, 2, 1 << b).astype(np.uint8)
    blocks = rng.permutation(n).reshape(k, b).tolist()
    return lambda start, stop: compose_table(outer, inner, blocks, start, stop)


def two_threads(source):
    """``source`` recording each range asked for and the threads asking;
    until a second thread asks, a call waits up to 10 s for one, so that at
    least two threads read it."""
    ranges, threads, second = [], set(), threading.Event()

    def recording(start, stop):
        ranges.append((start, stop))
        threads.add(threading.get_ident())
        if len(threads) >= 2:
            second.set()
        second.wait(10)
        return source(start, stop)

    return recording, ranges, threads


def test_each_runs_every_item_once_under_contention():
    # more workers than cores, switching threads as often as the interpreter
    # allows: a lost update on the shared item list would run an item twice
    # or not at all
    ran = []

    def step(i):
        ran.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = threading.active_count()
        assert polynomial._each(step, 5000, 8) == [i * i for i in range(5000)]
        assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(5000))


def test_each_hands_out_no_item_after_a_failure():
    # item 0 raises once item 1 has started; item 1 then runs on for 0.2 s,
    # and no worker takes item 2
    started_1, ran = threading.Event(), []

    def step(i):
        ran.append(i)
        if i == 0:
            assert started_1.wait(10)
            raise RuntimeError("item 0")
        if i == 1:
            started_1.set()
            time.sleep(0.2)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="item 0"):
        polynomial._each(step, 10, 2)
    assert threading.active_count() == before
    assert sorted(ran) == [0, 1]


@pytest.mark.parametrize("n", range(4, 21))
def test_threaded_degree_equals_one_worker(n, monkeypatch):
    rng = np.random.default_rng(300 + n)
    tables = kernel_tables(rng, n)
    sources = {name: (lambda start, stop, t=t: t[start:stop]) for name, t in tables.items()}
    if any(n % b == 0 for b in range(2, n // 2 + 1)):
        sources["composition"] = random_composition(rng, n)
    thread_blocks(monkeypatch, n)
    for name, source in sources.items():
        expected = one_worker_degree(monkeypatch, source, n)
        assert polynomial.table_degree(source, n) == expected, name
    assert polynomial.table_degree(sources["zero"], n) == 0
    assert polynomial.table_degree(sources["one"], n) == 0
    for table in tables.values():
        assert_coefficients_match_reference(table, n)


@pytest.mark.parametrize("n", [9, 16])
def test_threaded_stage1_asks_for_every_range_once(n, monkeypatch):
    table = kernel_tables(np.random.default_rng(400 + n), n)["random"]
    thread_blocks(monkeypatch, n)
    source, ranges, threads = two_threads(lambda start, stop: table[start:stop])
    before = threading.active_count()
    assert polynomial.table_degree(source, n) == reference_degree(table)
    assert threading.active_count() == before
    assert len(threads) >= 2
    block = 1 << max(5, n - 3)
    assert sorted(ranges) == [(s, s + block) for s in range(0, 1 << n, block)]


@pytest.mark.parametrize("where", ["first", "last", "both"])
def test_threaded_bad_entry(where, monkeypatch):
    n = 12
    table = kernel_tables(np.random.default_rng(7), n)["random"].astype(np.int16)
    if where in ("first", "both"):
        table[3] = 2
    if where in ("last", "both"):
        table[-1] = -1
    thread_blocks(monkeypatch, n)
    before = threading.active_count()
    with pytest.raises(ValueError, match="table entries must be 0 or 1"):
        polynomial.table_degree(table)
    assert threading.active_count() == before


def test_threaded_row_source_raising_in_a_worker(monkeypatch):
    n = 12
    table = kernel_tables(np.random.default_rng(8), n)["random"]
    thread_blocks(monkeypatch, n)
    caller = threading.get_ident()

    def failing(start, stop):
        if threading.get_ident() != caller:
            raise RuntimeError(f"worker at {start}")
        return table[start:stop]

    source, ranges, threads = two_threads(failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker at"):
        polynomial.table_degree(source, n)
    assert threading.active_count() == before
    assert len(threads) >= 2


def test_threaded_failure_is_the_lowest_failing_block(monkeypatch):
    n = 12
    block = 1 << (n - 3)  # 8 blocks: 0-3 in the first half of the rows, 4-7 in the second
    table = kernel_tables(np.random.default_rng(9), n)["random"]
    thread_blocks(monkeypatch, n)
    asked_6 = threading.Event()

    def failing(start, stop):
        # block 5 fails only after block 6, in the same half, has been asked
        # for and has failed in another worker, so the later block's
        # exception comes first
        if start == 6 * block:
            asked_6.set()
            raise RuntimeError("block 6")
        if start == 5 * block:
            assert asked_6.wait(10)
            raise RuntimeError("block 5")
        return table[start:stop]

    source, ranges, threads = two_threads(failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^block 5$"):
        polynomial.table_degree(source, n)
    assert threading.active_count() == before
    # no block is asked for twice, and every block up to the failing ones is
    assert len(set(ranges)) == len(ranges)
    assert {start // block for start, _ in ranges} >= {0, 1, 2, 3, 4, 5, 6}


def test_threaded_failure_in_the_first_half_asks_for_no_second_half_range(monkeypatch):
    n = 12
    block = 1 << (n - 3)
    table = kernel_tables(np.random.default_rng(9), n)["random"]
    thread_blocks(monkeypatch, n)

    def failing(start, stop):
        if start // block in (3, 4):  # the last block of the first half, the first of the second
            raise RuntimeError(f"block {start // block}")
        return table[start:stop]

    source, ranges, threads = two_threads(failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^block 3$"):
        polynomial.table_degree(source, n)
    assert threading.active_count() == before
    assert len(threads) >= 2
    assert sorted(start // block for start, _ in ranges) == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [21, 22])
def test_table_degree_int16_headroom_of_the_merged_top_pass(n):
    # parity's values after the 14 low passes reach +-2^13, so the merged
    # top variable's pass reaches +-2^14, int16's headroom less one bit; the
    # rows split from n = 21, where a table spans four stage-1 blocks, and
    # n = 22 runs on every CPU
    assert 1 << n > 2 * polynomial._BLOCK
    tables = kernel_tables(np.random.default_rng(500 + n), n)
    parity = tables["parity"]
    assert np.abs(reference_passes(parity, 14)).max() == 1 << 13
    merged = reference_passes(parity, 14).reshape(2, -1)
    assert np.abs(merged[1] - merged[0]).max() == 1 << 14
    for table in (parity, 1 - parity):
        assert polynomial.table_degree(table) == n
        assert polynomial.table_degree(lambda start, stop: table[start:stop], n) == n


def test_random_functions_round_trip():
    rng = random.Random(59)
    for _ in range(20):
        f = random_function(rng, rng.randint(1, 10))
        coeffs = polynomial.mobius_coefficients(f.table())
        assert (zeta(coeffs) == f.table()).all()


# ---------------------------------------------------------------------------
# The published F3 quadratic
# ---------------------------------------------------------------------------

def test_published_f3_quadratic_represents_f3():
    def quadratic(x1, x2, x3):
        """The displayed degree-2 polynomial for F3, each complemented
        literal written as 1 - x."""
        half = Fraction(1, 2)
        return (
            half * (x1 * x2 + (1 - x1) * (1 - x2))
            + half * (1 - (x1 * x3 + (1 - x1) * (1 - x3)))
            - half * (x2 * x3 + (1 - x2) * (1 - x3))
        )

    f3 = named_function("F3")
    for i in range(8):
        assert quadratic(*InputAssignment.from_index(3, i).bits) == f3.value_at(i)
    # its expansion x3 - x2 x3 - x1 x3 + x1 x2, the unique multilinear form
    assert terms(f3) == {1: 1, 3: -1, 5: -1, 6: 1}


# ---------------------------------------------------------------------------
# Range polynomials
# ---------------------------------------------------------------------------

def test_fit_linear():
    p = fit_range_polynomial((0, 1))
    assert p.coefficients == (Fraction(0), Fraction(1))
    assert p.degree == 1


def test_fit_constant_zero_has_degree_zero():
    p = fit_range_polynomial([0, 0, 0])
    assert p.coefficients == (Fraction(0),)
    assert p.degree == 0


def test_fit_the_degree2_collapser():
    p = fit_range_polynomial((1, 0, 0, 1))
    assert p.coefficients == (Fraction(1), Fraction(-3, 2), Fraction(1, 2))


def test_fit_passes_through_points_exactly():
    rng = random.Random(67)
    for _ in range(15):
        k = rng.randint(1, 8)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k + 1)]
        p = fit_range_polynomial(values)
        assert p.degree <= k
        for i, v in enumerate(values):
            assert p(i) == v


def test_range_polynomial_json():
    p = fit_range_polynomial((1, 0, 0, 1))
    assert p.to_json_dict() == {
        "coeffs": [{"num": "1", "den": "1"}, {"num": "-3", "den": "2"}, {"num": "1", "den": "2"}]
    }


def test_finite_difference():
    assert kth_finite_difference((1, 0, 0, 1), 3) == 0
    assert kth_finite_difference((1, 0, 0, 0), 3) == -1
    vals = (1, 0, 0, 1, 1, 0, 0, 1)
    assert kth_finite_difference(vals, 7) == 0
    assert fit_range_polynomial(vals).degree <= 6


# ---------------------------------------------------------------------------
# Collapser search
# ---------------------------------------------------------------------------

def brute_force_collapser(k):
    """Independent lexicographic re-derivation straight from the definition:
    the first vector whose exact fit has degree k - 1, no finite difference
    consulted."""
    for packed in range(1 << (k + 1)):
        values = tuple((packed >> (k - j)) & 1 for j in range(k + 1))
        if values[0] != 1 or values[1] != 0:
            continue
        p = fit_range_polynomial(values)
        if p.degree == k - 1:
            return values
    return None


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_find_collapser_contract(k):
    values, poly = find_collapser(k)
    assert len(values) == k + 1
    assert set(values) <= {0, 1}
    assert values[0] == 1 and values[1] == 0
    assert poly.degree == k - 1
    for i, v in enumerate(values):
        assert poly(i) == v


def test_find_collapser_k3_matches_published_values():
    values, poly = find_collapser(3)
    assert values == (1, 0, 0, 1)
    assert poly.coefficients == (Fraction(1), Fraction(-3, 2), Fraction(1, 2))


@pytest.mark.parametrize("k", range(3, 16, 2))
def test_find_collapser_is_lexicographically_minimal(k):
    values, _ = find_collapser(k)
    assert values == brute_force_collapser(k)


def test_find_collapser_validation():
    with pytest.raises(ValueError):
        find_collapser(4)
    with pytest.raises(ValueError):
        find_collapser(17)


# ---------------------------------------------------------------------------
# The published k=7 transcription
# ---------------------------------------------------------------------------

def test_published_k7_values():
    poly = published_k7_collapser()
    values = [poly(z) for z in range(8)]
    assert values == [0, 0, 0, 1, 1, 0, 0, 0]
    assert poly.degree == 6


def test_published_k7_transcription_report():
    report = collapser_transcription_report(published_k7_collapser(), 7)
    assert report["maps_to_01"] is True
    assert report["v0_ne_v1"] is False
    assert report["usable_for_construction"] is False
    assert report["degree"] == 6


def test_refitting_published_k7_values_recovers_the_polynomial():
    poly = published_k7_collapser()
    refit = fit_range_polynomial([poly(z) for z in range(8)])
    assert refit == poly
