"""Truth tables, named fixtures and complexity measures."""

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from exactquery import boolfn, polynomial
from exactquery.boolfn import (
    BooleanFunction,
    InputAssignment,
    complement_symmetric,
    complexity_report,
    compose_function,
    compose_table,
    deterministic_complexity,
    enumerate_complement_symmetric_full_d,
    named_function,
    sensitivity,
)

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Reference implementations, kept independent of the package internals
# ---------------------------------------------------------------------------

def _tabulate(n, value):
    """The function whose entry i is ``value`` of input i's bits."""
    return BooleanFunction(n, [value(InputAssignment.from_index(n, i).bits) for i in range(1 << n)])


def naive_depth(table, n):
    """Plain minimax recursion on explicit sub-tables, no memoization."""
    if all(v == table[0] for v in table):
        return 0
    best = n
    for var in range(n):
        bit = n - 1 - var
        t0 = [table[i] for i in range(1 << n) if not (i >> bit) & 1]
        t1 = [table[i] for i in range(1 << n) if (i >> bit) & 1]
        best = min(best, 1 + max(naive_depth(t0, n - 1), naive_depth(t1, n - 1)))
    return best


def sensitivity_at(f, i):
    """How many one-bit flips of the input with index i change f's value."""
    return sum(1 for j in range(f.n) if f.value_at(i ^ (1 << j)) != f.value_at(i))


def naive_sensitivity(f):
    return max(sensitivity_at(f, i) for i in range(1 << f.n))


def random_function(rng, n):
    return BooleanFunction(n, [rng.randint(0, 1) for _ in range(1 << n)])


# ---------------------------------------------------------------------------
# InputAssignment / BooleanFunction basics
# ---------------------------------------------------------------------------

def test_input_assignment_round_trip():
    x = InputAssignment.from_string("0110")
    assert x.n == 4 and x.bits == (0, 1, 1, 0)
    assert x.index == 6
    assert InputAssignment.from_index(4, 6) == x
    assert str(x) == "0110"


def test_input_assignment_validation():
    with pytest.raises(ValueError):
        InputAssignment(3, (0, 1))
    with pytest.raises(ValueError):
        InputAssignment(2, (0, 2))
    with pytest.raises(ValueError):
        InputAssignment.from_string("01x")


def test_table_construction_and_lookup():
    f = BooleanFunction(2, (0, 1, 1, 0))
    assert [f.value_at(i) for i in range(4)] == [0, 1, 1, 0]
    assert f("10") == 1
    assert f((1, 1)) == 0
    assert np.flatnonzero(f.table()).tolist() == [1, 2]
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1, 1))
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        f("101")


@pytest.mark.parametrize(
    "table",
    [
        np.array([0, 257]),  # a cast to uint8 wraps it to [0, 1]
        np.array([256, 1]),
        np.array([0, -255]),
        [0, 0.5],  # a cast truncates it to [0, 0]
        np.array([0.0, 0.9]),
        np.array([0.0, np.nan]),
        [0, -1],  # a cast from a list raises OverflowError
        np.array([0, 2], dtype=np.uint8),
        np.array([0, 2], dtype=np.uint16),
        np.array(["0", "1"]),
    ],
    ids=["257", "256", "-255", "list-half", "0.9", "nan", "list-minus-1", "uint8-2", "uint16-2", "str"],
)
def test_table_entries_other_than_0_and_1_are_refused(table):
    with pytest.raises(ValueError, match="table entries must be 0 or 1"):
        BooleanFunction(1, table)


def test_table_accepts_every_dtype_holding_0_and_1():
    expected = BooleanFunction(2, np.array([0, 1, 1, 0], dtype=np.uint8))
    for table in ([0, 1, 1, 0], [False, True, True, False], [0.0, 1.0, 1.0, 0.0]):
        for dtype in (None, bool, np.uint8, np.int8, np.int64, np.uint32, np.float64):
            assert BooleanFunction(2, np.array(table, dtype=dtype)) == expected
        assert BooleanFunction(2, table) == expected


def test_table_json_round_trip():
    rng = random.Random(7)
    for n in (1, 3, 4, 9):
        f = random_function(rng, n)
        again = BooleanFunction.from_json_dict(f.to_json_dict())
        assert again == f
    with pytest.raises(ValueError):
        BooleanFunction.from_json_dict({"n": 3, "table_hex": "abcd"})  # wrong length
    with pytest.raises(ValueError):
        BooleanFunction.from_json_dict({"n": 3})
    with pytest.raises(ValueError):
        BooleanFunction.from_json_dict({"n": 2, "table_hex": "1f"})  # padding bits set
    with pytest.raises(ValueError):
        BooleanFunction.from_packed(2, bytes([0x1F]))


def test_equality_and_hash():
    f = BooleanFunction(2, (0, 1, 1, 0))
    g = BooleanFunction(2, (0, 1, 1, 0))
    assert f == g and hash(f) == hash(g)
    assert f != BooleanFunction(2, (0, 1, 1, 1))
    assert len({f, g}) == 1


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------

def test_f3_ones_and_values():
    f3 = named_function("F3")
    assert f3 == _tabulate(3, lambda x: int(x[0] == x[1] and x[0] != x[2]))
    assert [format(i, "03b") for i in np.flatnonzero(f3.table()).tolist()] == ["001", "110"]
    assert f3("001") == 1
    assert f3("000") == 0


def test_g4_ones_and_values():
    g4 = named_function("G4")
    assert g4 == _tabulate(4, lambda x: int(x[0] != x[1] and x[2] != x[3]))
    assert [format(i, "04b") for i in np.flatnonzero(g4.table()).tolist()] == [
        "0101", "0110", "1001", "1010"
    ]
    assert g4("0101") == 1


def test_named_tables():
    assert np.flatnonzero(named_function("table1:1").table()).tolist() == [0, 7]
    assert named_function("table1:2") == named_function("F3")
    assert named_function("table2:1") == named_function("G4")
    assert [format(i, "04b") for i in np.flatnonzero(named_function("table2:4").table()).tolist()] == [
        "0000",
        "0011",
        "1100",
        "1111",
    ]
    # the complementary half of each table
    for i in range(1, 5):
        complement = BooleanFunction(3, 1 - named_function(f"table1:{5 - i}").table())
        assert named_function(f"table1:{i + 4}") == complement
    with pytest.raises(ValueError):
        named_function("table1:9")
    with pytest.raises(ValueError):
        named_function("nope")


def test_complement_symmetry():
    assert complement_symmetric(named_function("F3"))
    assert complement_symmetric(named_function("G4"))
    x1 = BooleanFunction(3, (0, 0, 0, 0, 1, 1, 1, 1))
    assert not complement_symmetric(x1)


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------

def test_sensitivity_fixtures():
    f3 = named_function("F3")
    assert sensitivity_at(f3, 0b001) == 3
    assert sensitivity_at(f3, 0b110) == 3
    assert sensitivity(BooleanFunction(3, [0] * 8)) == 0
    assert sensitivity(f3) == 3


def test_sensitivity_matches_naive():
    rng = random.Random(11)
    for _ in range(30):
        f = random_function(rng, rng.randint(2, 6))
        assert sensitivity(f) == naive_sensitivity(f)


# ---------------------------------------------------------------------------
# Exact decision-tree depth
# ---------------------------------------------------------------------------

def test_depth_fixtures():
    assert deterministic_complexity(named_function("F3")) == 3
    assert deterministic_complexity(named_function("G4")) == 4
    for n in (1, 2, 4):
        x1 = BooleanFunction(n, [(i >> (n - 1)) & 1 for i in range(1 << n)])
        assert deterministic_complexity(x1) == 1
    for n in (2, 3, 5):
        xor = BooleanFunction(n, [bin(i).count("1") & 1 for i in range(1 << n)])
        assert deterministic_complexity(xor) == n
    assert deterministic_complexity(BooleanFunction(4, [1] * 16)) == 0


def test_depth_cap_returns_none():
    assert complexity_report(named_function("F3"), dcap=2).d_exact is None


def test_depth_matches_naive_exhaustive_n3():
    for code in range(256):
        table = [(code >> i) & 1 for i in range(8)]
        f = BooleanFunction(3, table)
        assert deterministic_complexity(f) == naive_depth(table, 3), table


def test_depth_matches_naive_random():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(4, 6)
        f = random_function(rng, n)
        assert deterministic_complexity(f) == naive_depth(list(f.table()), n)


def _restriction(table, n, code):
    """Sub-table of the variables left free (digit 2) by a ternary code."""
    digits = [(code // 3 ** (n - 1 - var)) % 3 for var in range(n)]
    free = [var for var in range(n) if digits[var] == 2]
    sub = []
    for i in range(1 << len(free)):
        bits = list(digits)
        for k, var in enumerate(free):
            bits[var] = (i >> (len(free) - 1 - k)) & 1
        sub.append(table[int("".join(map(str, bits)), 2)])
    return sub, len(free)


def _check_every_state(f):
    table = list(f.table())
    depth = boolfn._depth_table(f)
    assert depth.shape == (3**f.n,)
    d_full = naive_depth(table, f.n)
    for code in range(3**f.n):
        sub, k = _restriction(table, f.n, code)
        assert (depth[code] == 0) == (len(set(sub)) == 1), (table, code)  # 0 exactly on constants
        assert depth[code] == naive_depth(sub, k) <= d_full, (table, code)


def test_depth_tables_every_state():
    for n in (1, 2, 3):
        for code in range(1 << (1 << n)):
            _check_every_state(BooleanFunction(n, [(code >> i) & 1 for i in range(1 << n)]))
    rng = random.Random(29)
    for n in (4, 4, 5, 5):
        _check_every_state(random_function(rng, n))


def _round_tables(f):
    """The round-based depth kernel the in-place sweeps replaced, kept as a reference."""
    n = f.n
    if n > boolfn.MAX_DCAP:
        raise ValueError(f"exact depth needs 3**n states; capped at n={boolfn.MAX_DCAP}, got n={n}")
    flags = np.zeros((3,) * n, dtype=np.uint8)
    flags[(slice(0, 2),) * n] = f.table().reshape((2,) * n) + 1
    flags = flags.reshape(-1)
    for a in range(n):
        v = flags.reshape(-1, 3, 3 ** (n - 1 - a))
        v[:, 2] = v[:, 0] | v[:, 1]

    solved = flags != 3
    grown = np.empty_like(solved)
    depth = (~solved).astype(np.int8)
    while not solved[-1]:
        np.copyto(grown, solved)
        for a in range(n):
            s = solved.reshape(-1, 3, 3 ** (n - 1 - a))
            g = grown.reshape(-1, 3, 3 ** (n - 1 - a))
            g[:, 2] |= s[:, 0] & s[:, 1]
        solved, grown = grown, solved
        depth += ~solved
    return depth


def _assert_round_tables(f, got):
    want = _round_tables(f)
    assert got.dtype == want.dtype and got.shape == want.shape, f
    assert np.array_equal(got, want), f


def _decision_list(order):
    """1, 0, 1, ... for the first set variable taken in `order`; 1 when none is set."""
    def value(bits):
        for k, var in enumerate(order):
            if bits[var]:
                return (k + 1) & 1
        return 1
    return _tabulate(len(order), value)


def _address(k, address_first):
    """The data bit picked by k address bits, which lead or trail the 2**k data bits."""
    def value(bits):
        address, data = (bits[:k], bits[k:]) if address_first else (bits[-k:], bits[:-k])
        return data[int("".join(map(str, address)), 2)]
    return _tabulate(k + 2**k, value)


def _symmetric(n, rule):
    return BooleanFunction(n, [rule(bin(i).count("1"), n) for i in range(1 << n)])


def test_sweep_tables_match_round_kernel_random():
    rng = np.random.default_rng(6)
    for n in range(6, 11):
        for density in (0.5, 0.05):
            f = BooleanFunction(n, (rng.random(1 << n) < density).astype(np.uint8))
            _assert_round_tables(f, boolfn._depth_table(f))


def test_sweep_tables_match_round_kernel_small():
    # n = 1 and 2: every function, on cubes of 3 and 9 states
    for n in (1, 2):
        for code in range(1 << (1 << n)):
            f = BooleanFunction(n, [(code >> i) & 1 for i in range(1 << n)])
            _assert_round_tables(f, boolfn._depth_table(f))


@pytest.mark.parametrize(
    "f",
    [
        _decision_list(range(10)),
        _decision_list(range(9, -1, -1)),
        _address(2, address_first=True),
        _address(2, address_first=False),
        *(_symmetric(n, lambda w, n: int(w == n)) for n in (3, 7, 8)),
        *(_symmetric(n, lambda w, n: int(w > 0)) for n in (3, 7, 8)),
        *(_symmetric(n, lambda w, n: w & 1) for n in (3, 7, 8)),
    ],
    ids=[
        "declist-up", "declist-down", "address-first", "address-last",
        *(f"{name}{n}" for name in ("and", "or", "parity") for n in (3, 7, 8)),
    ],
)
def test_sweep_tables_match_round_kernel_structured(monkeypatch, f):
    sweeps = []
    sweep = boolfn._axis_sweep

    def counted(cube, n):
        sweeps.append(n)
        sweep(cube, n)

    monkeypatch.setattr(boolfn, "_axis_sweep", counted)
    got = boolfn._depth_table(f)
    _assert_round_tables(f, got)
    # flags are built, not swept: only depth sweeps, at most D + 1, the last changing nothing
    assert 2 <= len(sweeps) <= int(got[-1]) + 1


def test_depth_kernel_calls_do_not_share_state():
    f, g = _decision_list(range(8)), _decision_list(range(7, -1, -1))
    for h in (f, f, g, f):
        got = boolfn._depth_table(h)
        _assert_round_tables(h, got)
        del got  # free the table, so the next call can be handed its memory


def test_depth_kernel_reads_no_unwritten_state(monkeypatch):
    # fresh pages read 0, so a kernel reading a state it never wrote could pass
    # the tests above; here every buffer it allocates starts as 0xA5 bytes
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.view(np.uint8).fill(0xA5)
        return out

    monkeypatch.setattr(boolfn.np, "empty", poisoned)
    for n in (1, 2, 3):
        for code in range(1 << (1 << n)):
            f = BooleanFunction(n, [(code >> i) & 1 for i in range(1 << n)])
            _assert_round_tables(f, boolfn._depth_table(f))
    rng = np.random.default_rng(33)
    for n in range(4, 10):
        f = BooleanFunction(n, rng.integers(0, 2, 1 << n).astype(np.uint8))
        _assert_round_tables(f, boolfn._depth_table(f))


def test_depth_kernel_peak_memory_per_state():
    # the figure behind MAX_DCAP and README's cap sentence: the 3**n-byte table,
    # the only buffer, and the sweeps' scratch of a third of a table, which sets
    # the peak: about 1.38 bytes a state at n = 12
    n = 12
    f = BooleanFunction(n, np.random.default_rng(12).integers(0, 2, 1 << n).astype(np.uint8))
    tracemalloc.start()
    try:
        boolfn._depth_table(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 3**n < 1.45


def test_depth_refuses_more_than_max_dcap(monkeypatch):
    monkeypatch.setattr(boolfn, "MAX_DCAP", 3)
    assert deterministic_complexity(named_function("F3")) == 3
    with pytest.raises(ValueError):
        deterministic_complexity(named_function("G4"))


def test_depth_sensitivity_bounds_random():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 9)
        f = random_function(rng, n)
        s = sensitivity(f)
        d = deterministic_complexity(f)
        assert s <= d <= n
        if s == n:
            assert d == n


def _degree_bound_closes(table):
    """The test by which deterministic_complexity reads D(f) = n, on a plain subset transform."""
    c = np.asarray(table, dtype=np.int64).copy()
    n = c.size.bit_length() - 1
    for b in range(n):
        v = c.reshape(-1, 2, 1 << b)
        v[:, 1] -= v[:, 0]
    top = c.size - 1
    return bool(c[1:].any()) and (c[top] != 0 or all(c[top ^ (1 << j)] != 0 for j in range(n)))


def _cosym(n, seed):
    """A seeded random complement-symmetric table (numpy default_rng(seed))."""
    t = np.random.default_rng(seed).integers(0, 2, 1 << n, dtype=np.uint8)
    t[1 << (n - 1):] = t[: 1 << (n - 1)][::-1]
    return BooleanFunction(n, t)


def _degree_bound_cases():
    for n in (1, 2, 3):
        for code in range(1 << (1 << n)):
            yield BooleanFunction(n, [(code >> i) & 1 for i in range(1 << n)])
    yield from boolfn.complement_symmetric_functions(4)
    rng = np.random.default_rng(23)
    for n, count in ((4, 400), (5, 400), (6, 300), (7, 300), (8, 250), (9, 200), (10, 150)):
        for density in (0.5, 0.1):
            for _ in range(count // 2):
                yield BooleanFunction(n, (rng.random(1 << n) < density).astype(np.uint8))


def test_degree_bound_agrees_with_depth_sweep():
    closed = total = 0
    for f in _degree_bound_cases():
        swept = int(boolfn._depth_table(f)[-1])
        if _degree_bound_closes(f.table()):
            assert swept == f.n, f
            closed += 1
        assert deterministic_complexity(f) == swept, f
        total += 1
    assert total == 4 + 16 + 256 + 256 + 2000
    assert 0 < closed < total
    # the non-constant guard: on one variable the constant 1 has c[top ^ 1] = c[0] = 1
    assert deterministic_complexity(BooleanFunction(1, [1] * 2)) == 0


def test_restriction_search_is_exact_on_small_functions():
    # followed to the end the search decides D(f) = n, and within its default 1.5**n visits
    # it still does on every function with n <= 3, every complement-symmetric one with
    # n = 4 and the 400 seeded ones with n = 4
    for f in _degree_bound_cases():
        if f.n > 4:
            break
        full = int(boolfn._depth_table(f)[-1]) == f.n
        c = polynomial.mobius_coefficients(f.table())
        assert boolfn._proves_full_depth(c, budget=3**f.n) == full, f
        assert boolfn._proves_full_depth(c) == full, f


def test_restriction_search_proves_complement_symmetric_tables():
    # the degree bound misses 19 of these 120 (odd-size Fourier coefficients vanish);
    # within its 1.5**n visits the search proves 17 of the 19, all of depth n
    missed = proved = 0
    for n in (9, 10, 11):
        for seed in range(40):
            f = _cosym(n, seed)
            if _degree_bound_closes(f.table()):
                continue
            missed += 1
            proved += boolfn._proves_full_depth(polynomial.mobius_coefficients(f.table()))
            assert int(boolfn._depth_table(f)[-1]) == n
    assert (missed, proved) == (19, 17)


def _mux9():
    """x1 ? B(x6..x9) : A(x2..x5), A and B seeded: depends on every variable, depth 5."""
    return BooleanFunction.from_json_dict(json.loads((GOLDEN / "table-mux9.json").read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "f, sweeps",
    [
        (_symmetric(8, lambda w, n: w & 1), 0),
        (BooleanFunction(12, np.random.default_rng(12).integers(0, 2, 1 << 12, dtype=np.uint8)), 0),
        (_symmetric(8, lambda w, n: int(w == n)), 0),  # c[top] is its only nonzero coefficient
        (_cosym(9, 1), 0),  # odd n and complement-symmetric: c[top] = 0, every c[top ^ bit] != 0
        (BooleanFunction(4, [(i >> 3) & 1 for i in range(16)]), 1),  # x1 ignores x2..x4
        (_cosym(9, 3), 0),  # c[top] = 0 = c[top ^ bit] for x7: its restrictions' restrictions prove it
        (_mux9(), 1),  # the search fails; tests/golden/table-mux9.json
    ],
    ids=["parity8", "random12", "and8", "cosym9-seed1", "dictator4", "cosym9-seed3", "mux9"],
)
def test_depth_sweep_runs_only_where_the_restriction_search_fails(monkeypatch, f, sweeps):
    calls = []
    tables = boolfn._depth_table

    def counted(g):
        calls.append(g)
        return tables(g)

    monkeypatch.setattr(boolfn, "_depth_table", counted)
    d = deterministic_complexity(f)
    assert len(calls) == sweeps
    assert d == int(tables(f)[-1])


# ---------------------------------------------------------------------------
# Enumeration of complement-symmetric full-depth functions
# ---------------------------------------------------------------------------

def _enumerate_naive(n):
    half = 1 << (n - 1)
    full = (1 << n) - 1
    found = set()
    for choice in range(1 << half):
        table = [0] * (1 << n)
        for cls_index in range(half):
            v = (choice >> cls_index) & 1
            table[cls_index] = v
            table[full ^ cls_index] = v
        if naive_depth(table, n) == n:
            found.add(tuple(table))
    return found


def test_enumeration_n3_matches_table1():
    computed = enumerate_complement_symmetric_full_d(3)
    expected = {named_function(f"table1:{i}") for i in range(1, 9)}
    assert len(computed) == 8
    assert set(computed) == expected
    tables = [tuple(f.table()) for f in computed]
    assert tables == sorted(tables)


def test_enumeration_n4_contains_table2():
    computed = enumerate_complement_symmetric_full_d(4)
    computed_set = set(computed)
    for i in range(1, 9):
        assert named_function(f"table2:{i}") in computed_set
    parity = BooleanFunction(4, [bin(i).count("1") & 1 for i in range(16)])
    assert parity in computed_set  # symmetric with full depth, outside the table
    assert {tuple(f.table()) for f in computed} == _enumerate_naive(4)


def test_complement_symmetric_functions_match_naive_loop():
    for n in (1, 2, 3, 4):
        half, full = 1 << (n - 1), (1 << n) - 1
        expected = []
        for choice in range(1 << half):
            table = [0] * (1 << n)
            for cls_index in range(half):
                table[cls_index] = table[full ^ cls_index] = (choice >> cls_index) & 1
            expected.append(tuple(table))
        assert [tuple(f.table()) for f in boolfn.complement_symmetric_functions(n)] == expected


def test_enumeration_rejects_other_arities():
    with pytest.raises(ValueError):
        enumerate_complement_symmetric_full_d(5)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

AND2 = BooleanFunction(2, (0, 0, 0, 1))


def test_compose_fixture_values():
    f3 = named_function("F3")
    comp = compose_function(AND2, f3)
    assert comp.n == 6
    assert comp("001001") == 1
    assert comp("000001") == 0
    assert deterministic_complexity(comp) == 6


def test_compose_agrees_with_blockwise_evaluation():
    rng = random.Random(23)
    for _ in range(10):
        n, m = rng.choice([(2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (2, 2)])
        h = random_function(rng, n)
        f1 = random_function(rng, m)
        comp = compose_function(h, f1)
        for i in range(1 << (n * m)):
            x = InputAssignment.from_index(n * m, i)
            blocks = [
                f1(InputAssignment(m, x.bits[j * m : (j + 1) * m])) for j in range(n)
            ]
            assert comp.value_at(i) == h(InputAssignment(n, tuple(blocks)))


def test_compose_preserves_complement_symmetry():
    rng = random.Random(29)
    f3 = named_function("F3")
    for _ in range(10):
        h = random_function(rng, rng.randint(1, 3))
        comp = compose_function(h, f3)
        assert complement_symmetric(comp)


def _compose_reference(outer, inner, blocks):
    """Brute-force composition: block j's inner value is bit k-1-j of the outer index."""
    def fn(bits):
        j = 0
        for block in blocks:
            j = (j << 1) | int(inner[int("".join(str(bits[v]) for v in block), 2)])
        return int(outer[j])

    return _tabulate(sum(map(len, blocks)), fn).table()


@pytest.mark.parametrize(
    "blocks",
    [
        [(0, 1, 2, 3)],  # outer function on one variable
        [(0,), (1,), (2,), (3,), (4,)],  # inner function on one variable
        [(0, 1), (2, 3), (4, 5)],
        [(5, 4), (3, 2), (1, 0)],  # reversed
        [(0, 3), (4, 1), (2, 5)],  # interleaved
    ],
)
def test_compose_table_matches_reference(blocks):
    rng = np.random.default_rng(31 + len(blocks))
    outer = rng.integers(0, 2, 1 << len(blocks)).astype(np.uint8)
    inner = rng.integers(0, 2, 1 << len(blocks[0])).astype(np.uint8)
    table = compose_table(outer, inner, blocks)
    assert table.dtype == np.uint8 and table.flags.c_contiguous
    assert np.array_equal(table, _compose_reference(outer, inner, blocks))
    # every aligned range, from one entry up to the whole table
    n = sum(map(len, blocks))
    for m in range(n + 1):
        for start in range(0, 1 << n, 1 << m):
            part = compose_table(outer, inner, blocks, start, start + (1 << m))
            assert part.flags.c_contiguous
            assert np.array_equal(part, table[start : start + (1 << m)]), (m, start)


@pytest.mark.parametrize("start, stop", [(0, 3), (2, 6), (4, 4), (-4, 0), (32, 96), (64, 128)])
def test_compose_table_rejects_unaligned_ranges(start, stop):
    outer = np.array([0, 1, 1, 0], dtype=np.uint8)
    inner = np.array([0, 1, 1, 1, 1, 1, 1, 0], dtype=np.uint8)
    with pytest.raises(ValueError, match="aligned power-of-two range"):
        compose_table(outer, inner, [(0, 1, 2), (3, 4, 5)], start, stop)


@pytest.mark.parametrize(
    "blocks, inner",
    [
        (((0, 1), (0, 1)), [0, 1, 1, 0]),  # a variable twice, one missing
        (((0, 1), (3, 4)), [0, 1, 1, 0]),  # variables outside range(4)
        (((0, 1), (2,)), [0, 1, 1, 0]),  # a block of the wrong arity
        (((0, 1), (2, 3)), [0, 1, 1]),  # an inner table that is not 2^b entries
    ],
    ids=["repeated", "out-of-range", "short-block", "inner-3-entries"],
)
def test_compose_table_rejects_blocks_that_do_not_partition(blocks, inner):
    and2 = np.array([0, 0, 0, 1], dtype=np.uint8)
    with pytest.raises(ValueError, match="must partition"):
        compose_table(and2, np.array(inner, dtype=np.uint8), blocks)


def test_compose_table_builds_only_uint8_tables():
    rng = np.random.default_rng(37)
    outer = rng.integers(0, 2, 1 << 4).astype(np.uint8)
    inner = rng.integers(0, 2, 1 << 5).astype(np.uint8)
    blocks = [range(5 * j, 5 * j + 5) for j in range(4)]
    tracemalloc.start()
    try:
        table = compose_table(outer, inner, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.size == 1 << 20
    assert peak < 1.5 * (1 << 20)  # one int64 index array alone is 8 bytes a cell


def test_compose_size_overflow():
    h = BooleanFunction(4, [0] * 16)
    f1 = BooleanFunction(9, [0] * 512)
    with pytest.raises(ValueError):
        compose_function(h, f1)


# ---------------------------------------------------------------------------
# Complexity report
# ---------------------------------------------------------------------------

def test_complexity_report_f3():
    report = complexity_report(named_function("F3"))
    assert report.n == 3
    assert report.sensitivity == 3
    assert report.d_exact == 3
    assert report.degree == 2
    assert report.qe_lower == 1
    assert report.complement_symmetric is True
    assert report.d_lower == 3


def test_complexity_report_constant():
    report = complexity_report(BooleanFunction(3, [0] * 8))
    assert report.sensitivity == 0
    assert report.degree == 0
    assert report.qe_lower == 0
    assert report.d_exact == 0


def test_complexity_report_invariants_random():
    rng = random.Random(31)
    for _ in range(15):
        f = random_function(rng, rng.randint(3, 8))
        report = complexity_report(f)
        assert report.sensitivity <= report.d_lower <= report.d_exact
        assert report.degree <= report.d_exact
        assert report.qe_lower == (report.degree + 1) // 2
