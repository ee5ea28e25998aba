"""Exact scalars, unitarity, simulation, relabeling and the builtin algorithms."""

import json
import random
from fractions import Fraction
from math import gcd, sqrt
from pathlib import Path

import pytest

from exactquery.boolfn import BooleanFunction, InputAssignment, named_function
from exactquery import cli, qsim
from exactquery.qsim import (
    HALF,
    INV_SQRT2,
    ONE,
    ZERO,
    ExactScalar,
    QueryAlgorithm,
    QueryLayer,
    UnitaryMatrix,
    a1,
    a2,
    algorithm_from_json_dict,
    check_unitary,
    final_states,
    is_exact,
    parse_scalar,
    relabel_outputs,
    simulate,
)

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def test_scalar_ring_identities():
    r = INV_SQRT2
    assert r * r == HALF
    two = ExactScalar.of(2)
    sqrt2 = ExactScalar.of(0, 1)
    assert sqrt2 * sqrt2 == two
    x = ExactScalar.of(Fraction(3, 4), Fraction(-1, 2))
    y = ExactScalar.of(Fraction(-1, 3), Fraction(5, 6))
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    assert x + ZERO == x and x * ONE == x
    assert (-x) + x == ZERO


def test_scalar_reduction_and_equality():
    # ExactScalar(a, b, d) is (a + b sqrt2) / d
    assert ExactScalar(2, 4, 6) == ExactScalar(1, 2, 3)
    assert ExactScalar(1, 1, -2) == ExactScalar(-1, -1, 2)
    third = ExactScalar(3, 0, -6)
    assert (third.an, third.bn, third.d) == (-1, 0, 2)
    assert ExactScalar(0, 0, -5) == ZERO
    assert ExactScalar.of(Fraction(1, 2)).a == Fraction(1, 2)
    assert hash(ExactScalar(2, 4, 6)) == hash(ExactScalar(1, 2, 3))
    with pytest.raises(ZeroDivisionError):
        ExactScalar(1, 0, 0)


def test_scalar_arithmetic_matches_fraction_pairs():
    # reference: the pair (a, b) stands for a + b sqrt2, in Fraction arithmetic
    rng = random.Random(22)
    pairs = [
        (Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
         Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
        for _ in range(300)
    ]
    for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
        x, y = ExactScalar.of(a1, b1), ExactScalar.of(a2, b2)
        assert (x == y) == ((a1, b1) == (a2, b2))
        for got, (a, b) in [
            (x, (a1, b1)),
            (x + y, (a1 + a2, b1 + b2)),
            (x - y, (a1 - a2, b1 - b2)),
            (x * y, (a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)),
            (-x, (-a1, -b1)),
        ]:
            assert (got.a, got.b) == (a, b)
            assert got.d > 0 and gcd(got.an, got.bn, got.d) == 1
            k = rng.choice((-3, -1, 2, 5))  # an unreduced triple of the same value
            want = ExactScalar(
                k * a.numerator * b.denominator, k * b.numerator * a.denominator,
                k * a.denominator * b.denominator,
            )
            assert got == want and hash(got) == hash(want)
            assert got.is_zero() == (a == b == 0)
            assert str(got) == (
                str(a) if not b else f"{b} r2" if not a
                else f"{a} + {b} r2" if b > 0 else f"{a} - {-b} r2"
            )
            assert parse_scalar(str(got)) == got
            assert float(got) == float(a) + float(b) * sqrt(2)


def test_scalar_strings():
    cases = {
        ZERO: "0",
        -ONE: "-1",
        HALF: "1/2",
        INV_SQRT2: "1/2 r2",
        -INV_SQRT2: "-1/2 r2",
        ExactScalar.of(Fraction(1, 2), Fraction(1, 2)): "1/2 + 1/2 r2",
        ExactScalar.of(Fraction(1, 2), Fraction(-1, 2)): "1/2 - 1/2 r2",
    }
    for scalar, text in cases.items():
        assert str(scalar) == text
        assert parse_scalar(text) == scalar


def test_scalar_parse_errors():
    for bad in ("", "one", "1//2", "r2 1", "1/0", "1 + 1/0 r2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_scalar_parse_decimals_exactly():
    assert parse_scalar("0.5") == HALF
    assert parse_scalar("-0.5") == -HALF
    assert parse_scalar("1e-17") == ExactScalar.of(Fraction(1, 10**17))
    assert parse_scalar("0.7071067811865476").a == Fraction(7071067811865476, 10**16)
    assert parse_scalar("0.5 + 1/2 r2") == ExactScalar.of(Fraction(1, 2), Fraction(1, 2))


def test_scalar_parse_does_not_split_a_number():
    assert parse_scalar("12 r2") == ExactScalar.of(0, 12)
    assert parse_scalar("11/2 r2") == ExactScalar.of(0, Fraction(11, 2))
    for bad in ("1.5 r2", "1/2.5", "1e1000"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_scalar_float():
    assert abs(float(INV_SQRT2) - 0.7071067811865476) < 1e-15


# ---------------------------------------------------------------------------
# Unitarity
# ---------------------------------------------------------------------------

def _u0():
    h = HALF
    return UnitaryMatrix([[h, h, h, h], [h, -h, h, -h], [h, h, -h, -h], [h, -h, -h, h]])


def _u1():
    r = INV_SQRT2
    return UnitaryMatrix(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, r, r, ZERO],
            [ZERO, r, -r, ZERO],
            [ZERO, ZERO, ZERO, ONE],
        ]
    )


def test_check_unitary_fixtures():
    # each is checked when built, and the builtins' module-level matrices are these
    assert _u0() == qsim._HH and _u1() == qsim._U1
    assert check_unitary(_u0().rows) and check_unitary(_u1().rows)
    assert not check_unitary([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(ValueError, match="^layer matrix is not exactly unitary$"):
        UnitaryMatrix([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(ValueError, match="^matrix must be square$"):
        UnitaryMatrix([[ONE, ZERO], [ZERO]])


def test_check_unitary_tolerance():
    r = parse_scalar("0.7071067811865476")
    with pytest.raises(ValueError, match="^layer matrix is not exactly unitary$"):
        UnitaryMatrix([[r, r], [r, -r]])
    assert UnitaryMatrix([[r, r], [r, -r]], 1e-9).rows == ((r, r), (r, -r))
    # the 1e400 entry's square overflows a float
    for rows in ([[ONE, ONE], [ONE, ONE]], [[parse_scalar("1e400"), ZERO], [ZERO, ONE]]):
        with pytest.raises(ValueError, match="^layer matrix is not unitary within 1e-09$"):
            UnitaryMatrix(rows, 1e-9)


def test_algorithm_rejects_non_unitary_layer():
    # the layer is refused when built, before an algorithm can hold it
    with pytest.raises(ValueError, match="not exactly unitary"):
        QueryAlgorithm(2, 1, (UnitaryMatrix([[ONE, ONE], [ONE, ONE]]),), (0, 1))


def test_builtins_and_relabeling_check_no_matrix(monkeypatch):
    # each UnitaryMatrix is checked once, when built: building an algorithm
    # from checked matrices, or relabeling its outputs, re-checks none
    calls = []
    monkeypatch.setattr(qsim, "check_unitary", lambda *args: calls.append(args) or True)
    alg = a1()
    a2()
    relabel_outputs(alg, named_function("F3"))
    assert calls == []


def test_algorithm_validation():
    with pytest.raises(ValueError):
        QueryAlgorithm(4, 3, (QueryLayer(2, (0, 1)),), (0, 0, 0, 1))
    with pytest.raises(ValueError):
        QueryAlgorithm(2, 1, (QueryLayer(2, (0, 5)),), (0, 1))
    with pytest.raises(ValueError):
        QueryAlgorithm(2, 1, (), (0,))
    with pytest.raises(ValueError):
        QueryAlgorithm(2, 1, (), (0, 2))


def test_algorithm_rejects_layers_only_a_library_caller_can_pass():
    # the JSON decoder checks a layer's shape first, so files never reach these
    identity2 = UnitaryMatrix([[ONE, ZERO], [ZERO, ONE]])
    with pytest.raises(ValueError, match="^unitary layer dimension mismatch$"):
        QueryAlgorithm(4, 1, [identity2], [0, 0, 0, 1])
    with pytest.raises(TypeError, match="^unsupported layer 'H'$"):
        QueryAlgorithm(2, 1, ["H"], [0, 1])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

A1_TRACE_011 = [
    ("1/2", "1/2", "1/2", "1/2"),
    ("1/2", "-1/2", "1/2", "-1/2"),
    ("1/2", "0", "-1/2 r2", "-1/2"),
    ("-1/2", "0", "1/2 r2", "1/2"),
    ("-1/2", "1/2", "-1/2", "1/2"),
    ("0", "-1", "0", "0"),
]


def test_zero_layer_algorithm_is_identity():
    alg = QueryAlgorithm(3, 2, (), (0, 1, 0))
    final = simulate(alg, "10")
    assert [str(a) for a in final.amplitudes] == ["1", "0", "0"]
    assert final.deterministic_outcome() == 0


def test_a1_trace_matches_published_computation():
    final = simulate(a1(), "011", trace=True)
    got = [tuple(str(a) for a in state) for state in final.trace]
    assert got == A1_TRACE_011
    assert [str(a) for a in final.amplitudes] == ["0", "-1", "0", "0"]
    assert final.deterministic_outcome() == 0
    assert final.outcome_prob[0] == ONE and final.outcome_prob[1] == ZERO


def test_a1_contract():
    alg = a1()
    assert alg.dim == 4 and alg.n == 3
    assert alg.query_count == 2
    assert alg.outputs == (0, 0, 0, 1)
    assert is_exact(alg, named_function("F3"))


def test_final_states_are_simulate_by_input_index():
    for alg in (a1(), a2()):
        finals = final_states(alg)
        assert len(finals) == 1 << alg.n
        for i, final in enumerate(finals):
            assert final == simulate(alg, InputAssignment.from_index(alg.n, i))


def test_a1_is_basis_deterministic_everywhere():
    alg = a1()
    for i in range(8):
        final = simulate(alg, InputAssignment.from_index(3, i))
        assert final.deterministic_index() is not None


def test_a1_not_exact_for_asymmetric_function():
    x1 = BooleanFunction(3, (0, 0, 0, 0, 1, 1, 1, 1))
    assert not is_exact(a1(), x1)


def test_a2_contract():
    alg = a2()
    assert alg.dim == 4 and alg.n == 4
    assert alg.query_count == 2
    assert is_exact(alg, named_function("G4"))
    assert simulate(alg, "0101").deterministic_outcome() == 1


def test_a2_final_index_encodes_the_two_parities():
    alg = a2()
    for i in range(16):
        x = InputAssignment.from_index(4, i)
        idx = simulate(alg, x).deterministic_index()
        p = x.bits[0] ^ x.bits[1]
        q = x.bits[2] ^ x.bits[3]
        assert idx == 2 * p + q


def test_simulate_dimension_mismatch():
    with pytest.raises(ValueError):
        simulate(a1(), "0110")


# ---------------------------------------------------------------------------
# Classification and relabeling
# ---------------------------------------------------------------------------

def test_classify_a1_is_a_bijection():
    # the complement classes {000, 111}, {001, 110}, {010, 101}, {011, 100} end on 0, 3, 2, 1
    indices = [final.deterministic_index() for final in final_states(a1())]
    assert indices == [0, 3, 2, 1, 1, 2, 3, 0]


def test_classify_a2_shares_indices_between_classes():
    indices = [final.deterministic_index() for final in final_states(a2())]
    assert indices[0b0000] == indices[0b0011] == 0


def test_relabel_all_symmetric_3var_functions():
    alg = a1()
    half, full = 4, 7
    for choice in range(16):
        table = [0] * 8
        for cls_index in range(half):
            v = (choice >> cls_index) & 1
            table[cls_index] = v
            table[full ^ cls_index] = v
        f = BooleanFunction(3, table)
        relabeled = relabel_outputs(alg, f)
        assert relabeled.query_count == 2
        assert is_exact(relabeled, f)


def test_relabel_constant_is_trivial():
    relabeled = relabel_outputs(a1(), BooleanFunction(3, [1] * 8))
    assert relabeled.outputs == (1, 1, 1, 1)


def test_relabel_a2_for_table2_members():
    alg = a2()
    for i in (1, 5, 8):
        g = named_function(f"table2:{i}")
        relabeled = relabel_outputs(alg, g)
        assert is_exact(relabeled, g)
        assert relabeled.query_count == 2


def _hadamard_sandwich():
    """H, a sign query on x1 for amplitude 0, H: input 0 ends on index 0, input 1 on index 1."""
    r = INV_SQRT2
    h = UnitaryMatrix([[r, r], [r, -r]])
    return QueryAlgorithm(2, 1, (h, QueryLayer(2, (0, None)), h), (0, 1))


@pytest.mark.parametrize(
    "alg, table, message",
    [
        pytest.param(a1(), named_function("table2:1").table(),
                     "algorithm and function arity mismatch", id="arity-mismatch"),
        pytest.param(a1(), (0, 0, 0, 0, 1, 1, 1, 1),
                     "function is not complement-symmetric", id="not-complement-symmetric"),
        # H x H alone spreads input 000 over all four indices
        pytest.param(QueryAlgorithm(4, 3, (_u0(),), (0, 0, 0, 1)), (0,) * 8,
                     "final state on input 000 is not a single basis state", id="not-one-basis-state"),
        pytest.param(_hadamard_sandwich(), (1, 1),
                     "complement class of 0 lands on two different indices", id="class-split"),
        # symmetric, but distinguishes the classes of 0000 and 0011, which a2 sends to index 0
        pytest.param(a2(), (1,) + (0,) * 14 + (1,),
                     "two complement classes with different values share a basis index",
                     id="shared-index-conflict"),
    ],
)
def test_relabel_outputs_refusals(alg, table, message):
    f = BooleanFunction(len(table).bit_length() - 1, table)
    with pytest.raises(ValueError, match=f"^{message}$"):
        relabel_outputs(alg, f)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def _random_exact_unit_state(rng):
    """Unit vectors generated by applying fixture layers to a basis state."""
    state = [ZERO] * 4
    state[rng.randrange(4)] = ONE if rng.random() < 0.5 else -ONE
    state = tuple(state)
    layers = [_u0(), _u1()]
    for _ in range(rng.randint(1, 4)):
        state = rng.choice(layers).apply(state)
    return state


def _norm_square(state):
    acc = ZERO
    for amp in state:
        acc = acc + amp * amp
    return acc


def test_unitary_layers_preserve_norm_exactly():
    rng = random.Random(71)
    for _ in range(25):
        state = _random_exact_unit_state(rng)
        assert _norm_square(state) == ONE
        for m in (_u0(), _u1()):
            assert _norm_square(m.apply(state)) == ONE


def test_query_layers_are_involutions():
    rng = random.Random(73)
    layer = QueryLayer(4, (0, 1, None, 2))
    for _ in range(20):
        state = _random_exact_unit_state(rng)
        x = InputAssignment(3, tuple(rng.randint(0, 1) for _ in range(3)))
        twice = layer.apply(layer.apply(state, x), x)
        assert twice == state


def test_probabilities_sum_to_one():
    for alg, n in ((a1(), 3), (a2(), 4)):
        for i in range(1 << n):
            final = simulate(alg, InputAssignment.from_index(n, i))
            assert final.outcome_prob[0] + final.outcome_prob[1] == ONE


# ---------------------------------------------------------------------------
# JSON codec and float mode
# ---------------------------------------------------------------------------

def test_algorithm_json_round_trip():
    # a1 written as an algorithm file
    data = json.loads((GOLDEN / "alg-a1.json").read_text(encoding="utf-8"))
    assert data["layers"][1] == {"query": [1, 2, 1, 2]}  # 1-based variables
    assert data["layers"][3] == {"query": [3, 1, 2, 3]}
    alg = a1()
    again = algorithm_from_json_dict(data)
    assert (again.dim, again.n, again.layers, again.outputs) == (alg.dim, alg.n, alg.layers, alg.outputs)
    assert again.query_count == 2
    final = simulate(again, "011", trace=True)
    assert [tuple(str(a) for a in s) for s in final.trace] == A1_TRACE_011


def test_algorithm_json_rejects_garbage():
    with pytest.raises(ValueError):
        algorithm_from_json_dict({"dim": 2})
    with pytest.raises(ValueError):
        algorithm_from_json_dict(
            {"dim": 2, "n": 1, "layers": [{"mystery": 1}], "outputs": [0, 1]}
        )


def test_float_mode_agrees_with_exact(capsys):
    for name, alg in (("a1", a1()), ("a2", a2())):
        for i in range(1 << alg.n):
            x = InputAssignment.from_index(alg.n, i)
            exact = simulate(alg, x)
            assert cli.main(["simulate", "--alg", f"builtin:{name}", "--input", str(x), "--float"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["outcome"] == exact.deterministic_outcome()
            for label in (0, 1):
                assert doc["probabilities"][str(label)] == float(exact.outcome_prob[label])
