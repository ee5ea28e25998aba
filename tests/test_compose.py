"""Decision trees and the tree-with-exact-subroutine composition."""

import random
from fractions import Fraction

import pytest

from exactquery import boolfn, qsim
from exactquery.boolfn import (
    BooleanFunction,
    InputAssignment,
    compose_function,
    deterministic_complexity,
    named_function,
)
from exactquery.compose import (
    HybridAlgorithm,
    Leaf,
    build_decision_tree,
    hybrid_evaluate,
    verify_gap,
)

AND2 = BooleanFunction(2, (0, 0, 0, 1))


def random_function(rng, n):
    return BooleanFunction(n, [rng.randint(0, 1) for _ in range(1 << n)])


def paths_repeat_no_variable(tree):
    """True iff no root-to-leaf path of the tree reads a variable twice."""
    def rec(node, seen):
        if isinstance(node, Leaf):
            return True
        if node.var in seen:
            return False
        seen = seen | {node.var}
        return rec(node.if_zero, seen) and rec(node.if_one, seen)

    return rec(tree.root, frozenset())


def walk(tree, bits):
    """(value, variables read) on the tree's root-to-leaf path for a bit string."""
    node, reads = tree.root, 0
    while not isinstance(node, Leaf):
        node = node.if_one if bits[node.var] == "1" else node.if_zero
        reads += 1
    return node.value, reads


# ---------------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------------

def test_tree_depth_fixtures():
    assert build_decision_tree(AND2).depth() == 2
    x1 = BooleanFunction(2, (0, 0, 1, 1))
    assert build_decision_tree(x1).depth() == 1
    xor3 = BooleanFunction(3, [bin(i).count("1") & 1 for i in range(8)])
    assert build_decision_tree(xor3).depth() == 3


def test_tree_computes_function_and_is_read_once():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(1, 4)
        h = random_function(rng, n)
        tree = build_decision_tree(h)
        assert paths_repeat_no_variable(tree)
        assert tree.depth() == deterministic_complexity(h)
        for i in range(1 << n):
            x = str(InputAssignment.from_index(n, i))
            value, reads = walk(tree, x)
            assert value == h(x)
            assert reads <= tree.depth()


def test_tree_for_13_variables():
    or13 = BooleanFunction(13, [0] + [1] * ((1 << 13) - 1))
    tree = build_decision_tree(or13)
    assert tree.depth() == 13
    assert walk(tree, "0" * 13) == (0, 13)
    assert walk(tree, "1" + "0" * 12) == (1, 1)


def test_tree_and_gap_refuse_more_than_max_dcap(monkeypatch):
    monkeypatch.setattr(boolfn, "MAX_DCAP", 5)
    f3 = named_function("F3")
    with pytest.raises(ValueError, match="capped at n=5"):
        build_decision_tree(BooleanFunction(6, [0] + [1] * 63))
    with pytest.raises(ValueError, match="capped at 5 variables"):
        verify_gap(AND2, f3, qsim.a1())
    assert verify_gap(BooleanFunction(1, (0, 1)), f3, qsim.a1()).correct


def test_tree_short_circuits_and2():
    tree = build_decision_tree(AND2)
    assert walk(tree, "00") == (0, 1)
    assert walk(tree, "01") == (0, 1)
    assert walk(tree, "11") == (1, 2)


# ---------------------------------------------------------------------------
# Hybrid construction guards
# ---------------------------------------------------------------------------

def test_hybrid_rejects_outer_not_needing_all_variables():
    degenerate = BooleanFunction(2, (0, 0, 1, 1))  # depth 1 < 2
    f3 = named_function("F3")
    with pytest.raises(ValueError):
        HybridAlgorithm.build(degenerate, f3, qsim.a1())


def test_hybrid_rejects_inexact_inner():
    x1 = BooleanFunction(3, (0, 0, 0, 0, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        HybridAlgorithm.build(AND2, x1, qsim.a1())


def test_hybrid_built_directly_checks_itself():
    # the checks run when the hybrid is built, however it is built
    f3 = named_function("F3")
    a1 = qsim.a1()
    flipped = a1.with_outputs([1 - o for o in a1.outputs])
    with pytest.raises(ValueError, match="^inner algorithm is not exact for the inner function$"):
        HybridAlgorithm(build_decision_tree(AND2), flipped, f3)
    shallow = build_decision_tree(BooleanFunction(2, (0, 0, 1, 1)))  # depth 1 < 2
    with pytest.raises(ValueError, match=r"^outer function must need all its variables \(depth 1 != n 2\)$"):
        HybridAlgorithm(shallow, qsim.a1(), f3)


# ---------------------------------------------------------------------------
# Hybrid evaluation
# ---------------------------------------------------------------------------

def test_hybrid_fixture_values():
    f3 = named_function("F3")
    hy = HybridAlgorithm.build(AND2, f3, qsim.a1())
    assert hybrid_evaluate(hy, "001001") == (1, 4)
    assert hybrid_evaluate(hy, "000111") == (0, 2)


def test_hybrid_single_variable_outer():
    ident = BooleanFunction(1, (0, 1))
    g4 = named_function("G4")
    hy = HybridAlgorithm.build(ident, g4, qsim.a2())
    assert hybrid_evaluate(hy, "0101") == (1, 2)
    assert hybrid_evaluate(hy, "0011") == (0, 2)


def test_hybrid_agrees_with_composition_exhaustively():
    f3 = named_function("F3")
    hy = HybridAlgorithm.build(AND2, f3, qsim.a1())
    composite = compose_function(AND2, f3)
    k1 = qsim.a1().query_count
    max_queries = 0
    for i in range(1 << 6):
        x = InputAssignment.from_index(6, i)
        value, queries = hybrid_evaluate(hy, x)
        assert value == composite.value_at(i)
        assert queries % k1 == 0
        max_queries = max(max_queries, queries)
    assert max_queries == k1 * 2


def test_hybrid_arity_mismatch():
    hy = HybridAlgorithm.build(AND2, named_function("F3"), qsim.a1())
    with pytest.raises(ValueError):
        hybrid_evaluate(hy, "00100")


# ---------------------------------------------------------------------------
# Gap verification
# ---------------------------------------------------------------------------

def test_gap_for_one_table1_member():
    f1 = named_function("table1:3")
    inner = qsim.relabel_outputs(qsim.a1(), f1)
    report = verify_gap(AND2, f1, inner)
    assert report.correct
    assert report.n_inputs == 64
    assert report.max_queries == 4
    assert report.d_exact == 6
    assert report.ratio == Fraction(2, 3)


def test_gap_for_one_table2_member():
    g = named_function("table2:7")
    inner = qsim.relabel_outputs(qsim.a2(), g)
    report = verify_gap(AND2, g, inner)
    assert report.correct
    assert report.n_inputs == 256
    assert report.max_queries == 4
    assert report.d_exact == 8
    assert report.ratio == Fraction(1, 2)


def test_gap_degenerate_single_variable_outer():
    ident = BooleanFunction(1, (0, 1))
    f3 = named_function("F3")
    report = verify_gap(ident, f3, qsim.a1())
    assert report.correct
    assert report.max_queries == 2
    assert report.d_exact == 3
    assert report.ratio == Fraction(2, 3)


def test_gap_report_json():
    f3 = named_function("F3")
    report = verify_gap(BooleanFunction(1, (0, 1)), f3, qsim.a1())
    data = report.to_json_dict()
    assert data == {
        "n_inputs": 8,
        "correct": True,
        "max_queries": 2,
        "d_exact": 3,
        "ratio_num": 2,
        "ratio_den": 3,
    }


def test_gap_rejects_constant_inner_function():
    for value in (0, 1):
        constant = BooleanFunction(3, [value] * 8)
        inner = qsim.relabel_outputs(qsim.a1(), constant)
        with pytest.raises(ValueError, match="inner function must not be constant"):
            verify_gap(AND2, constant, inner)
