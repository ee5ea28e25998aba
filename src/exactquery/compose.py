"""Hybrid composition: a decision tree whose reads run an exact subroutine.

The outer function is evaluated by an optimal decision tree; every time the
tree would read outer variable j, the inner algorithm runs on block j of the
composite input instead.  Exactness of the inner algorithm makes each run
deterministic, so the composite is computed with (inner queries) x (path
length) oracle calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import boolfn, qsim
from .boolfn import BooleanFunction, InputAssignment, coerce_input


@dataclass(frozen=True)
class Leaf:
    value: int


@dataclass(frozen=True)
class Node:
    var: int  # outer variable, 0-based
    if_zero: "TreeNode"
    if_one: "TreeNode"


TreeNode = Union[Leaf, Node]


@dataclass(frozen=True)
class DecisionTree:
    n: int
    root: TreeNode

    def depth(self) -> int:
        def rec(node: TreeNode) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(rec(node.if_zero), rec(node.if_one))

        return rec(self.root)


def build_decision_tree(h: BooleanFunction) -> DecisionTree:
    """Materialize an optimal decision tree for h (depth equals exact D(h)).

    Walks the bottom-up depth table: at each partial assignment the first
    variable achieving the minimax optimum is queried, smallest index first.
    A state of depth 0 is constant: its leaf is h at the input index of its
    branch, where each variable fixed to 1 sets its bit.  Refused above
    ``boolfn.MAX_DCAP`` variables, as the table is.
    """
    depth = boolfn._depth_table(h)
    n = h.n
    strides = [3 ** (n - 1 - var) for var in range(n)]  # place value of each variable's digit

    def build(state: int, index: int) -> TreeNode:
        if depth[state] == 0:
            return Leaf(h.value_at(index))
        free = [var for var in range(n) if state // strides[var] % 3 == 2]
        var = min(free, key=lambda v: max(depth[state - 2 * strides[v]], depth[state - strides[v]]))
        stride, bit = strides[var], 1 << (n - 1 - var)  # var's digit and its table-index bit
        return Node(var, build(state - 2 * stride, index), build(state - stride, index | bit))

    tree = DecisionTree(n, build(3**n - 1, 0))
    want = int(depth[3**n - 1])
    if tree.depth() != want:
        raise AssertionError(f"tree depth {tree.depth()} != optimal {want}")
    return tree


@dataclass(frozen=True)
class HybridAlgorithm:
    """Outer decision tree over n block-values, inner exact algorithm per block."""

    tree: DecisionTree
    inner: qsim.QueryAlgorithm
    inner_function: BooleanFunction

    def __post_init__(self) -> None:
        if self.tree.depth() != self.tree.n:
            raise ValueError(
                f"outer function must need all its variables (depth {self.tree.depth()} != n {self.tree.n})"
            )
        if not qsim.is_exact(self.inner, self.inner_function):
            raise ValueError("inner algorithm is not exact for the inner function")

    @property
    def block_width(self) -> int:
        return self.inner_function.n

    @property
    def arity(self) -> int:
        return self.tree.n * self.block_width

    @classmethod
    def build(
        cls,
        h: BooleanFunction,
        f1: BooleanFunction,
        inner: qsim.QueryAlgorithm,
    ) -> "HybridAlgorithm":
        return cls(build_decision_tree(h), inner, f1)


def hybrid_evaluate(hy: HybridAlgorithm, x) -> tuple[int, int]:
    """Evaluate the composite input; returns (value, oracle queries used)."""
    x = coerce_input(x, hy.arity)
    m = hy.block_width
    node = hy.tree.root
    queries = 0
    while isinstance(node, Node):
        block = x.bits[node.var * m : (node.var + 1) * m]
        final = qsim.simulate(hy.inner, InputAssignment(m, block))
        value = final.deterministic_outcome()
        queries += hy.inner.query_count
        node = node.if_one if value else node.if_zero
    return node.value, queries


@dataclass(frozen=True)
class GapReport:
    """Worst-case query count of the hybrid against the composite's exact depth."""

    n_inputs: int
    correct: bool
    max_queries: int
    d_exact: int
    ratio: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "correct": self.correct,
            "max_queries": self.max_queries,
            "d_exact": self.d_exact,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
        }


def verify_gap(
    h: BooleanFunction,
    f1: BooleanFunction,
    inner: qsim.QueryAlgorithm,
) -> GapReport:
    """Exhaustively compare the hybrid with direct composition.

    Checks every composite input, tracks the worst query count, and measures
    the composite's exact decision-tree depth independently, up to
    ``boolfn.MAX_DCAP`` variables.  f1 must not be constant (the composite's
    depth would be 0).
    """
    if f1.table().all() or not f1.table().any():
        raise ValueError("inner function must not be constant")
    total = h.n * f1.n
    if total > boolfn.MAX_DCAP:
        raise ValueError(f"exhaustive gap check capped at {boolfn.MAX_DCAP} variables")
    hy = HybridAlgorithm.build(h, f1, inner)
    composite = boolfn.compose_function(h, f1)
    correct = True
    max_queries = 0
    for i in range(1 << total):
        x = InputAssignment.from_index(total, i)
        value, queries = hybrid_evaluate(hy, x)
        max_queries = max(max_queries, queries)
        if value != composite.value_at(i):
            correct = False
    d_exact = boolfn.deterministic_complexity(composite)
    return GapReport(
        n_inputs=1 << total,
        correct=correct,
        max_queries=max_queries,
        d_exact=d_exact,
        ratio=Fraction(max_queries, d_exact),
    )
