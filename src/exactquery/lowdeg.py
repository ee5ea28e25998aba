"""Low-degree Boolean function families built from grouped quadratics.

The base device is a quadratic with a bounded integer range: variables are
split into three groups, a fixed set of cross-group connections is chosen,
and the quadratic counts colored points minus colored connections.  A
univariate collapser then squeezes the integer range onto {0,1}.  Iterating
block sums of an already-Boolean polynomial gives the same degree doubling
with tripled arity.

Families are described as composition data (``Compose``: a symmetric outer
function of one inner function on disjoint variable blocks), so one
batched evaluator, ``_values`` over the rows of a 0/1 input matrix, serves
every member at any arity, and truth tables, up to ``boolfn.MAX_N``
variables, come from the one composition builder ``boolfn.compose_table``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from math import prod
from typing import Optional, Union

import numpy as np

from . import polynomial
from .boolfn import MAX_N, BooleanFunction, InputAssignment, coerce_input, compose_table

# the degree-2 collapser for {0..3}: values 1,0,0,1
_S_VALUES = (1, 0, 0, 1)
# NAE3 (not-all-equal): the fixed-pairing quadratic w - C(w,2) on one
# position triangle of weight w
_NAE3 = (0, 1, 1, 1, 1, 1, 1, 0)


@dataclass(frozen=True)
class GroupPartition:
    """Assignment of each variable (0-based) to one of three groups."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(g not in (0, 1, 2) for g in self.assignment):
            raise ValueError("group ids must be 0, 1 or 2")
        if len(set(self.assignment)) != 3:
            raise ValueError("all three groups must be nonempty")

    @classmethod
    def contiguous(cls, n1: int, n2: int, n3: int) -> "GroupPartition":
        if min(n1, n2, n3) < 1:
            raise ValueError("group sizes must be positive")
        return cls(tuple([0] * n1 + [1] * n2 + [2] * n3))

    @classmethod
    def equal(cls, k: int) -> "GroupPartition":
        return cls.contiguous(k, k, k)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (
            self.assignment.count(0),
            self.assignment.count(1),
            self.assignment.count(2),
        )

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        out: tuple[list[int], ...] = ([], [], [])
        for var, g in enumerate(self.assignment):
            out[g].append(var)
        return tuple(tuple(g) for g in out)


def group_weights(x, part: GroupPartition) -> tuple[int, int, int]:
    """Per-group counts of 1-variables, sorted descending."""
    x = coerce_input(x, part.n)
    weights = [0, 0, 0]
    for var, bit in enumerate(x.bits):
        weights[part.assignment[var]] += bit
    return tuple(sorted(weights, reverse=True))


def connection_value(x, part: GroupPartition) -> int:
    """Spread of the sorted group weights: k1 - k3."""
    w = group_weights(x, part)
    return w[0] - w[2]


def connection_pairs(x, part: GroupPartition) -> tuple[tuple[int, int], ...]:
    """One canonical maximal legal pairing of the colored points.

    Only cross-group connections are allowed and a point may use at most one
    partner per other group.  Each colored point of the lightest group pairs
    with one point in each other group, then the middle group pairs into the
    heaviest; partners are taken in ascending variable order.  The pair count
    is therefore 2*k3 + k2.
    """
    x = coerce_input(x, part.n)
    ones = [[v for v in grp if x.bits[v]] for grp in part.groups]
    order = sorted(range(3), key=lambda g: (-len(ones[g]), g))
    g1, g2, g3 = (ones[g] for g in order)
    pairs = []
    for i, v in enumerate(g3):
        pairs.append(tuple(sorted((v, g1[i]))))
        pairs.append(tuple(sorted((v, g2[i]))))
    for j, v in enumerate(g2):
        pairs.append(tuple(sorted((v, g1[j]))))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# Families as composition data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Compose:
    """A symmetric outer function of one inner function on disjoint blocks.

    The value at x is ``outer[inner(x_B1) + ... + inner(x_Bm)]``: ``outer``
    lists the outer function's values by the number of blocks on which the
    inner function is 1.  ``inner`` is a truth table (a tuple of 2^b values,
    index bits most significant first) or another composition.  ``blocks``
    gives each block's variables (0-based) in the inner function's variable
    order; together they cover each variable once.
    """

    outer: tuple[int, ...]
    inner: Union[tuple[int, ...], "Compose"]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(block) for block in self.blocks)


def _values(f: Union[tuple[int, ...], Compose], bits: np.ndarray,
            cols: Optional[np.ndarray] = None) -> np.ndarray:
    """uint8 value of a truth table or a composition at each row of the 0/1
    matrix ``bits``.  A composition hands its blocks' columns ``cols[...,
    blocks]`` to its inner function (so bits are gathered only at the leaves)
    and indexes ``outer`` by the sum of its k block values."""
    cols = np.arange(bits.shape[1]) if cols is None else cols
    if isinstance(f, tuple):
        index = bits[:, cols[..., 0]].astype(np.min_scalar_type(len(f) - 1), copy=False)
        for j in range(1, cols.shape[-1]):
            index <<= 1
            index |= bits[:, cols[..., j]]
        return np.array(f, dtype=np.uint8)[index]
    inner = _values(f.inner, bits, np.take(cols, f.blocks, axis=-1))
    return np.array(f.outer, dtype=np.uint8)[inner.sum(axis=-1, dtype=np.uint8)]


def _table(
    f: Union[tuple[int, ...], Compose], start: int = 0, stop: Optional[int] = None
) -> np.ndarray:
    """uint8 truth table of a truth table or a composition, or its entries
    ``[start, stop)`` (an aligned power-of-two range for a composition).

    A composition's table comes from ``boolfn.compose_table``: the outer
    values by block-value count become a table over the k block values
    (the count is the popcount of its index; ``build_f3k`` and
    ``iterate_triple`` keep k at most 15), and the whole inner table is
    built the same way, recursively.
    """
    if isinstance(f, tuple):
        return np.array(f[start:stop], dtype=np.uint8)
    outer = np.array(f.outer, dtype=np.uint8)[polynomial._popcount16()[: 1 << len(f.blocks)]]
    return compose_table(outer, _table(f.inner), f.blocks, start, stop)


def _in_block_order(f: Union[tuple[int, ...], Compose]) -> Union[tuple[int, ...], Compose]:
    """The same function with its variables renumbered so that every level's
    blocks are consecutive ranges: block j of an m-variable inner function
    becomes ``range(j*m, j*m+m)``, recursively.  Its table is the original
    one with the variables permuted, built without ``compose_table``'s
    transpose; the degree, and any other measure that ignores variable
    order, is the same.
    """
    if isinstance(f, tuple):
        return f
    m = len(f.blocks[0])
    blocks = tuple(tuple(range(j * m, j * m + m)) for j in range(len(f.blocks)))
    return Compose(f.outer, _in_block_order(f.inner), blocks)


@dataclass(frozen=True)
class ConstructedFunction:
    """A family member: its definition as data plus claimed parameters.

    ``structure`` is a truth table (a tuple of 2^n values) or a ``Compose``;
    evaluation works at any arity, truth tables up to ``boolfn.MAX_N``.
    """

    n: int
    family: str
    params: dict
    claimed_degree: int
    witness_input: tuple[int, ...]
    structure: Union[tuple[int, ...], Compose] = field(repr=False)
    notes: tuple[str, ...] = ()

    def value_at(self, i: int) -> int:
        return self.evaluate(InputAssignment.from_index(self.n, i))

    def evaluate(self, x) -> int:
        """``_values`` on one input, at any arity: the reference for table rows."""
        bits = np.array([coerce_input(x, self.n).bits], dtype=np.uint8)
        return int(_values(self.structure, bits)[0])

    def table(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """The truth table, or its entries ``[start, stop)``: an aligned
        power-of-two range when the structure is a composition."""
        if not self.has_table:
            raise ValueError(f"no truth table available for n={self.n}")
        return _table(self.structure, start, stop)

    @property
    def has_table(self) -> bool:
        return self.n <= MAX_N

    def to_boolean_function(self) -> BooleanFunction:
        return BooleanFunction(self.n, self.table())


def build_f3k(k: int) -> ConstructedFunction:
    """3k-variable family member: collapser of the fixed-pairing quadratic.

    Three equal groups of k; the base connection graph is the k disjoint
    position triangles {i, k+i, 2k+i}, on each of which the quadratic is
    NAE3.  So f3k(k) = V_k(NAE3, ..., NAE3), where the searched collapser
    V_k of the range {0..k} is 1 exactly at 0 and k; the function is fully
    sensitive at the all-zero input.
    """
    values = polynomial.collapser_values(k)  # k must be odd and in 3..15
    n = 3 * k
    # the published k = 7 polynomial (polynomial.published_k7_collapser) is
    # never usable: its report's usable_for_construction is false
    notes = (
        "published degree-6 collapser transcription maps {0..7} to {0,1}: True, but p(0) == p(1); "
        "using the searched collapser to keep the zero input fully sensitive",
    ) if k == 7 else ()
    triangles = tuple((i, k + i, 2 * k + i) for i in range(k))
    return ConstructedFunction(
        n=n,
        family="f3k",
        params={"k": k, "collapser": "search", "collapser_values": list(values)},
        claimed_degree=2 * (k - 1),
        witness_input=(0,) * n,
        structure=Compose(values, _NAE3, triangles),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# The 4-variable cubic and the 12-variable triple construction
# ---------------------------------------------------------------------------

def p4_eval(bits) -> int:
    """Cycle pairs minus triples on four variables; always 0 or 1."""
    x = coerce_input(bits, 4).bits
    x1, x2, x3, x4 = x
    pairs = x1 * x2 + x2 * x3 + x3 * x4 + x1 * x4
    triples = x1 * x2 * x3 + x1 * x2 * x4 + x1 * x3 * x4 + x2 * x3 * x4
    return pairs - triples


_P4_TABLE = tuple(
    p4_eval(tuple((i >> (3 - j)) & 1 for j in range(4))) for i in range(16)
)


def p4_base() -> ConstructedFunction:
    """The 4-variable cubic as a construction base (Boolean-valued, degree 3)."""
    return ConstructedFunction(
        n=4,
        family="p4",
        params={},
        claimed_degree=3,
        witness_input=(1, 1, 1, 1),
        structure=_P4_TABLE,
    )


# lemma3:15,4; its witness check, one batch over an (n+1) x n bit matrix,
# takes about 0.1 s and peaks at 22 MB (tracemalloc) on a 2-vCPU host
MAX_ITERATED_N = 3645


def iterate_triple(base: ConstructedFunction, t: int) -> ConstructedFunction:
    """t rounds of: sum the function over three blocks, collapse {0..3} to {0,1}.

    Each round uses the fixed degree-2 collapser with values 1,0,0,1, so the
    degree doubles per round while the arity triples.  The witness input of
    the base, repeated blockwise, stays fully sensitive: an unperturbed level
    always evaluates to 1 (block sums 0 or 3) and a single flip drives one
    block sum to 1 or 2, which evaluates to 0 and propagates upward.  More
    than ``MAX_ITERATED_N`` variables is a ValueError.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    current = base
    for _ in range(t):
        m = current.n
        if 3 * m > MAX_ITERATED_N:
            raise ValueError(f"{t} triple iterations exceed the cap of n={MAX_ITERATED_N} variables")
        current = ConstructedFunction(
            n=3 * m,
            family="triple",
            params={"base": base.family, "base_params": dict(base.params), "t": t},
            claimed_degree=2 * current.claimed_degree,
            witness_input=current.witness_input * 3,
            structure=Compose(
                _S_VALUES, current.structure, tuple(tuple(range(b * m, b * m + m)) for b in range(3))
            ),
            notes=base.notes,
        )
    return current


def build_f12() -> ConstructedFunction:
    """Twelve variables: collapse the sum of the 4-variable cubic on 3 blocks."""
    return replace(iterate_triple(p4_base(), 1), family="f12", params={})


def build_f9() -> ConstructedFunction:
    return build_f3k(3)


def build_lemma3(k: int, t: int) -> ConstructedFunction:
    """Triple-iteration over the 3k-variable family member."""
    cf = iterate_triple(build_f3k(k), t)
    notes = cf.notes
    if t == 1:
        notes += (
            "statement/proof range discrepancy: the iteration count t=1 is "
            "covered by the proof but excluded by the statement's t > 1",
        )
    return replace(cf, family="lemma3", params={"k": k, "t": t}, notes=notes)


def lemma3_params(k: int, t: int) -> tuple[int, int, Fraction]:
    """Arity, claimed degree and their ratio for the iterated family.

    No construction is executed; this is the closed-form arithmetic
    N = 3^(t+1) k, degree = 2^(t+1) (k-1).
    """
    if k % 2 == 0 or k <= 1:
        raise ValueError("k must be odd and greater than 1")
    if t < 1:
        raise ValueError("t must be at least 1")
    n = 3 ** (t + 1) * k
    deg = 2 ** (t + 1) * (k - 1)
    return n, deg, Fraction(n, deg)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionReport:
    n: int
    family: str
    params: dict
    claimed_degree: int
    computed_degree: int
    degree_mode: str
    degree_reason: Optional[str]
    claimed_d: int
    witness_input: str
    witness_sensitivity: int
    qe_lower: int
    status: str
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def witness_sensitivity(cf: ConstructedFunction) -> int:
    """Single-flip sensitivity at the witness: one ``_values`` call on it and its n one-bit flips."""
    bits = np.eye(cf.n + 1, cf.n, -1, dtype=np.uint8)  # row j + 1 flips variable j
    bits ^= np.array(coerce_input(cf.witness_input, cf.n).bits, dtype=np.uint8)
    values = _values(cf.structure, bits)
    return int(np.count_nonzero(values[1:] != values[0]))


def composition_degrees(f: Union[tuple[int, ...], Compose]) -> list[int]:
    """Degrees of the parts of a truth table or a composition, outermost first:
    each level's outer interpolant on {0..k} (Minsky-Papert symmetrization),
    then the leaf table's ``polynomial.table_degree``.  Their product is the
    degree, as deg(F o g) = deg(F) deg(g) on disjoint blocks (Nisan-Szegedy
    1994); a constant part makes it 0.
    """
    if isinstance(f, tuple):
        return [polynomial.table_degree(np.array(f, dtype=np.uint8))]
    return [polynomial.fit_range_polynomial(f.outer).degree, *composition_degrees(f.inner)]


def certify(cf: ConstructedFunction, mode: str = "auto") -> ConstructionReport:
    """Compare claimed degree and depth evidence against computed values.

    Modes: "exact" runs the integer subset transform of the truth table
    (``polynomial.table_degree``, n up to ``boolfn.MAX_N``), which reads
    the table one row block at a time, so the whole table is never built.
    The blocks come from the structure in block order
    (``_in_block_order``): a degree does not change when the variables are
    permuted, and with consecutive blocks ``compose_table`` skips its
    transpose to variable order.  The witness check keeps variable order.
    "composition" multiplies the degrees of the parts of ``cf.structure``
    (``composition_degrees``), at any arity.  "auto" picks exact whenever
    a truth table exists, else composition.
    """
    if mode == "auto":
        mode = "exact" if cf.has_table else "composition"
    if mode == "exact":
        if not cf.has_table:
            raise ValueError(f"no truth table available for n={cf.n}")
        ordered = replace(cf, structure=_in_block_order(cf.structure))
        computed, reason = polynomial.table_degree(ordered.table, cf.n), None
    elif mode == "composition":
        parts = composition_degrees(cf.structure)
        computed, reason = prod(parts), f"product of part degrees {' x '.join(map(str, parts))}"
    else:
        raise ValueError(f"unknown certification mode {mode!r}")

    ws = witness_sensitivity(cf)
    return ConstructionReport(
        n=cf.n,
        family=cf.family,
        params=dict(cf.params),
        claimed_degree=cf.claimed_degree,
        computed_degree=computed,
        degree_mode=mode,
        degree_reason=reason,
        claimed_d=cf.n,
        witness_input="".join(str(b) for b in cf.witness_input),
        witness_sensitivity=ws,
        qe_lower=(computed + 1) // 2,
        status="confirmed" if (computed == cf.claimed_degree and ws == cf.n) else "refuted",
        notes=tuple(cf.notes),
    )
