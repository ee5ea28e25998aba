"""Low-degree Boolean function families built from grouped quadratics.

The base device is a quadratic with a bounded integer range: variables are
split into three groups, a fixed set of cross-group connections is chosen,
and the quadratic counts colored points minus colored connections.  A
univariate collapser then squeezes the integer range onto {0,1}.  Iterating
block sums of an already-Boolean polynomial gives the same degree doubling
with tripled arity.

Functions built here are evaluator-backed; truth tables are materialized
only up to ``boolfn.MAX_N`` variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import polynomial
from .boolfn import MAX_N, BooleanFunction, InputAssignment, coerce_input
from .polynomial import find_collapser, published_k7_collapser, collapser_transcription_report

# the degree-2 collapser for {0..3}: values 1,0,0,1
_S_VALUES = (1, 0, 0, 1)
_CHUNK = 1 << 22


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


def base_connection_graph(part: GroupPartition) -> tuple[tuple[int, int], ...]:
    """The canonical pairing of the fully-colored configuration.

    For three equal groups this is a disjoint triangle per position, one
    vertex in each group.  Fixing this graph turns the colored-minus-paired
    count into a genuine quadratic polynomial; on inputs whose colored points
    pack the leading positions of every group its value coincides with
    connection_value.
    """
    all_ones = InputAssignment(part.n, (1,) * part.n)
    return connection_pairs(all_ones, part)


def fixed_pairing_value(x, part: GroupPartition) -> int:
    """|x| minus the number of base-graph connections with both ends colored."""
    x = coerce_input(x, part.n)
    total = sum(x.bits)
    for u, v in base_connection_graph(part):
        total -= x.bits[u] & x.bits[v]
    return total


# ---------------------------------------------------------------------------
# Evaluator-backed constructed functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructedFunction:
    """A function defined by a pointwise evaluator plus claimed parameters."""

    n: int
    family: str
    params: dict
    claimed_degree: int
    claimed_d: int
    witness_input: tuple[int, ...]
    value_at: Callable[[int], int] = field(repr=False)
    table_builder: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False)
    notes: tuple[str, ...] = ()

    def evaluate(self, x) -> int:
        return self.value_at(coerce_input(x, self.n).index)

    def table(self) -> np.ndarray:
        if not self.has_table:
            raise ValueError(f"no truth table available for n={self.n}")
        return self.table_builder()

    @property
    def has_table(self) -> bool:
        return self.table_builder is not None and self.n <= MAX_N

    def to_boolean_function(self) -> BooleanFunction:
        return BooleanFunction(self.n, self.table())


def _pair_quadratic_table_builder(
    n: int, pairs: tuple[tuple[int, int], ...], values: tuple[int, ...]
) -> Callable[[], np.ndarray]:
    def build() -> np.ndarray:
        varr = np.array(values, dtype=np.uint8)
        pc16 = polynomial._popcount16()
        out = np.empty(1 << n, dtype=np.uint8)
        shifts = [(n - 1 - u, n - 1 - v) for u, v in pairs]
        for start in range(0, 1 << n, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
            val = (pc16[idx & 0xFFFF] + pc16[idx >> 16]).astype(np.int64)
            for bu, bv in shifts:
                val -= (idx >> bu) & (idx >> bv) & 1
            out[start : start + idx.size] = varr[val]
        return out

    return build


def build_f3k(k: int) -> ConstructedFunction:
    """3k-variable family member: collapser of the fixed-pairing quadratic.

    Three equal groups of k; the base connection graph is the k disjoint
    position triangles, so the quadratic ranges over {0..k} and the searched
    collapser (value 1 exactly at 0 and k) produces a Boolean function that
    is fully sensitive at the all-zero input.
    """
    if k % 2 == 0 or not 3 <= k <= 15:
        raise ValueError(f"k must be odd and in 3..15, got {k}")
    n = 3 * k
    part = GroupPartition.equal(k)
    values, _ = find_collapser(k)
    pairs = base_connection_graph(part)
    notes = []
    collapser_source = "search"
    if k == 7:
        report = collapser_transcription_report(published_k7_collapser(), 7)
        if report["usable_for_construction"]:
            collapser_source = "transcription"
        else:
            notes.append(
                "published degree-6 collapser transcription maps {0..7} to "
                f"{{0,1}}: {report['maps_to_01']}, but p(0) == p(1); "
                "using the searched collapser to keep the zero input fully sensitive"
            )
    varr = values
    bitshift = [(n - 1 - u, n - 1 - v) for u, v in pairs]

    def value_at(i: int) -> int:
        total = i.bit_count()
        for bu, bv in bitshift:
            total -= (i >> bu) & (i >> bv) & 1
        return varr[total]

    return ConstructedFunction(
        n=n,
        family="f3k",
        params={"k": k, "collapser": collapser_source, "collapser_values": list(values)},
        claimed_degree=2 * (k - 1),
        claimed_d=n,
        witness_input=(0,) * n,
        value_at=value_at,
        table_builder=_pair_quadratic_table_builder(n, pairs, values),
        notes=tuple(notes),
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

    def value_at(i: int) -> int:
        return _P4_TABLE[i]

    return ConstructedFunction(
        n=4,
        family="p4",
        params={},
        claimed_degree=3,
        claimed_d=4,
        witness_input=(1, 1, 1, 1),
        value_at=value_at,
        table_builder=lambda: np.array(_P4_TABLE, dtype=np.uint8),
    )


def _triple_table_builder(prev: ConstructedFunction) -> Optional[Callable[[], np.ndarray]]:
    if prev.table_builder is None or 3 * prev.n > MAX_N:
        return None

    def build() -> np.ndarray:
        t = prev.table().astype(np.uint8)
        svals = np.array(_S_VALUES, dtype=np.uint8)
        sums = t[:, None] + t[None, :]
        full = (sums[:, :, None] + t[None, None, :]).reshape(-1)
        return svals[full]

    return build


def iterate_triple(base: ConstructedFunction, t: int) -> ConstructedFunction:
    """t rounds of: sum the function over three blocks, collapse {0..3} to {0,1}.

    Each round uses the fixed degree-2 collapser with values 1,0,0,1, so the
    degree doubles per round while the arity triples.  The witness input of
    the base, repeated blockwise, stays fully sensitive: an unperturbed level
    always evaluates to 1 (block sums 0 or 3) and a single flip drives one
    block sum to 1 or 2, which evaluates to 0 and propagates upward.
    """
    if t < 1:
        raise ValueError("need at least one iteration")
    current = base
    for _ in range(t):
        prev = current
        prev_value = prev.value_at
        prev_n = prev.n
        mask = (1 << prev_n) - 1

        def value_at(i: int, _f=prev_value, _s=prev_n, _m=mask) -> int:
            return _S_VALUES[
                _f((i >> (2 * _s)) & _m) + _f((i >> _s) & _m) + _f(i & _m)
            ]

        current = ConstructedFunction(
            n=3 * prev.n,
            family="triple",
            params={"base": base.family, "base_params": dict(base.params), "t": t},
            claimed_degree=2 * prev.claimed_degree,
            claimed_d=3 * prev.claimed_d,
            witness_input=prev.witness_input * 3,
            value_at=value_at,
            table_builder=_triple_table_builder(prev),
            notes=base.notes,
        )
    return current


def build_f12() -> ConstructedFunction:
    """Twelve variables: collapse the sum of the 4-variable cubic on 3 blocks."""
    cf = iterate_triple(p4_base(), 1)
    return ConstructedFunction(
        n=cf.n,
        family="f12",
        params={},
        claimed_degree=6,
        claimed_d=12,
        witness_input=cf.witness_input,
        value_at=cf.value_at,
        table_builder=cf.table_builder,
    )


def build_f9() -> ConstructedFunction:
    return build_f3k(3)


def build_lemma3(k: int, t: int) -> ConstructedFunction:
    """Triple-iteration over the 3k-variable family member."""
    if t < 1:
        raise ValueError("need t >= 1")
    cf = iterate_triple(build_f3k(k), t)
    notes = list(cf.notes)
    if t == 1:
        notes.append(
            "statement/proof range discrepancy: the iteration count t=1 is "
            "covered by the proof but excluded by the statement's t > 1"
        )
    return ConstructedFunction(
        n=cf.n,
        family="lemma3",
        params={"k": k, "t": t},
        claimed_degree=cf.claimed_degree,
        claimed_d=cf.claimed_d,
        witness_input=cf.witness_input,
        value_at=cf.value_at,
        table_builder=cf.table_builder,
        notes=tuple(notes),
    )


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
    computed_degree: Optional[int]
    degree_mode: Optional[str]
    degree_reason: Optional[str]
    claimed_d: int
    witness_input: str
    witness_sensitivity: int
    qe_lower: int
    status: str
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "family": self.family,
            "params": self.params,
            "claimed_degree": self.claimed_degree,
            "computed_degree": self.computed_degree,
            "degree_mode": self.degree_mode,
            "degree_reason": self.degree_reason,
            "claimed_d": self.claimed_d,
            "witness_input": self.witness_input,
            "witness_sensitivity": self.witness_sensitivity,
            "qe_lower": self.qe_lower,
            "status": self.status,
            "notes": list(self.notes),
        }


def witness_sensitivity(cf: ConstructedFunction) -> int:
    """Single-flip sensitivity at the designated witness input (n+1 calls)."""
    base_index = InputAssignment(cf.n, cf.witness_input).index
    v = cf.value_at(base_index)
    return sum(
        1
        for j in range(cf.n)
        if cf.value_at(base_index ^ (1 << (cf.n - 1 - j))) != v
    )


def certify(cf: ConstructedFunction, mode: str = "auto") -> ConstructionReport:
    """Compare claimed degree and depth evidence against computed values.

    Modes: "exact" runs the integer subset transform of the truth table (n up
    to ``boolfn.MAX_N``), "structural" echoes the claims.  "auto" picks exact
    whenever a truth table exists.
    """
    if mode == "auto":
        mode = "exact" if cf.has_table else "structural"
    computed: Optional[int] = None
    reason: Optional[str] = None
    degree_mode: Optional[str] = None

    if mode == "exact":
        coeffs = polynomial.mobius_coefficients(cf.table())
        computed = polynomial._max_popcount_nonzero(coeffs)
        degree_mode = "exact"
    elif mode == "structural":
        reason = f"n={cf.n} exceeds brute-force scope"
    else:
        raise ValueError(f"unknown certification mode {mode!r}")

    ws = witness_sensitivity(cf)
    if computed is not None:
        status = "confirmed" if (computed == cf.claimed_degree and ws == cf.n) else "refuted"
    else:
        status = "unverified" if ws == cf.n else "refuted"
    deg_for_bound = computed if computed is not None else cf.claimed_degree
    return ConstructionReport(
        n=cf.n,
        family=cf.family,
        params=dict(cf.params),
        claimed_degree=cf.claimed_degree,
        computed_degree=computed,
        degree_mode=degree_mode,
        degree_reason=reason,
        claimed_d=cf.claimed_d,
        witness_input="".join(str(b) for b in cf.witness_input),
        witness_sensitivity=ws,
        qe_lower=(deg_for_bound + 1) // 2,
        status=status,
        notes=tuple(cf.notes),
    )
