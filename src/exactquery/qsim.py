"""Exact simulator for alternating unitary / sign-query algorithms.

Amplitudes live in the field Q(sqrt 2): every scalar is ``a + b*sqrt(2)``
with rational a, b, stored as one reduced integer triple (a + b*sqrt(2)) / d.
That covers all matrix entries the builtin algorithms need (0, +-1, +-1/2,
+-1/sqrt2) and makes "probability exactly 1" a decidable comparison.  A sign
query multiplies amplitude i by -1 exactly when the variable assigned to that
amplitude is 1.

A ``UnitaryMatrix`` is checked for unitarity once, when built, so every
layer of an algorithm is unitary.  ``simulate`` is the only code that
applies layers; ``is_exact`` and ``relabel_outputs`` read ``final_states``,
its result on every input.  Float mode is the same exact simulation of an
algorithm whose decimal entries were read as the rationals they denote and
checked for unitarity to ``FLOAT_TOLERANCE``; only its printing rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, sqrt
from typing import Optional, Sequence, Union

from .boolfn import BooleanFunction, InputAssignment, coerce_input, complement_symmetric

FLOAT_TOLERANCE = 1e-9
# Largest algorithm dimension: the exact unitarity check is dim**3 scalar
# products per layer, 0.33 s for one dim-64 layer and 3.8 s at dim 128.
MAX_DIM = 64


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, written as ``str(Fraction(n, d))`` writes it."""
    g = gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


class ExactScalar:
    """(a + b*sqrt(2)) / d over integers; closed under ring operations.

    The triple is kept reduced, d > 0 and gcd(a, b, d) == 1, so equal
    scalars have equal triples.  Integer arithmetic over the common
    denominator keeps the hot simulation loop off the Fraction machinery;
    ``a`` and ``b`` give the rational components as Fractions.
    """

    __slots__ = ("an", "bn", "d")

    def __init__(self, a: int = 0, b: int = 0, d: int = 1) -> None:
        # one gcd, its sign taken from d so that d ends positive; this runs
        # once per ring operation
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a, b, d = a // g, b // g, d // g
        self.an, self.bn, self.d = a, b, d

    @classmethod
    def of(cls, a, b=0) -> "ExactScalar":
        a = Fraction(a)
        b = Fraction(b)
        return cls(
            a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator
        )

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.bn, self.d)

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(
            self.an * other.d + other.an * self.d,
            self.bn * other.d + other.bn * self.d,
            self.d * other.d,
        )

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(
            self.an * other.d - other.an * self.d,
            self.bn * other.d - other.bn * self.d,
            self.d * other.d,
        )

    def __neg__(self) -> "ExactScalar":
        out = ExactScalar.__new__(ExactScalar)
        out.an, out.bn, out.d = -self.an, -self.bn, self.d
        return out

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + 2 b1 b2 + (a1 b2 + b1 a2) r
        return ExactScalar(
            self.an * other.an + 2 * self.bn * other.bn,
            self.an * other.bn + self.bn * other.an,
            self.d * other.d,
        )

    def is_zero(self) -> bool:
        return self.an == 0 and self.bn == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactScalar)
            and self.an == other.an
            and self.bn == other.bn
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.an, self.bn, self.d))

    def __float__(self) -> float:
        # int / int rounds correctly, so this is float(a) + float(b) * sqrt(2)
        return self.an / self.d + (self.bn / self.d) * sqrt(2)

    def __str__(self) -> str:
        # str(self.a) and str(self.b), without building Fractions: this runs
        # for every printed amplitude
        a = _ratio(self.an, self.d)
        if not self.bn:
            return a
        b = _ratio(abs(self.bn), self.d)
        if not self.an:
            return f"-{b} r2" if self.bn < 0 else f"{b} r2"
        return f"{a} - {b} r2" if self.bn < 0 else f"{a} + {b} r2"

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


ZERO = ExactScalar()
ONE = ExactScalar(1)
HALF = ExactScalar(1, 0, 2)
INV_SQRT2 = ExactScalar(0, 1, 2)  # 1/sqrt2 == (1/2) sqrt2

# The rational part may be a decimal literal; the lookahead stops it from
# ending inside a number, so "12 r2" cannot split into 1 + 2 r2.  Exponents
# have at most three digits: Fraction builds 10**exp as an exact integer.
_SCALAR_RE = re.compile(
    r"^\s*(?P<rat>[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d{1,3})?)(?![\d./]))?"
    r"\s*(?:(?P<sign>[+-])?\s*(?P<root>[+-]?\d+(?:/\d+)?)\s*r2)?\s*$"
)


def parse_scalar(text: str) -> ExactScalar:
    """Parse exact scalar strings: "0", "-1/2", "1/2 r2", "1/2 + 1/2 r2".

    A decimal literal ("0.7071067811865476", "-0.5", "1e-17") is the exact
    rational it denotes.
    """
    m = _SCALAR_RE.match(text)
    if not m or (m.group("rat") is None and m.group("root") is None):
        raise ValueError(f"cannot parse exact scalar {text!r}")
    try:
        a = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        b = Fraction(m.group("root")) if m.group("root") is not None else Fraction(0)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse exact scalar {text!r}") from None
    return ExactScalar.of(a, -b if m.group("sign") == "-" else b)


class UnitaryMatrix:
    """Square matrix of exact scalars, checked for unitarity once, when built."""

    __slots__ = ("dim", "rows", "_nonzero")

    def __init__(self, rows: Sequence[Sequence[ExactScalar]], tolerance: float = 0) -> None:
        self.dim = len(rows)
        if any(len(r) != self.dim for r in rows):
            raise ValueError("matrix must be square")
        self.rows = tuple(tuple(r) for r in rows)
        if not check_unitary(self.rows, tolerance):
            raise ValueError(f"layer matrix is not unitary within {tolerance}" if tolerance
                             else "layer matrix is not exactly unitary")
        # (column, entry) for the nonzero entries of each row: apply() skips
        # the zero entries without testing them on every call.
        self._nonzero = tuple(
            tuple((j, entry) for j, entry in enumerate(row) if not entry.is_zero())
            for row in self.rows
        )

    def apply(self, state: tuple[ExactScalar, ...]) -> tuple[ExactScalar, ...]:
        out = []
        for row in self._nonzero:
            acc = None
            for j, entry in row:
                amp = state[j]
                if amp.an or amp.bn:
                    term = entry * amp
                    acc = term if acc is None else acc + term
            out.append(ZERO if acc is None else acc)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitaryMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def check_unitary(rows: Sequence[Sequence[ExactScalar]], tolerance: float = 0) -> bool:
    """True iff M^T M is the identity, M the square matrix ``rows`` (all builtins are real).

    With tolerance 0 the product must equal the identity exactly; with a
    positive tolerance every entry of M^T M - I must be within it.
    """
    dim = len(rows)
    for i in range(dim):
        for j in range(dim):
            acc = ZERO
            for k in range(dim):
                acc = acc + rows[k][i] * rows[k][j]
            want = ONE if i == j else ZERO
            if acc == want:
                continue
            try:
                if not tolerance or abs(float(acc - want)) > tolerance:
                    return False
            except OverflowError:  # an entry far outside [-1, 1]
                return False
    return True


@dataclass(frozen=True)
class QueryLayer:
    """Per-amplitude variable assignment; None leaves an amplitude untouched."""

    dim: int
    assignment: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.dim:
            raise ValueError("assignment length must equal dim")

    def apply(self, state: tuple[ExactScalar, ...], x: InputAssignment) -> tuple[ExactScalar, ...]:
        return tuple(
            -amp if var is not None and x.bits[var] else amp
            for amp, var in zip(state, self.assignment)
        )


Layer = Union[UnitaryMatrix, QueryLayer]


class QueryAlgorithm:
    """Alternating unitary and sign-query layers with output bit labels."""

    __slots__ = ("dim", "n", "layers", "outputs")

    def __init__(self, dim: int, n: int, layers: Sequence[Layer], outputs: Sequence[int]) -> None:
        self.dim = dim
        self.n = n
        self.layers = tuple(layers)
        self.outputs = tuple(int(o) for o in outputs)
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        if dim > MAX_DIM:
            raise ValueError(f"dim must be at most {MAX_DIM}, got {dim}")
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if len(self.outputs) != dim:
            raise ValueError("outputs must label every basis index")
        if any(o not in (0, 1) for o in self.outputs):
            raise ValueError("output labels must be bits")
        for layer in self.layers:
            if isinstance(layer, UnitaryMatrix):
                if layer.dim != dim:
                    raise ValueError("unitary layer dimension mismatch")
            elif isinstance(layer, QueryLayer):
                if layer.dim != dim:
                    raise ValueError("query layer dimension mismatch")
                for var in layer.assignment:
                    if var is not None and not 0 <= var < n:
                        # numbered from 1, as in the file format
                        raise ValueError(f"query variable {var + 1} out of range 1..{n}")
            else:
                raise TypeError(f"unsupported layer {layer!r}")

    @property
    def query_count(self) -> int:
        return sum(1 for layer in self.layers if isinstance(layer, QueryLayer))

    def with_outputs(self, outputs: Sequence[int]) -> "QueryAlgorithm":
        return QueryAlgorithm(self.dim, self.n, self.layers, outputs)

    def __repr__(self) -> str:
        return (
            f"QueryAlgorithm(dim={self.dim}, n={self.n}, "
            f"layers={len(self.layers)}, queries={self.query_count})"
        )


@dataclass(frozen=True)
class FinalState:
    """Amplitudes after the last layer, plus per-label probability mass."""

    amplitudes: tuple[ExactScalar, ...]
    outcome_prob: dict[int, ExactScalar]
    trace: Optional[tuple[tuple[ExactScalar, ...], ...]] = None

    def deterministic_outcome(self, tolerance: float = 0) -> Optional[int]:
        """The label with probability exactly 1, or within a positive tolerance of 1."""
        for label, prob in self.outcome_prob.items():
            if prob == ONE or (tolerance and abs(float(prob) - 1.0) <= tolerance):
                return label
        return None

    def deterministic_index(self) -> Optional[int]:
        """Basis index holding all probability mass, if there is one."""
        hit = None
        for i, amp in enumerate(self.amplitudes):
            if not amp.is_zero():
                if hit is not None:
                    return None
                if amp * amp != ONE:
                    return None
                hit = i
        return hit


def simulate(alg: QueryAlgorithm, x, trace: bool = False) -> FinalState:
    """Run the algorithm on one input, starting from basis state 0."""
    x = coerce_input(x, alg.n)
    state = tuple(ONE if i == 0 else ZERO for i in range(alg.dim))
    states = []
    for layer in alg.layers:
        state = layer.apply(state, x) if isinstance(layer, QueryLayer) else layer.apply(state)
        if trace:
            states.append(state)
    probs = {0: ZERO, 1: ZERO}
    for amp, label in zip(state, alg.outputs):
        probs[label] = probs[label] + amp * amp
    return FinalState(state, probs, tuple(states) if trace else None)


def final_states(alg: QueryAlgorithm) -> list[FinalState]:
    """The final state on every input, by input index."""
    return [simulate(alg, InputAssignment.from_index(alg.n, i)) for i in range(1 << alg.n)]


def is_exact(alg: QueryAlgorithm, f: BooleanFunction) -> bool:
    """True iff the measured label equals f(x) with probability exactly 1, always."""
    if alg.n != f.n:
        raise ValueError("algorithm and function arity mismatch")
    return all(
        final.outcome_prob[f.value_at(i)] == ONE for i, final in enumerate(final_states(alg))
    )


def relabel_outputs(alg: QueryAlgorithm, f: BooleanFunction) -> QueryAlgorithm:
    """Reuse the layers, choosing output labels so the algorithm computes f.

    Requires f to be complement-symmetric and both members of every
    complement class {x, ~x} to end on one basis index with all the
    probability mass; classes sharing an index must share f's value.
    """
    if alg.n != f.n:
        raise ValueError("algorithm and function arity mismatch")
    if not complement_symmetric(f):
        raise ValueError("function is not complement-symmetric")
    n = alg.n
    full = (1 << n) - 1
    indices = [final.deterministic_index() for final in final_states(alg)]
    outputs: list[Optional[int]] = [None] * alg.dim
    # one class member per class: the one with x1 = 0
    for rep in range(1 << (n - 1)):
        for member in (rep, full ^ rep):
            if indices[member] is None:
                raise ValueError(
                    f"final state on input {member:0{n}b} is not a single basis state"
                )
        idx = indices[rep]
        if idx != indices[full ^ rep]:
            raise ValueError(
                f"complement class of {rep:0{n}b} lands on two different indices"
            )
        value = f.value_at(rep)
        if outputs[idx] is not None and outputs[idx] != value:
            raise ValueError(
                "two complement classes with different values share a basis index"
            )
        outputs[idx] = value
    return alg.with_outputs([o if o is not None else 0 for o in outputs])


# ---------------------------------------------------------------------------
# Builtin algorithms
# ---------------------------------------------------------------------------

# H x H on the two-qubit register, the first and last layer of a1 and a2
_HH = UnitaryMatrix(
    [
        [HALF, HALF, HALF, HALF],
        [HALF, -HALF, HALF, -HALF],
        [HALF, HALF, -HALF, -HALF],
        [HALF, -HALF, -HALF, HALF],
    ]
)
# a1's middle unitary: a Hadamard on amplitudes 1 and 2
_U1 = UnitaryMatrix(
    [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, INV_SQRT2, INV_SQRT2, ZERO],
        [ZERO, INV_SQRT2, -INV_SQRT2, ZERO],
        [ZERO, ZERO, ZERO, ONE],
    ]
)


def a1() -> QueryAlgorithm:
    """Two-query, four-amplitude algorithm computing the builtin F3.

    Layer sequence H x H, Q(x1,x2,x1,x2), U1, Q(x3,x1,x2,x3), U1, H x H; outputs
    label index 3 with 1 (inputs 001 and 110 land there) and the rest with 0.
    """
    q1 = QueryLayer(4, (0, 1, 0, 1))
    q2 = QueryLayer(4, (2, 0, 1, 2))
    return QueryAlgorithm(4, 3, (_HH, q1, _U1, q2, _U1, _HH), (0, 0, 0, 1))


def a2() -> QueryAlgorithm:
    """Two-query, four-amplitude algorithm computing the builtin G4.

    Two parallel one-query parity gadgets: (H x H), a query reading x1/x2 by
    the first register bit, a query reading x3/x4 by the second, (H x H).
    The final basis index is (x1 xor x2, x3 xor x4), so labeling index 3 with
    1 computes the conjunction of the two parities.
    """
    qa = QueryLayer(4, (0, 0, 1, 1))
    qb = QueryLayer(4, (2, 3, 2, 3))
    return QueryAlgorithm(4, 4, (_HH, qa, qb, _HH), (0, 0, 0, 1))


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def algorithm_from_json_dict(data: dict, tolerance: float = 0) -> QueryAlgorithm:
    """Decoder; variable numbers in query layers are 1-based.

    ``layers`` is a list of objects, each with a ``unitary`` (a list of
    rows, each a list of strings) or a ``query`` (a list of integers or
    null); a fault names its layer 1-based.  Unitary entries must be
    strings (``parse_scalar``): a JSON number such as ``0.7071`` is
    rejected.  ``tolerance`` is each ``UnitaryMatrix``'s unitarity
    tolerance; with 0 every matrix must be exactly unitary.
    """
    try:
        dim, n = data["dim"], data["n"]
        raw_layers = data["layers"]
        outputs = data["outputs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algorithm JSON: {exc}") from exc
    # JSON integers only: not 3.7, "3" or true
    if type(dim) is not int or type(n) is not int:
        raise ValueError(
            f"malformed algorithm JSON: dim and n must be integers, got {dim!r} and {n!r}"
        )
    if type(outputs) is not list or any(type(o) is not int for o in outputs):
        raise ValueError(
            f"malformed algorithm JSON: outputs must be a list of integers, got {outputs!r}"
        )
    if type(raw_layers) is not list:
        raise ValueError(f"malformed algorithm JSON: layers must be a list of objects, got {raw_layers!r}")
    # dim, n and outputs are checked before any layer's dim**2 entries are parsed
    QueryAlgorithm(dim, n, (), outputs)
    layers: list[Layer] = []
    for number, entry in enumerate(raw_layers, 1):
        if type(entry) is not dict:
            raise ValueError(
                f"malformed algorithm JSON: layers must be a list of objects; layer {number} is {entry!r}"
            )
        if ("unitary" in entry) == ("query" in entry):
            raise ValueError(f"layer must be 'unitary' or 'query': {entry!r}")
        if "unitary" in entry:
            rows = entry["unitary"]
            if type(rows) is not list or any(type(row) is not list for row in rows):
                raise ValueError(
                    f"malformed algorithm JSON: layer {number}: unitary must be a list of rows, "
                    f"each a list of strings, got {rows!r}"
                )
            if not all(isinstance(v, str) for row in rows for v in row):
                raise ValueError('exact scalars must be JSON strings such as "1/2 r2"')
            # the shape is checked before any of the layer's entries is parsed
            if any(len(row) != len(rows) for row in rows):
                raise ValueError("matrix must be square")
            if len(rows) != dim:
                raise ValueError("unitary layer dimension mismatch")
            layers.append(UnitaryMatrix([[parse_scalar(v) for v in row] for row in rows], tolerance))
        else:
            query = entry["query"]
            if type(query) is not list or any(v is not None and type(v) is not int for v in query):
                raise ValueError(
                    f"malformed algorithm JSON: layer {number}: query must be a list of "
                    f"integers or null, got {query!r}"
                )
            assignment = tuple(None if v is None else v - 1 for v in query)
            layers.append(QueryLayer(dim, assignment))
    return QueryAlgorithm(dim, n, layers, outputs)

