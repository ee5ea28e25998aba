"""Boolean functions as packed truth tables, with complexity measures.

A function on ``n`` variables is stored as its full truth table.  Input
``(x1, ..., xn)`` is addressed by the integer whose binary digits, most
significant first, are ``x1 x2 ... xn``; truth tables are therefore plain
arrays of length ``2**n`` indexed that way.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import polynomial

MAX_N = 27
DEFAULT_DCAP = 12
# Largest n for exact depth: the 3**n-state table and the sweeps' scratch
# peak at about 1.34 bytes per state (tracemalloc, n = 15 and 16), 0.17 GB at
# n = 17 and 0.52 GB at n = 18.
# Larger n is refused whatever the cap.
MAX_DCAP = 17

_BIT_CHARS = {"0": 0, "1": 1}
_INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """``text`` as an integer when it is ASCII ``-?[0-9]+`` of at most 18
    characters, else ValueError.

    The one integer grammar of outside input: ``int`` alone would also take
    " 3", "+3", "0_3" and other scripts' digits.  No valid field is longer
    than 18 characters, and ``int`` refuses over 4300 digits with advice no
    caller can act on.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    if len(text) > 18:
        raise ValueError(f"an integer of {len(text)} characters; at most 18")
    return int(text)


def parse_spec(spec: str, usages: Iterable[str]) -> Optional[tuple[str, list[int]]]:
    """The usage of ``usages`` that ``spec`` names, with its parameters, or
    None: the one NAME[:PARAMS] grammar of outside input.  Usage NAME matches
    only NAME; NAME:P1,...,Pk matches NAME with or without a colon, and then
    raises a ValueError naming it unless k comma-separated ``parse_int``
    integers follow the colon.
    """
    name, colon, arg = spec.partition(":")
    for usage in usages:
        head, parametric, places = usage.partition(":")
        if head != name or (colon and not parametric):
            continue
        if not parametric:
            return usage, []
        params = arg.split(",")
        try:
            if len(params) == places.count(",") + 1:
                return usage, [parse_int(p) for p in params]
        except ValueError:
            pass
        raise ValueError(f"expected {usage} with integer parameters")
    return None


@dataclass(frozen=True)
class InputAssignment:
    """A concrete assignment of the n input variables; bits[0] is x1."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_string(cls, s: str) -> "InputAssignment":
        try:
            bits = tuple(_BIT_CHARS[c] for c in s)
        except KeyError:
            raise ValueError(f"invalid bit string {s!r}") from None
        return cls(len(bits), bits)

    @classmethod
    def from_index(cls, n: int, index: int) -> "InputAssignment":
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for n={n}")
        return cls(n, tuple((index >> (n - 1 - j)) & 1 for j in range(n)))

    @property
    def index(self) -> int:
        i = 0
        for b in self.bits:
            i = (i << 1) | b
        return i

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def coerce_input(x, n: int) -> InputAssignment:
    """Accept an InputAssignment, a bit string, or a bit sequence."""
    if isinstance(x, InputAssignment):
        pass
    elif isinstance(x, str):
        x = InputAssignment.from_string(x)
    else:
        bits = tuple(int(b) for b in x)
        x = InputAssignment(len(bits), bits)
    if x.n != n:
        raise ValueError(f"input has {x.n} bits, function takes {n}")
    return x


class BooleanFunction:
    """Immutable truth table of a Boolean function on at most 27 variables."""

    __slots__ = ("n", "_packed", "_table")

    def __init__(self, n: int, table) -> None:
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
        arr = np.asarray(table)
        if arr.shape != (1 << n,):
            raise ValueError(f"table must have length {1 << n}")
        self._packed = np.packbits(polynomial.as_01(arr)).tobytes()
        self.n = n
        self._table: Optional[np.ndarray] = None

    @classmethod
    def from_packed(cls, n: int, packed: bytes) -> "BooleanFunction":
        """Inverse of ``packed()``; the padding bits after entry 2**n must be zero."""
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
        nbytes = -(-(1 << n) // 8)
        if len(packed) != nbytes:
            raise ValueError(f"packed table must have {nbytes} bytes for n={n}")
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        if bits[1 << n :].any():
            raise ValueError("padding bits after the truth table must be zero")
        return cls(n, bits[: 1 << n])

    def table(self) -> np.ndarray:
        """Unpacked truth table as a read-only uint8 array (cached)."""
        if self._table is None:
            bits = np.unpackbits(np.frombuffer(self._packed, dtype=np.uint8))
            arr = np.ascontiguousarray(bits[: 1 << self.n])
            arr.flags.writeable = False
            self._table = arr
        return self._table

    def packed(self) -> bytes:
        return self._packed

    def value_at(self, index: int) -> int:
        if not 0 <= index < (1 << self.n):
            raise ValueError(f"index {index} out of range")
        return (self._packed[index >> 3] >> (7 - (index & 7))) & 1

    def __call__(self, x) -> int:
        return self.value_at(coerce_input(x, self.n).index)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self.n, self._packed))

    def __repr__(self) -> str:
        if self.n <= 5:
            return f"BooleanFunction(n={self.n}, table={''.join(map(str, self.table()))})"
        return f"BooleanFunction(n={self.n}, ones={int(self.table().sum())})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "table_hex": self._packed.hex()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BooleanFunction":
        try:
            n = data["n"]
            packed = bytes.fromhex(data["table_hex"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed truth-table JSON: {exc}") from exc
        if type(n) is not int:  # a JSON integer: not "3", 3.0 or true
            raise ValueError(f"malformed truth-table JSON: n must be an integer, got {n!r}")
        return cls.from_packed(n, packed)


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------

# Eight 3-variable functions with the full 2-vs-3 query gap, truth tables
# listed by input index 000..111.
TABLE1_COLUMNS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 0, 0, 0),
    (1, 1, 1, 0, 0, 1, 1, 1),
    (1, 1, 0, 1, 1, 0, 1, 1),
    (1, 0, 1, 1, 1, 1, 0, 1),
    (0, 1, 1, 1, 1, 1, 1, 0),
)

# Eight 4-variable functions with the full 2-vs-4 query gap, listed by input
# index 0000..1111.
TABLE2_COLUMNS: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1),
    (1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0),
)


def named_function(name: str) -> BooleanFunction:
    """Builtin functions: F3, G4, table1:i and table2:i with i in 1..8."""
    try:
        usage, params = parse_spec(name.strip().lower(), ("f3", "g4", "table1:I", "table2:I")) or ("", [])
    except ValueError:
        usage = ""
    if usage == "f3":
        # (x1 == x2) and (x1 != x3): 1 on 001 and 110
        return BooleanFunction(3, TABLE1_COLUMNS[1])
    if usage == "g4":
        # (x1 != x2) and (x3 != x4)
        return BooleanFunction(4, TABLE2_COLUMNS[0])
    if usage and 1 <= params[0] <= 8:
        n, columns = (3, TABLE1_COLUMNS) if usage == "table1:I" else (4, TABLE2_COLUMNS)
        return BooleanFunction(n, columns[params[0] - 1])
    raise ValueError(
        f"unknown builtin function {name!r}; builtins are F3, G4, table1:1..8, table2:1..8"
    )


# ---------------------------------------------------------------------------
# Complexity measures
# ---------------------------------------------------------------------------

def complement_symmetric(f: BooleanFunction) -> bool:
    """True iff f(x) equals f applied to the bitwise complement of x, for all x."""
    t = f.table()
    return bool(np.array_equal(t, t[::-1]))


def sensitivity(f: BooleanFunction) -> int:
    t = f.table()
    total = np.zeros(1 << f.n, dtype=np.int8)
    for j in range(f.n):
        # each entry against its partner across index bit j
        total += t != t.reshape(-1, 2, 1 << j)[:, ::-1].reshape(-1)
    return int(total.max())


def _axis_sweep(cube: np.ndarray, n: int) -> None:
    """One depth sweep of ``_depth_table``: on each axis of the
    flat ``(3,) * n`` cube in turn, ``v2 = min(v2, 1 + max(v0, v1))`` in
    place, ``v0``, ``v1`` and ``v2`` being the views with that axis's digit
    at 0, 1 and 2, every other digit aligned.
    """
    for a in range(n):
        v = cube.reshape(3**a, 3, -1)
        worst = np.maximum(v[:, 0], v[:, 1])
        worst += 1
        np.minimum(v[:, 2], worst, out=v[:, 2])
        del worst  # else it lives on beside the next axis's: two thirds of a cube


def _depth_table(f: BooleanFunction) -> np.ndarray:
    """Optimal query depth for every partial assignment of f's variables.

    A partial assignment is a ternary code: digit j (base-3, least significant
    first) is 0/1 when the variable occupying table-index bit j is fixed, and
    2 when it is still free.  Returns the int8 depth table indexed by that
    code: constant restrictions have depth 0, and the full function's depth
    sits at the all-free code ``3**n - 1``.

    The table is the flattened C-order ``(3,) * n`` cube whose axis ``a`` is
    variable ``x_{a+1}``.  It starts as flags, bit 0 / bit 1 set when value
    0 / 1 occurs among a state's completions: ``f.table() + 1`` goes into the
    cube's all-0/1 corner, then for ``a`` from ``n - 1`` down to 0 digit 2 of
    axis ``a`` gets the OR of digits 0 and 1, only where axes ``0 .. a-1`` are
    still 0/1.  Pass ``a`` writes exactly the states whose free axes include
    ``a`` and lie at or after it; their children's free axes all lie after
    ``a``, written by an earlier pass or the corner.  So every state is
    written once, from final values, and no unwritten entry is read.  The
    flags then become depth in place: 0 on constant states (flags 1 or 2)
    and ``n + 1`` elsewhere.  Every depth pass goes through ``_axis_sweep``,
    which sets ``v2 = min(v2, 1 + max(v0, v1))`` on axes ``0 .. n-1`` in
    turn, in the depth table itself: its only scratch is ``1 + max(v0, v1)``,
    a third of the table.  Values only fall and each stays an upper bound on
    the true depth: ``n + 1`` exceeds every depth, and an update takes the
    cost of a tree that queries that axis first.  After sweep ``t`` every
    state of depth at most ``t`` is final: one of its free axes has children
    of depth below ``t``, final a sweep earlier.  So the sweeps stop, at most
    ``D + 1`` of them for the full depth ``D``, after the first one that
    changes nothing.  That fixpoint is exact: each state is the min over its
    free axes of 1 + max of its children, which is the true depth by
    induction on the number of free variables.  Since values only fall, a
    sweep changed nothing exactly when it left the table's sum unchanged.
    """
    n = f.n
    if n > MAX_DCAP:
        raise ValueError(f"exact depth needs 3**n states; capped at n={MAX_DCAP}, got n={n}")
    flags = np.empty(3**n, dtype=np.uint8)
    cube = flags.reshape((3,) * n)
    np.add(f.table().reshape((2,) * n), 1, out=cube[(slice(0, 2),) * n])
    for a in reversed(range(n)):
        lead = (slice(0, 2),) * a  # the trailing ... keeps each operand a view at n = 1
        np.bitwise_or(cube[lead + (0, ...)], cube[lead + (1, ...)], out=cube[lead + (2, ...)])
    depth = flags.view(np.int8)
    np.equal(flags, 3, out=depth.view(np.bool_))
    depth *= n + 1
    last = None
    while (total := int(depth.sum(dtype=np.int64))) != last:
        last = total
        _axis_sweep(depth, n)
    return depth


def _proves_full_depth(c: np.ndarray, budget: Optional[int] = None) -> bool:
    """Whether the multilinear coefficients ``c`` (by mask) of f prove D(f) = n.

    A restriction g of f on m free variables has depth m when its top
    coefficient is nonzero, since depth is at least degree (Nisan-Szegedy
    1994), or when m >= 2 and every free variable x_p has a restriction
    g|x_p=b of depth m - 1: those are not constant, so neither is g, and
    D(g) = 1 + min_p max_b D(g|x_p=b) >= m.  The coefficients of g|x_p=0
    are those of g on masks without bit p; g|x_p=1 adds to each the one
    with bit p.  Their top coefficients are ``g[top ^ bit_p]`` and that
    plus ``g[top]``, so a restriction is looked into only for the
    variables where both are zero.  On one free variable a zero top
    coefficient means a constant, and the rule fails there.

    Followed to the end the rule decides D(f) = n exactly, but only as a
    search over restrictions.  The search deepens one restriction at a time,
    so shallow proofs are found first, keeps the restrictions it proved and
    the deepest search that failed on each, and gives up after visiting
    ``budget`` restrictions (tests raise it to follow the rule to the end).
    The default, 1.5**n visits of at most 2**(n-1) coefficients each, reads
    fewer entries than one pass over the sweep's 3**n states.  Functions of
    low degree and depth n, such as compositions of F3, make it give up, at
    about the cost of the sweep from n = 9 on.  A function that ignores a
    variable, a constant among them, has D(f) < n and is turned down before
    any search.
    """
    n = c.size.bit_length() - 1
    if np.bitwise_or.reduce(np.flatnonzero(c)) != c.size - 1:
        return False
    if budget is None:
        budget = int(1.5**n)
    # the masks one variable short of the top, for each number of free variables
    below_top = [((1 << m) - 1) ^ (1 << np.arange(m)) for m in range(n + 1)]
    proven: set = set()
    failed: dict = {}
    visits = 0
    cut = False

    def proves(g: np.ndarray, free: tuple, key: tuple, level: int) -> bool:
        # key: (mask of the fixed variables, mask of those fixed to 1) in f's bits
        nonlocal visits, cut
        if key in proven:
            return True
        if failed.get(key, 0) >= level:
            return False
        visits += 1
        m = len(free)
        top = g.size - 1
        if g[top]:
            proven.add(key)
            return True
        if m == 1:
            failed[key] = n + 1
            return False
        open_vars = (g[below_top[m]] == 0).nonzero()[0].tolist()
        if open_vars and (level == 1 or visits > budget):
            cut = True
            failed[key] = level
            return False
        for p in open_vars:
            pair = g.reshape(-1, 2, 1 << p)
            rest = free[:p] + free[p + 1 :]
            bit = 1 << free[p]
            if not (
                proves(pair[:, 0].reshape(-1), rest, (key[0] | bit, key[1]), level - 1)
                or proves((pair[:, 0] + pair[:, 1]).reshape(-1), rest, (key[0] | bit, key[1] | bit), level - 1)
            ):
                failed[key] = level
                return False
        proven.add(key)
        return True

    for level in range(1, n + 1):
        cut = False
        if proves(c, tuple(range(n)), (0, 0), level):
            return True
        if not cut or visits > budget:
            return False
    return False


def deterministic_complexity(f: BooleanFunction) -> int:
    """Exact decision-tree depth of f; ValueError above MAX_DCAP variables.

    The refusal comes first, then the restriction search of
    ``_proves_full_depth`` on f's multilinear coefficients, then the sweep,
    so the refusal holds even where the degree would settle the depth.  The
    search's first step is the degree bound: D(f) = n when f depends on
    every variable and either its all-variables coefficient or every
    coefficient one variable short of it is nonzero, for then every
    variable has a restriction of degree n - 1.  Where that misses, most
    often on complement-symmetric tables, whose odd-size Fourier
    coefficients vanish, restrictions of restrictions usually settle it.
    Only when the search fails is the 3**n-state table of
    ``_depth_table`` built: for functions of depth below n,
    and for the few of depth n that the search gives up on.
    """
    n = f.n
    if n > MAX_DCAP:
        raise ValueError(f"exact depth needs 3**n states; capped at n={MAX_DCAP}, got n={n}")
    if _proves_full_depth(polynomial.mobius_coefficients(f.table())):
        return n
    return int(_depth_table(f)[-1])


def complement_symmetric_functions(n: int) -> list[BooleanFunction]:
    """All n-variable functions with f(x) == f(~x), one per choice mask.

    Bit i of the choice is the value on the complement pair {i, ~i}, for
    table indices i below 2**(n-1).
    """
    half = 1 << (n - 1)
    choices = ((choice >> np.arange(half)) & 1 for choice in range(1 << half))
    return [BooleanFunction(n, np.concatenate([v, v[::-1]])) for v in choices]


def enumerate_complement_symmetric_full_d(n: int) -> list[BooleanFunction]:
    """All complement-symmetric n-variable functions with depth exactly n.

    Supported for n in {3, 4}.  Sorted by truth-table value (index-0 entry
    most significant).
    """
    if n not in (3, 4):
        raise ValueError(f"enumeration supported for n in {{3, 4}}, got {n}")
    found = [
        f for f in complement_symmetric_functions(n)
        if deterministic_complexity(f) == n
    ]
    found.sort(key=lambda g: tuple(g.table()))
    return found


def compose_table(
    outer: np.ndarray,
    inner: np.ndarray,
    blocks: Sequence[Sequence[int]],
    start: int = 0,
    stop: Optional[int] = None,
) -> np.ndarray:
    """uint8 truth table of an outer function of one inner function on disjoint blocks.

    ``outer`` is the uint8 table over the k block values (block 1 most
    significant), ``inner`` the uint8 table of one block, and ``blocks``
    gives each block's variables (0-based) in the inner function's variable
    order; they must partition ``range(n)`` into blocks of the inner
    function's arity, else ``ValueError``.  Taking the inner table along
    each axis of the ``(2,)*k`` outer cube swaps that 2-wide axis for the
    block's 2^b entries, so only uint8 arrays are built.  The takes run
    from the last block to the first: each one grows the cube along its
    outermost axis still 2 wide, behind which every axis has already grown,
    so each copy moves a contiguous run of 2^b or more entries.  Taken
    first to last, the last and largest take would gather one byte at a
    time along the innermost axis.  Only the previous step and its output
    are alive at once, so the transient peak is the output plus the step
    before it, at most two row blocks.  The ``(2,)*n`` result is then
    transposed to variable order; for consecutive blocks in order the
    transpose is the identity and copies nothing.  ``certify`` relies on
    that: it asks for its row blocks with every level's blocks renumbered
    as consecutive ranges, a table of the same function with its variables
    permuted, which has the same degree.

    ``start`` and ``stop`` select the entries ``[start, stop)`` of the
    table, a range of 2^m entries with ``start`` a multiple of 2^m; the
    default is the whole table.  Such a range fixes the leading n - m
    variables, so each block takes its inner table restricted to its fixed
    variables, and only the 2^m entries are built.
    """
    k, b = len(blocks), max(inner.size.bit_length() - 1, 0)
    n = k * b
    if (
        outer.size != 1 << k
        or inner.size != 1 << b
        or any(len(block) != b for block in blocks)
        or sorted(var for block in blocks for var in block) != list(range(n))
    ):
        raise ValueError(
            f"blocks {[tuple(block) for block in blocks]} must partition range({n}) into {k} "
            f"blocks of {b}, with a 2^{b}-entry inner table and a 2^{k}-entry outer table; "
            f"got {inner.size} and {outer.size} entries"
        )
    stop = (1 << n) if stop is None else stop
    m = (stop - start).bit_length() - 1
    if not 0 <= start < stop <= 1 << n or stop - start != 1 << m or start % (1 << m):
        raise ValueError(f"[{start}, {stop}) is not an aligned power-of-two range of 2^{n} entries")
    cube = outer.reshape((2,) * k)
    inner = inner.reshape((2,) * b)
    for axis in reversed(range(k)):
        fixed = tuple(
            slice(None) if var >= n - m else (start >> (n - 1 - var)) & 1 for var in blocks[axis]
        )
        cube = np.take(cube, inner[fixed].reshape(-1), axis=axis)
    free_vars = [var for block in blocks for var in block if var >= n - m]
    cube = cube.reshape((2,) * m).transpose(np.argsort(free_vars))
    return np.ascontiguousarray(cube).reshape(-1)


def compose_function(h: BooleanFunction, f1: BooleanFunction) -> BooleanFunction:
    """h applied to f1 evaluated on consecutive disjoint blocks of variables.

    Block j (1-based) of the composite input feeds variables
    ``x_{(j-1)m+1} .. x_{jm}`` to the j-th argument of h.
    """
    n, m = h.n, f1.n
    total = n * m
    if total > MAX_N:
        raise ValueError(f"composite would need {total} > {MAX_N} variables")
    blocks = [range(j * m, j * m + m) for j in range(n)]
    return BooleanFunction(total, compose_table(h.table(), f1.table(), blocks))


# ---------------------------------------------------------------------------
# Summary report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    n: int
    sensitivity: int
    d_exact: Optional[int]
    d_lower: int
    degree: int
    qe_lower: int
    complement_symmetric: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def complexity_report(f: BooleanFunction, dcap: int = DEFAULT_DCAP) -> ComplexityReport:
    """Every measure of f; the exact depth is None when f has more than ``dcap`` variables."""
    d_exact = None if f.n > dcap else deterministic_complexity(f)
    s = sensitivity(f)
    deg = polynomial.degree_of(f)
    return ComplexityReport(
        n=f.n,
        sensitivity=s,
        d_exact=d_exact,
        d_lower=max(s, deg),
        degree=deg,
        qe_lower=(deg + 1) // 2,
        complement_symmetric=complement_symmetric(f),
    )
