"""Boolean functions as packed truth tables, with complexity measures.

A function on ``n`` variables is stored as its full truth table.  Input
``(x1, ..., xn)`` is addressed by the integer whose binary digits, most
significant first, are ``x1 x2 ... xn``; truth tables are therefore plain
arrays of length ``2**n`` indexed that way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

MAX_N = 27
DEFAULT_DCAP = 12
# Largest n whose exact-depth tables stay under 1 GB: the 3**n-state sweeps
# peak at about 4.3 bytes per state (tracemalloc, n = 14 and 15).  Larger n
# is refused whatever the cap.
MAX_DCAP = 17

_BIT_CHARS = {"0": 0, "1": 1}


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

    def flipped(self, var: int) -> "InputAssignment":
        """Copy with variable ``var`` (0-based, x1 == 0) negated."""
        bits = list(self.bits)
        bits[var] ^= 1
        return InputAssignment(self.n, tuple(bits))

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


def hamming_weight(x: InputAssignment) -> int:
    return sum(x.bits)


class BooleanFunction:
    """Immutable truth table of a Boolean function on at most 27 variables."""

    __slots__ = ("n", "_packed", "_table")

    def __init__(self, n: int, table) -> None:
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
        arr = np.asarray(table, dtype=np.uint8)
        if arr.shape != (1 << n,):
            raise ValueError(f"table must have length {1 << n}")
        if arr.max(initial=0) > 1:
            raise ValueError("table entries must be 0 or 1")
        self.n = n
        self._packed = np.packbits(arr).tobytes()
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

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[tuple[int, ...]], int]) -> "BooleanFunction":
        table = [int(fn(InputAssignment.from_index(n, i).bits)) & 1 for i in range(1 << n)]
        return cls(n, table)

    @classmethod
    def from_ones(cls, n: int, ones: Iterable) -> "BooleanFunction":
        table = np.zeros(1 << n, dtype=np.uint8)
        for one in ones:
            idx = InputAssignment.from_string(one).index if isinstance(one, str) else int(one)
            table[idx] = 1
        return cls(n, table)

    @classmethod
    def constant(cls, n: int, value: int) -> "BooleanFunction":
        return cls(n, np.full(1 << n, value & 1, dtype=np.uint8))

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

    def ones(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.table()))

    def complement(self) -> "BooleanFunction":
        return BooleanFunction(self.n, 1 - self.table())

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


def evaluate(f: BooleanFunction, x) -> int:
    return f(x)


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------

def _f3_formula(bits: tuple[int, ...]) -> int:
    x1, x2, x3 = bits
    return int((not (x1 ^ x2)) and (x1 ^ x3))


def _g4_formula(bits: tuple[int, ...]) -> int:
    x1, x2, x3, x4 = bits
    return int((x1 ^ x2) and (x3 ^ x4))


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
    low = name.strip().lower()
    if low == "f3":
        return BooleanFunction.from_callable(3, _f3_formula)
    if low == "g4":
        return BooleanFunction.from_callable(4, _g4_formula)
    for prefix, columns in (("table1:", TABLE1_COLUMNS), ("table2:", TABLE2_COLUMNS)):
        if low.startswith(prefix):
            try:
                i = int(low[len(prefix):])
            except ValueError:
                break
            if 1 <= i <= 8:
                return BooleanFunction(3 if prefix == "table1:" else 4, columns[i - 1])
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


def sensitivity_at(f: BooleanFunction, x) -> int:
    x = coerce_input(x, f.n)
    i = x.index
    v = f.value_at(i)
    return sum(1 for j in range(f.n) if f.value_at(i ^ (1 << (f.n - 1 - j))) != v)


def sensitivity(f: BooleanFunction) -> int:
    t = f.table().astype(np.int8)
    total = np.zeros(1 << f.n, dtype=np.int8)
    for j in range(f.n):
        pairs = t.reshape(-1, 2, 1 << j)
        diff = (pairs[:, 0, :] != pairs[:, 1, :]).astype(np.int8)
        acc = total.reshape(-1, 2, 1 << j)
        acc[:, 0, :] += diff
        acc[:, 1, :] += diff
    return int(total.max())


def _axis_sweep(
    cube: np.ndarray, n: int, step: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
) -> None:
    """Call ``step(v0, v1, v2)`` once per axis of the flat ``(3,) * n`` cube.

    It runs the depth sweeps of ``_partial_assignment_tables``; the flags
    cube is no longer swept but built by expanding the truth table one axis
    at a time.  ``v0``, ``v1`` and ``v2`` are the views of the cube
    with that axis's digit at 0, 1 and 2, every other digit aligned; step
    updates ``v2`` in place.
    Axes ``0..k-1``, ``k = (n + 1) // 2``, are swept in the cube itself.  The
    other axes are swept in one contiguous transposed copy, which is written
    back at the end, so no view has an inner run shorter than ``3 ** (n // 2)``
    entries: numpy pays its loop overhead per run, and runs of 3 or 9 made
    the innermost axes cost more than all the others together.
    """
    k = (n + 1) // 2
    for a in range(k):
        v = cube.reshape(3**a, 3, -1)
        step(v[:, 0], v[:, 1], v[:, 2])
    rows = cube.reshape(3**k, -1)
    cols = np.ascontiguousarray(rows.T)
    for a in range(n - k):
        v = cols.reshape(3**a, 3, -1)
        step(v[:, 0], v[:, 1], v[:, 2])
    rows[...] = cols.T


def _relax_depth(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> None:
    worst = np.maximum(v0, v1)
    worst += 1
    np.minimum(v2, worst, out=v2)


def _partial_assignment_tables(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """Optimal query depth for every partial assignment of f's variables.

    A partial assignment is a ternary code: digit j (base-3, least significant
    first) is 0/1 when the variable occupying table-index bit j is fixed, and
    2 when it is still free.  Returns ``(depth, flags)`` indexed by that code,
    where ``flags`` has bit 0 / bit 1 set when value 0 / 1 occurs among the
    completions.  Constant restrictions have depth 0; the full function's
    depth sits at the all-free code ``3**n - 1``.

    Both tables are the flattened C-order ``(3,) * n`` cube whose axis ``a``
    is variable ``x_{a+1}``.  Flags are not swept: they are built from
    ``f.table() + 1`` by expanding the variables last first, each step
    turning one 2-wide axis into a 3-wide one whose digits 0 and 1 are
    copied and whose digit 2 is their OR.  That grows the cube along its
    outermost binary axis, so every copy moves runs of ``3**i`` entries.
    The steps alternate between two ``3**n`` buffers; flags end in one, and
    the other becomes the depth table.  Every depth pass goes through
    ``_axis_sweep``.  Depth starts at 0 on constant states and at
    ``n + 1`` elsewhere, and each sweep sets ``v2 = min(v2, 1 + max(v0, v1))``
    on every axis, in place.  Values only fall and each stays an upper bound
    on the true depth: ``n + 1`` exceeds every depth, and an update takes the
    cost of a tree that queries that axis first.  After sweep ``t`` every
    state of depth at most ``t`` is final: one of its free axes has children
    of depth below ``t``, final a sweep earlier.  So the sweeps stop, at most
    ``D + 1`` of them for the full depth ``D``, after the first one that
    changes nothing.  That fixpoint is exact: each state is the min over its
    free axes of 1 + max of its children, which is the true depth by
    induction on the number of free variables.  The change test compares
    against a snapshot taken before the sweep and initialised to -1, which
    no entry takes; an uninitialised buffer could already hold the table
    and stop the loop before its first sweep.
    """
    n = f.n
    if n > MAX_DCAP:
        raise ValueError(f"exact depth needs 3**n states; capped at n={MAX_DCAP}, got n={n}")
    buffers = [np.empty(3**n, dtype=np.uint8) for _ in range(2)]
    flags = f.table() + 1
    for i in range(n):
        grown = buffers[i % 2][: 3 ** (i + 1) << (n - 1 - i)].reshape(-1, 3, 3**i)
        pair = flags.reshape(-1, 2, 3**i)
        grown[:, :2] = pair
        np.bitwise_or(pair[:, 0], pair[:, 1], out=grown[:, 2])
        flags = grown.reshape(-1)
    depth = buffers[n % 2].view(np.int8)
    np.equal(flags, 3, out=depth.view(np.bool_))
    depth *= n + 1
    before = np.full_like(depth, -1)
    while not np.array_equal(depth, before):
        np.copyto(before, depth)
        _axis_sweep(depth, n, _relax_depth)
    return depth, flags


def deterministic_complexity(f: BooleanFunction, cap: int = DEFAULT_DCAP) -> Optional[int]:
    """Exact decision-tree depth of f: None above the cap, ValueError above MAX_DCAP."""
    if f.n > cap:
        return None
    depth, _ = _partial_assignment_tables(f)
    return int(depth[3**f.n - 1])


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
        if deterministic_complexity(f, cap=n) == n
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
    from . import polynomial

    d_exact = deterministic_complexity(f, cap=dcap)
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
