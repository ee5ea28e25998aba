"""Multilinear representing polynomials and univariate range collapsers.

Every Boolean function has a unique multilinear polynomial agreeing with it
on {0,1}^n.  Its coefficients are integers and come out of the in-place
subset (Mobius) transform of the truth table, as one int32 array indexed by
monomial mask; that array is the only multilinear representation.  Monomial
masks use the same bit convention as truth-table indices: mask bit ``n-1-j``
(counting from the least significant bit) stands for variable ``x_{j+1}``,
so a monomial evaluates to 1 at input index ``i`` exactly when
``mask & i == mask``.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # boolfn imports this module
    from .boolfn import BooleanFunction

# construct --emit poly writes one JSON term per nonzero coefficient, up to
# 2^24 of them; every 2^n array is otherwise bounded by boolfn.MAX_N alone
INTERPOLATION_CAP = 24

# table_degree's stage-1 blocks (int16) take about 1 MB of cache and its
# stage-2 slabs 512 KB (int16) or 1 MB (int32).  Stage 1 has three steps:
# the 4 lowest bits' passes come from a lookup table of every 16-entry
# transform (int8, |value| <= 8), the next 3 bits' passes run in int8
# (|value| <= 64 after 7 passes) and the rest in int16.  After 14 passes
# |value| <= 2^13, so the top variable's pass that merges the second half
# of the rows into the first stays within +-2^14; after 15 it could reach
# +2^15, which int16 cannot hold.  The lookup gathers a block's rows with
# index bits 4-6 outermost, so their passes run on runs of 1/8 of the block
# rather than of 16-64 entries.  A copy that moves each 16-entry row as one
# 16-byte element puts the block back in index order, and one contiguous
# copy widens it to int16: 0.08 ms a 2^19 block, against 0.18 ms for one
# int8 to int16 copy of the transposed block in runs of 16 entries.
# Stage 2 runs its passes in wrapping int16 first, which is arithmetic mod
# 2^16, so it gives every coefficient c_S mod 2^16 exactly.  That is the
# exact degree whenever the largest level |S| with c_S nonzero mod 2^16 is
# at most 15 (table_degree reruns in int32 otherwise).  By Nisan-Szegedy,
# |c_S| <= 2^(|S|-1) for a 0/1 function, so every c_S with |S| <= 16 is
# nonzero mod 2^16 exactly when it is nonzero.  Suppose some c_S with
# |S| >= 17 were nonzero, and take S minimal.  Pick U in S with |U| = 16,
# set the variables of S - U to 1 and every other one outside U to 0: that
# gives a 0/1 function h on U whose top coefficient is the sum of c_T over
# U <= T <= S.  That sum is c_S, as c_U = 0 (level 16) and every other c_T
# is 0 by minimality.  So |c_S| <= 2^15, but 2^16 divides c_S, and c_S = 0.
# Phase 0's coefficients are those of the restriction x1 = 0, a 0/1
# function of its own, so a phase-0 result below 16 is exact by itself;
# phase 1 runs in int16 only after phase 0 did, so two results below 16
# cover every coefficient.  The argument stops at 15: parity of 17
# variables has c = 2^16 at level 17, and mod 2^16 its degree reads 16.
# numpy 2.4.6 copies every operand of a pass through its ufunc buffer when
# the pass's contiguous run is shorter than half the buffer size (8192
# elements by default): on 2^19 int16 entries, runs of 1024-2048 cost
# 0.29-0.37 ns a subtraction and runs from 4096 on 0.09-0.13 ns.  So every
# worker of _each runs its passes with the buffer lowered to _BUFSIZE.
# A 2^19-entry slab would halve the slabs.  It sped up stage 2 at n = 27
# (lemma3:3,1: 134 -> 95 ms, min of 6 alternated calls), but f3k:7 sets
# certify's median op, and its stage 2 went 0.91-0.97 -> 1.04-1.13 ms in
# one prototype and stayed level in another run (min 1.35-1.79 against
# 1.35-1.68 ms).  So _SLAB stays at 2^18 until a certify benchmark round
# shows that f3k:7 does not slow.
_LOW_BITS = 14
_BLOCK = 1 << 19
_SLAB = 1 << 18
_BUFSIZE = 1 << 11
# tables of 2^_THREADED_N entries or more run table_degree's blocks and slabs
# on every available CPU; below that, one thread.  Two threads against one
# on a shared 2-vCPU host (median of 12-60 calls, five rounds): n = 21 took
# 0.71-1.13 of the time, n = 22 0.64-1.06, n = 23 0.60-0.71, n = 24
# 0.54-0.68, the upper ends in phases when the second vCPU was busy.  An
# f3k:7 table (n = 21) sets certify's median op, so it stays on one thread
_THREADED_N = 22
# fit_range_polynomial's cap: the paper's collapsers need at most 16 values,
# and an exact fit's denominators grow like k! (29.5 s at 800 values)
MAX_SAMPLE_VALUES = 64


@functools.cache
def _popcount16() -> np.ndarray:
    """The popcount of every 16-bit value, as int8."""
    pc = np.zeros(1, dtype=np.int8)
    for _ in range(16):
        pc = np.concatenate([pc, pc + 1])
    pc.flags.writeable = False
    return pc


@functools.cache
def _mobius16() -> np.ndarray:
    """The subset transform of every 16-entry 0/1 pattern, as int8 rows
    indexed by the pattern packed into a uint16, first entry most significant.

    A pattern of 2m entries is hi * 2^m + lo, hi its first half, and its
    transform is (T[hi], T[lo] - T[hi]) from the table T of m-entry ones.
    """
    t = np.array([[0], [1]], dtype=np.int8)
    for _ in range(4):
        rows, m = t.shape
        out = np.empty((rows, rows, 2 * m), dtype=np.int8)
        out[:, :, :m] = t[:, None, :]
        np.subtract(t[None, :, :], t[:, None, :], out=out[:, :, m:])
        t = out.reshape(rows * rows, 2 * m)
    t.flags.writeable = False
    return t


def _subset_transform(a: np.ndarray, bits: int, run: int) -> np.ndarray:
    """In-place subset (Mobius) transform, values to coefficients, of a
    contiguous array over the low ``bits`` bits of ``index // run``, one pass
    per bit, with the calling thread's numpy ufunc buffer size.
    """
    for b in range(bits):
        v = a.reshape(-1, 2, run << b)
        np.subtract(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return a


def as_01(entries: np.ndarray) -> np.ndarray:
    """``entries`` as integers or bools, which ``np.packbits`` takes, once
    every entry is checked to be 0 or 1 (ValueError otherwise): an unsigned
    array needs only its maximum, and a bool one no check.  Other kinds are
    checked entry by entry, before any cast that would wrap 257 to 1 or
    truncate 0.5 to 0, and only a float or other non-integer array is cast."""
    kind = entries.dtype.kind
    if kind != "b" and not (entries.max() <= 1 if kind == "u" else ((entries == 0) | (entries == 1)).all()):
        raise ValueError("table entries must be 0 or 1")
    return entries if kind in "biu" else entries.astype(np.uint8)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _each(step: Callable[[int], Any], count: int, workers: int, passes: bool = True) -> list:
    """``[step(0), ..., step(count - 1)]``, each item run once by one of
    ``workers`` threads: the calling thread and ``workers - 1`` threads
    started here, every one of them joined before this returns or raises.
    With ``passes``, each runs its items with numpy's ufunc buffer at
    ``_BUFSIZE`` elements; steps that run no pass leave it as it is.

    Items are handed out in index order, and none after an item has raised;
    the exception of the lowest-indexed failing item is then re-raised.
    Every item below it had been handed out and ran to its end, so that is
    the exception one thread alone would raise.
    """
    results: list = [None] * count
    errors: dict[int, BaseException] = {}
    pending = list(range(count - 1, -1, -1))  # popped from the end, lowest first
    lock = threading.Lock()

    def work() -> None:
        old = np.setbufsize(_BUFSIZE) if passes else None
        try:
            while True:
                with lock:
                    if errors or not pending:
                        return
                    i = pending.pop()
                try:
                    results[i] = step(i)
                except BaseException as exc:  # re-raised by the calling thread
                    with lock:
                        errors[i] = exc
        finally:
            if passes:
                np.setbufsize(old)

    threads: list[threading.Thread] = []
    try:
        for _ in range(min(workers, count) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        with lock:  # after a failed start or an interrupt, no more items
            pending.clear()
        for thread in threads:
            thread.join()
    if errors:
        # the traceback holds this frame: emptied, the dict closes no cycle
        # that would keep the caller's arrays until the next collection
        try:
            raise errors[min(errors)]
        finally:
            errors.clear()
    return results


def _workers(n: int) -> int:
    """The threads that share the kernel's items for a table of 2^n entries."""
    return _cpus() if n >= _THREADED_N else 1


def _row_source(
    table: Union[np.ndarray, Callable[[int, int], np.ndarray]], n: Optional[int]
) -> tuple[Callable[[int, int], np.ndarray], int]:
    """``table_degree``'s arguments as a row source of 2^n entries, n >= 4:
    an array's n comes from its length, and a table of n < 4 is repeated to
    16 entries (dummy high variables)."""
    if n is None:
        array = np.asarray(table)
        n, table = int(array.size).bit_length() - 1, lambda start, stop: array[start:stop]
        if array.size != 1 << n:
            raise ValueError("table length must be a power of two")
    if n < 4:
        array = np.tile(table(0, 1 << n), 16 >> n)
        n, table = 4, lambda start, stop: array[start:stop]
    return table, n


_SCRATCH = threading.local()


def _scratch(nbytes: int) -> np.ndarray:
    """The calling thread's scratch bytes, cut to ``nbytes``.  Each thread
    keeps one uint8 array from call to call, grown to the largest size it
    was asked for (3 * ``_BLOCK`` bytes, 1.5 MB, once a table spans a whole
    stage-1 block), and nothing in it: every step writes the part it reads
    first.  Stage 1 takes and moves a block's lookup rows and runs a merged
    block's int16 passes in it, and stage 2 copies each slab into it, so a
    warm call allocates no block- or slab-sized array.  The threads that
    ``_each`` starts keep theirs until they end, within the call.  Arrays
    allocated per call or per block made glibc malloc hand memory back to
    the system and fault it in again on every call, on a 2-vCPU host: a
    1 MB array a call, 1184 minor faults a call and f3k:7's
    ``table_degree`` 4.5 -> 6.3 ms; stage 1's two 512 KB arrays a block,
    once stage 2 allocated nothing, 992 faults and 3.3 -> 4.5 ms; none
    with this array."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < nbytes:
        buf = _SCRATCH.buf = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes]


_ROW = np.dtype((np.void, 16))  # one 16-entry int8 row of the stage-1 lookup


class _Wraps(Exception):
    """Raised by a stage-2 slab run in int16 whose level reaches 16."""


def _low_passes(source: Callable[[int, int], np.ndarray], n: int, out: np.ndarray, merge: bool = False) -> None:
    """``table_degree``'s stage 1, raising as it does: the low-bit passes of
    the first ``out.size`` entries of a row source of 2^n entries into the
    int16 array ``out`` of 2^L columns or, with ``merge``, of the next
    ``out.size`` entries subtracted into it (``out`` = theirs - ``out``,
    the pass of the variable that splits them).  Each block's lookup rows,
    and a merged block's int16 passes, go through its thread's ``_scratch``.
    """
    low = out.shape[1].bit_length() - 1
    block = min(_BLOCK, out.size)
    first = out.size if merge else 0
    narrow = min(low, 7)
    lookup = _mobius16()

    def stage1(i: int) -> None:
        start = i * block
        rows = source(first + start, first + start + block)
        ids = np.packbits(as_01(rows)).view(">u2").reshape(-1, 1 << (narrow - 4))
        # the lookup rows at bytes [0, block), moved to [2 block, 3 block),
        # a merged block's int16 passes at [0, 2 block)
        buf = _scratch(3 * block)
        seg8 = buf[:block].view(np.int8).reshape(*ids.T.shape, 16)
        np.take(lookup, ids.T, axis=0, out=seg8, mode="clip")  # every id < 2^16
        _subset_transform(seg8, narrow - 4, seg8[0].size)
        # back in index order, each 16-entry row moved as one 16-byte element
        moved = buf[2 * block :].view(_ROW).reshape(ids.shape)
        np.copyto(moved, seg8.view(_ROW)[..., 0].T)
        seg = out.reshape(-1)[start : start + block]
        dst = buf[: 2 * block].view(np.int16) if merge else seg
        dst[...] = moved.view(np.int8).reshape(-1)
        _subset_transform(dst, low - narrow, 1 << narrow)
        if merge:
            np.subtract(dst, seg, out=seg)

    _each(stage1, out.size // block, _workers(n), low > 4)


def table_degree(
    table: Union[np.ndarray, Callable[[int, int], np.ndarray]], n: Optional[int] = None
) -> int:
    """Degree of the representing polynomial of a 0/1 table of length 2^n.

    ``table`` is the array or, with ``n`` given, a row source: a function
    that returns the table's entries ``[start, stop)``.  Stage 1 asks it
    for each aligned power-of-two range of one block exactly once, in
    order within each half of the table, so a source that builds each
    range (``ConstructedFunction.table``) never holds the whole table.
    From n = ``_THREADED_N`` on, the source is called from several threads
    at once and the ranges come in order only within one thread; below it,
    all in order from the calling thread.

    Two cache-sized stages on one int16 array, without any 2^n-entry int32
    array.  Stage 1 (``_low_passes``) runs the L = min(n, 14) low-bit
    passes, index hi * 2^L + lo at row hi and column lo, on blocks of whole
    rows as the comment on ``_LOW_BITS`` describes.  Stage 2 copies one
    column slab at a time into its thread's ``_scratch`` and runs the
    high-bit passes there, keeping the largest popcount(hi) + popcount(lo)
    over the slab's nonzero entries.  It runs them in wrapping int16, which
    gives every coefficient mod 2^16 and, as that comment shows, the exact
    degree when every level with a coefficient nonzero mod 2^16 is at most
    15: every family the benchmark certifies (f3k:7, degree 12; lemma3:3,1,
    degree 8).  Once a slab's level (plus 1 in phase 1) reaches 16, no
    more int16 slabs are handed out, every slab of the phase runs again in
    int32 from the int16 array, which stage 2 only reads, and a later phase
    runs in int32 from the start.  int32 is exact, as every value of the
    transform is at most 2^(n-1) in magnitude.
    Where the table spans more than two stage-1 blocks (``_BLOCK``; from
    n = 21 on), the rows split on the top row bit, the table's first
    variable, and the array holds half the table; a smaller table's array
    is no larger than two blocks (2 MB), and splitting it would only run
    both stages twice.  Phase 0 runs stage 1 on the first half into the
    array and stage 2 on it: the coefficients without the first variable.
    Phase 1 runs stage 1 on the second half, each block subtracted into
    the array's matching rows (that variable's pass, in int16), and stage
    2 again, every popcount raised by 1: the coefficients with it.  The
    degree is the larger result.  Both stages' passes run in ``_each``,
    with numpy's ufunc buffer at ``_BUFSIZE`` elements.  The dummy high
    variables of a table with n < 4 leave the degree unchanged.

    From n = ``_THREADED_N`` on, the blocks of stage 1 and then the slabs
    of stage 2 are shared among one thread per available CPU (``_each``),
    which are all joined before this returns or raises.  Blocks write
    disjoint rows and the degree is the largest slab result, so it does not
    depend on the order in which they run; numpy keeps the ufunc buffer
    size per thread.

    Raises ValueError if an entry is not 0 or 1 (checked block by block, as
    packing would read any nonzero entry as 1); with several bad blocks,
    the first one's, and phase 1 starts only after phase 0 has passed.
    """
    source, n = _row_source(table, n)
    low = min(n, _LOW_BITS)
    top = int(1 << n > 2 * _BLOCK)  # 1 when the rows split into two halves
    high, width = n - low - top, 1 << low
    mid = np.empty((1 << high, width), dtype=np.int16)
    pc = _popcount16()
    cols = min(width, _SLAB >> high)
    # 1 + popcount(hi) + popcount(lo - c0) by slab entry, as c0 is a multiple
    # of the power of two cols: at a slab's nonzero entries, 1 + the degree
    # of their monomial less popcount(c0) (and less 1 in phase 1)
    weight = pc[: 1 << high, None] + pc[None, :cols] + 1

    def stage2(i: int, phase: int, dtype: type) -> int:
        c0 = i * cols
        cut = mid[:, c0 : c0 + cols]
        slab = _scratch(cut.size * np.dtype(dtype).itemsize).view(dtype).reshape(cut.shape)
        np.copyto(slab, cut)
        _subset_transform(slab, high, cols)
        peak = int((weight * (slab != 0)).max())
        level = peak - 1 + int(pc[c0]) + phase if peak else -1
        if level >= 16 and dtype is np.int16:
            raise _Wraps
        return level

    degree, wide = 0, False  # an all-zero slab gives -1, and a constant table has degree 0
    for phase in range(top + 1):
        _low_passes(source, n, mid, merge=bool(phase))
        slabs = lambda dtype: _each(lambda i: stage2(i, phase, dtype), width // cols, _workers(n), high > 0)
        if not wide:
            try:
                levels = slabs(np.int16)
            except _Wraps:
                wide = True
        if wide:
            levels = slabs(np.int32)
        degree = max([degree, *levels])
    return degree


def mobius_coefficients(table: np.ndarray) -> np.ndarray:
    """Multilinear coefficients of a 0/1 table, as an int32 array by mask.

    Every coefficient, and every intermediate value of the transform, is an
    alternating sum of 0/1 values over at most 2^n subsets, so its magnitude
    is at most 2^(n-1): int32 is exact for n <= 31, beyond ``boolfn.MAX_N``.
    Runs ``table_degree``'s stage 1 on the whole table, raising as it does,
    then the high-bit passes on the whole array: runs of 2^14 or more, which
    numpy does not buffer.
    """
    source, n = _row_source(table, None)
    low = min(n, _LOW_BITS)
    c = np.empty((1 << (n - low), 1 << low), dtype=np.int16)
    _low_passes(source, n, c)
    c = _subset_transform(c.astype(np.int32), n - low, 1 << low)
    return c.reshape(-1)[: np.size(table)]  # n < 4 got dummy high variables


def degree_of(f: BooleanFunction) -> int:
    """Degree of the representing polynomial, without materializing terms."""
    return table_degree(f.table())


# ---------------------------------------------------------------------------
# Univariate range polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RangePolynomial:
    """Univariate polynomial with rational coefficients, ascending powers."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (Fraction(0),)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [
                {"num": str(c.numerator), "den": str(c.denominator)}
                for c in self.coefficients
            ]
        }


def fit_range_polynomial(values: Sequence[Union[int, Fraction]]) -> RangePolynomial:
    """Unique polynomial of degree <= k through (i, values[i]) for i = 0..k.

    Newton forward differences on the integer nodes: the fitted polynomial is
    sum_i diff_i * binom(z, i), expanded to monomial coefficients exactly.
    """
    if len(values) < 2:
        raise ValueError("need at least two sample values")
    if len(values) > MAX_SAMPLE_VALUES:
        raise ValueError(f"at most {MAX_SAMPLE_VALUES} sample values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    diffs = []
    row = vals
    for _ in range(len(vals)):
        diffs.append(row[0])
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
    coeffs = [Fraction(0)] * len(vals)
    # falling factorial z(z-1)...(z-i+1), maintained as monomial coefficients
    falling = [Fraction(1)]
    for i, d in enumerate(diffs):
        if i > 0:
            # multiply by (z - (i-1))
            nxt = [Fraction(0)] * (len(falling) + 1)
            for power, c in enumerate(falling):
                nxt[power + 1] += c
                nxt[power] -= c * (i - 1)
            falling = nxt
        scale = d / factorial(i)
        for power, c in enumerate(falling):
            coeffs[power] += scale * c
    return RangePolynomial(tuple(coeffs))


def kth_finite_difference(values: Sequence[int], k: int) -> int:
    """Alternating k-th difference at 0: zero iff the fit has degree < k."""
    if len(values) != k + 1:
        raise ValueError("need exactly k+1 values")
    return sum((-1) ** (k - i) * comb(k, i) * int(values[i]) for i in range(k + 1))


def collapser_values(k: int) -> tuple[int, ...]:
    """Smallest 0/1 value vector on {0..k} whose fit has degree exactly k-1.

    Searches vectors lexicographically with v0 = 1 and v0 != v1, in
    integers: the fit of k+1 values has degree < k exactly when their k-th
    finite difference vanishes, and is then the fit of the first k values,
    of degree k-1 exactly when their (k-1)-th difference does not.  The
    v0 != v1 requirement is what later makes the all-zero input fully
    sensitive in the group constructions.
    """
    if k % 2 == 0 or not 3 <= k <= 15:
        raise ValueError(f"k must be odd and in 3..15, got {k}")
    for packed in range(1 << (k - 1)):
        values = (1, 0) + tuple((packed >> (k - 2 - j)) & 1 for j in range(k - 1))
        if kth_finite_difference(values, k) == 0 and kth_finite_difference(values[:k], k - 1) != 0:
            return values
    raise RuntimeError(f"no collapser found for k={k}")  # unreachable for odd k


def find_collapser(k: int) -> tuple[tuple[int, ...], RangePolynomial]:
    """``collapser_values(k)`` and their fitted polynomial."""
    values = collapser_values(k)
    return values, fit_range_polynomial(values)


def published_k7_collapser() -> RangePolynomial:
    """Transcription of the published degree-6 polynomial for {0..7}.

    Mixed-number coefficients are read as integer plus fraction.  See
    collapser_transcription_report for whether it actually collapses to
    {0,1} and whether it is usable in the group constructions.
    """
    return RangePolynomial(
        (
            Fraction(0),
            Fraction(35, 12),      # 2 11/12
            Fraction(-211, 36),    # -5 31/36
            Fraction(63, 16),      # 3 15/16
            Fraction(-163, 144),   # -1 19/144
            Fraction(7, 48),
            Fraction(-1, 144),
        )
    )


def collapser_transcription_report(poly: RangePolynomial, k: int) -> dict:
    """Evaluate a candidate collapser on {0..k} and record its properties."""
    values = [poly(z) for z in range(k + 1)]
    boolean = all(v in (0, 1) for v in values)
    v0_ne_v1 = values[0] != values[1]
    return {
        "k": k,
        "degree": poly.degree,
        "values": [str(v) for v in values],
        "maps_to_01": boolean,
        "v0": str(values[0]),
        "v1": str(values[1]),
        "v0_ne_v1": v0_ne_v1,
        "usable_for_construction": boolean and v0_ne_v1,
    }
