"""Finite measure-preserving systems on Y = {0, ..., M-1} with uniform measure.

A dynamical system here is a permutation T of a finite set together with
real-valued observables F; the central quantity is the prefix ergodic mean

    A_n(F, T, y) = (1/n) * sum_{i < n} F(T^i y).

Everything in this module is a pure function over immutable inputs, so callers
may evaluate means for disjoint start points in parallel without coordination.
A permutation's memos (its image, orbit index and order, the runs of the points
last located, and the values of one observable in orbit order) are written
once per (T, F) and are safe to race: two writers store equal read-only
arrays, or runs a slots call would find again, and a reader sees one or the
other.  An image's orbit index is found by array passes, with no loop over points.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FinitePermutation",
    "OrbitIndex",
    "PermutedOrder",
    "StoredOrder",
    "Observable",
    "ergodic_means_prefix",
    "orbit_average",
    "gamma_series",
]

# The most means one start point's series may run to, a bound on time:
# gamma_series sums floor(k*M) values per start point, and the band scan of
# stabilization walks scan_limit means per point.
SERIES_BUDGET = 1 << 28

# values per chunk the kernels handle at once (slots of the orbit order; a tile of carried sums,
# per horizon; de Bruijn window indices; necklace candidates), so their temporaries stay bounded
CHUNK_POINTS = 1 << 16
# rows from which a tile of carried sums is column-major, summed by one np.add per column: 0.29 ns
# a value at 7,710 rows, 0.63 at 2,048, 3.7 at 256, 7.1 at 128, against about 3 for a row's cumsum at
# each (2-core x86-64, numpy 2.4); its contiguous columns speed the window passes, so a sup_discrepancy
# pass breaks even at about 200 rows
COLUMN_ROWS = 256


def _spans(size: int, step: int = 0):
    """(lo, hi) of the step-slot chunks of 0..size-1, CHUNK_POINTS slots by default."""
    step = step or CHUNK_POINTS
    return ((lo, min(lo + step, size)) for lo in range(0, size, step))


# eq=False here and below: == is identity, as a field-wise == would take
# the truth value of arrays
@dataclass(frozen=True, eq=False)
class OrbitIndex:
    """The cycles of a permutation laid end to end in canonical order.

    Canonical order: descending length, ties broken by smallest element,
    each cycle starting at its minimum.  Cycle c is
    order[starts[c] : starts[c] + lengths[c]].  Equal-length cycles are
    contiguous, so every length class is a (count, p) block of order.

    The kernels read the order a chunk at a time, order_chunk(lo, hi) ==
    order[lo:hi], and find points with slots; order, the whole array, is a
    read-only memo built on first read (by image only).  This class is the
    identity order (the drift's and the identity's): its chunks are aranges
    and slots(points) is points.  PermutedOrder reads any other
    order; StoredOrder holds it as an array, and systems.py generates the
    rotation, de Bruijn and naive Bernoulli orders from a few parameters.
    No inverse of order is kept: see slots.
    """

    starts: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.starts[-1] + self.lengths[-1])

    def order_chunk(self, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi)

    @cached_property
    def order(self) -> np.ndarray:
        order = np.empty(self.size, dtype=np.int64)
        for lo, hi in _spans(self.size):
            order[lo:hi] = self.order_chunk(lo, hi)
        order.setflags(write=False)
        return order

    def slots(self, points) -> np.ndarray:
        """The slot of each point, order[slots(points)] == points; IndexError outside 0..M-1."""
        points = np.asarray(points, dtype=np.int64)
        M = self.size
        if points.size and not 0 <= points.min() <= points.max() < M:
            raise IndexError(f"point {points[(points < 0) | (points >= M)][0]} out of range for size {M}")
        return self._slots(points) if points.size else points

    def _slots(self, points: np.ndarray) -> np.ndarray:
        return points

    def runs(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start, p, pos) per point, int64: it is in slot start + pos of its cycle, slots start ..
        start + p - 1 of the order; one slots call for all of them."""
        slots = self.slots(points)
        c = self.cycle_at(slots)
        return self.starts[c], self.lengths[c], slots - self.starts[c]

    def cycle_at(self, slots):
        """The cycle holding each slot: the last cycle starting at or before it."""
        return np.searchsorted(self.starts, slots, side="right") - 1

    def length_classes(self) -> list[tuple[int, int, int]]:
        """(offset into order, cycle count, length p) per length class, longest first."""
        lengths = self.lengths
        first = np.flatnonzero(np.diff(lengths, prepend=0))
        counts = np.diff(first, append=lengths.size)
        return [(int(self.starts[c]), int(k), int(lengths[c])) for c, k in zip(first, counts)]


class PermutedOrder(OrbitIndex):
    """An order other than the identity, read through the order_chunk its subclass defines."""

    def _slots(self, points: np.ndarray) -> np.ndarray:
        """One pass over the order, ended once every point is seen: the points marked in an M-byte
        table, their slots found a chunk at a time, and matched back to the points by a sort."""
        marked = np.zeros(self.size, dtype=bool)
        marked[points] = True
        left, found, at = np.count_nonzero(marked), [], []
        for lo, hi in _spans(self.size):
            chunk = self.order_chunk(lo, hi)
            hits = np.flatnonzero(marked[chunk])
            found.append(lo + hits)
            at.append(chunk[hits])
            left -= hits.size
            if not left:
                break
        # order[found] == at holds each distinct point once
        found, at = np.concatenate(found), np.concatenate(at)
        by_point = np.argsort(at)
        return found[by_point[np.searchsorted(at, points, sorter=by_point)]]


@dataclass(frozen=True, eq=False)
class StoredOrder(PermutedOrder):
    """An order held as an array: the one an image's array passes find (FinitePermutation)."""

    stored: np.ndarray

    def order_chunk(self, lo: int, hi: int) -> np.ndarray:
        return self.stored[lo:hi]

    @property
    def order(self) -> np.ndarray:
        return self.stored


def _checked(image: np.ndarray) -> None:
    """ValueError unless image is a permutation of 0..M-1."""
    if image.ndim != 1 or image.size == 0 or image.min() < 0 or image.max() >= image.size:
        raise ValueError("image array is not a permutation of 0..M-1")
    if (image[1:] > image[:-1]).all():  # the identity
        return
    # M entries in range: every value is seen exactly when none repeats
    seen = np.zeros(image.size, dtype=bool)
    seen[image] = True
    if not seen.all():
        raise ValueError("image array is not a permutation of 0..M-1")


def _cycle_minima(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lab, heads, lengths) of any image: lab[y] the minimum of y's cycle, the heads (their own
    cycle's minimum) in canonical order, and their cycles' lengths, int64.  Min-label pointer doubling
    (Wyllie's pointer jumping with Shiloach and Vishkin's labels): with P = T^w, lab[y] is the minimum
    of y .. T^(w-1)(y), and lab == lab[P] first holds when w reaches the longest cycle.  int32 where M
    allows halves the bytes each gather moves; every index is a point, so mode="clip" skips checks.
    Gathers take P a CHUNK_POINTS slice at a time, so take's intp copy of it is a chunk, not 8 bytes a point."""
    P = image.astype(np.int32 if image.size <= 1 << 31 else np.int64)
    lab, ahead, doubled = np.arange(image.size, dtype=P.dtype), np.empty_like(P), np.empty_like(P)
    while True:
        for lo, hi in _spans(P.size):
            np.take(lab, P[lo:hi], out=ahead[lo:hi], mode="clip")
        if np.array_equal(ahead, lab):
            break
        np.minimum(lab, ahead, out=lab)
        for lo, hi in _spans(P.size):
            np.take(P, P[lo:hi], out=doubled[lo:hi], mode="clip")
        P, doubled = doubled, P
    del P, ahead, doubled  # 12 bytes a point, not held through bincount's intp copy of lab
    lengths = np.bincount(lab)  # nonzero at the heads, the only labels
    heads = np.flatnonzero(lengths)[np.argsort(-lengths[lengths > 0], kind="stable")]  # canonical order
    return lab, heads, lengths[heads]


def _narrow(values: np.ndarray) -> np.ndarray:
    """values as int8, else int32, if all are integers that fit (NaN and +-inf do not) and no zero
    is -0.0, whose sign an int would lose; else as float64.  One chunked pass, ended by a failing
    chunk; an int8 or int32 array that is already narrowest is returned as it is, with no copy."""
    values = np.asarray(values, dtype=None if values.dtype.kind in "biu" else np.float64)
    lo = hi = 0.0
    for a in range(0, values.size, CHUNK_POINTS):
        chunk = values[a : a + CHUNK_POINTS]
        lo, hi = min(lo, chunk.min()), max(hi, chunk.max())
        integral = values.dtype.kind != "f" or ((chunk == np.rint(chunk)).all()
                                               and not np.signbit(chunk[chunk == 0]).any())
        if not (-2.0**31 <= lo and hi < 2.0**31 and integral):
            return np.asarray(values, dtype=np.float64)
    return values.astype(np.int8 if -128 <= lo and hi <= 127 else np.int32, copy=False)


def _cyclic_run(cyc: np.ndarray, pos: int, n: int, dtype=None, order="C") -> np.ndarray:
    """[cyc[..., pos], cyc[..., pos + 1], ...] read cyclically along the last axis, n entries per row,
    as dtype (default cyc's) in the memory order given: one period from pos copied out of cyc, then
    repeated by doubling copies, so there is no per-step index arithmetic and no temporary beside
    the result."""
    out = np.empty(cyc.shape[:-1] + (n,), dtype=cyc.dtype if dtype is None else dtype, order=order)
    filled = min(n, cyc.shape[-1])
    head = cyc[..., pos : pos + filled]
    out[..., : head.shape[-1]] = head
    out[..., head.shape[-1] : filled] = cyc[..., : filled - head.shape[-1]]
    while filled < n:
        step = min(filled, n - filled)
        out[..., filled : filled + step] = out[..., :step]
        filled += step
    return out


def _carried_sums(along: np.ndarray, start, p, pos, lo: int, n: int, carry=None) -> np.ndarray:
    """The (rows, n) float64 tile of carried prefix sums of cyclic runs of along, from column lo.

    Row k is along[start[k] : start[k] + p[k]] read cyclically from pos[k] (ints broadcast); its
    column i is carry[k], the last sum of the row's tile before, plus the run's columns lo .. lo + i.
    A tile from column 0 or before takes no carry (0.0 + -0.0 would lose the sign of a zero), and a
    column before 0 sums no values; so a row's tiles chain into one sequential cumsum, the same
    floats however its columns are cut.  Rows sharing p and pos and lying end to end are copied out
    by doubling (_cyclic_run); others are gathered, their slots stepping by 1 and back by p where
    they wrap, so a cumsum gives them with no %.  Only the tile is widened to float64.  A tile of
    COLUMN_ROWS rows or more is column-major and summed by one np.add of column j - 1 into column j
    per column: the additions of a row's cumsum, in its order, so the floats are the same.
    """
    start, p0, pos0 = np.atleast_1d(start), np.ravel(p)[0], np.ravel(pos)[0]
    order = "F" if start.size >= COLUMN_ROWS else "C"
    if start.size == 1 or (p == p0).all() and (pos == pos0).all() and (start[1:] - start[:-1] == p0).all():
        run = along[start[0] : start[0] + start.size * p0].reshape(start.size, p0)
        sums = _cyclic_run(run, (pos0 + lo) % p0, n, np.float64, order)
    else:
        p, at = np.broadcast_to(p, start.shape), (pos + lo) % p
        slots = np.ones((start.size, n), dtype=np.int64, order=order)
        slots[:, 0] = start + at
        wraps = (p - at)[:, None] + p[:, None] * np.arange((n - 1) // p.min() + 1)
        i, k = (wraps < n).nonzero()
        slots[i, wraps[i, k]] = 1 - p[i]
        sums = along[slots.cumsum(axis=1, out=slots)].astype(np.float64, copy=False)
    if lo < 0:
        sums[:, :-lo] = 0.0
    elif carry is not None:
        sums[:, 0] += carry
    tail = sums[:, -lo:] if lo < 0 else sums  # cumsum into a view of sums runs slower than into sums
    if order == "C":
        np.cumsum(tail, axis=1, out=tail)
    else:
        for j in range(1, tail.shape[1]):
            np.add(tail[:, j - 1], tail[:, j], out=tail[:, j])
    return sums


class FinitePermutation:
    """A bijection T of {0, ..., M-1}: its image array, its orbit index, or both.

    The orbit index (OrbitIndex) is either given to from_index by a builder
    that knows the cycles, which leaves the image to first use, or found
    once from the image by array passes (_ensure_cycles) and memoized.
    along(F) memoizes one observable's values in orbit order, and
    locate(points) the runs of the points a kernel will read one by one.
    """

    __slots__ = ("_image", "size", "_index", "_along", "_located")

    def __init__(self, image: Sequence[int] | np.ndarray):
        image = np.asarray(image, dtype=np.int64)
        _checked(image)
        image.setflags(write=False)
        self._image = image
        self.size = int(image.size)
        self._index = self._along = self._located = None

    @classmethod
    def from_index(cls, index: OrbitIndex) -> "FinitePermutation":
        """T from an orbit index taken as canonical, unchecked; the image is left to first use."""
        T = cls.__new__(cls)
        T._image, T._index, T._along, T._located, T.size = None, index, None, None, index.size
        return T

    @property
    def image(self) -> np.ndarray:
        """T as an array, read-only; built from the orbit index on first use."""
        if self._image is None:
            order, starts = self._index.order, self._index.starts
            # T maps the point in each slot to the point in the next slot,
            # and the last point of each cycle to its first
            image = np.empty(self.size, dtype=np.int64)
            image[order[:-1]] = order[1:]
            image[order[starts + self._index.lengths - 1]] = order[starts]
            image.setflags(write=False)
            self._image = image
        return self._image

    def along(self, F: Observable) -> np.ndarray:
        """F's values in orbit order, read-only, memoized for the last F: F.values itself if order is the
        identity, else F.values_at of each order chunk, so no point-order array of F is built for it.

        In values_at's dtype, int8 or int32 where that holds F exactly; readers widen each chunk to
        float64.  An F on another number of points than T is a ValueError."""
        memo = self._along
        if memo is None or memo[0] is not F:
            if F.size != self.size:
                raise ValueError(f"observable {F.name} is on {F.size} points, T on {self.size}")
            index = self.orbit_index
            values = _read(F, self.size, index.order_chunk) if isinstance(index, PermutedOrder) else F.values
            memo = self._along = (F, values)
        return memo[1]

    def __repr__(self) -> str:
        return f"FinitePermutation(size={self.size})"

    # -- cycle structure ---------------------------------------------------

    def _ensure_cycles(self) -> None:
        """Any image's orbit index by array passes: _cycle_minima's heads and lengths, steps[y] to y's head
        by pointer jumping with the heads as sinks, and y's slot steps[y] before its cycle's end."""
        if self._index is not None:
            return
        lab, heads, lengths = _cycle_minima(self.image)
        P, steps, ahead = self.image.astype(lab.dtype), np.ones_like(lab), np.empty_like(lab)
        P[heads], steps[heads] = heads, 0  # P[y] is steps[y] ahead of y
        while not np.array_equal(np.take(P, P, out=ahead, mode="clip"), P):
            steps += np.take(steps, P, mode="clip")
            P, ahead = ahead, P
        ends, ahead[heads] = np.cumsum(lengths), np.arange(heads.size)  # ahead[h]: h's cycle number
        slot = ends[ahead[lab]] - steps
        slot[heads] = starts = ends - lengths  # a head is 0 steps from itself, first in its cycle
        order = np.empty(self.size, dtype=np.int64)
        order[slot] = np.arange(self.size)
        # an increasing order is the identity order, which the base class reads with no array
        increasing = (order[1:] > order[:-1]).all()
        self._index = OrbitIndex(starts, lengths) if increasing else StoredOrder(starts, lengths, order)

    @property
    def orbit_index(self) -> OrbitIndex:
        self._ensure_cycles()
        return self._index

    @property
    def cycles(self) -> _Cycles:
        """Disjoint cycles in canonical order, read from the orbit index; builds no order memo."""
        return _Cycles(self.orbit_index)

    def _runs(self, points) -> list[tuple[int, int, int]]:
        """OrbitIndex.runs as one (start, p, pos) tuple of ints per point."""
        return list(zip(*(a.tolist() for a in self.orbit_index.runs(points))))

    def locate(self, points) -> None:
        """Keep the runs of points, found in one slots call, for the kernels that take one point at a
        time (gamma_series and the others through _run); replaces the points located before."""
        points = np.asarray(points, dtype=np.int64)
        self._located = dict(zip(points.tolist(), self._runs(points)))

    def _run(self, y: int) -> tuple[int, int, int]:
        """y's (start, p, pos), as located, else from a slots call of its own."""
        run = (self._located or {}).get(y)
        return run if run is not None else self._runs([y])[0]

    def period(self, y: int) -> int:
        return self._run(y)[1]


class _Cycles(Sequence):
    """The cycles of an orbit index: len is the cycle count, cycles[c] the order_chunk of cycle c's
    slots, and iteration reads one order_chunk block per length class."""

    def __init__(self, index: OrbitIndex):
        self._index = index

    def __len__(self) -> int:
        return int(self._index.lengths.size)

    def __getitem__(self, c: int) -> np.ndarray:
        start = int(self._index.starts[range(len(self))[c]])  # a negative c counts from the end
        return self._index.order_chunk(start, start + int(self._index.lengths[c]))

    def __iter__(self):
        for offset, count, p in self._index.length_classes():
            yield from self._index.order_chunk(offset, offset + count * p).reshape(count, p)


class Observable:
    """A real-valued function F on {0, ..., M-1}, held as the array values: Observable(values, name).

    F.size is M, F.values_at(points) is F at each point and F.values the whole array in point order, read-only,
    both at the narrowest exact width (_narrow): int8, else int32 if every value is an integer that
    fits, else float64.  Readers that negate, take abs or scale widen first, or read an int abs
    unsigned.  A subclass may give F by a vectorized rule (systems.paper_observable): values_at is
    then the rule, and values a memo of it that only readers needing point order build.
    """

    def __init__(self, values, name: str = "observable"):
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"values must be a non-empty 1-d array, got shape {values.shape}")
        self.values, self.name, self.size = _narrow(values), name, values.size
        self.values.setflags(write=False)

    def values_at(self, points) -> np.ndarray:
        return np.take(self.values, points)


def _read(F: Observable, size: int, order_chunk, step: int = 0) -> np.ndarray:
    """F.values_at(order_chunk(lo, hi)) over the step-slot chunks of 0..size-1 (_spans), as one
    read-only array in values_at's dtype."""
    out = None
    for lo, hi in _spans(size, step):
        # points is held until its values are written: dropped first, it cost the memo of the
        # naive 2^19 shift about 30% more time (glibc, numpy 2.4)
        points = order_chunk(lo, hi)
        chunk = F.values_at(points)
        out = np.empty(size, dtype=chunk.dtype) if out is None else out
        out[lo:hi] = chunk
    out.setflags(write=False)
    return out


# -- operations -----------------------------------------------------------


def _prefix_sums(F: Observable, T: FinitePermutation, y: int, n_total: int, stride: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Sums of the first n values of F along the T-orbit of y, for n = stride, 2*stride, ..., n_total,
    written to out (default: a new array).  An integer memo whose partial sums stay within 2^53 (int8
    always, int32 while n_total <= 2^22) is summed in int64, where every sum is exact and so the float
    a float64 cumsum gives: y's run is read at the memo's width, the whole blocks of stride slots that
    fit in CHUNK_POINTS at a time, each block summed, and the block sums cumsummed, the first carrying
    the total before.  Any other memo, or a stride above CHUNK_POINTS, is y's run as one _carried_sums
    row, CHUNK_POINTS columns at a time.  Memory is one chunk plus the sums kept."""
    (start, p, pos), along = T._run(y), T.along(F)
    kept, sums = np.empty(n_total // stride) if out is None else out, None
    if along.dtype.kind == "i" and n_total << 8 * along.itemsize - 1 <= 1 << 53 and stride <= CHUNK_POINTS:
        end, block, carry = kept.size * stride, stride * (CHUNK_POINTS // stride), 0
        for lo in range(0, end, block):
            run = _cyclic_run(along[start : start + p], (pos + lo) % p, min(block, end - lo))
            sums = run.reshape(-1, stride).sum(axis=1, dtype=np.int64)
            sums[0] += carry
            kept[lo // stride : lo // stride + sums.size] = np.cumsum(sums, out=sums)
            carry = int(sums[-1])
        return kept
    for lo, hi in _spans(n_total):
        sums = _carried_sums(along, start, p, pos, lo, hi - lo, sums[-1] if lo else None)[0]
        # sums[i] is the sum of n = lo + i + 1 values; keep the n that stride divides
        kept[lo // stride : hi // stride] = sums[stride - 1 - lo % stride :: stride]
    return kept


def ergodic_means_prefix(F: Observable, T: FinitePermutation, y: int, n_max: int) -> np.ndarray:
    """A_1..A_{n_max} along the T-orbit of y, read-only float64 (entry n - 1 is A_n), in a single
    O(n_max) pass: gamma_series's chunked prefix sums (stride 1), each divided by its n in float64."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    means = _prefix_sums(F, T, y, n_max, 1)
    means /= np.arange(1, n_max + 1, dtype=np.float64)
    means.setflags(write=False)
    return means


def orbit_average(F: Observable, T: FinitePermutation, y: int) -> float:
    """The orbit mean: (1/|Orb(y)|) * sum of F over the T-orbit of y, from y's cycle in T.along(F)."""
    start, p, _ = T._run(y)
    return float(np.mean(T.along(F)[start : start + p].astype(np.float64, copy=False)))


def gamma_series(F: Observable, T: FinitePermutation, y: int, k: float,
                 stride: int | None = None) -> tuple[np.ndarray, int]:
    """Points (n/M, A_n) for n = stride, 2*stride, ..., floor(k*M).

    Returns (array of shape (count, 3) with columns [n, n/M, A_n], stride).
    The default stride caps the output at ~1e5 points; the stride actually
    used is returned so output metadata can record it.  Only the prefix sums
    at the stride points are kept, in the output's mean column (memory is one
    chunk plus the output), and each mean there is the quotient
    ergodic_means_prefix forms; every column is filled in place.
    """
    M = T.size
    if not (np.isfinite(k) and k * M >= 1):
        raise ValueError(f"k*M must be finite and >= 1, got k={k!r}")
    n_total = int(np.floor(k * M))
    if n_total > SERIES_BUDGET:
        raise ValueError(f"k*M = {n_total} exceeds the budget of {SERIES_BUDGET} means per start point")
    if stride is None:
        stride = max(1, n_total // 100_000)
    if not 1 <= stride <= n_total:
        raise ValueError(f"stride must be in [1, floor(k*M)] = [1, {n_total}], got {stride}")
    points = np.empty((n_total // stride, 3))
    ns, means = points[:, 0], points[:, 2]
    ns[:] = np.arange(stride, n_total + 1, stride, dtype=np.int64)
    np.divide(ns, M, out=points[:, 1])
    np.divide(_prefix_sums(F, T, y, n_total, stride, out=means), ns, out=means)
    return points, stride
