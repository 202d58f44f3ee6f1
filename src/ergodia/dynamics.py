"""Finite measure-preserving systems on Y = {0, ..., M-1} with uniform measure.

A dynamical system here is a permutation T of a finite set together with
real-valued observables F; the central quantity is the prefix ergodic mean

    A_n(F, T, y) = (1/n) * sum_{i < n} F(T^i y).

Everything in this module is a pure function over immutable inputs, so callers
may evaluate means for disjoint start points in parallel without coordination.
A permutation's memos (its image, orbit index and the values of one
observable in orbit order) are written once per (T, F) and are safe to race:
two writers store equal read-only arrays, and a reader sees one or the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

__all__ = [
    "FinitePermutation",
    "OrbitIndex",
    "Observable",
    "MeanSeries",
    "ergodic_means_prefix",
    "orbit_average",
    "gamma_series",
]

# The most means one start point's series may run to, a bound on time:
# gamma_series sums floor(k*M) values per start point, and the band scan of
# stabilization walks scan_limit means per point.
SERIES_BUDGET = 1 << 28

# values per chunk the kernels handle at once (a run of gamma's prefix sums;
# per horizon, rows of equal-length cycles or a tile of orbit rows; de Bruijn
# window indices; necklace candidates), so their temporaries stay bounded
CHUNK_POINTS = 1 << 16


# eq=False here and below: == is identity, as a field-wise == would take
# the truth value of arrays
@dataclass(frozen=True, eq=False)
class OrbitIndex:
    """The cycles of a permutation laid end to end in canonical order.

    Canonical order: descending length, ties broken by smallest element,
    each cycle starting at its minimum.  Cycle c is
    order[starts[c] : starts[c] + lengths[c]], and slot is the inverse of
    order: order[slot[y]] == y, and order itself when order is the identity.
    Equal-length cycles are contiguous, so
    every length class is a (count, p) block of order.
    """

    order: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    slot: np.ndarray

    def __post_init__(self):
        for a in (self.order, self.starts, self.lengths, self.slot):
            a.setflags(write=False)

    def cycle_ids(self, points):
        """The cycle of each point: the last cycle starting at or before its slot."""
        return np.searchsorted(self.starts, self.slot[points], side="right") - 1

    def length_classes(self) -> list[tuple[int, int, int]]:
        """(offset into order, cycle count, length p) per length class, longest first."""
        lengths = self.lengths
        first = np.flatnonzero(np.diff(lengths, prepend=0))
        counts = np.diff(first, append=lengths.size)
        return [(int(self.starts[c]), int(k), int(lengths[c])) for c, k in zip(first, counts)]


def _slots(points: np.ndarray, what: str) -> np.ndarray:
    """The inverse of points, slot[points[i]] == i; ValueError unless a permutation of 0..M-1."""
    # the range first, as the scatter would wrap a negative entry; after it,
    # a slot left at -1 is a value that a repeated entry displaced
    if points.ndim != 1 or points.size == 0 or points.min() < 0 or points.max() >= points.size:
        raise ValueError(f"{what} is not a permutation of 0..M-1")
    if (points[1:] > points[:-1]).all():  # in range and increasing: the identity, its own inverse
        return points
    slot = np.full(points.size, -1, dtype=np.int64)
    slot[points] = np.arange(points.size, dtype=np.int64)
    if (slot < 0).any():
        raise ValueError(f"{what} is not a permutation of 0..M-1")
    return slot


def _cyclic_run(cyc: np.ndarray, pos: int, n: int) -> np.ndarray:
    """[cyc[pos], cyc[pos + 1], ...] read cyclically, n entries.

    One period from pos is copied out of cyc, then repeated by doubling
    copies, so there is no per-step index arithmetic and no temporary
    beside the result.
    """
    out = np.empty(n, dtype=cyc.dtype)
    filled = min(n, cyc.size)
    head = cyc[pos : pos + filled]
    out[: head.size] = head
    out[head.size : filled] = cyc[: filled - head.size]
    while filled < n:
        step = min(filled, n - filled)
        out[filled : filled + step] = out[:step]
        filled += step
    return out


class FinitePermutation:
    """A bijection T of {0, ..., M-1}: its image array, its orbit index, or both.

    The orbit index (OrbitIndex) is either supplied by the constructor that
    knows the cycles (from_cycle_order), which leaves the image to first
    use, or found once by a generic cycle walk over the image and memoized.
    along(F) memoizes one observable's values in orbit order.
    """

    __slots__ = ("_image", "size", "_index", "_along")

    def __init__(self, image: Sequence[int] | np.ndarray, *, validate: bool = True):
        image = np.asarray(image, dtype=np.int64)
        if image.ndim != 1 or image.size == 0:
            raise ValueError("image must be a non-empty 1-d array")
        if validate:
            _slots(image, "image array")
        image.setflags(write=False)
        self._image = image
        self.size = int(image.size)
        self._index = self._along = None

    @classmethod
    def identity(cls, size: int) -> "FinitePermutation":
        return cls.from_cycle_order(np.arange(size, dtype=np.int64), np.ones(size, dtype=np.int64))

    @classmethod
    def from_cycle_order(cls, order, lengths) -> "FinitePermutation":
        """T and its orbit index from cycles laid end to end in canonical order.

        order lists every point once, cycle after cycle, each cycle in
        T-order; lengths are the cycle lengths.  The canonical-order rules
        are checked (vectorized), so the index is exactly what the generic
        cycle walk would find.  O(M) numpy; the image is left to first use.
        """
        order = np.asarray(order, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        slot = _slots(order, "cycle order")
        if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != order.size:
            raise ValueError("cycle lengths must be positive and sum to M")
        if (np.diff(lengths) > 0).any():
            raise ValueError("cycles must be listed by descending length")
        starts = np.cumsum(lengths) - lengths
        heads = order[starts]
        tie = lengths[1:] == lengths[:-1]
        if (heads[1:][tie] <= heads[:-1][tie]).any():
            raise ValueError("equal-length cycles must be listed by smallest element")
        if (np.minimum.reduceat(order, starts) != heads).any():
            raise ValueError("every cycle must start at its smallest element")
        T = cls.__new__(cls)
        T._image, T.size, T._along = None, order.size, None
        T._index = OrbitIndex(order, starts, lengths, slot)
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
        """F.values[order], read-only, and F.values itself if order is the identity; memoized for the last F."""
        memo = self._along
        if memo is None or memo[0] is not F:
            index = self.orbit_index
            values = F.values if index.slot is index.order else F.values[index.order]
            values.setflags(write=False)
            memo = self._along = (F, values)
        return memo[1]

    def __call__(self, y: int) -> int:
        return int(self.image[y])

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePermutation) and np.array_equal(self.image, other.image)

    def __repr__(self) -> str:
        return f"FinitePermutation(size={self.size})"

    # -- cycle structure ---------------------------------------------------

    def _ensure_cycles(self) -> None:
        """Generic cycle walk over the image as a Python list: any permutation's orbit index."""
        if self._index is not None:
            return
        image = self.image.tolist()
        seen = [False] * self.size
        cycles: list[list[int]] = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            z = image[start]
            while z != start:
                seen[z] = True
                cyc.append(z)
                z = image[z]
            cycles.append(cyc)
        # cycles were found by ascending smallest element (their start), so a
        # stable sort by descending length gives the canonical order
        cycles.sort(key=len, reverse=True)
        order = np.fromiter(chain.from_iterable(cycles), dtype=np.int64, count=self.size)
        lengths = np.fromiter(map(len, cycles), dtype=np.int64, count=len(cycles))
        self._index = OrbitIndex(order, np.cumsum(lengths) - lengths, lengths, _slots(order, "cycle order"))

    @property
    def orbit_index(self) -> OrbitIndex:
        self._ensure_cycles()
        return self._index

    @property
    def cycles(self) -> list[np.ndarray]:
        """Disjoint cycles in canonical order, views into the orbit index; rebuilt on every read."""
        order = self.orbit_index.order
        return [row for offset, count, p in self.orbit_index.length_classes()
                for row in order[offset : offset + count * p].reshape(count, p)]

    def cycle_of(self, y: int) -> tuple[np.ndarray, int]:
        """The cycle through y (a slice of the orbit order) and the position of y in it."""
        if not 0 <= y < self.size:
            raise IndexError(f"point {y} out of range for size {self.size}")
        index = self.orbit_index
        c = index.cycle_ids(y)
        start = index.starts[c]
        return index.order[start : start + index.lengths[c]], int(index.slot[y] - start)

    def period(self, y: int) -> int:
        return self.cycle_of(y)[0].size

    def trajectory(self, y: int, n: int) -> np.ndarray:
        """[y, T(y), ..., T^{n-1}(y)] in O(n), copied out of y's cycle in the orbit index."""
        return _cyclic_run(*self.cycle_of(y), n)


@dataclass(frozen=True, eq=False)
class Observable:
    """A real-valued function F on {0, ..., M-1}.

    Stored densely as float64.  Its exact value is the rational
    F(y) = n(y) / denominator, where n(y) is the integer nearest
    values[y] * denominator; the default denominator 1 makes integral
    values exact.
    """

    size: int
    values: np.ndarray
    name: str = "observable"
    denominator: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.size < 1:
            raise ValueError(f"an observable needs size >= 1, got {self.size}")
        if values.shape != (self.size,):
            raise ValueError(f"values must have shape ({self.size},)")
        if self.denominator != int(self.denominator) or self.denominator < 1:
            raise ValueError(f"denominator must be a positive integer, got {self.denominator!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "denominator", int(self.denominator))

    @classmethod
    def from_values(cls, values, name: str = "observable") -> "Observable":
        values = np.asarray(values, dtype=np.float64)
        return cls(size=values.size, values=values, name=name)

    def __call__(self, y: int) -> float:
        return float(self.values[y])

    def numerators(self, points=None) -> np.ndarray:
        """n(y) at points (default: all of Y), as int64.

        A value is accepted only when values[y] * denominator lies within
        64 * 2**-52 * denominator * max(1, |values[y]|) of an integer, the
        float64 rounding a closed-form rational can carry; any other value
        raises ValueError.
        """
        vals = self.values if points is None else self.values[points]
        D = self.denominator
        scaled = vals * D
        nums = np.rint(scaled)
        tol = np.maximum(1.0, np.abs(vals))
        tol *= 64 * 2.0**-52 * D
        bad = ~((np.abs(scaled - nums) <= tol) & (np.abs(nums) < 2.0**63))
        if bad.any():
            v = float(vals[np.argmax(bad)])
            raise ValueError(f"observable {self.name!r}: value {v} is not a multiple of 1/{D}")
        return nums.astype(np.int64)

    def exact(self, y: int) -> Fraction:
        return Fraction(int(self.numerators([y])[0]), self.denominator)


@dataclass(frozen=True, eq=False)
class MeanSeries:
    """Prefix ergodic means A_1..A_n for one start point.

    means[n-1] == A_n(F, T, start).  In Gamma coordinates the abscissa of
    A_n is n/M, spanning (0, k] for n up to k*M.
    """

    size: int
    start: int
    n_max: int
    means: np.ndarray
    exact_means: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)

    def mean_at(self, n: int) -> float:
        """A_n for 1 <= n <= n_max."""
        return float(self.means[n - 1])


# -- operations -----------------------------------------------------------


def ergodic_means_prefix(
    F: Observable,
    T: FinitePermutation,
    y: int,
    n_max: int,
    *,
    exact: bool = False,
) -> MeanSeries:
    """A_1..A_{n_max} along the T-orbit of y, in a single O(n_max) pass.

    Double mode uses a float64 cumulative sum; exact mode sums the
    observable's integer numerators as Python ints, so A_n is the Fraction
    (sum of numerators) / (denominator * n) with no overflow.  Its floats
    are that int division, correctly rounded as float(Fraction) is.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    traj = T.trajectory(y, n_max)
    vals = F.values[traj]
    means = np.cumsum(vals) / np.arange(1, n_max + 1, dtype=np.float64)
    exact_means = None
    if exact:
        D = F.denominator
        sums = list(accumulate(F.numerators(traj).tolist()))
        exact_means = tuple(Fraction(s, D * n) for n, s in enumerate(sums, start=1))
        means = np.asarray([s / (D * n) for n, s in enumerate(sums, start=1)])
    return MeanSeries(size=T.size, start=y, n_max=n_max, means=means, exact_means=exact_means)


def orbit_average(F: Observable, T: FinitePermutation, y: int) -> float:
    """The orbit mean: (1/|Orb(y)|) * sum of F over the T-orbit of y."""
    cyc, _ = T.cycle_of(y)
    return float(np.mean(F.values[cyc]))


def gamma_series(
    F: Observable,
    T: FinitePermutation,
    y: int,
    k: float,
    stride: int | None = None,
) -> tuple[np.ndarray, int]:
    """Points (n/M, A_n) for n = stride, 2*stride, ..., floor(k*M).

    Returns (array of shape (count, 3) with columns [n, n/M, A_n], stride).
    The default stride caps the output at ~1e5 points; the stride actually
    used is returned so output metadata can record it.  The values along
    the orbit are copied out of y's cycle in T.along(F), so F is never
    gathered at random, CHUNK_POINTS at a time.  The prefix sums run over
    all n_total steps in one sequential cumsum per chunk that carries the
    running sum, and only the sums at the stride points are kept, so memory
    is one chunk plus the output; the means are divided out at the stride
    points alone, each as the same quotient ergodic_means_prefix forms.
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
    cyc, pos = T.cycle_of(y)
    start = T.orbit_index.slot[y] - pos
    run = T.along(F)[start : start + cyc.size]
    kept = np.empty(n_total // stride)
    for lo in range(0, n_total, CHUNK_POINTS):
        hi = min(lo + CHUNK_POINTS, n_total)
        sums = _cyclic_run(run, (pos + lo) % cyc.size, hi - lo)
        if lo:  # only past the first chunk: 0.0 + -0.0 would lose the sign of a zero
            sums[0] += carry
        carry = np.cumsum(sums, out=sums)[-1]
        # sums[i] is the sum of n = lo + i + 1 values; keep the n that stride divides
        kept[lo // stride : hi // stride] = sums[stride - 1 - lo % stride :: stride]
    ns = np.arange(stride, n_total + 1, stride, dtype=np.int64)
    points = np.column_stack([ns.astype(np.float64), ns / M, kept / ns])
    return points, stride
