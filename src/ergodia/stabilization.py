"""Stabilization analysis of ergodic means.

Two complementary diagnostics:

* discrepancies |A_K - A_L| at comparable horizons K > L, their sup over
  all of Y and the fraction of start points exceeding a tolerance, with
  the exact two-term proof bound U + V per start point;

* initial-segment stabilization: the largest horizon range [n_min, K*] on
  which all prefix means of a start point stay within a band of width
  epsilon, per point, and for all but an eta-fraction of those points as
  an order statistic of the per-point segments.

The tolerances epsilon and eta are deliberately mandatory: "approximately
equal" and "almost all" have no canonical finite thresholds, so every
experiment must pin them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import CHUNK_POINTS, SERIES_BUDGET, FinitePermutation, Observable
from .rng import SplitMix64

__all__ = [
    "DiscrepancyReport",
    "StabilizationSegment",
    "CommonSegment",
    "sup_discrepancy",
    "proof_terms",
    "stabilization_segment",
    "common_stabilization_segment",
    "stratified_start_points",
]


# eq=False: == is identity; a field-wise == would take the truth value of arrays
@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """|A_K - A_L| over all start points, and its max.

    diffs is in orbit order: diffs[i] belongs to the point T.orbit_index.order[i].
    proof_terms gives the bound U + V in the same order, so diffs <= U + V
    compares entry by entry.
    """

    K: int
    L: int
    sup_disc: float
    diffs: np.ndarray

    def exceedance(self, eps: float) -> float:
        if not eps > 0:
            raise ValueError("epsilon must be positive")
        return float(np.mean(self.diffs >= eps))


# eq=False, as for DiscrepancyReport
@dataclass(frozen=True, eq=False)
class StabilizationSegment:
    """Per start point, the largest horizon range [n_min, K_star] on which
    all A_n lie within a band of width eps.

    Entry i of K_star, witness (the band's midpoint at K_star) and capped
    (K_star hit scan_limit rather than a band violation) belongs to points[i].
    """

    points: np.ndarray
    K_star: np.ndarray
    witness: np.ndarray
    capped: np.ndarray
    n_min: int
    eps: float
    scan_limit: int


@dataclass(frozen=True)
class CommonSegment:
    """[n_min, K_star] holds for at least a (1 - eta) fraction of a segment's
    points; excluded_fraction reports the rest, and witness is the median
    midpoint of the points it holds for.
    """

    K_star: int
    witness: float
    capped: bool
    eta: float
    excluded_fraction: float


def _row_means(F: Observable, T: FinitePermutation, horizons: Sequence[int]):
    """(at, [A_n for n in horizons]) per chunk of whole equal-length cycles.

    Each A_n is a (rows, p) block, a cycle per row, whose points are
    order[at : at + rows * p] and whose values are the same block of
    T.along(F), so no gather and no read of order.  One row sum and cumsum
    of length p + max(n mod p) serve every horizon: add.accumulate along a
    row is sequential, so a shorter window's prefix sums are the same floats.
    """
    along = T.along(F)
    for offset, count, p in T.orbit_index.length_classes():
        values = along[offset : offset + count * p].reshape(count, p)
        step, width = max(1, CHUNK_POINTS // (p * len(horizons))), max(n % p for n in horizons)
        for first in range(0, count, step):
            vals = values[first : first + step].astype(np.float64, copy=False)
            sums = vals.sum(axis=1, keepdims=True)
            if width:
                pref = np.zeros((len(vals), p + width + 1))
                pref[:, 1 : p + 1], pref[:, p + 1 :] = vals, vals[:, :width]
                np.cumsum(pref[:, 1:], axis=1, out=pref[:, 1:])
            means = []
            for n in horizons:
                q, r = divmod(n, p)
                window = pref[:, r : r + p] - pref[:, :p] if r else np.zeros((len(vals), 1))
                window += q * sums
                window /= n
                means.append(np.broadcast_to(window, vals.shape))
            yield offset + first * p, means


def sup_discrepancy(F: Observable, T: FinitePermutation,
                    pairs: Sequence[tuple[int, int]]) -> list[DiscrepancyReport]:
    """Per (K, L) in pairs, the exact max over all y of |A_K - A_L|, all from one
    cycle pass over K1, L1, K2, L2, ...; each pair's diffs are written in orbit
    order.  [(K, L)] is the one-pair form."""
    if any(not 1 <= L < K for K, L in pairs):
        raise ValueError("require 1 <= L < K")
    if not pairs:
        return []
    horizons = [n for pair in pairs for n in pair]
    diffs = [np.empty(T.size) for _ in pairs]
    for at, means in _row_means(F, T, horizons):
        for d, A_K, A_L in zip(diffs, means[::2], means[1::2]):
            block = d[at : at + A_K.size].reshape(A_K.shape)
            np.abs(np.subtract(A_K, A_L, out=block), out=block)
    return [DiscrepancyReport(K=K, L=L, sup_disc=float(np.max(d)), diffs=d)
            for (K, L), d in zip(pairs, diffs)]


def proof_terms(F: Observable, T: FinitePermutation, K: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) at every y, in orbit order like a DiscrepancyReport's diffs, with |A_K - A_L| <= U + V
    for U = (1/L - 1/K) * sum_{k<L} |F(T^k y)| and V = (1/K) * sum_{k=L}^{K-1} |F(T^k y)|.

    One cycle pass over the horizon means of |F| at K and L writes both,
    block by block and in place, as U = (1/L - 1/K) * A_L * L and
    V = A_K - A_L * L / K.  The call replaces the T.along memo with |F|."""
    if not 1 <= L < K:
        raise ValueError("require 1 <= L < K")
    U, V = np.empty(T.size), np.empty(T.size)
    for at, (absK, absL) in _row_means(Observable.from_values(np.abs(F.values)), T, (K, L)):
        u, v = (a[at : at + absK.size].reshape(absK.shape) for a in (U, V))
        np.multiply(np.multiply(absL, 1.0 / L - 1.0 / K, out=u), L, out=u)
        np.subtract(absK, np.divide(np.multiply(absL, L, out=v), K, out=v), out=v)
    return U, V


def _band_ends(F: Observable, T: FinitePermutation, points: np.ndarray, n_min: int,
               eps: float, scan_limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K_star, band midpoint at K_star, capped) per point: K_star is the largest
    K <= scan_limit with max - min of A_{n_min..K} <= eps (pairwise over the
    range, not between consecutive means).

    One orbit per row, max(1, CHUNK_POINTS // scan_limit) rows at a time, in
    tiles of 32, 64, 128, ... columns (at most CHUNK_POINTS) that carry the
    prefix sum and the band's max and min; a row is dropped after the tile
    where it leaves its band.  A row's orbit-order slots step by 1, and back
    by p where it wraps, so a cumsum gives them with no % per step, and one
    gather from T.along(F), widened to float64, reads the values.
    add.accumulate along a row is sequential, so every mean is bitwise
    ergodic_means_prefix's.
    """
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if not eps > 0:  # NaN is refused too
        raise ValueError("epsilon must be positive")
    if n_min > scan_limit:
        raise ValueError("n_min exceeds scan_limit")
    if scan_limit > SERIES_BUDGET:
        raise ValueError(f"scan_limit exceeds the budget of {SERIES_BUDGET} means per start point")
    index = T.orbit_index
    point_slots = index.slots(points)  # one pass over the order for all points, not one per chunk
    along = T.along(F)
    k_star, witness = np.full(points.size, scan_limit), np.empty(points.size)
    cols = min(scan_limit, CHUNK_POINTS)
    for first in range(0, points.size, CHUNK_POINTS // cols):
        rows = np.arange(first, min(first + CHUNK_POINTS // cols, points.size))
        s = point_slots[rows]
        c = index.cycle_at(s)
        p = index.lengths[c]
        total, hi, lo = np.zeros(s.size), np.full((s.size, 1), -np.inf), np.full((s.size, 1), np.inf)
        a, n = 0, 32
        while rows.size and a < scan_limit:
            n = min(n, cols, scan_limit - a)
            pos = (s - index.starts[c] + a) % p
            slots = np.ones((s.size, n), dtype=np.int64)
            slots[:, 0] = index.starts[c] + pos
            wraps = (p - pos)[:, None] + p[:, None] * np.arange((n - 1) // p.min() + 1)
            i, k = (wraps < n).nonzero()
            slots[i, wraps[i, k]] = 1 - p[i]
            sums = along[slots.cumsum(axis=1, out=slots)].astype(np.float64, copy=False)
            if a:  # only past the first tile: 0.0 + -0.0 would lose the sign of a zero
                sums[:, 0] += total
            total = sums.cumsum(axis=1, out=sums)[:, -1].copy()
            skip = min(max(n_min - 1 - a, 0), n)  # columns before the band starts
            means = sums[:, skip:] / np.arange(a + skip + 1, a + n + 1, dtype=np.float64)
            # column 0 carries the band's max and min from the tiles before
            band_hi = np.maximum.accumulate(np.concatenate([hi, means], axis=1), axis=1)
            band_lo = np.minimum.accumulate(np.concatenate([lo, means], axis=1), axis=1)
            # -1: no break in this tile; column 1 of the first tile never breaks
            last = (band_hi - band_lo > eps).argmax(axis=1) - 1
            done = (last >= 0).nonzero()[0]
            k_star[rows[done]] = a + skip + last[done]
            witness[rows[done]] = (band_hi[done, last[done]] + band_lo[done, last[done]]) / 2.0
            live = last < 0
            rows, s, c, p, total = rows[live], s[live], c[live], p[live], total[live]
            hi, lo = band_hi[live, -1:], band_lo[live, -1:]
            a, n = a + n, 2 * n
        witness[rows] = (hi[:, 0] + lo[:, 0]) / 2.0  # the rows that held to scan_limit
    return k_star, witness, k_star == scan_limit


def stabilization_segment(F: Observable, T: FinitePermutation, points: Sequence[int], n_min: int,
                          eps: float, scan_limit: int) -> StabilizationSegment:
    """Maximal eps-band segment [n_min, K_star] of every start point, in one scan."""
    points = np.asarray(points, dtype=np.int64)
    k_star, witness, capped = _band_ends(F, T, points, n_min, eps, scan_limit)
    return StabilizationSegment(points=points, K_star=k_star, witness=witness, capped=capped,
                                n_min=n_min, eps=eps, scan_limit=scan_limit)


def common_stabilization_segment(seg: StabilizationSegment, eta: float) -> CommonSegment:
    """Largest K_star whose band holds for >= (1 - eta) of seg's points: the
    ceil((1 - eta) * n)-th largest of their K_star."""
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    if not seg.points.size:
        raise ValueError("sample is empty")
    needed = int(np.ceil((1.0 - eta) * seg.points.size))
    k_star = int(np.sort(seg.K_star)[::-1][needed - 1])
    included = seg.K_star >= k_star
    # the median as np.median forms it, the mean of the middle one or two
    # values, read from a sort: np.median's first call imports numpy.ma
    w = np.sort(seg.witness[included])
    return CommonSegment(K_star=k_star, witness=float(np.mean(w[(w.size - 1) // 2 : w.size // 2 + 1])),
                         capped=k_star >= seg.scan_limit, eta=eta,
                         excluded_fraction=float(np.mean(~included)))


def stratified_start_points(M: int, strata: int, extras: int, seed: int) -> list[int]:
    """Deterministic sample: every floor(M/strata)-th index plus seeded extras.

    The stratified stride covers every block of a block-structured
    observable; the seeded extras break any phase alignment with the
    block boundaries.  Duplicates are removed, order preserved.
    """
    if strata < 1 or M < 1:
        raise ValueError("need strata >= 1 and M >= 1")
    points = list(range(0, M, max(1, M // strata)))
    strided = set(points)
    # sample_points already drops repeats among the extras
    return points + [y for y in SplitMix64(seed).sample_points(M, extras) if y not in strided]
