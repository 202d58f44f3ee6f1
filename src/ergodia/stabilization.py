"""Stabilization analysis of ergodic means.

Two complementary diagnostics:

* discrepancies |A_K - A_L| at comparable horizons K > L, their sup over
  all of Y and the fraction of start points exceeding a tolerance, with
  the exact two-term proof bound U + V per start point, tile by tile;

* initial-segment stabilization: the largest horizon range [n_min, K*] on
  which all prefix means of a start point stay within a band of width
  epsilon, per point, and for all but an eta-fraction of those points as
  an order statistic of the per-point segments.

Results are plain values: a (sup, {epsilon: fraction}) pair per horizon
pair, the per-point arrays K* and witness, and the common segment's
(K*, witness, excluded fraction).  Whether a segment is capped is
K* == scan_limit, the caller's own input.

The tolerances epsilon and eta are deliberately mandatory: "approximately
equal" and "almost all" have no canonical finite thresholds, so every
experiment must pin them explicitly.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from . import dynamics
from .dynamics import SERIES_BUDGET, FinitePermutation, Observable, OrbitIndex, _carried_sums
from .rng import SplitMix64

__all__ = [
    "sup_discrepancy",
    "proof_terms",
    "stabilization_segment",
    "common_stabilization_segment",
    "stratified_start_points",
]


def _row_means(along: np.ndarray, index: OrbitIndex, horizons: Sequence[int]):
    """((at, rows, p, cols), [A_n for n in horizons]) per tile of whole equal-length cycles, whose
    means of along, values in index's orbit order, belong to slots at + p*i + j, i < rows, j in cols.

    With P[j] the sum of a cycle's first j values (column j - 1 of its _carried_sums row) and S its
    sum, A_n = (P[j + r] - P[j] + q*S) / n for n = q*p + r: a lag cursor reads P[j] and a lead
    cursor per remainder r reads P[j + r], each carried from the cycle start, so the floats are
    those of one cumsum along the cycle.  Cursors that fit in one tile share its sums; no
    temporary grows with p."""
    chunk = dynamics.CHUNK_POINTS
    for offset, count, p in index.length_classes():
        step = max(1, chunk // (p * len(horizons)))
        w = min(p, max(1, chunk // (step * len(horizons))))
        # the cursors' column offsets from the output columns, the lag's -1 first: one cursor
        # serves them all if they fit in a tile, else each has its own
        offsets = sorted({-1} | {n % p - 1 for n in horizons}) if any(n % p for n in horizons) else []
        groups = [offsets] if offsets and offsets[-1] < w else [[o] for o in offsets]
        for at in range(offset, offset + count * p, step * p):
            rows = min(step, (offset + count * p - at) // p)
            vals = along[at : at + rows * p].reshape(rows, p)
            # S is np.sum of the row as float64; an integer row's int64 sum is that float where every
            # partial sum is below 2^53, as every float64 addition is then exact, in any order
            exact = vals.dtype.kind != "f" and max(-int(vals.min()), int(vals.max())) * p < 2**53
            S = np.sum(vals if exact else vals.astype(np.float64, copy=False), axis=1, keepdims=True,
                       dtype=np.int64 if exact else None).astype(np.float64, copy=False)
            sums = partial(_carried_sums, along, at + p * np.arange(rows), p, 0)
            carries = [None] * len(groups)
            for k, (b, *_) in enumerate(groups):  # each cursor starts at column b, carrying P[b]
                for lo in range(0, b, w):
                    carries[k] = sums(lo, min(w, b - lo), carries[k])[:, -1]
            for lo in range(0, p, w):
                hi, reads = min(lo + w, p), {}  # offset o -> P[j + o + 1] for j in cols, columns lo + o to hi + o - 1
                for k, group in enumerate(groups):
                    first = lo + group[0]
                    tile = sums(first, hi + group[-1] - first, carries[k])
                    carries[k] = tile[:, hi - lo - 1].copy() if hi + group[0] > 0 else None
                    reads.update((o, tile[:, lo + o - first : hi + o - first]) for o in group)
                means = []
                for n in horizons:
                    q, r = divmod(n, p)
                    window = reads[r - 1] - reads[-1] if r else np.zeros((rows, 1))
                    window += q * S
                    window /= n
                    means.append(window)  # (rows, 1) where p divides n
                yield (at, rows, p, slice(lo, hi)), means


def _discrepancy_tiles(F: Observable, T: FinitePermutation, pairs: Sequence[tuple[int, int]]):
    """(tile, [|A_K - A_L| for (K, L) in pairs]) per _row_means tile (at, rows, p, cols) of one pass
    over K1, L1, K2, L2, ...; a block is (rows, 1) where p divides both K and L."""
    horizons = [n for pair in pairs for n in pair]
    for tile, means in _row_means(T.along(F), T.orbit_index, horizons) if pairs else ():
        yield tile, [np.absolute(d, out=d) for d in map(np.subtract, means[::2], means[1::2])]


def sup_discrepancy(F: Observable, T: FinitePermutation, pairs: Sequence[tuple[int, int]],
                    epsilons: Sequence[float] = ()) -> list[tuple[float, dict[float, float]]]:
    """Per (K, L) in pairs, in pair order, (sup_disc, {eps: fraction}): the exact max over all y of
    |A_K - A_L| and, per eps in epsilons, the fraction of the M points y where it is >= eps, folded
    tile by tile from one cycle pass.  [(K, L)] is the one-pair form."""
    if any(not 1 <= L < K for K, L in pairs):
        raise ValueError("require 1 <= L < K")
    if not all(e > 0 for e in epsilons):  # NaN is refused too
        raise ValueError("epsilon must be positive")
    sups, counts = [-np.inf] * len(pairs), [dict.fromkeys(epsilons, 0) for _ in pairs]
    for (at, rows, p, cols), blocks in _discrepancy_tiles(F, T, pairs):
        for k, d in enumerate(blocks):
            sups[k] = np.maximum(sups[k], np.max(d))  # a NaN is kept, as np.max keeps it
            d = np.broadcast_to(d, (rows, cols.stop - cols.start))
            for e in counts[k]:
                counts[k][e] += int(np.count_nonzero(d >= e))
    # count / M is np.mean of the >= eps mask: a float64 sum of ones is exact
    return [(float(s), {e: n / T.size for e, n in c.items()}) for s, c in zip(sups, counts)]


def proof_terms(F: Observable, T: FinitePermutation, K: int, L: int):
    """(tile, (U, V)) per tile of _discrepancy_tiles at [(K, L)], with |A_K - A_L| <= U + V for
    U = (1/L - 1/K) * sum_{k<L} |F(T^k y)| and V = (1/K) * sum_{k=L}^{K-1} |F(T^k y)| at its slots,
    from one pass over the means of |F|, U = (1/L - 1/K) * A_L * L and V = A_K - A_L * L / K: the tiles
    match, as _row_means tiles by cycle lengths, horizons and CHUNK_POINTS alone.  |F| is T.along(F)
    itself where no value is negative, else its np.abs read unsigned if int: |-128| is -128 in int8,
    whose bits read 128 as uint8."""
    if not 1 <= L < K:
        raise ValueError("require 1 <= L < K")
    along = T.along(F)
    absF = np.abs(along) if along.min() < 0 else along
    absF = absF.view(f"u{absF.itemsize}") if absF.dtype.kind == "i" else absF
    return ((tile, (absL * (1.0 / L - 1.0 / K) * L, absK - absL * L / K))
            for tile, (absK, absL) in _row_means(absF, T.orbit_index, (K, L)))


def stabilization_segment(F: Observable, T: FinitePermutation, points: Sequence[int], n_min: int,
                          eps: float, scan_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(K_star, witness), entry i for points[i]: the maximal eps-band segment [n_min, K_star] of every
    start point, in one scan.  K_star is the largest K <= scan_limit with max - min of A_{n_min..K}
    <= eps (pairwise over the range, not between consecutive means), witness the band's midpoint
    there; K_star == scan_limit where the band held to the end of the scan.  A _carried_sums row per point,
    max(1, CHUNK_POINTS // scan_limit) rows at a time, in tiles of 32, 64, 128, ... columns (at
    most CHUNK_POINTS) carrying the prefix sum and the band's max and min, so every mean is bitwise
    ergodic_means_prefix's; a row is dropped after the tile where it leaves its band."""
    points = np.asarray(points, dtype=np.int64)
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if not eps > 0:  # NaN is refused too
        raise ValueError("epsilon must be positive")
    if n_min > scan_limit:
        raise ValueError("n_min exceeds scan_limit")
    if scan_limit > SERIES_BUDGET:
        raise ValueError(f"scan_limit exceeds the budget of {SERIES_BUDGET} means per start point")
    start, p, pos = T.orbit_index.runs(points)  # one pass over the order for all points, not one per chunk
    along = T.along(F)
    k_star, witness = np.full(points.size, scan_limit), np.empty(points.size)
    cols = min(scan_limit, dynamics.CHUNK_POINTS)
    for first in range(0, points.size, dynamics.CHUNK_POINTS // cols):
        rows = np.arange(first, min(first + dynamics.CHUNK_POINTS // cols, points.size))
        total, hi, lo = None, np.full((rows.size, 1), -np.inf), np.full((rows.size, 1), np.inf)
        a, n = 0, 32
        while rows.size and a < scan_limit:
            n = min(n, cols, scan_limit - a)
            sums = _carried_sums(along, start[rows], p[rows], pos[rows], a, n, total)
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
            rows, total = rows[live], sums[live, -1]
            hi, lo = band_hi[live, -1:], band_lo[live, -1:]
            a, n = a + n, 2 * n
        witness[rows] = (hi[:, 0] + lo[:, 0]) / 2.0  # the rows that held to scan_limit
    return k_star, witness


def common_stabilization_segment(K_star: np.ndarray, witness: np.ndarray, eta: float) -> tuple[int, float, float]:
    """(K_star, witness, excluded_fraction) of stabilization_segment's per-point K_star and witness:
    the largest K_star whose band holds for >= (1 - eta) of the points, the ceil((1 - eta) * n)-th
    largest of them, the median witness of the points it holds for, and the fraction it excludes."""
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    if not K_star.size:
        raise ValueError("sample is empty")
    needed = int(np.ceil((1.0 - eta) * K_star.size))
    k_star = int(np.sort(K_star)[::-1][needed - 1])
    included = K_star >= k_star
    # the median as np.median forms it, the mean of the middle one or two
    # values, read from a sort: np.median's first call imports numpy.ma
    w = np.sort(witness[included])
    return k_star, float(np.mean(w[(w.size - 1) // 2 : w.size // 2 + 1])), float(np.mean(~included))


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
