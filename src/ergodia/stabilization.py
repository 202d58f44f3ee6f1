"""Stabilization analysis of ergodic means.

Two complementary diagnostics:

* discrepancies |A_K - A_L| at comparable horizons K > L, with the exact
  two-term proof bound U + V per start point, the sup over all of Y, and
  the fraction of start points exceeding a tolerance;

* initial-segment stabilization: the largest horizon range [n_min, K*] on
  which all prefix means of a start point stay within a band of width
  epsilon, per point or for all but an eta-fraction of a sample of points.

The tolerances epsilon and eta are deliberately mandatory: "approximately
equal" and "almost all" have no canonical finite thresholds, so every
experiment must pin them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import FinitePermutation, Observable, ergodic_means_prefix
from .rng import SplitMix64

__all__ = [
    "DiscrepancyReport",
    "StabilizationSegment",
    "means_at_horizon",
    "sup_discrepancy",
    "exceedance_fraction",
    "stabilization_segment",
    "common_stabilization_segment",
    "reference_psi",
    "stratified_start_points",
]


# eq=False: == is identity; a field-wise == would take the truth value of arrays
@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """|A_K - A_L| over all start points, plus the proof's U+V split on a sample.

    For K > L the discrepancy decomposes as

        |A_K - A_L| <= U + V,
        U = (1/L - 1/K) * sum_{k < L} |F(T^k y)|,
        V = (1/K) * sum_{k = L}^{K-1} |F(T^k y)|,

    and u_bounds/v_bounds record both terms at each sampled start point.
    """

    K: int
    L: int
    sup_disc: float
    diffs: np.ndarray
    sample_points: np.ndarray
    u_bounds: np.ndarray
    v_bounds: np.ndarray

    def exceedance(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        return float(np.mean(self.diffs >= eps))


@dataclass(frozen=True)
class StabilizationSegment:
    """A horizon range [n_min, K_star] on which means stay in an eps-band.

    Per-point mode: all A_n for n in the range lie within a band of width
    eps.  Common mode (start < 0): the same holds for at least a (1 - eta)
    fraction of the sampled start points; excluded_fraction reports the rest.
    capped means K_star hit the scan limit rather than a band violation.
    """

    start: int  # -1 for common mode
    n_min: int
    K_star: int
    eps: float
    witness: float
    capped: bool
    eta: float | None = None
    excluded_fraction: float | None = None


# points per block of equal-length cycles that means_at_horizon handles at
# once, so its temporaries stay bounded however many cycles share a length
CHUNK_POINTS = 1 << 16


def _row_means(F: Observable, cyc: np.ndarray, n: int) -> np.ndarray:
    """A_n at every point of cyc, a (rows, p) block of whole cycles."""
    p = cyc.shape[1]
    q, r = divmod(n, p)
    vals = F.values[cyc]
    total = q * vals.sum(axis=1, keepdims=True)
    window = 0.0
    if r:
        pref = np.zeros((vals.shape[0], p + r + 1))
        np.cumsum(np.concatenate([vals, vals[:, :r]], axis=1), axis=1, out=pref[:, 1:])
        window = pref[:, r : r + p] - pref[:, :p]
    return np.broadcast_to((total + window) / n, vals.shape)


def means_at_horizon(
    F: Observable,
    T: FinitePermutation,
    n: int,
    points: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """A_n(F, T, y) for every y, in O(M) total via per-cycle window sums.

    The window of length n along a cycle of length p contributes
    floor(n/p) full cycle sums plus a cyclic window of length n mod p.
    Equal-length cycles are contiguous in the orbit index, so each length
    class is handled as (cycles, p) rows, a chunk of rows at a time; every
    row gets the same arithmetic as a lone cycle would.

    With points given, only the cycles holding them are processed and
    A_n at those points is returned, in their order; each value is
    bitwise the one the full call gives.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    index = T.orbit_index
    out = np.empty(T.size, dtype=np.float64)
    if points is not None:
        points = np.asarray(points, dtype=np.int64)
        wanted = np.zeros(index.lengths.size, dtype=bool)
        wanted[index.cycle_id[points]] = True
    for offset, count, p in index.length_classes():
        rows = index.order[offset : offset + count * p].reshape(count, p)
        if points is not None:
            first_cycle = index.cycle_id[index.order[offset]]
            rows = rows[wanted[first_cycle : first_cycle + count]]
        step = max(1, CHUNK_POINTS // p)
        for first in range(0, len(rows), step):
            cyc = rows[first : first + step]
            out[cyc] = _row_means(F, cyc, n)
    return out if points is None else out[points]


def _abs_discrepancies(F: Observable, T: FinitePermutation, K: int, L: int) -> np.ndarray:
    """|A_K - A_L| at every point of Y, for 1 <= L < K."""
    if not 1 <= L < K:
        raise ValueError("require 1 <= L < K")
    diffs = means_at_horizon(F, T, K)
    diffs -= means_at_horizon(F, T, L)
    return np.abs(diffs, out=diffs)


def sup_discrepancy(
    F: Observable,
    T: FinitePermutation,
    K: int,
    L: int,
    sample: Sequence[int] | None = None,
) -> DiscrepancyReport:
    """Exact max over all y of |A_K - A_L| plus the U/V proof terms on a sample."""
    diffs = _abs_discrepancies(F, T, K, L)
    if sample is None:
        sample = stratified_start_points(T.size, strata=min(T.size, 32), extras=0, seed=0)
    sample = np.asarray(sample, dtype=np.int64)
    absF = Observable.from_values(np.abs(F.values), name=f"abs({F.name})")
    absL = means_at_horizon(absF, T, L, points=sample)  # (1/L) sum_{k<L} |F(T^k y)|
    absK = means_at_horizon(absF, T, K, points=sample)
    u = (1.0 / L - 1.0 / K) * absL * L
    v = absK - absL * L / K  # (1/K) sum_{k=L}^{K-1} |F|
    return DiscrepancyReport(
        K=K,
        L=L,
        sup_disc=float(np.max(diffs)),
        diffs=diffs,
        sample_points=sample,
        u_bounds=u,
        v_bounds=v,
    )


def exceedance_fraction(F: Observable, T: FinitePermutation, K: int, L: int, eps: float) -> float:
    """(1/M) * |{y : |A_K - A_L| >= eps}|, exact over all of Y."""
    diffs = _abs_discrepancies(F, T, K, L)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return float(np.mean(diffs >= eps))


def _check_band(n_min: int, eps: float, scan_limit: int) -> None:
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if n_min > scan_limit:
        raise ValueError("n_min exceeds scan_limit")


def _band_end(means: np.ndarray, n_min: int, eps: float, scan_limit: int) -> tuple[int, float, bool]:
    """Largest K in [n_min, scan_limit] with max-min of A_{n_min..K} <= eps.

    The band criterion is pairwise over the whole range (running min/max),
    not a local consecutive-difference test.  Returns (K_star, band
    midpoint at K_star, capped flag).
    """
    window = means[n_min - 1 : scan_limit]
    hi = np.maximum.accumulate(window)
    lo = np.minimum.accumulate(window)
    bad = (hi - lo) > eps
    idx = int(np.argmax(bad))
    if not bad[idx]:
        k_star = scan_limit
        capped = True
        last = len(window) - 1
    else:
        # idx is the first violating offset; idx == 0 cannot happen (a
        # single point has band width 0), so K_star = n_min + idx - 1.
        k_star = n_min + idx - 1
        capped = False
        last = idx - 1
    witness = float((hi[last] + lo[last]) / 2.0)
    return k_star, witness, capped


def stabilization_segment(
    F: Observable,
    T: FinitePermutation,
    y: int,
    n_min: int,
    eps: float,
    scan_limit: int,
) -> StabilizationSegment:
    """Maximal eps-band segment [n_min, K_star] for one start point."""
    _check_band(n_min, eps, scan_limit)

    means = ergodic_means_prefix(F, T, y, scan_limit).means
    k_star, witness, capped = _band_end(means, n_min, eps, scan_limit)
    return StabilizationSegment(start=y, n_min=n_min, K_star=k_star, eps=eps,
                                witness=witness, capped=capped)


def common_stabilization_segment(
    F: Observable,
    T: FinitePermutation,
    n_min: int,
    eps: float,
    eta: float,
    scan_limit: int,
    sample: Sequence[int],
) -> StabilizationSegment:
    """Largest K_star whose band holds for >= (1 - eta) of the sampled points."""
    _check_band(n_min, eps, scan_limit)
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    sample = list(sample)
    if not sample:
        raise ValueError("sample is empty")

    ends = [_band_end(ergodic_means_prefix(F, T, y, scan_limit).means, n_min, eps, scan_limit)
            for y in sample]
    ks = np.asarray([k for k, _, _ in ends])
    needed = int(np.ceil((1.0 - eta) * len(sample)))
    k_star = int(np.sort(ks)[::-1][needed - 1])
    included = ks >= k_star
    witnesses = np.asarray([w for _, w, _ in ends])[included]
    return StabilizationSegment(
        start=-1,
        n_min=n_min,
        K_star=k_star,
        eps=eps,
        witness=float(np.median(witnesses)),
        capped=k_star >= scan_limit,
        eta=eta,
        excluded_fraction=float(np.mean(~included)),
    )


def reference_psi(a: float, t: float) -> float:
    """Closed-form limit profile of prefix means of the linear observable y/M.

    psi(a, t) = t + a/2                       for t <= 1 - a,
              = t + a/2 - 1 + (1/a)(1 - t)    for t > 1 - a (requires a > 0).
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    if t <= 1.0 - a:
        return t + a / 2.0
    if a == 0.0:
        raise ValueError("second branch undefined at a = 0")
    return t + a / 2.0 - 1.0 + (1.0 - t) / a


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
