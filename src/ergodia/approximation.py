"""Constructive approximation of continuous systems by finite permutations.

Quality metrics, at the grid points x = y/M of the unit interval or the
circle: weak-* error of the empirical measure against a reference measure,
thickened-set measure error for closed intervals, and the fraction of
points where the permutation disagrees with the target map by more than
epsilon.  Construction: a permutation within delta of a (possibly
non-injective) measure-preserving target map is synthesized by bipartite
matching of each source point to a free grid point inside the
delta-interval around its target image; unmatched sources are closed into
a permutation by a deterministic slack bijection onto the leftover grid
points.  Cycle surgery turns any permutation into a single cycle
(transitivization).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dynamics import FinitePermutation

__all__ = [
    "weak_star_error",
    "thickening_measure_error",
    "map_mismatch_fraction",
    "synthesize_permutation",
    "arc_matcher",
    "make_transitive",
]


# -- quality metrics on the grid points x = y/M ----------------------------


def _distance(a, b, circle: bool) -> np.ndarray:
    """|a - b| elementwise on the unit interval, or on the circle when circle is set."""
    d = np.abs(np.subtract(a, b, dtype=np.float64))
    if circle:
        d = d % 1.0
        return np.minimum(d, 1.0 - d)
    return d


def weak_star_error(x: np.ndarray, degree: int) -> dict[str, float]:
    """Per monomial x^d, d = 0 .. degree: |(1/M) sum_y x[y]^d - 1/(d + 1)|, keyed "x^d".  Polynomials
    are dense in C[0, 1], so the monomials suffice as test functions."""
    return {f"x^{d}": float(abs(np.mean(x**d) - 1.0 / (d + 1))) for d in range(degree + 1)}


def thickening_measure_error(x: np.ndarray, interval: tuple[float, float], eps: float, *,
                             circle: bool) -> float:
    """|(1/M) |{y : dist(x[y], C) < eps}| - nu(C)| for the closed interval C = [a, b] of [0, 1],
    (a, b) = interval.  A pair with a > b wraps through 0 (on the interval too: [a, 1] with [0, b])."""
    if len(interval) != 2 or not all(0.0 <= e <= 1.0 for e in interval):
        raise ValueError(f"a closed interval is a pair of finite endpoints in [0, 1], got {interval!r}")
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps!r}")
    a, b = interval
    x = np.asarray(x) % 1.0 if circle else np.asarray(x)
    inside = (x >= a) | (x <= b) if a > b else (a <= x) & (x <= b)
    near = np.minimum(_distance(x, a, circle), _distance(x, b, circle))
    hits = np.count_nonzero(inside | (near < eps))
    return abs(hits / x.size - (b - a if a <= b else min(b + (1.0 - a), 1.0)))


def map_mismatch_fraction(x: np.ndarray, T: FinitePermutation, targets: np.ndarray, eps: float, *,
                          circle: bool) -> float:
    """Fraction of y with dist(x[T(y)], targets[y]) > eps, targets[y] the target map's image of x[y]."""
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps!r}")
    if np.shape(targets) != x.shape:
        raise ValueError(f"need one target per grid point, got shape {np.shape(targets)}")
    bad = np.count_nonzero(_distance(x[T.image], targets, circle) > eps)
    return bad / x.size


# -- permutation synthesis by matching ------------------------------------


def _target_ranges(M: int, targets: np.ndarray, delta: float, circle: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per source, the grid-index range [lo, hi] inside the open delta-interval.

    Grid point g sits at g/M; admissible g satisfy |g/M - target| < delta
    (circle distance when circle=True).  Returns int64 arrays; lo < 0 or
    hi > M - 1 encodes a wrapped circular range, hi < lo an empty one.
    Each target goes through the same IEEE operations as in a loop over
    Python floats.  Targets that are not finite or put (target +- delta) * M
    at 2^52 or beyond raise ValueError.
    """
    t = np.asarray(targets, dtype=np.float64)
    below = (t - delta) * M
    above = (t + delta) * M
    if not ((np.abs(below) < 2.0**52) & (np.abs(above) < 2.0**52)).all():
        raise ValueError("target images must be finite, with |target +- delta| * M < 2^52")
    lo = np.floor(below).astype(np.int64) + 1
    hi = np.ceil(above).astype(np.int64) - 1
    # strict inequality: drop endpoints that land exactly at distance delta
    lo += lo / M <= t - delta
    hi -= hi / M >= t + delta
    if circle:
        full = hi - lo + 1 >= M
        lo[full] = 0
        hi[full] = M - 1
    else:
        np.maximum(lo, 0, out=lo)
        np.minimum(hi, M - 1, out=hi)
    return lo, hi


def arc_matcher(M: int, targets: np.ndarray, delta: float, *, circle: bool) -> np.ndarray:
    """Maximum matching of sources to grid points within delta of their targets.

    Source i may take any grid point g with |g/M - targets[i]| < delta, its
    arc [lo, hi] from _target_ranges (mod M when circle is set).  Returns
    match[i] = grid point or -1.

    The circle is cut where the arcs' left ends fall furthest behind the
    grid points.  From the cut, the sources in order of (hi, lo) each take
    max(lo_i, g + 1), g the point given out last, if that is <= hi_i and
    less than one turn past the first point (one maximum.accumulate where
    no source is skipped).  This is maximum because all arcs share one
    delta: lo (the least g with g/M > t - delta) and hi (the greatest g
    with g/M < t + delta) are nondecreasing float functions of the target
    t, so no arc holds another with both ends apart.  After the (hi, lo)
    sort lo is then nondecreasing, no free point lies in [lo_i, g], and
    each source takes the first free point it sees in order of right ends:
    Glover's greedy, maximum on intervals, which the cut reduces the circle
    to (Liang and Blum).  The arcs of one delta have nearly equal widths,
    so an arc of the whole circle comes only with arcs that miss a point or
    two; tests check such families against Hopcroft-Karp.  Arbitrary nested
    arcs can need augmenting paths, which this matcher does not search.
    """
    lo, hi = _target_ranges(M, targets, delta, circle)
    match = np.full(lo.size, -1, dtype=np.int64)
    src = np.flatnonzero(hi >= lo)
    if src.size == 0:
        return match
    # _target_ranges gives hi - lo < M (a whole circle is [0, M - 1]); an arc through 0 starts at lo mod M
    a, span = lo[src] % M, hi[src] - lo[src]
    cut = 1 + int(np.argmin(np.cumsum(np.bincount(a, minlength=M)) - np.arange(1, M + 1)))
    a = (a - cut) % M
    order = np.lexsort((a, a + span))
    src, a, span = src[order], a[order], span[order]
    b = a + span
    k = np.arange(src.size)
    g = k + np.maximum.accumulate(a - k)
    over = np.flatnonzero(g > b)
    if over.size:
        # a source that g overshot still advanced g; redo each run (from one
        # g_i == a_i to the next) holding such a source one source at a
        # time, where an overshot source takes no point
        starts = np.flatnonzero(g == a)
        ends = np.append(starts[1:], src.size)
        for r in np.unique(np.searchsorted(starts, over, side="right") - 1).tolist():
            run, last = [], -1
            for x, y in zip(a[starts[r]:ends[r]].tolist(), b[starts[r]:ends[r]].tolist()):
                x = max(x, last + 1)
                if x <= y:
                    last = x
                run.append(x)
            g[starts[r]:ends[r]] = run
    match[src] = np.where((g <= b) & (g < g[0] + M), (g + cut) % M, -1)
    return match


def synthesize_permutation(
    M: int,
    target_images: Sequence[float],
    delta: float,
    *,
    circle: bool = True,
) -> tuple[FinitePermutation, int]:
    """A permutation T_delta of the grid {0, ..., M-1} close to a target map.

    target_images[y] is the intended image of grid point y/M in [0, 1).
    For all but mismatch_count points, the circle (or interval) distance
    between T_delta(y)/M and target_images[y] is < delta; mismatch_count is
    minimized by maximum matching, arc_matcher(M, targets, delta,
    circle=circle).  Unmatched sources are closed into a permutation by
    pairing them with the leftover grid points in index order (the
    deterministic slack bijection), so the result is always a valid
    permutation even when delta is too small for some neighborhoods.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    targets = np.asarray(target_images, dtype=np.float64)
    if targets.shape != (M,):
        raise ValueError(f"need one target per grid point, got shape {targets.shape}")
    match = arc_matcher(M, targets, delta, circle=circle)
    mismatch_count = int(np.sum(match == -1))
    image = match.copy()
    if mismatch_count:
        used = np.zeros(M, dtype=bool)
        used[match[match >= 0]] = True
        leftovers = np.flatnonzero(~used)
        image[match == -1] = leftovers
    return FinitePermutation(image), mismatch_count


# -- cycle surgery ---------------------------------------------------------


def make_transitive(T: FinitePermutation) -> tuple[FinitePermutation, list[int]]:
    """Concatenate T's cycles, in canonical order, into a single M-cycle C.

    Returns (C, B) with B = {y : C(y) != T(y)}, ascending: each cycle's last point, which C sends to
    the next cycle's head and the last cycle's to the first.  |B| is T's cycle count when T has two
    or more cycles, and 0 when T is one cycle (then C is T).  No orbit index of T is built: the heads
    are the points that are their own cycle's minimum, found by min-label pointer doubling (Wyllie's
    pointer jumping with Shiloach and Vishkin's minimum labels; with P = T^w, lab[y] is the minimum
    of y .. T^(w-1)(y), and lab == lab[P] first holds when w reaches the longest cycle), and
    bincount gives the lengths.  int32 where M allows halves the bytes each gather moves; every
    index is a point, so mode="clip" skips take's bounds check and its copy of out.
    """
    image, M = T.image, T.size
    P = image.astype(np.int32 if M <= 1 << 31 else np.int64)
    lab, ahead, doubled = np.arange(M, dtype=P.dtype), np.empty_like(P), np.empty_like(P)
    while not np.array_equal(np.take(lab, P, out=ahead, mode="clip"), lab):
        np.minimum(lab, ahead, out=lab)
        P, doubled = np.take(P, P, out=doubled, mode="clip"), P
    is_head = lab == np.arange(M, dtype=lab.dtype)
    heads = np.flatnonzero(is_head)
    if heads.size == 1:
        return T, []
    heads = heads[np.argsort(-np.bincount(lab)[heads], kind="stable")]  # canonical order
    succ = np.empty(M, dtype=np.int64)  # succ[h]: the head after h
    succ[heads] = np.roll(heads, -1)
    lasts = np.flatnonzero(is_head[image])  # T^-1 of the heads
    merged = image.copy()
    merged[lasts] = succ[image[lasts]]
    return FinitePermutation(merged), lasts.tolist()
