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

from .dynamics import FinitePermutation, _cycle_minima, _spans

__all__ = [
    "weak_star_error",
    "thickening_measure_error",
    "map_mismatch_fraction",
    "synthesize_permutation",
    "arc_matcher",
    "make_transitive",
]


# -- quality metrics on the grid points x = y/M ----------------------------


def _mod1(v):
    """v % 1.0, bitwise, for float64 v, reusing its array.  On [+0, 2) (bits, as int64, in [0, 1 << 62):
    no -0.0, NaN or inf) fmod is exact, as is v - 1.0 at v >= 1 (Sterbenz's lemma): no % is taken."""
    if np.ndim(v) and 0 <= v.view(np.int64).min(initial=0) and v.view(np.int64).max(initial=0) < 1 << 62:
        return np.subtract(v, 1.0, out=v, where=v >= 1.0)
    return v % 1.0


def _distance(a, b, circle: bool) -> np.ndarray:
    """|a - b| elementwise on the unit interval, or on the circle when circle is set (mod 1 by _mod1)."""
    d = np.abs(np.subtract(a, b, dtype=np.float64))
    if circle:
        d = _mod1(d)
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
    x = _mod1(np.array(x, dtype=np.float64)) if circle else np.asarray(x)
    inside = (x >= a) | (x <= b) if a > b else (a <= x) & (x <= b)
    near = np.minimum(_distance(x, a, circle), _distance(x, b, circle))
    hits = np.count_nonzero(inside | (near < eps))
    return abs(hits / x.size - (b - a if a <= b else min(b + (1.0 - a), 1.0)))


def map_mismatch_fraction(T: FinitePermutation, targets: np.ndarray, eps: float, *, circle: bool) -> float:
    """Fraction of y with dist(T(y)/M, targets[y]) > eps, targets[y] the target map's image of y/M;
    T(y)/M is read from the image a chunk at a time, the same division as the grid x = arange(M)/M."""
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps!r}")
    if np.shape(targets) != (T.size,):
        raise ValueError(f"need one target per grid point, got shape {np.shape(targets)}")
    bad = sum(np.count_nonzero(_distance(T.image[lo:hi] / T.size, targets[lo:hi], circle) > eps)
              for lo, hi in _spans(T.size))
    return bad / T.size


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

    Source i may take any grid point g with |g/M - targets[i]| < delta, its arc [lo, hi] from
    _target_ranges (mod M when circle is set).  Returns match[i] = grid point or -1.

    The circle is cut where the arcs' left ends fall furthest behind the grid points.  From the cut,
    the sources in order of (hi, lo) each take max(lo_i, w + 1), w the point given out last, if that
    is <= hi_i and less than one turn past the first point.  This is maximum because all arcs share
    one delta: lo (the least g with g/M > t - delta) and hi (the greatest g with g/M < t + delta) are
    nondecreasing float functions of the target t, so after the sort lo is nondecreasing too, and
    each source takes the first free point it sees in order of right ends: Glover's greedy, maximum
    on intervals, which the cut reduces the circle to (Liang and Blum).  An arc of the whole circle
    comes only with arcs that miss a point or two.  Arbitrary nested arcs can need augmenting paths,
    which this matcher does not search; tests check one-delta families against Hopcroft-Karp.

    The greedy is w_i = min(hi_i, max(lo_i, w_(i-1) + 1)): a skipped source has w_(i-1) + 1 > hi_i
    >= hi_(i-1) >= w_(i-1), so the min leaves w as it was.  So z_i = w_i - i is the running clamp
    clip(z_(i-1), lo_i - i, hi_i - i): a maximum.accumulate while no upper clamp binds, else the
    clamps composed by doubling (Hillis and Steele's scan, log2 n rounds).  A source takes a point
    where w rises.
    """
    if M >= 1 << 31:  # the sort key below is under 2M^2
        raise ValueError(f"arc_matcher takes M < 2^31 grid points, got {M}")
    n, dt = len(targets), np.int32 if M < 1 << 29 else np.int64  # values to 3M; indices stay intp
    a, span = np.empty(n, dt), np.empty(n, dt)
    for lo, hi in _spans(n):
        # hi - lo < M (a whole circle is [0, M - 1]); an empty arc gets span -1, as a far stray's hi - lo
        # on the interval overflows; on the circle a far stray's lo is taken mod M, any other in [-M, 0) + M
        first, last = _target_ranges(M, targets[lo:hi], delta, circle)
        far = circle and not -M <= first.min() <= first.max() < M
        a[lo:hi], span[lo:hi] = first % M if far else first, np.maximum(last - first, -1)
    if circle:  # an arc through 0; on the interval every arc not dropped below starts in [0, M)
        np.add(a, M, out=a, where=a < 0)
    src = None if span.min(initial=0) >= 0 else np.flatnonzero(span >= 0)  # None: every source has an arc
    if src is not None:
        a, span = a[src], span[src]
    cut = 1 + int(np.argmin(np.cumsum(np.bincount(a, minlength=M) - 1)))
    a -= cut  # (a - cut) mod M: a - cut lies in [-M, M), so one conditional add
    np.add(a, M, out=a, where=a < 0)
    # one stable sort of the key (a + span) * M + a orders the sources as lexsort((a, a + span))
    order = np.argsort((span.astype(np.int64) + a) * M + a, kind="stable")
    src, a, b = order if src is None else src[order], a[order], span[order]
    del span, order
    for lo, hi in _spans(a.size):
        a[lo:hi] -= np.arange(lo, hi, dtype=dt)
    b += a
    g = np.maximum.accumulate(a)
    if (g > b).any():
        # compose the clamps: after the round of step s, [a_i, b_i] clamps z over sources i - 2s + 1 .. i
        g, s = a, 1
        while s < src.size:
            a[s:], b[s:] = np.clip(a[:-s], a[s:], b[s:]), np.clip(b[:-s], a[s:], b[s:])
            s *= 2
    del a, b
    for lo, hi in _spans(g.size):
        g[lo:hi] += np.arange(lo, hi, dtype=dt)
    took = np.append(True, g[1:] > g[:-1]) & (g < g[:1] + M)  # w rises; the first source takes a_0
    g += (g[:1] + cut) % M - g[:1]  # a taker's g - g[0] is in [0, M): its point is this, less M if >= M
    np.subtract(g, M, out=g, where=g >= M)
    match = np.full(n, -1, dtype=np.int64)
    match[src] = np.where(took, g, -1)
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
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    targets = np.asarray(target_images, dtype=np.float64)
    if targets.shape != (M,):
        raise ValueError(f"need one target per grid point, got shape {targets.shape}")
    match = arc_matcher(M, targets, delta, circle=circle)  # a fresh array: the slack bijection fills it
    free = match == -1
    mismatch_count = int(np.count_nonzero(free))
    if mismatch_count:
        used = np.zeros(M, dtype=bool)
        used[match[~free]] = True
        match[free] = np.flatnonzero(~used)
    return FinitePermutation(match), mismatch_count


# -- cycle surgery ---------------------------------------------------------


def make_transitive(T: FinitePermutation) -> tuple[FinitePermutation, list[int]]:
    """Concatenate T's cycles, in canonical order, into a single M-cycle C.

    Returns (C, B) with B = {y : C(y) != T(y)}, ascending: each cycle's last point, which C sends to
    the next cycle's head and the last cycle's to the first.  |B| is T's cycle count when T has two
    or more cycles, and 0 when T is one cycle (then C is T).  No orbit index of T is built: the heads
    in canonical order come from _cycle_minima, and the last points are those whose image is a head.
    """
    image = T.image
    lab, heads, _ = _cycle_minima(image)
    if heads.size == 1:
        return T, []
    lasts = np.flatnonzero(lab[image] == image)  # T^-1 of the heads
    lab[heads] = np.roll(heads, -1)  # lab is spent; its slot at a head h now holds the head after h
    merged = image.copy()
    merged[lasts] = lab[image[lasts]]
    return FinitePermutation(merged), lasts.tolist()
