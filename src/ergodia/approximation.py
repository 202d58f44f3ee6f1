"""Constructive approximation of continuous systems by finite permutations.

Quality metrics: weak-* error of the empirical measure against a reference
measure, thickened-set measure error for closed sets, and the fraction of
points where the permutation disagrees with the target map by more than
epsilon.  Construction: a permutation within delta of a (possibly
non-injective) measure-preserving target map is synthesized by bipartite
matching of each source point to a free grid point inside the
delta-interval around its target image; unmatched sources are closed into
a permutation by a deterministic slack bijection onto the leftover grid
points.  Cycle surgery turns any permutation into a single cycle
(transitivization) or into uniform-length cycles (periodization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import FinitePermutation

__all__ = [
    "MetricSpaceModel",
    "circle_space",
    "interval_space",
    "symbolic_space",
    "PointEmbedding",
    "TestFunction",
    "ClosedSet",
    "weak_star_error",
    "thickening_measure_error",
    "map_mismatch_fraction",
    "synthesize_permutation",
    "arc_matcher",
    "make_transitive",
]


# -- metric space models ---------------------------------------------------


@dataclass(frozen=True)
class MetricSpaceModel:
    """A compact metric space with a reference probability measure.

    kind is one of "circle", "interval", "symbolic".  Points are floats for
    circle/interval and integer words (symbols at positions -W..W, along
    the last axis) for symbolic.  distance works elementwise on arrays of
    points.
    """

    kind: str
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    alphabet: int = 0
    window: int = 0


def circle_space() -> MetricSpaceModel:
    def dist(a, b):
        d = np.abs(np.subtract(a, b, dtype=np.float64)) % 1.0
        return np.minimum(d, 1.0 - d)

    return MetricSpaceModel(kind="circle", distance=dist)


def interval_space() -> MetricSpaceModel:
    def dist(a, b):
        return np.abs(np.subtract(a, b, dtype=np.float64))

    return MetricSpaceModel(kind="interval", distance=dist)


def symbolic_space(alphabet: int, window: int) -> MetricSpaceModel:
    """Truncated symbolic space: words over positions -W..W, uniform product measure.

    distance(x1, x2) = 2^(-j) with j the smallest |n| <= W where the words
    disagree, 0 if they agree on the whole window.
    """
    W = window
    radius = np.abs(np.arange(-W, W + 1))

    def dist(a, b):
        j = np.where(np.not_equal(a, b), radius, W + 1).min(axis=-1)
        return np.where(j <= W, np.ldexp(1.0, -j), 0.0)

    return MetricSpaceModel(kind="symbolic", distance=dist, alphabet=alphabet, window=W)


@dataclass(frozen=True)
class PointEmbedding:
    """An injective map phi from {0, ..., M-1} into a metric space model.

    coordinates[y] is phi(y): a float for circle and interval spaces, the
    word at positions -W..W for a symbolic space.  make_coordinates builds
    the array on first read, so an embedding no metric reads costs nothing.
    """

    size: int
    space: MetricSpaceModel
    make_coordinates: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def coordinates(self) -> np.ndarray:
        coords = self.make_coordinates()
        coords.setflags(write=False)
        return coords


@dataclass(frozen=True)
class TestFunction:
    """A continuous test function, elementwise on arrays of points, with its reference integral."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    integral: float


TestFunction.__test__ = False  # keep pytest collection away from the dataclass


@dataclass(frozen=True)
class ClosedSet:
    """A closed set descriptor: a finite union of intervals or of cylinders.

    intervals: [(a, b), ...] closed subintervals with finite endpoints in
    [0, 1] (circle intervals may wrap, i.e. a > b).  cylinders:
    [{position: symbol, ...}, ...] with positions in -W..W.  measure is the
    reference measure of the set.
    """

    kind: str  # "intervals" | "cylinders"
    intervals: tuple = ()
    cylinders: tuple = ()

    def __post_init__(self):
        if any(len(iv) != 2 or not all(0.0 <= e <= 1.0 for e in iv) for iv in self.intervals):
            raise ValueError(f"closed intervals must be pairs of finite endpoints in [0, 1], "
                             f"got {self.intervals!r}")

    def measure(self, space: MetricSpaceModel) -> float:
        if self.kind == "intervals":
            # the union: wrapped intervals split at 1, then sorted and merged
            pieces = sorted(piece for a, b in self.intervals
                            for piece in ([(a, b)] if a <= b else [(0.0, b), (a, 1.0)]))
            total = lo = hi = 0.0
            for a, b in pieces:
                if a > hi:
                    total, lo = total + (hi - lo), a
                hi = max(hi, b)
            return min(total + (hi - lo), 1.0)
        if self.kind == "cylinders":
            # exact measure of the union: one column per assignment of the constrained positions
            domains = sorted(set().union(*self.cylinders))
            k = len(domains)
            grid = np.indices([space.alphabet] * k).reshape(k, space.alphabet**k)
            inside = np.zeros(grid.shape[1], dtype=bool)
            for cyl in self.cylinders:
                inside |= np.all([grid[domains.index(n)] == s for n, s in cyl.items()], axis=0)
            return np.count_nonzero(inside) / float(space.alphabet) ** k
        raise ValueError(f"unsupported set descriptor kind {self.kind!r}")

    def distance_to(self, x, space: MetricSpaceModel) -> np.ndarray:
        """Distance from each point of x (floats, or words along the last axis) to the set."""
        x = np.asarray(x)
        shape = x.shape[:-1] if space.kind == "symbolic" else x.shape
        if self.kind == "intervals":
            if space.kind == "circle":
                x = x % 1.0
            best = np.full(shape, np.inf)
            for a, b in self.intervals:
                if a > b:  # wraps through 0, as measure counts it, on the interval too
                    inside = (x >= a) | (x <= b)
                else:
                    inside = (a <= x) & (x <= b)
                near = np.minimum(space.distance(x, a), space.distance(x, b))
                best = np.where(inside, 0.0, np.minimum(best, near))
            return best
        if self.kind == "cylinders":
            best = np.full(shape, np.inf)
            for cyl in self.cylinders:
                # the cylinder's nearest point: x with the constrained symbols set
                nearest = x.copy()
                nearest[..., [n + space.window for n in cyl]] = list(cyl.values())
                best = np.minimum(best, space.distance(x, nearest))
            return best
        raise ValueError(f"unsupported set descriptor kind {self.kind!r}")


# -- quality metrics -------------------------------------------------------


def weak_star_error(embedding: PointEmbedding, tests: Sequence[TestFunction]) -> dict[str, float]:
    """Per test f: |(1/M) sum_y f(phi(y)) - integral of f|."""
    out = {}
    for t in tests:
        if t.integral is None:
            raise ValueError(f"test function {t.name!r} has no reference integral")
        emp = np.mean(t.fn(embedding.coordinates))
        out[t.name] = float(abs(emp - t.integral))
    return out


def thickening_measure_error(embedding: PointEmbedding, C: ClosedSet, eps: float) -> float:
    """|(1/M) |{y : dist(phi(y), C) < eps}| - nu(C)|."""
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps!r}")
    space = embedding.space
    hits = np.count_nonzero(C.distance_to(embedding.coordinates, space) < eps)
    return abs(hits / embedding.size - C.measure(space))


def map_mismatch_fraction(embedding: PointEmbedding, T: FinitePermutation,
                          tau: Callable[[np.ndarray], np.ndarray], eps: float) -> float:
    """Fraction of y with rho(phi(T(y)), tau(phi(y))) > eps; tau acts on the coordinate array."""
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps!r}")
    x = embedding.coordinates
    bad = np.count_nonzero(embedding.space.distance(x[T.image], tau(x)) > eps)
    return bad / embedding.size


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


def arc_matcher(M: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact maximum matching of sources to grid points on arcs of the circle.

    Source i may take any grid point g mod M with lo[i] <= g <= hi[i]:
    lo < 0 or hi > M - 1 encodes an arc through 0, hi < lo an empty arc
    and hi - lo + 1 >= M the whole circle.  Returns match[i] = grid point
    or -1.

    The circle is cut where the arcs' left ends fall furthest behind the
    grid points.  From the cut, the sources in order of (hi, lo) each take
    max(lo_i, g + 1), g the point given out last, if that is <= hi_i and
    less than one turn past the first point (Glover's greedy for interval
    graphs; one maximum.accumulate where no source is skipped).  A Berge
    repair then searches an augmenting path from each source left free,
    which makes the matching maximum for any arcs.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    match = np.full(lo.size, -1, dtype=np.int64)
    src = np.flatnonzero(hi >= lo)
    if src.size == 0:
        return match
    # one representative per arc: lo in [0, M), hi in [lo, lo + M)
    span = np.minimum(hi[src] - lo[src], M - 1)
    a = np.where(span == M - 1, 0, lo[src] % M)
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
    keep = (g <= b) & (g < g[0] + M)
    mate = np.where(keep, (g + cut) % M, -1)
    if not keep.all():
        a = (a + cut) % M
        mate = _berge_repair(M, a.tolist(), (a + span).tolist(), mate.tolist())
    match[src] = mate
    return match


def _berge_repair(M: int, lo: list, hi: list, mate: list) -> list:
    """mate (grid point per source, -1 if free) made maximum on arcs [lo, hi].

    One breadth-first search per free source; within it a skip map sends
    each visited grid point on to the next unvisited one, so no point is
    scanned twice.  A search that reaches a free grid point flips its
    path.  One that fails leaves a Hungarian tree whose sources see only
    its own matched points, so no later augmenting path can use them and
    they are retired for good.  With no augmenting path left the matching
    is maximum (Berge).  Each grid point is retired at most once, so failed
    searches cost O(M log M) in all (path compression); a successful one
    costs the size of its tree.
    """
    owner = [-1] * M
    for i, g in enumerate(mate):
        if g >= 0:
            owner[g] = i
    retired = list(range(M + 1))  # retired[g] != g: g is retired, look further on
    parent = [0] * M  # source whose arc reached grid point g in this search

    def next_live(g: int) -> int:
        root = g
        while retired[root] != root:
            root = retired[root]
        while retired[g] != root:
            retired[g], g = root, retired[g]
        return root

    seen: dict[int, int] = {}  # grid point visited in this search -> next candidate

    def unvisited(g: int) -> int:
        g = next_live(g)
        path = []
        while g in seen:
            path.append(g)
            g = next_live(seen[g])
        for p in path:
            seen[p] = g
        return g

    for s in [i for i, g in enumerate(mate) if g < 0]:
        seen.clear()
        queue, found = [s], -1
        for u in queue:
            for first, last in ((lo[u], min(hi[u], M - 1)), (0, hi[u] - M)):
                g = unvisited(first)
                while g <= last and found < 0:
                    seen[g] = g + 1
                    parent[g] = u
                    if owner[g] < 0:
                        found = g
                    else:
                        queue.append(owner[g])
                        g = unvisited(g + 1)
            if found >= 0:
                break
        if found < 0:
            for g in seen:
                retired[g] = g + 1
            continue
        g, u = found, -1
        while u != s:
            u = parent[g]
            mate[u], owner[g], g = g, u, mate[u]
    return mate


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
    minimized by exact maximum matching (arc_matcher).  Unmatched sources
    are closed into a permutation by pairing them with the leftover grid
    points in index order (the deterministic slack bijection), so the
    result is always a valid permutation even when delta is too small for
    some neighborhoods.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    targets = np.asarray(target_images, dtype=np.float64)
    if targets.shape != (M,):
        raise ValueError(f"need one target per grid point, got shape {targets.shape}")
    match = arc_matcher(M, *_target_ranges(M, targets, delta, circle))
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
    """Concatenate T's cycles (descending length) into a single M-cycle C.

    Returns (C, B) with B = {y : C(y) != T(y)}; |B| equals the number of
    cycles of T except when a concatenation seam happens to agree with T,
    so |B| <= b always.
    """
    order = T.orbit_index.order
    image = np.empty(T.size, dtype=np.int64)
    image[order] = np.roll(order, -1)
    C = FinitePermutation(image, validate=False)
    B = np.flatnonzero(C.image != T.image).tolist()
    return C, B

