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
    "ApproximationReport",
    "weak_star_error",
    "thickening_measure_error",
    "map_mismatch_fraction",
    "synthesize_permutation",
    "interval_matcher",
    "augmenting_path_matcher",
    "hall_deficiency_oracle",
    "make_transitive",
    "split_into_n_cycles",
]


# -- metric space models ---------------------------------------------------


@dataclass(frozen=True)
class MetricSpaceModel:
    """A compact metric space with a reference probability measure.

    kind is one of "circle", "interval", "symbolic".  Points are floats for
    circle/interval and integer arrays (symbols at positions -W..W) for
    symbolic.  ball_measure gives the closed-form reference measure of an
    open ball.
    """

    kind: str
    distance: Callable[[object, object], float]
    ball_measure: Callable[[object, float], float]
    alphabet: int = 0
    window: int = 0


def circle_space() -> MetricSpaceModel:
    def dist(a, b):
        d = abs(float(a) - float(b)) % 1.0
        return min(d, 1.0 - d)

    def ball(_center, r):
        return float(min(max(2.0 * r, 0.0), 1.0))

    return MetricSpaceModel(kind="circle", distance=dist, ball_measure=ball)


def interval_space() -> MetricSpaceModel:
    def dist(a, b):
        return abs(float(a) - float(b))

    def ball(center, r):
        lo = max(0.0, float(center) - r)
        hi = min(1.0, float(center) + r)
        return max(0.0, hi - lo)

    return MetricSpaceModel(kind="interval", distance=dist, ball_measure=ball)


def symbolic_space(alphabet: int, window: int) -> MetricSpaceModel:
    """Truncated symbolic space: words over positions -W..W, uniform product measure.

    distance(x1, x2) = 2^(-j) with j the smallest |n| <= W where the words
    disagree, 0 if they agree on the whole window.
    """
    W = window
    order = np.argsort(np.abs(np.arange(-W, W + 1)), kind="stable")

    def dist(a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        for j in order:
            if a[j] != b[j]:
                return 2.0 ** (-abs(int(j) - W))
        return 0.0

    def ball(_center, r):
        if r <= 0:
            return 0.0
        # membership in the ball constrains exactly the positions n with
        # 2^(-|n|) >= r (those must agree with the center)
        constrained = sum(1 for n in range(-W, W + 1) if 2.0 ** (-abs(n)) >= r)
        return float(alphabet) ** (-constrained)

    return MetricSpaceModel(kind="symbolic", distance=dist, ball_measure=ball,
                            alphabet=alphabet, window=W)


@dataclass(frozen=True)
class PointEmbedding:
    """An injective map from {0, ..., M-1} into a metric space model."""

    size: int
    space: MetricSpaceModel
    embed: Callable[[int], object]


@dataclass(frozen=True)
class TestFunction:
    """A continuous test function with its known integral against the reference measure."""

    name: str
    fn: Callable[[object], float]
    integral: float


TestFunction.__test__ = False  # keep pytest collection away from the dataclass


@dataclass(frozen=True)
class ClosedSet:
    """A closed set descriptor: a finite union of intervals or of cylinders.

    intervals: [(a, b), ...] closed subintervals (circle intervals may wrap,
    i.e. a > b).  cylinders: [{position: symbol, ...}, ...] with positions
    in -W..W.  measure is the reference measure of the set.
    """

    kind: str  # "intervals" | "cylinders" | "all"
    intervals: tuple = ()
    cylinders: tuple = ()

    def measure(self, space: MetricSpaceModel) -> float:
        if self.kind == "all":
            return 1.0
        if self.kind == "intervals":
            # assumes the given intervals are pairwise disjoint
            total = 0.0
            for a, b in self.intervals:
                total += (b - a) if a <= b else (1.0 - a + b)
            return min(total, 1.0)
        if self.kind == "cylinders":
            domains = set()
            for cyl in self.cylinders:
                domains |= set(cyl)
            domains = sorted(domains)
            m = space.alphabet
            count = 0
            # exact measure of the union by enumerating the constrained coordinates
            for assignment in np.ndindex(*([m] * len(domains))):
                point = dict(zip(domains, assignment))
                if any(all(point[n] == s for n, s in cyl.items()) for cyl in self.cylinders):
                    count += 1
            return count / float(m) ** len(domains)
        raise ValueError(f"unsupported set descriptor kind {self.kind!r}")

    def distance_to(self, x, space: MetricSpaceModel) -> float:
        if self.kind == "all":
            return 0.0
        if self.kind == "intervals":
            best = np.inf
            for a, b in self.intervals:
                if space.kind == "circle":
                    xa = float(x) % 1.0
                    inside = (a <= xa <= b) if a <= b else (xa >= a or xa <= b)
                    if inside:
                        return 0.0
                    da = min(abs(xa - a) % 1.0, 1.0 - abs(xa - a) % 1.0)
                    db = min(abs(xa - b) % 1.0, 1.0 - abs(xa - b) % 1.0)
                    best = min(best, da, db)
                else:
                    if a <= float(x) <= b:
                        return 0.0
                    best = min(best, abs(float(x) - a), abs(float(x) - b))
            return float(best)
        if self.kind == "cylinders":
            W = space.window
            best = np.inf
            word = np.asarray(x)
            for cyl in self.cylinders:
                mism = [abs(n) for n, s in cyl.items() if word[n + W] != s]
                best = min(best, 2.0 ** (-min(mism)) if mism else 0.0)
            return float(best)
        raise ValueError(f"unsupported set descriptor kind {self.kind!r}")


@dataclass
class ApproximationReport:
    """Quantitative record of how well a finite system approximates a target."""

    weak_star_errors: dict = field(default_factory=dict)
    thickening_errors: dict = field(default_factory=dict)
    map_mismatch: dict = field(default_factory=dict)
    cycle_lengths: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "weak_star_errors": self.weak_star_errors,
            "thickening_errors": {str(k): v for k, v in self.thickening_errors.items()},
            "map_mismatch": {str(k): v for k, v in self.map_mismatch.items()},
            "cycle_count": len(self.cycle_lengths),
            "cycle_lengths": self.cycle_lengths[:100],
        }


# -- quality metrics -------------------------------------------------------


def weak_star_error(embedding: PointEmbedding, tests: Sequence[TestFunction]) -> dict[str, float]:
    """Per test f: |(1/M) sum_y f(phi(y)) - integral of f|."""
    out = {}
    for t in tests:
        if t.integral is None:
            raise ValueError(f"test function {t.name!r} has no reference integral")
        emp = np.mean([t.fn(embedding.embed(y)) for y in range(embedding.size)])
        out[t.name] = float(abs(emp - t.integral))
    return out


def thickening_measure_error(embedding: PointEmbedding, C: ClosedSet, eps: float) -> float:
    """|(1/M) |{y : dist(phi(y), C) < eps}| - nu(C)|."""
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    space = embedding.space
    hits = sum(1 for y in range(embedding.size)
               if C.distance_to(embedding.embed(y), space) < eps)
    return abs(hits / embedding.size - C.measure(space))


def map_mismatch_fraction(
    embedding: PointEmbedding,
    T: FinitePermutation,
    tau: Callable[[object], object],
    eps: float,
) -> float:
    """Fraction of y with rho(phi(T(y)), tau(phi(y))) > eps."""
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    space = embedding.space
    bad = 0
    for y in range(embedding.size):
        if space.distance(embedding.embed(int(T.image[y])), tau(embedding.embed(y))) > eps:
            bad += 1
    return bad / embedding.size


# -- permutation synthesis by matching ------------------------------------


def _target_ranges(M: int, targets: np.ndarray, delta: float, circle: bool) -> list[tuple[int, int]]:
    """Per source, the grid-index range (lo, hi) inside the open delta-interval.

    Grid point g sits at g/M; admissible g satisfy |g/M - target| < delta
    (circle distance when circle=True).  hi may exceed M - 1 to encode a
    wrapped circular range; an empty range is (1, 0)-style with hi < lo.
    """
    ranges = []
    for t in targets:
        t = float(t)
        lo = int(np.floor((t - delta) * M)) + 1
        hi = int(np.ceil((t + delta) * M)) - 1
        # strict inequality: drop endpoints that land exactly at distance delta
        if lo / M <= t - delta:
            lo += 1
        if hi / M >= t + delta:
            hi -= 1
        if not circle:
            lo = max(lo, 0)
            hi = min(hi, M - 1)
        else:
            if hi - lo + 1 >= M:
                lo, hi = 0, M - 1
        ranges.append((lo, hi))
    return ranges


def interval_matcher(M: int, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Exact greedy maximum matching for non-wrapping interval neighborhoods.

    Sources are processed in order of increasing right endpoint and take
    the smallest free grid point >= their left endpoint (optimal for
    interval bipartite graphs).  Returns match[y] = grid index or -1.
    """
    nxt = np.arange(M + 1, dtype=np.int64)  # union-find "next free >= i"

    def find(i: int) -> int:
        root = i
        while nxt[root] != root:
            root = nxt[root]
        while nxt[i] != root:
            nxt[i], i = root, nxt[i]
        return root

    match = np.full(M, -1, dtype=np.int64)
    order = sorted(range(M), key=lambda y: ranges[y][1])
    for y in order:
        lo, hi = ranges[y]
        if hi < lo:
            continue
        g = find(max(lo, 0))
        if g <= hi:
            match[y] = g
            nxt[g] = g + 1
    return match


def augmenting_path_matcher(M: int, neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    """Hopcroft-Karp maximum matching for arbitrary neighborhood systems."""
    INF = np.iinfo(np.int64).max
    match_src = np.full(M, -1, dtype=np.int64)
    match_tgt = np.full(M, -1, dtype=np.int64)

    def bfs() -> bool:
        dist = np.full(M, INF, dtype=np.int64)
        queue = [y for y in range(M) if match_src[y] == -1]
        for y in queue:
            dist[y] = 0
        found = False
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for g in neighbors[y]:
                w = match_tgt[g]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[y] + 1
                    queue.append(int(w))
        self_dist[0] = dist
        return found

    self_dist = [None]

    def dfs(y: int) -> bool:
        dist = self_dist[0]
        stack = [(y, iter(neighbors[y]))]
        path = []
        while stack:
            u, it = stack[-1]
            advanced = False
            for g in it:
                w = match_tgt[g]
                if w == -1:
                    path.append((u, g))
                    for uu, gg in path:
                        match_src[uu] = gg
                        match_tgt[gg] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    path.append((u, g))
                    stack.append((int(w), iter(neighbors[int(w)])))
                    advanced = True
                    break
            if not advanced:
                dist[u] = INF
                stack.pop()
                if path:
                    path.pop()
        return False

    while bfs():
        for y in range(M):
            if match_src[y] == -1:
                dfs(y)
    return match_src


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
    minimized by exact maximum matching.  Unmatched sources are closed into
    a permutation by pairing them with the leftover grid points in index
    order (the deterministic slack bijection), so the result is always a
    valid permutation even when delta is too small for some neighborhoods.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    targets = np.asarray(target_images, dtype=np.float64)
    if targets.shape != (M,):
        raise ValueError(f"need one target per grid point, got shape {targets.shape}")
    ranges = _target_ranges(M, targets, delta, circle)
    wraps = circle and any(lo < 0 or hi >= M for lo, hi in ranges)
    if wraps:
        neighbors = [
            [g % M for g in range(lo, hi + 1)] if hi >= lo else []
            for lo, hi in ranges
        ]
        match = augmenting_path_matcher(M, neighbors)
    else:
        match = interval_matcher(M, ranges)
    mismatch_count = int(np.sum(match == -1))
    image = match.copy()
    if mismatch_count:
        used = np.zeros(M, dtype=bool)
        used[match[match >= 0]] = True
        leftovers = np.flatnonzero(~used)
        image[match == -1] = leftovers
    return FinitePermutation(image), mismatch_count


def hall_deficiency_oracle(M: int, ranges: Sequence[tuple[int, int]]) -> int:
    """Brute-force minimum number of unmatchable sources, for oracle tests.

    For non-wrapping interval neighborhoods the Hall condition only needs
    checking on unions of disjoint grid windows; def(a, b) counts sources
    whose whole neighborhood sits inside window [a, b] minus the window
    size, and a quadratic DP maximizes the total deficiency of a disjoint
    window family.  Intended for M <= a few hundred.
    """
    empty = sum(1 for lo, hi in ranges if hi < lo)
    spans = [(lo, hi) for lo, hi in ranges if hi >= lo]
    if any(lo < 0 or hi >= M for lo, hi in spans):
        raise ValueError("oracle handles non-wrapping ranges only")
    # deficiency[a][b+1] for the window [a, b]; best[i] then maximizes the
    # total over disjoint windows using grid points < i
    deficiency = np.zeros((M + 1, M + 1), dtype=np.int64)
    for a in range(M):
        for b in range(a, M):
            contained = sum(1 for lo, hi in spans if lo >= a and hi <= b)
            deficiency[a][b + 1] = max(0, contained - (b - a + 1))
    best = np.zeros(M + 1, dtype=np.int64)
    for b in range(1, M + 1):
        best[b] = best[b - 1]
        for a in range(b):
            cand = best[a] + deficiency[a][b]
            if cand > best[b]:
                best[b] = cand
    return int(best[M]) + empty


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


def split_into_n_cycles(T: FinitePermutation, n: int) -> tuple[list[int], dict[int, int]]:
    """Trim each cycle to a multiple of n and cut it into consecutive n-cycles.

    A cycle of length n_i = n*q_i + r_i loses its last r_i elements (they
    are dropped from the kept set).  Returns (kept index list, image map on
    the kept set); every orbit of the returned map has length exactly n.
    An n larger than every cycle length yields an empty kept set.
    """
    if n < 1:
        raise ValueError("target period must be >= 1")
    kept: list[int] = []
    image: dict[int, int] = {}
    for cyc in T.cycles:
        q = len(cyc) // n
        body = cyc[: q * n]
        kept.extend(body.tolist())
        for j in range(q):
            block = body[j * n : (j + 1) * n]
            for a, b in zip(block, np.roll(block, -1)):
                image[int(a)] = int(b)
    return kept, image
