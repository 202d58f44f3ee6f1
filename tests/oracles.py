"""Slow reference implementations and closed forms that pin the library's fast paths.

Nothing in the library calls these; tests import them, the hypothesis
strategies that draw their inputs and traced_peak, which measures a call's
memory, with `from oracles import ...`.
"""

import tracemalloc
from fractions import Fraction
from itertools import chain
from math import gcd

import numpy as np
from hypothesis import strategies as st

from ergodia.approximation import _target_ranges
from ergodia.dynamics import FinitePermutation, Observable, OrbitIndex, StoredOrder
from ergodia.stabilization import _discrepancy_tiles, proof_terms
from ergodia.systems import debruijn_window_permutation


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the call's traced peak in bytes).  tracemalloc counts every numpy buffer,
    so the peak is the same on each run, whatever the allocator keeps mapped."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def permutation_from_cycles(cycles, size):
    """The permutation with the given cycles, an image entry at a time; other points are fixed."""
    image = np.arange(size, dtype=np.int64)
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            image[a] = b
    return FinitePermutation(image)


def permutation_of_cycle_order(order, lengths):
    """The permutation whose cycles lie end to end in order, cycle c being lengths[c] points long."""
    return permutation_from_cycles(np.split(np.asarray(order), np.cumsum(lengths)[:-1]), len(order))


def float_values(F):
    """F.values widened to float64, as the oracles read them: an int8 or int32 store would wrap |-128|
    and |-2^31|, and sum exactly where float64 rounds."""
    return F.values.astype(np.float64)


def width_rule(values):
    """The dtype an Observable stores values in, value by value: int8, else int32, for integers that
    fit and no -0.0; else float64."""
    if any(not np.isfinite(v) or v != int(v) or (v == 0 and np.signbit(v)) for v in values):
        return np.float64
    for dtype in (np.int8, np.int32):
        if all(np.iinfo(dtype).min <= v <= np.iinfo(dtype).max for v in values):
            return dtype
    return np.float64


def numerators(values, D):
    """The integer numerators n(y) of values as rationals n(y) / D, as int64: each n(y) is the integer
    nearest values[y] * D, widened to float64 first (an int8 times D would wrap).

    A value is accepted only when values[y] * D lies within 64 * 2**-52 * D * max(1, |values[y]|)
    of an integer, the float64 rounding a closed-form rational can carry; any other value raises
    ValueError.
    """
    vals = np.asarray(values, dtype=np.float64)
    scaled = vals * D
    nums = np.rint(scaled)
    tol = np.maximum(1.0, np.abs(vals)) * (64 * 2.0**-52 * D)
    bad = ~((np.abs(scaled - nums) <= tol) & (np.abs(nums) < 2.0**63))
    if bad.any():
        raise ValueError(f"value {float(vals[np.argmax(bad)])} is not a multiple of 1/{D}")
    return nums.astype(np.int64)


def exact_value(F, y, D=1):
    """F(y) as a Fraction: its numerator at denominator D over D."""
    return Fraction(int(numerators(F.values[[y]], D)[0]), D)


def exact_prefix_means(F, T, y, n, D=1):
    """A_1..A_n(F, T, y) as Fractions: the numerators at denominator D of F's values along the
    T-orbit of y, read from T.image, summed as Python ints, so no sum overflows."""
    nums, total, means = numerators(F.values, D).tolist(), 0, []
    for k, z in enumerate(trajectory(T, y, n).tolist(), start=1):
        total += nums[z]
        means.append(Fraction(total, D * k))
    return means


def mean_rounding_bound(F, n):
    """The most |A_k - float(A_k exact)| the float path may show, for k = 1..n: 0 where every value
    of F is an integer and no prefix sum reaches 2^53, as it then sums exactly and rounds once; else
    the recursive-summation bound k * 2^-52 * max|F|."""
    values = float_values(F)
    top = float(np.abs(values).max())
    if (values == np.rint(values)).all() and top * n < 2**53:
        return np.zeros(n)
    return np.arange(1, n + 1) * 2.0**-52 * top


def inverse_order(index):
    """slot[y] for every point y, the position of y in the orbit order: index.order[slot[y]] == y.

    One scatter of every slot into point order; the library keeps no such M-sized inverse.
    """
    slot = np.full(index.order.size, -1, dtype=np.int64)
    slot[index.order] = np.arange(index.order.size, dtype=np.int64)
    return slot


def index_field(index, field):
    """The orbit index's array named field, where "slot" is inverse_order(index)."""
    return inverse_order(index) if field == "slot" else getattr(index, field)


def orbit_and_period(T, y):
    """The T-orbit of y starting at y, and its period p(y): T.image walked from y until it returns."""
    if not 0 <= y < T.size:
        raise IndexError(f"point {y} out of range for size {T.size}")
    image, orbit = T.image, [y]
    z = int(image[y])
    while z != y:
        orbit.append(z)
        z = int(image[z])
    return orbit, len(orbit)


def trajectory(T, y, n):
    """[y, T(y), ..., T^{n-1}(y)]: the orbit of y, walked on T.image, repeated to n points."""
    orbit, p = orbit_and_period(T, y)
    return np.asarray(orbit, dtype=np.int64)[np.arange(n) % p]


def apply_power(T, y, n):
    """T^n(y), read from the orbit of y at position n mod p(y)."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    orbit, p = orbit_and_period(T, y)
    return orbit[n % p]


def cycle_decomposition(T):
    """Disjoint cycles covering Y as lists, in the canonical order of T.cycles."""
    return [c.tolist() for c in T.cycles]


def doubling_grid(F):
    """The default thresholds of integrability_profile: 1, 2, 4, ... up to 2*max|F|."""
    top, ks = max(2.0 * float(np.max(np.abs(float_values(F)), initial=0.0)), 1.0), [1.0]
    while ks[-1] < top:
        ks.append(ks[-1] * 2.0)
    return np.asarray(ks)


def profile_by_suffix_sums(F, ks=None):
    """(tail_masses, av_abs, max_abs) of integrability_profile from three M-sized arrays.

    A sorted copy of |F|, its whole reversed cumulative sum, and that sum with
    a 0 appended, read at searchsorted(..., "right") of each threshold.
    """
    if ks is None:
        ks = doubling_grid(F)
    a = np.sort(np.abs(float_values(F)))
    suffix = np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])
    tails = suffix[np.searchsorted(a, np.asarray(ks, dtype=np.float64), side="right")] / F.values.size
    return tails, float(np.sum(np.abs(float_values(F))) / F.values.size), float(np.max(a, initial=0.0))


def exceedance_fraction(F, T, K, L, eps):
    """(1/M) * |{y : |A_K - A_L| >= eps}|, exact over all of Y: A_K and A_L by horizon_means_loop,
    in point order."""
    return float(np.mean(np.abs(horizon_means_loop(F, T, K) - horizon_means_loop(F, T, L)) >= eps))


def orbit_arrays(tiles, size, count):
    """The blocks of a tile generator as count arrays in orbit order: block k of the tile
    (at, rows, p, cols) fills slots at + p*i + j of array k, for i < rows and j in cols, broadcast
    where it is one column.  Asserts that the tiles cover every slot once, with count blocks each."""
    out, seen = [np.empty(size) for _ in range(count)], np.zeros(size, dtype=np.int64)
    for (at, rows, p, cols), blocks in tiles:
        assert len(blocks) == count
        seen[at : at + rows * p].reshape(rows, p)[:, cols] += 1
        for a, block in zip(out, blocks):
            a[at : at + rows * p].reshape(rows, p)[:, cols] = block
    assert not count or (seen == 1).all()  # no pairs, no tiles
    return out


def discrepancy_arrays(F, T, pairs):
    """|A_K - A_L| per (K, L) in pairs, in orbit order: entry i belongs to the point order[i]."""
    return orbit_arrays(_discrepancy_tiles(F, T, pairs), T.size, len(pairs))


def proof_arrays(F, T, K, L):
    """proof_terms' U and V in orbit order, as discrepancy_arrays."""
    return orbit_arrays(proof_terms(F, T, K, L), T.size, 2)


@st.composite
def permutation_images(draw):
    """An image of every cycle shape: a random permutation, the identity, one M-cycle, or disjoint
    swaps among fixed points (many 1- and 2-cycles)."""
    M = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "identity", "one-cycle", "swaps"]))
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(M)
    image = np.arange(M)
    if kind == "random":
        image = points
    elif kind == "one-cycle":
        image[points] = np.roll(points, -1)
    elif kind == "swaps":
        k = draw(st.integers(0, M // 2))
        image[points[:k]], image[points[k : 2 * k]] = points[k : 2 * k], points[:k]
    return image


def walk_index(image):
    """The orbit index of image by the generic cycle walk over it as a Python list: each unseen
    point, in ascending order, followed around its cycle, and the cycles stably sorted by
    descending length."""
    size = len(image)
    image = np.asarray(image, dtype=np.int64).tolist()
    seen = [False] * size
    cycles: list[list[int]] = []
    for start in range(size):
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
    order = np.fromiter(chain.from_iterable(cycles), dtype=np.int64, count=size)
    lengths = np.fromiter(map(len, cycles), dtype=np.int64, count=len(cycles))
    starts = np.cumsum(lengths) - lengths
    # an increasing order is the identity order, which the base class reads with no array
    increasing = (order[1:] > order[:-1]).all()
    return OrbitIndex(starts, lengths) if increasing else StoredOrder(starts, lengths, order)


def make_transitive_walk(T):
    """make_transitive from walk_index: each point of T's canonical order sent to the next, the last
    to the first, and B the points where that differs from T.  Reads only T.image."""
    order = walk_index(T.image).order
    image = np.empty(T.size, dtype=np.int64)
    image[order] = np.roll(order, -1)
    C = FinitePermutation(image)
    return C, np.flatnonzero(C.image != T.image).tolist()


def split_into_n_cycles(T, n):
    """Trim each cycle to a multiple of n and cut it into consecutive n-cycles.

    A cycle of length n_i = n*q_i + r_i loses its last r_i elements (they
    are dropped from the kept set).  Returns (kept index list, image map on
    the kept set); every orbit of the returned map has length exactly n.
    An n larger than every cycle length yields an empty kept set.
    """
    if n < 1:
        raise ValueError("target period must be >= 1")
    kept, image = [], {}
    for cyc in T.cycles:
        blocks = cyc[: len(cyc) // n * n].reshape(-1, n)
        kept.extend(blocks.ravel().tolist())
        image.update(zip(blocks.ravel().tolist(), np.roll(blocks, -1, axis=1).ravel().tolist()))
    return kept, image


def small_set_mass(F, A):
    """(1/M) * sum_{y in A} |F(y)| for a subset A of Y."""
    idx = np.asarray(list(A), dtype=np.int64)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= F.values.size:
        raise IndexError("subset contains points outside 0..M-1")
    return float(np.sum(np.abs(float_values(F)[idx])) / F.values.size)


def paper_observable_in_place(name, M, **params):
    """The paper observable as an array Observable, written in place by numpy slicing at its stored
    width, as systems.paper_observable built every one before it gave them as vectorized rules."""
    if name == "ex01":
        vals = np.empty(M, dtype=width_rule([M, -M]))
        vals[0::2] = M
        vals[1::2] = -M
    elif name == "delta":
        vals = np.zeros(M, dtype=width_rule([M]))
        vals[0] = M
    elif name == "ex03":
        k = int(params["K"])
        R = (M // k) // 2 * 2
        vals = np.zeros(M, dtype=np.int8)
        vals[: R * k].reshape(-1, 2 * k)[:, :k] = 1
    elif name in ("linear", "tent"):
        vals = np.arange(M, dtype=np.float64)
        vals /= M
        if name == "tent":
            split = int(np.searchsorted(vals, 0.9))
            lo, hi = vals[:split], vals[split:]
            lo *= 10.0
            lo /= 9.0
            np.subtract(1.0, hi, out=hi)
            hi *= 10.0
    elif name == "chi0":
        N, m = params["N"], params.get("m", 2)
        vals = np.zeros(M, dtype=np.int8)
        vals.reshape(-1, m, m**N)[:, 1, :] = 1
    elif name == "constant":
        c = float(params["value"])
        vals = np.full(M, c, dtype=width_rule([c]))
    else:
        raise ValueError(name)
    return Observable(vals, name)


def tent_function(x):
    """The tent observable at one point of the circle: 10x/9 on [0, 0.9), 10(1-x) on [0.9, 1)."""
    x = x % 1.0
    return 10.0 * x / 9.0 if x < 0.9 else 10.0 * (1.0 - x)


def reference_psi(a, t):
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


def target_ranges_loop(M, targets, delta, circle):
    """_target_ranges one target at a time in Python floats and ints."""
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


@st.composite
def synthesis_families(draw, circle=st.booleans()):
    """(M, targets, delta, circle) as synthesize_permutation hands them to arc_matcher: M targets,
    random, clustered, on the half-grid g/(2M) moved by 0 or +-1e-12, strays in [-1.5, 2.5), or far
    strays with |target| * M up to 2^40 (on the interval, hi - lo far below -2^31); delta under half a
    grid step (empty and one-point arcs), a few steps, or with 2 delta M near M (whole-circle arcs
    among arcs that miss a point or two)."""
    M = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "clustered", "half-grid", "stray", "far-stray"]))
    width = draw(st.sampled_from(["under-half-step", "few-steps", "near-whole"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        targets = rng.random(M)
    elif kind == "clustered":
        targets = rng.random(3)[rng.integers(0, 3, M)] + rng.normal(0.0, 1.0 / M, M)
    elif kind == "half-grid":
        targets = rng.integers(0, 2 * M, M) / (2 * M) + rng.choice([-1e-12, 0.0, 1e-12], M)
    elif kind == "stray":
        targets = 4.0 * rng.random(M) - 1.5
    else:
        targets = rng.choice([-1.0, 1.0], M) * rng.random(M) * 2.0 ** rng.integers(0, 41, M) / M
    u = 1.0 - rng.random()  # in (0, 1]
    delta = {"under-half-step": u / (2 * M) * (1 - 1e-9), "few-steps": 4 * u / M,
             "near-whole": (M - 2 + 4 * u) / (2 * M)}[width]
    return M, targets, delta, draw(circle)


def arc_matcher_lexsort(M: int, targets: np.ndarray, delta: float, *, circle: bool) -> np.ndarray:
    """arc_matcher as the library had it before its arcs went to int32: the same cut and greedy (see
    arc_matcher's docstring) on int64 arrays of every source at once, ordered by lexsort((a, a + span)),
    with an M-sized arange for the cut and numpy's % for each reduction mod M."""
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
    src, a, b = src[order], a[order], span[order]
    k = np.arange(src.size)
    a -= k
    b += a
    g = np.maximum.accumulate(a)
    if (g > b).any():
        # compose the clamps: after the round of step s, [a_i, b_i] clamps z over sources i - 2s + 1 .. i
        g, s = a, 1
        while s < src.size:
            a[s:], b[s:] = np.clip(a[:-s], a[s:], b[s:]), np.clip(b[:-s], a[s:], b[s:])
            s *= 2
    g += k
    took = np.append(True, g[1:] > g[:-1]) & (g < g[0] + M)  # w rises; the first source takes a_0
    match[src] = np.where(took, (g + cut) % M, -1)
    return match


def arc_matcher_by_runs(M: int, targets: np.ndarray, delta: float, *, circle: bool) -> np.ndarray:
    """arc_matcher with no clamp scan: the same cut, sort and maximum.accumulate, and each run (from
    one g_i == a_i to the next) that holds a source the accumulate overshot redone one source at a
    time in Python."""
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


def augmenting_path_matcher(M, neighbors):
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


def hall_deficiency_oracle(M, ranges):
    """Brute-force minimum number of unmatchable sources.

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


def block_density(word, mmax):
    """Densities of the symbol 1 over the prefixes y(0..m-1), m = 1..mmax.

    Requires mmax <= N (the word only carries positions up to N).  In the
    de Bruijn system this equals A_m(chi0, T, y) for m < N.
    """
    word = np.asarray(word)
    L = word.size
    N = (L - 1) // 2
    if mmax > N:
        raise ValueError("prefix length exceeds the half-window")
    ones = 0
    out = []
    for m in range(1, mmax + 1):
        ones += int(word[N + m - 1] == 1)  # position m-1 is index N+m-1
        out.append(ones / m)
    return out


def three_point_average(f, x):
    """(1/3)[f(x - 1/3) + f(x) + f(x + 1/3)] with circle wraparound.

    The orbit closure of a near-2/3 rotation consists of three points a
    third apart, so this is the limiting ergodic mean of f started at x.
    """
    return (f((x - 1.0 / 3.0) % 1.0) + f(x % 1.0) + f((x + 1.0 / 3.0) % 1.0)) / 3.0


# -- approximation metrics, one point at a time ------------------------------
# These are the per-point bodies the array metrics in ergodia.approximation
# replaced: embed(y) is the point of grid index y, tests are (name, f, integral)
# with f on one point, and tau maps one point.  circle picks the circle
# metric over the interval's.


def point_distance(circle, a, b):
    """The circle or interval distance of two points."""
    d = abs(float(a) - float(b))
    if circle:
        d %= 1.0
        return min(d, 1.0 - d)
    return d


def point_interval_distance(interval, x, circle):
    """The distance from one point to the closed interval [a, b], which wraps through 0 when a > b."""
    a, b = interval
    if circle:
        xa = float(x) % 1.0
        inside = (a <= xa <= b) if a <= b else (xa >= a or xa <= b)
        if inside:
            return 0.0
        da = min(abs(xa - a) % 1.0, 1.0 - abs(xa - a) % 1.0)
        db = min(abs(xa - b) % 1.0, 1.0 - abs(xa - b) % 1.0)
        return float(min(da, db))
    inside = (a <= float(x) <= b) if a <= b else (float(x) >= a or float(x) <= b)
    if inside:
        return 0.0
    return float(min(abs(float(x) - a), abs(float(x) - b)))


def weak_star_error_loop(embed, size, tests):
    """weak_star_error with the test functions called once per point."""
    out = {}
    for name, f, integral in tests:
        emp = np.mean([f(embed(y)) for y in range(size)])
        out[name] = float(abs(emp - integral))
    return out


def thickening_measure_error_loop(embed, size, circle, interval, eps):
    """thickening_measure_error with one interval distance per point; the measure of a wrapped
    interval is that of [a, 1] with [0, b]."""
    a, b = interval
    hits = sum(1 for y in range(size) if point_interval_distance(interval, embed(y), circle) < eps)
    return abs(hits / size - (b - a if a <= b else min(b + (1.0 - a), 1.0)))


def map_mismatch_fraction_loop(embed, size, circle, image, tau, eps):
    """map_mismatch_fraction with one distance per point."""
    bad = 0
    for y in range(size):
        if point_distance(circle, embed(int(image[y])), tau(embed(y))) > eps:
            bad += 1
    return bad / size


def remainder_mod1(v):
    """v % 1.0: numpy's float remainder on every value, the form _mod1 skips where it is exact."""
    return v % 1.0


def circle_distance_mod(a, b):
    """The circle distance with a float remainder on every |a - b|: d = |a - b| % 1.0, min(d, 1 - d)."""
    d = np.abs(np.subtract(a, b, dtype=np.float64)) % 1.0
    return np.minimum(d, 1.0 - d)


def target_images_mod(spec, x):
    """The target images with a float remainder on every point: x, (x + t) % 1.0 or (2x) % 1.0."""
    if spec["name"] == "identity":
        return x
    return (x + float(spec["t"])) % 1.0 if spec["name"] == "rotation" else (2.0 * x) % 1.0


# -- symbolic words ------------------------------------------------------------


def word(m, N, index):
    """The word (y(-N), ..., y(N)) over m symbols of an index of build_bernoulli(m, N): its base-m
    digits, least significant first; a column of indices gives one word per row."""
    return index // m ** np.arange(2 * N + 1, dtype=np.int64) % m


def word_index(m, w):
    """The index of the word w over m symbols, inverse to word."""
    return int(sum(int(s) * m**i for i, s in enumerate(w)))


def rotation_order_two_mod(M, P):
    """The cycle order of y -> y + P mod M with both reductions: (r + (j*P mod M)) mod M."""
    g = gcd(P, M)
    steps = np.arange(M // g, dtype=np.int64) * P % M
    return ((np.arange(g, dtype=np.int64)[:, None] + steps) % M).ravel()


def rotation_order_chunk_divmod(M, P, lo, hi):
    """Slots lo .. hi - 1 of the rotation order by divmod and int64 %: slot r*n + j, n = M / gcd(P, M),
    holds r + (j*P mod M)."""
    r, j = np.divmod(np.arange(lo, hi), M // gcd(P, M))
    return r + j * P % M


# -- de Bruijn sequences and necklaces ---------------------------------------


def debruijn_lyndon(m, n):
    """The (m, n)-de Bruijn sequence by the recursive Lyndon-word generator.

    The generator of Fredricksen, Kessler and Maiorana as written by Ruskey:
    a[1..n] runs over the necklaces in lex order, and each one's aperiodic
    prefix a[1..p] is emitted when p divides n.
    """
    seq = []
    a = [0] * (n + 1)

    def db(t, p):
        if t > n:
            if n % p == 0:
                seq.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, m):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return np.asarray(seq, dtype=np.int64)


def window_indices_roll(s, n, m):
    """Little-endian index of every cyclic length-n window, one np.roll per symbol."""
    idx = np.zeros(s.size, dtype=np.int64)
    for j in range(n):
        idx += np.roll(s, -j) * m**j
    return idx


def debruijn_sequence(m, n):
    """The library's (m, n)-de Bruijn sequence as int64, read off its window-successor order: the
    window at position i of the sequence fills slot i, and its lowest digit is symbol i."""
    return debruijn_window_permutation(m, n).orbit_index.order % m


def window_successor(s, m, n):
    """The window-successor map of a supplied de Bruijn sequence s, a single m^n-cycle: each window
    index in sequence order maps to the next, the last to the first."""
    idx = window_indices_roll(np.asarray(s), n, m)
    return permutation_from_cycles([idx], idx.size)


def necklaces_brute(m, L, big_endian):
    """(heads, periods) of the length-L necklaces, one word at a time.

    Each index is decoded to its digit tuple in the given reading; it is a
    head when no rotation of the tuple encodes a smaller index, and its
    period is the smallest shift that maps the tuple to itself.
    """
    def encode(digits):
        order = reversed(digits) if big_endian else digits
        return sum(d * m**i for i, d in enumerate(order))

    heads, periods = [], []
    for y in range(m**L):
        digits = [y // m**i % m for i in range(L)]
        if big_endian:
            digits.reverse()
        rotations = [digits[j:] + digits[:j] for j in range(L)]
        if min(encode(r) for r in rotations) == y:
            heads.append(y)
            periods.append(next(j for j in range(1, L + 1) if rotations[j % L] == digits))
    return np.asarray(heads, dtype=np.int64), np.asarray(periods, dtype=np.int64)


def prefer_largest_debruijn(m, n):
    """A de Bruijn sequence that is not the lex-least one: the greedy prefer-largest rule.

    Start from n zeros and append the largest symbol whose window is new;
    the first m^n symbols are a de Bruijn sequence (Martin 1934).
    """
    seq = [0] * n
    seen = {tuple(seq)}
    while True:
        for c in range(m - 1, -1, -1):
            w = tuple(seq[len(seq) - n + 1 :]) + (c,)
            if w not in seen:
                seen.add(w)
                seq.append(c)
                break
        else:
            return np.asarray(seq[: m**n], dtype=np.int64)


# -- horizon means, discrepancies and band segments, one cycle or point at a time


def horizon_means_loop(F, T, n):
    """A_n at every point, one cycle at a time, each with its own gather, sum and cumsum."""
    out, values = np.empty(T.size), float_values(F)
    for cyc in T.cycles:
        vals = values[cyc]
        p = len(cyc)
        q, r = divmod(n, p)
        total = q * float(np.sum(vals))
        window = np.zeros(p)
        if r:
            pref = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals[:r]]))])
            window = pref[r : r + p] - pref[:p]
        out[cyc] = (total + window) / n
    return out


def sup_discrepancy_two_pass(F, T, K, L):
    """(diffs, U, V) of sup_discrepancy and proof_terms, from separate point-order passes
    (A_K, A_L, |F| at L and at K), each then gathered into orbit order as theirs are."""
    diffs = horizon_means_loop(F, T, K)
    diffs -= horizon_means_loop(F, T, L)
    np.abs(diffs, out=diffs)
    absF = Observable(np.abs(float_values(F)))
    absL = horizon_means_loop(absF, T, L)
    absK = horizon_means_loop(absF, T, K)
    order = T.orbit_index.order
    return diffs[order], ((1.0 / L - 1.0 / K) * absL * L)[order], (absK - absL * L / K)[order]


def carried_sums_loop(along, start, p, pos, lo, n, carry=None):
    """dynamics._carried_sums entry by entry: row k's run along[start[k] : start[k] + p[k]] read
    cyclically from pos[k] by %, its columns before 0 left at 0.0, and from the first column a
    float64 running sum begun at the carry (when lo >= 0) and added to one value at a time."""
    start = np.atleast_1d(start)
    p, pos = np.broadcast_to(p, start.shape), np.broadcast_to(pos, start.shape)
    sums = np.zeros((start.size, n))
    for k in range(start.size):
        acc = None
        for i in range(max(0, -lo), n):
            x = np.float64(along[start[k] + (pos[k] + lo + i) % p[k]])
            if acc is None:
                acc = x + carry[k] if carry is not None and lo >= 0 else x
            else:
                acc = acc + x
            sums[k, i] = acc
    return sums


def prefix_means_gather(F, T, y, n):
    """A_1..A_n from y: F gathered by point along trajectory(T, y, n), then one whole cumsum."""
    return np.cumsum(float_values(F)[trajectory(T, y, n)]) / np.arange(1, n + 1, dtype=np.float64)


def band_end_loop(F, T, y, n_min, eps, scan_limit):
    """(K_star, witness, capped) of one start point, from its own prefix means."""
    window = prefix_means_gather(F, T, y, scan_limit)[n_min - 1 :]
    hi = np.maximum.accumulate(window)
    lo = np.minimum.accumulate(window)
    bad = (hi - lo) > eps
    idx = int(np.argmax(bad))
    if not bad[idx]:
        return scan_limit, float((hi[-1] + lo[-1]) / 2.0), True
    # idx is the first violating offset, never 0: a single mean has band width 0
    return n_min + idx - 1, float((hi[idx - 1] + lo[idx - 1]) / 2.0), False


def common_segment_loop(F, T, n_min, eps, eta, scan_limit, sample):
    """(K_star, witness, capped, excluded_fraction) of the common segment, point by point."""
    ends = [band_end_loop(F, T, y, n_min, eps, scan_limit) for y in sample]
    ks = np.asarray([k for k, _, _ in ends])
    needed = int(np.ceil((1.0 - eta) * len(sample)))
    k_star = int(np.sort(ks)[::-1][needed - 1])
    included = ks >= k_star
    witness = float(np.median(np.asarray([w for _, w, _ in ends])[included]))
    return k_star, witness, k_star >= scan_limit, float(np.mean(~included))
