"""Slow reference implementations and closed forms that pin the library's fast paths.

Nothing in the library calls these; tests import them with
`from oracles import ...`.
"""

from math import gcd

import numpy as np

from ergodia.dynamics import FinitePermutation, Observable, ergodic_means_prefix
from ergodia.integrability import default_thresholds
from ergodia.stabilization import sup_discrepancy


def permutation_from_cycles(cycles, size):
    """The permutation with the given cycles, an image entry at a time; other points are fixed."""
    image = np.arange(size, dtype=np.int64)
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            image[a] = b
    return FinitePermutation(image)


def apply_power(T, y, n):
    """T^n(y), read from the cycle of y at position pos + n mod p(y)."""
    if not 0 <= y < T.size:
        raise IndexError(f"point {y} out of range for size {T.size}")
    if n < 0:
        raise ValueError("power must be nonnegative")
    cyc, pos = T.cycle_of(y)
    return int(cyc[(pos + n) % len(cyc)])


def orbit_and_period(T, y):
    """The T-orbit of y starting at y, and its period p(y)."""
    cyc, pos = T.cycle_of(y)
    return np.roll(cyc, -pos).tolist(), len(cyc)


def cycle_decomposition(T):
    """Disjoint cycles covering Y as lists, in the canonical order of T.cycles."""
    return [c.tolist() for c in T.cycles]


def profile_by_suffix_sums(F, ks=None):
    """(tail_masses, av_abs, max_abs) of integrability_profile from three M-sized arrays.

    A sorted copy of |F|, its whole reversed cumulative sum, and that sum with
    a 0 appended, read at searchsorted(..., "right") of each threshold.
    """
    if ks is None:
        ks = default_thresholds(F)
    a = np.sort(np.abs(F.values))
    suffix = np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])
    tails = suffix[np.searchsorted(a, np.asarray(ks, dtype=np.float64), side="right")] / F.size
    return tails, float(np.sum(np.abs(F.values)) / F.size), float(np.max(np.abs(F.values), initial=0.0))


def exceedance_fraction(F, T, K, L, eps):
    """(1/M) * |{y : |A_K - A_L| >= eps}|, exact over all of Y."""
    return sup_discrepancy(F, T, [(K, L)])[0].exceedance(eps)


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
    if idx.min() < 0 or idx.max() >= F.size:
        raise IndexError("subset contains points outside 0..M-1")
    return float(np.sum(np.abs(F.values[idx])) / F.size)


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


def point_set_distance(C, x, circle):
    """ClosedSet.distance_to for one point."""
    best = np.inf
    for a, b in C.intervals:
        if circle:
            xa = float(x) % 1.0
            inside = (a <= xa <= b) if a <= b else (xa >= a or xa <= b)
            if inside:
                return 0.0
            da = min(abs(xa - a) % 1.0, 1.0 - abs(xa - a) % 1.0)
            db = min(abs(xa - b) % 1.0, 1.0 - abs(xa - b) % 1.0)
            best = min(best, da, db)
        else:
            inside = (a <= float(x) <= b) if a <= b else (float(x) >= a or float(x) <= b)
            if inside:
                return 0.0
            best = min(best, abs(float(x) - a), abs(float(x) - b))
    return float(best)


def weak_star_error_loop(embed, size, tests):
    """weak_star_error with the test functions called once per point."""
    out = {}
    for name, f, integral in tests:
        emp = np.mean([f(embed(y)) for y in range(size)])
        out[name] = float(abs(emp - integral))
    return out


def thickening_measure_error_loop(embed, size, circle, C, eps):
    """thickening_measure_error with one set distance per point."""
    hits = sum(1 for y in range(size) if point_set_distance(C, embed(y), circle) < eps)
    return abs(hits / size - C.measure())


def map_mismatch_fraction_loop(embed, size, circle, image, tau, eps):
    """map_mismatch_fraction with one distance per point."""
    bad = 0
    for y in range(size):
        if point_distance(circle, embed(int(image[y])), tau(embed(y))) > eps:
            bad += 1
    return bad / size


# -- symbolic words ------------------------------------------------------------


def word(system, index):
    """The word (y(-N), ..., y(N)) of an index of a SymbolicSystem: its base-m digits,
    least significant first; a column of indices gives one word per row."""
    return index // system.m ** np.arange(2 * system.N + 1, dtype=np.int64) % system.m


def word_index(system, w):
    """The index of the word w, inverse to word."""
    return int(sum(int(s) * system.m**i for i, s in enumerate(w)))


def rotation_order_two_mod(M, P):
    """The cycle order of y -> y + P mod M with both reductions: (r + (j*P mod M)) mod M."""
    g = gcd(P, M)
    steps = np.arange(M // g, dtype=np.int64) * P % M
    return ((np.arange(g, dtype=np.int64)[:, None] + steps) % M).ravel()


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
    out = np.empty(T.size)
    for cyc in T.cycles:
        vals = F.values[cyc]
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
    """(diffs, U, V) of sup_discrepancy and proof_terms in point order, from separate
    passes: A_K, A_L, |F| at L and at K."""
    diffs = horizon_means_loop(F, T, K)
    diffs -= horizon_means_loop(F, T, L)
    np.abs(diffs, out=diffs)
    absF = Observable.from_values(np.abs(F.values))
    absL = horizon_means_loop(absF, T, L)
    absK = horizon_means_loop(absF, T, K)
    return diffs, (1.0 / L - 1.0 / K) * absL * L, absK - absL * L / K


def band_end_loop(F, T, y, n_min, eps, scan_limit):
    """(K_star, witness, capped) of one start point, from its own prefix means."""
    window = ergodic_means_prefix(F, T, y, scan_limit).means[n_min - 1 :]
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
