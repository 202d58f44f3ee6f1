"""Ready-made model systems and their observables.

Drift systems (+1 mod M on a uniform grid), circle rotations with an
automatic coprime step search, and Bernoulli-shift approximations on
truncated symbolic spaces, both the naive index rotation (all orbits short)
and the de Bruijn window-successor permutation (a single M-cycle).

Word indexing convention: the word (y(-N), ..., y(N)) maps to the integer
sum_i y(-N + i) * m^i, i.e. base-m little-endian with y(-N) least
significant; word and word_index in tests/oracles.py decode and encode it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

import numpy as np

from .dynamics import CHUNK_POINTS, FinitePermutation, Observable

__all__ = [
    "RotationSystem",
    "SymbolicSystem",
    "build_drift_system",
    "build_rotation",
    "debruijn_sequence",
    "debruijn_window_permutation",
    "build_bernoulli",
    "paper_observable",
    "PUBLISHED_ROTATIONS",
]


# -- drift and rotation ----------------------------------------------------


def build_drift_system(M: int) -> FinitePermutation:
    """T = +1 mod M; on the grid y/M of the unit interval it approximates the identity map."""
    if M < 2:
        raise ValueError("need M >= 2")
    return FinitePermutation.shift(M)


@dataclass(frozen=True)
class RotationSystem:
    """T(y) = y + P mod M on the grid, approximating the t-shift of the circle."""

    M: int
    P: int
    t: float
    defect: float

    @cached_property
    def permutation(self) -> FinitePermutation:
        """gcd(P, M) cycles; the r-th visits r, r + P, r + 2P, ... (mod M)."""
        g = gcd(self.P, self.M)
        # each step is a multiple of g, at most M - g, and r < g: r + step < M
        steps = np.arange(self.M // g, dtype=np.int64) * self.P % self.M
        order = np.arange(g, dtype=np.int64)[:, None] + steps
        return FinitePermutation.from_cycle_order(order.ravel(), np.full(g, self.M // g))


# (M, t) pairs published with the experiments this library reproduces.  The
# published steps are kept verbatim: they are close to t but are NOT the
# nearest coprime numerators (the 33334 pair is not even coprime), so a
# principled search cannot rediscover them.
PUBLISHED_ROTATIONS: dict[tuple[int, float], int] = {
    (33334, float(Fraction(2, 3))): 22225,
    (25001, float(1.0 / np.sqrt(2.0))): 17677,
}


def build_rotation(M: int, t: float) -> RotationSystem:
    """Rotation step P closest to t*M, coprime with M.

    Published experiment pairs take precedence over the search so that the
    reference figures reproduce exactly; see PUBLISHED_ROTATIONS.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    if not 0.0 <= t < 1.0:
        raise ValueError("target shift must lie in [0, 1)")
    best = next(((Pp, abs(Pp / M - t)) for (Mp, tp), Pp in PUBLISHED_ROTATIONS.items()
                 if M == Mp and abs(t - tp) < 1e-12), None)
    p0 = round(t * M)
    for k in range(0 if best else M):  # no search for a published pair
        for P in (p0 - k, p0 + k) if k else (p0,):
            if not 1 <= P <= M - 1 or gcd(P, M) != 1:
                continue
            d = abs(P / M - t)
            if best is None or d < best[1]:
                best = (P, d)
        if best is not None:
            # candidates farther out can only have larger defect
            break
    if best is None:
        raise ValueError(f"no admissible step for M={M}")
    rot = RotationSystem(M=M, P=best[0], t=t, defect=best[1])
    rot.permutation  # the orbit index is built here, in the build, not on first use
    return rot


# -- de Bruijn sequences and Bernoulli shifts ------------------------------


def debruijn_sequence(m: int, n: int) -> np.ndarray:
    """The lex-least (m, n)-de Bruijn sequence, of length m^n; it starts at window 0.

    Fredricksen-Kessler-Maiorana: the aperiodic prefixes of the length-n
    necklaces, concatenated in lex order.  The heads of _necklaces, read as
    big-endian words, are those necklaces in lex order; a masked (heads, n)
    int32 digit matrix keeps each head's first period digits.
    """
    if m < 2 or n < 1:
        raise ValueError("need alphabet size >= 2 and window length >= 1")
    if m ** n > 1 << 26:
        raise ValueError("sequence length exceeds the memory budget")
    heads, period = _necklaces(m, n)
    digits = heads.astype(np.int32)[:, None] // m ** np.arange(n - 1, -1, -1, dtype=np.int32) % m
    return digits[np.arange(n) < period[:, None]].astype(np.int64)


def _window_indices(s: np.ndarray, n: int, m: int) -> np.ndarray:
    """Little-endian base-m index of every cyclic length-n window of s.

    CHUNK_POINTS windows at a time, so each pass stays in cache: from the
    chunk's symbols and the n - 1 after it (wrapping round s), doubling
    builds the windows of length l = 1, 2, 4, ... as w_2l = w_l[:-l] +
    m^l * w_l[l:], and joins, lowest digits first, the lengths n's bits pick.
    """
    s = np.asarray(s, dtype=np.int64)
    idx = np.zeros(s.size, dtype=np.int64)
    for lo in range(0, s.size, CHUNK_POINTS):
        hi = min(lo + CHUNK_POINTS, s.size)
        w = np.concatenate([s[lo : hi + n - 1], s[: max(0, hi + n - 1 - s.size)]])
        offset, l = 0, 1
        while True:
            if n & l:
                idx[lo:hi] += w[offset : offset + hi - lo] * m**offset
                offset += l
            if offset == n:
                break
            w, l = w[:-l] + m**l * w[l:], 2 * l
    return idx


def debruijn_window_permutation(m: int, n: int, s: np.ndarray | None = None) -> FinitePermutation:
    """The window-successor map on all length-n words, a single m^n-cycle.

    Word at window position i maps to the word at position i+1 of the de
    Bruijn sequence.  The window indices in sequence order are the cycle,
    rotated to start at window 0 (where debruijn_sequence already starts).
    """
    # the library's own sequence is freed before the orbit index is built
    idx = _window_indices(debruijn_sequence(m, n) if s is None else s, n, m)
    start = int(np.argmin(idx))
    if start:  # the library's own sequence starts at window 0
        idx = np.roll(idx, -start)
    return FinitePermutation.from_cycle_order(idx, [idx.size])


@dataclass(frozen=True)
class SymbolicSystem:
    """A finite approximation of the Bernoulli shift on words over positions -N..N."""

    m: int
    N: int
    mode: str  # "naive" | "debruijn"
    permutation: FinitePermutation

    @property
    def M(self) -> int:
        return self.m ** (2 * self.N + 1)


def _rotate(words: np.ndarray, j: int, m: int, L: int) -> np.ndarray:
    """Each length-L word rotated left by j symbols: y'(i) = y(i + j mod L).

    On little-endian indices this is index // m^j + (index % m^j) * m^(L-j);
    j = 1 is one step of the naive shift.
    """
    # the remainder by multiply-subtract: numpy's % by a scalar is slower than its //
    q = words // m**j
    return q + (words - q * m**j) * m ** (L - j)


def _necklaces(m: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Heads (ascending) and periods of the necklaces of length-L words over m symbols.

    A head is the smallest index among a word's rotations: the same set
    whether indices are read little- or big-endian, as a left rotation in
    one reading is a right rotation in the other.  L - 1 vectorized passes
    keep the indices no larger than their j-th rotation, on CHUNK_POINTS
    candidates at a time so they stay in cache; a head's period is the
    smallest divisor d of L whose rotation maps it to itself.  The passes
    run in int32, exact under the 2^26 word budget of the callers.
    They start from the zero word, the words with top digit 0 and bottom digit
    not 0, and those with no 0 digit (a quarter of all for m = 2): read
    big-endian, the least rotation of a word holding a 0 but not all 0s starts
    with its longest run of 0s, and cannot end in 0 (moving that 0 to the
    front gives a smaller rotation).
    """
    nonzero = digits = np.arange(1, m, dtype=np.int32)
    for _ in range(L - 1):
        nonzero = (nonzero[:, None] * m + digits).ravel()
    bottom = (np.arange(m ** (L - 1) // m, dtype=np.int32)[:, None] * m + digits).ravel()
    candidates = np.concatenate([np.zeros(1, dtype=np.int32), bottom, nonzero])
    kept = []
    for lo in range(0, candidates.size, CHUNK_POINTS):
        heads = candidates[lo : lo + CHUNK_POINTS]
        for j in range(1, L):
            heads = heads[heads <= _rotate(heads, j, m, L)]
        kept.append(heads)
    heads = np.concatenate(kept)
    period = np.full(heads.size, L, dtype=np.int64)
    for d in sorted((d for d in range(1, L) if L % d == 0), reverse=True):
        period[_rotate(heads, d, m, L) == heads] = d
    return heads.astype(np.int64), period


def _necklace_cycles(m: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Cycles of the naive shift on length-L words, in canonical order.

    The cycle through a word is its necklace, the set of its rotations,
    headed by its minimum.  Each length class is a (heads, p) block whose
    column j is the heads rotated by j.
    """
    heads, period = _necklaces(m, L)
    order = []
    for p in sorted(set(period.tolist()), reverse=True):
        h = heads[period == p]
        # a column at a time: whole-block rotation temporaries raise peak RSS
        block = np.empty((h.size, p), dtype=np.int64)
        for j in range(p):
            block[:, j] = _rotate(h, j, m, L)
        order.append(block.ravel())
    return np.concatenate(order), np.sort(period)[::-1].copy()


def build_bernoulli(m: int, N: int, mode: str = "debruijn") -> SymbolicSystem:
    """The naive cyclic index shift or the de Bruijn window successor.

    Naive: S(y)(n) = y(n+1 mod 2N+1), so every orbit length divides 2N+1.
    De Bruijn: a single M-cycle agreeing with the true shift on all words
    except the few whose window crosses the seam of the cyclic sequence.
    """
    if m < 2 or N < 0:
        raise ValueError("need alphabet size m >= 2 and half-window N >= 0")
    L = 2 * N + 1
    if m**L > 1 << 26:
        raise ValueError("word space exceeds the memory budget")
    if mode == "naive":
        T = FinitePermutation.from_cycle_order(*_necklace_cycles(m, L))
        return SymbolicSystem(m=m, N=N, mode=mode, permutation=T)
    if mode == "debruijn":
        return SymbolicSystem(m=m, N=N, mode=mode, permutation=debruijn_window_permutation(m, L))
    raise ValueError(f"unknown mode {mode!r}")


# -- observables -----------------------------------------------------------


def _int_param(value, key: str, minimum: int) -> int:
    """value as an int >= minimum; integral floats such as 10.0 pass, booleans, strings and inf do not."""
    try:
        ok = not isinstance(value, bool) and value == int(value) and value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _float_param(value, key: str) -> float:
    """value as a float; booleans and strings do not pass, though float() reads True and "0.5"."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def paper_observable(name: str, M: int, **params) -> Observable:
    """The named closed-form observable on {0, ..., M-1}.

    Names: "ex01" (+-M by parity), "delta" (spike of height M at 0),
    "ex03" (alternating 0/1 blocks of length K, needs K), "linear" (y/M),
    "tent" (at x = y/M: 10x/9 on [0, 0.9), 10(1 - x) on [0.9, 1)), "chi0"
    (symbolic: 1 iff the symbol at position 0 is 1, needs N), "constant"
    (needs value).

    The values are written with numpy, in place, so the only M-sized array
    is the values array itself; each value is the same IEEE expression as
    the closed form evaluated at one point.  For exact values linear
    declares Observable.denominator M and tent 9M; the others keep 1.
    """
    if name == "ex01":
        vals = np.empty(M)
        vals[0::2] = M
        vals[1::2] = -M
        return Observable(M, vals, name="ex01")
    if name == "delta":
        vals = np.zeros(M)
        vals[0] = M
        return Observable(M, vals, name="delta")
    if name == "ex03":
        K = params.get("K")
        if K is None:
            raise ValueError("ex03 needs the block length K")
        k = _int_param(K, "K", 1)
        # R is floor(M/K) rounded down to even; blocks at m >= R are zero,
        # and below R each pair of blocks is K ones then K zeros
        R = (M // k) // 2 * 2
        vals = np.zeros(M)
        vals[: R * k].reshape(-1, 2 * k)[:, :k] = 1.0
        return Observable(M, vals, name=f"ex03(K={k})")
    if name == "linear":
        vals = np.arange(M, dtype=np.float64)
        vals /= M
        return Observable(M, vals, name="linear", denominator=M)
    if name == "tent":
        vals = np.arange(M, dtype=np.float64)
        vals /= M
        split = int(np.searchsorted(vals, 0.9))
        lo, hi = vals[:split], vals[split:]
        lo *= 10.0
        lo /= 9.0
        np.subtract(1.0, hi, out=hi)
        hi *= 10.0
        return Observable(M, vals, name="tent", denominator=9 * M)
    if name == "chi0":
        N = params.get("N")
        if N is None:
            raise ValueError("chi0 needs the half-window N")
        N = _int_param(N, "N", 0)
        m = _int_param(params.get("m", 2), "m", 2)
        L = 2 * N + 1
        if M != m**L:
            raise ValueError(f"chi0 expects M = {m}^{L}")
        # the symbol at position 0 is digit N of the little-endian index:
        # y = (a*m + d)*m^N + b with d that digit
        vals = np.zeros(M)
        vals.reshape(-1, m, m**N)[:, 1, :] = 1.0
        return Observable(M, vals, name="chi0")
    if name == "constant":
        c = params.get("value")
        if c is None or not np.isfinite(_float_param(c, "constant value")):
            raise ValueError(f"constant needs a finite value, got {c!r}")
        return Observable(M, np.full(M, float(c)), name=f"constant({c})")
    raise ValueError(f"unknown observable {name!r}")

