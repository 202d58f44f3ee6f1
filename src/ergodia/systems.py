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
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .dynamics import CHUNK_POINTS, FinitePermutation, Observable, OrbitIndex, PermutedOrder, _narrow, _read

__all__ = [
    "build_drift_system",
    "build_rotation",
    "debruijn_window_permutation",
    "build_bernoulli",
    "paper_observable",
    "PUBLISHED_ROTATIONS",
]


# -- drift and rotation ----------------------------------------------------


def build_drift_system(M: int) -> FinitePermutation:
    """T = +1 mod M; on the grid y/M of the unit interval it approximates the identity map.  One cycle
    in identity order, so its index is written directly, with no order array to check and drop."""
    if M < 2:
        raise ValueError("need M >= 2")
    return FinitePermutation.from_index(OrbitIndex(np.zeros(1, dtype=np.int64), np.full(1, M, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class _RotationOrder(PermutedOrder):
    """The rotation's g = gcd(P, M) cycles of n = M/g slots: slot r*n + j holds r + j*P mod M."""

    P: int

    def order_chunk(self, lo: int, hi: int) -> np.ndarray:
        # slot s = r*n + j holds r + (j*P mod M): j*P mod M = s*P mod M, as n*P = M*(P/g), is a multiple of
        # g, at most M - g, and r < g; the remainder by multiply-subtract (numpy's % by a scalar is slower)
        v = np.arange(lo * self.P, hi * self.P, self.P)
        v -= v // self.size * self.size
        return v + np.arange(lo, hi) // self.lengths[0] if self.lengths.size > 1 else v

    def _slots(self, points: np.ndarray) -> np.ndarray:
        """r = y mod g and j = ((y - r)/g) * (P/g)^-1 mod n."""
        n = int(self.lengths[0])
        g = self.size // n
        r = points % g
        return r * n + (points - r) // g * pow(self.P // g, -1, n) % n


# (M, t) pairs published with the experiments this library reproduces.  The
# published steps are kept verbatim: they are close to t but are NOT the
# nearest coprime steps (the 33334 pair is not even coprime), so a
# principled search cannot rediscover them.
PUBLISHED_ROTATIONS: dict[tuple[int, float], int] = {
    (33334, float(Fraction(2, 3))): 22225,
    (25001, float(1.0 / np.sqrt(2.0))): 17677,
}


def _rotation(M: int, P: int) -> FinitePermutation:
    """T(y) = y + P mod M: gcd(P, M) cycles, the r-th visiting r, r + P, r + 2P, ..., order generated."""
    n = M // gcd(P, M)
    return FinitePermutation.from_index(_RotationOrder(np.arange(0, M, n), np.full(M // n, n), P))


def build_rotation(M: int, t: float) -> FinitePermutation:
    """T(y) = y + P mod M on the grid, approximating the t-shift of the circle, with the step P
    closest to t*M and coprime with M; P is T.orbit_index.P, and its defect is abs(P / M - t).

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
    return _rotation(M, best[0])


# -- de Bruijn sequences and Bernoulli shifts ------------------------------


def _fkm_symbols(m: int, n: int) -> np.ndarray:
    """The lex-least (m, n)-de Bruijn sequence, of length m^n and starting at window 0, in the
    narrowest unsigned type that holds m - 1 (one byte for m <= 256).

    Fredricksen-Kessler-Maiorana: the aperiodic prefixes of the length-n
    necklaces, concatenated in lex order.  The heads of _necklaces, read as
    big-endian words, are those necklaces in lex order; each head's first
    period digits are written from a masked digit block of CHUNK_POINTS
    digits at a time.
    """
    if m < 2 or n < 1:
        raise ValueError("need alphabet size >= 2 and window length >= 1")
    if n > 26 or m**n > 1 << 26:  # n first: m >= 2, and m**n of a huge n would not finish
        raise ValueError("sequence length exceeds the memory budget")
    heads, period = _necklaces(m, n)
    s = np.empty(m**n, dtype=np.min_scalar_type(m - 1))
    at, place = 0, m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, CHUNK_POINTS // n)
    for lo in range(0, heads.size, step):
        p = period[lo : lo + step]
        digits = (heads[lo : lo + step, None] // place % m)[np.arange(n) < p[:, None]]
        s[at : at + digits.size] = digits
        at += digits.size
    return s


def _windows(s: np.ndarray, lo: int, hi: int, n: int, m: int) -> np.ndarray:
    """Little-endian base-m index of the cyclic length-n windows of s at positions lo .. hi - 1.

    From the symbols lo .. hi + n - 2 (wrapping round s), doubling builds the
    windows of length l = 1, 2, 4, ... as w_2l = w_l[:-l] + m^l * w_l[l:],
    and joins, lowest digits first, the lengths n's bits pick.  Every value is
    below m^n, which _fkm_symbols caps at 2^26, so the arithmetic is int32;
    that halves the temporaries.
    """
    w = np.concatenate([s[lo : hi + n - 1], s[: max(0, hi + n - 1 - s.size)]], dtype=np.int32)
    idx = np.zeros(hi - lo, dtype=np.int32)
    offset, l = 0, 1
    while True:
        if n & l:
            idx += w[offset : offset + hi - lo] * m**offset
            offset += l
        if offset == n:
            return idx
        w, l = w[:-l] + m**l * w[l:], 2 * l


@dataclass(frozen=True, eq=False)
class _DeBruijnOrder(PermutedOrder):
    """The one cycle of the window successor of the library's sequence, from window 0: slot i holds
    the index of the window at position i of symbols.  De Bruijn ranking has no cheap closed form,
    so slots is PermutedOrder's scan."""

    symbols: np.ndarray
    m: int
    n: int

    def order_chunk(self, lo: int, hi: int) -> np.ndarray:
        return _windows(self.symbols, lo, hi, self.n, self.m)


def debruijn_window_permutation(m: int, n: int) -> FinitePermutation:
    """The window-successor map on all length-n words, a single m^n-cycle.

    Word at window position i maps to the word at position i+1 of the
    library's de Bruijn sequence, which starts at window 0.  The window
    indices in sequence order are the cycle, generated from its symbols.
    """
    symbols = _fkm_symbols(m, n)
    one_cycle = np.zeros(1, dtype=np.int64), np.full(1, symbols.size)
    return FinitePermutation.from_index(_DeBruijnOrder(*one_cycle, symbols, m, n))


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

    A head is the smallest index among a word's rotations: the same set whether indices are read
    little- or big-endian, as a left rotation in one reading is a right rotation in the other.
    L - 1 vectorized passes in int32 (exact under the callers' 2^26 word budget) keep the indices
    no larger than their j-th rotation, on CHUNK_POINTS candidates at a time, each chunk enumerated
    from the candidates' ranks as it is tested; a head's period is the smallest divisor d of L
    whose rotation maps it to itself.  Beside the zero word, the candidates are the words with top
    digit 0 and bottom digit not 0 (a quarter of all for m = 2), then those with no 0 digit: read
    big-endian, the least rotation of a word holding a 0 but not all 0s starts with its longest
    run of 0s, and cannot end in 0 (moving that 0 to the front gives a smaller rotation).
    """
    bottom = m ** (L - 1) // m * (m - 1)
    kept = [np.zeros(1, dtype=np.int32)]  # the zero word heads its own necklace
    for lo in range(0, bottom + (m - 1) ** L, CHUNK_POINTS):
        i = np.arange(lo, min(lo + CHUNK_POINTS, bottom + (m - 1) ** L), dtype=np.int32)
        # rank k of a word with no 0 digit: its digits are k's base-(m - 1) digits plus 1
        k, words, j = i - bottom, np.full_like(i, (m**L - 1) // (m - 1)), 0
        while (m - 1) ** j <= k[-1]:
            words += k // (m - 1) ** j % (m - 1) * m**j
            j += 1
        # rank i of a word with top digit 0 and bottom digit not 0: i // (m - 1) * m + 1 + i % (m - 1)
        heads = np.where(k < 0, i + i // (m - 1) + 1, words)
        for j in range(1, L):
            heads = heads[heads <= _rotate(heads, j, m, L)]
        kept.append(heads)
    heads = np.concatenate(kept)
    period = np.full(heads.size, L, dtype=np.int64)
    for d in sorted((d for d in range(1, L) if L % d == 0), reverse=True):
        period[_rotate(heads, d, m, L) == heads] = d
    return heads.astype(np.int64), period


@dataclass(frozen=True, eq=False)
class _NecklaceOrder(PermutedOrder):
    """The naive shift's cycles on length-L words: the cycle through a word is its necklace, the
    set of its rotations, headed by its minimum; heads[c] is cycle c's head, and its slot j holds
    the head rotated by j.  Only the heads are kept, 1/p of the points."""

    heads: np.ndarray
    m: int
    L: int

    def order_chunk(self, lo: int, hi: int) -> np.ndarray:
        # the cycles through slots lo .. hi - 1 as a (cycles, longest p) block, a column at a time:
        # whole-block rotation temporaries raise peak RSS
        c0, c1 = self.cycle_at([lo, hi - 1])
        heads, p = self.heads[c0 : c1 + 1], self.lengths[c0 : c1 + 1]
        block = np.empty((heads.size, p[0]), dtype=np.int64)
        for j in range(p[0]):
            block[:, j] = _rotate(heads, j, self.m, self.L)
        run = block.ravel() if p[-1] == p[0] else block[np.arange(p[0]) < p[:, None]]
        at = lo - self.starts[c0]
        return run[at : at + hi - lo]

    def _slots(self, points: np.ndarray) -> np.ndarray:
        """The least rotation of each word is its head, found in its length class's heads; the
        fewest rotations j taking the word there give its slot, (-j) mod p past the head's."""
        head, shift, period = points.copy(), np.zeros_like(points), np.full_like(points, self.L)
        for j in range(1, self.L):
            word = _rotate(points, j, self.m, self.L)
            less = word < head
            head[less], shift[less] = word[less], j
            period[(word == points) & (period == self.L)] = j
        cycle = np.empty_like(points)
        for offset, count, p in self.length_classes():
            first, here = int(self.cycle_at(offset)), period == p
            cycle[here] = first + np.searchsorted(self.heads[first : first + count], head[here])
        return self.starts[cycle] + -shift % period


def _naive_shift(m: int, L: int) -> FinitePermutation:
    """The naive shift on length-L words, its canonical order generated from the necklace heads."""
    heads, period = _necklaces(m, L)
    by_length = np.argsort(-period, kind="stable")  # heads stay ascending within a length
    lengths = period[by_length]
    index = _NecklaceOrder(np.cumsum(lengths) - lengths, lengths, heads[by_length], m, L)
    return FinitePermutation.from_index(index)


def build_bernoulli(m: int, N: int, mode: str = "debruijn") -> FinitePermutation:
    """The naive cyclic index shift or the de Bruijn window successor, a finite approximation of the
    Bernoulli shift on the m^(2N+1) words over positions -N..N.

    Naive: S(y)(n) = y(n+1 mod 2N+1), so every orbit length divides 2N+1.
    De Bruijn: a single M-cycle agreeing with the true shift on all words
    except the few whose window crosses the seam of the cyclic sequence.
    """
    if m < 2 or N < 0:
        raise ValueError("need alphabet size m >= 2 and half-window N >= 0")
    L = 2 * N + 1
    if L > 26 or m**L > 1 << 26:  # L first: m >= 2, and m**L of a huge L would not finish
        raise ValueError("word space exceeds the memory budget")
    if mode == "naive":
        return _naive_shift(m, L)
    if mode == "debruijn":
        return debruijn_window_permutation(m, L)
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
    """value as a float if it is an int or a float; booleans do not pass, though float() reads True."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _width(*values: float) -> np.dtype:
    """The dtype Observable stores an array of these values in (_narrow's rule)."""
    return _narrow(np.array(values, dtype=np.float64)).dtype


class _ClosedForm(Observable):
    """F on {0, ..., M-1} by a vectorized rule: values_at(points) is rule(points) cast to dtype, the
    width _narrow gives the whole array; values, its memo over every point, is built on first read
    an eighth of a chunk at a time, so the rule's temporaries (up to 14 bytes per point) stay
    within a tenth of an int8 memo from M = 2^21."""

    def __init__(self, M: int, name: str, dtype, rule):
        self.size, self.name, self._dtype, self._rule = M, name, dtype, rule

    def values_at(self, points) -> np.ndarray:
        return self._rule(np.asarray(points)).astype(self._dtype, copy=False)

    @cached_property
    def values(self) -> np.ndarray:
        points = np.int32 if self.size < 1 << 31 else np.int64  # int32 halves the bytes each rule reads
        return _read(self, self.size, lambda lo, hi: np.arange(lo, hi, dtype=points), CHUNK_POINTS // 8)


def paper_observable(name: str, M: int, **params) -> Observable:
    """The named closed-form observable on {0, ..., M-1}.

    Names: "ex01" (+-M by parity), "delta" (spike of height M at 0),
    "ex03" (alternating 0/1 blocks of length K, needs K), "linear" (y/M),
    "tent" (at x = y/M: 10x/9 on [0, 0.9), 10(1 - x) on [0.9, 1)), "chi0"
    (symbolic: 1 iff the symbol at position 0 is 1, needs N), "constant"
    (needs value); a parameter the name does not take is a ValueError.

    Each is a vectorized rule over an array of points, in the width Observable
    would store its whole array in; each value is the same IEEE expression as
    the closed form evaluated at one point.
    """
    if not isinstance(name, str):
        raise ValueError(f"observable name must be a string, got {name!r}")
    extra = sorted(set(params) - {"ex03": {"K"}, "chi0": {"N", "m"}, "constant": {"value"}}.get(name, set()))
    if extra:
        raise ValueError(f"observable {name!r} takes no parameter {extra[0]!r}")
    if M < 1:
        raise ValueError(f"an observable needs M >= 1 points, got {M}")
    if name == "ex01":
        w = _width(M, -M)
        return _ClosedForm(M, name, w, lambda y: (1 - 2 * (y & 1)).astype(w) * w.type(M))
    if name == "delta":
        w = _width(M)
        return _ClosedForm(M, name, w, lambda y: (y == 0) * w.type(M))
    if name == "ex03":
        K = params.get("K")
        if K is None:
            raise ValueError("ex03 needs the block length K")
        k = _int_param(K, "K", 1)
        # R is floor(M/K) rounded down to even; blocks at m >= R are zero,
        # and below R each pair of blocks is K ones then K zeros
        R, b = (M // k) // 2 * 2, min(k, M)  # b is k wherever R > 0, and fits int64 for any K
        return _ClosedForm(M, f"ex03(K={k})", np.int8, lambda y: (y < R * b) & (y // b & 1 == 0))
    # y = 0 is the one point where linear and tent take an integer value
    smooth = np.float64 if M > 1 else np.int8
    if name == "linear":
        return _ClosedForm(M, name, smooth, lambda y: y / M)
    if name == "tent":
        def tent(y):
            x = y / M
            return np.where(x < 0.9, x * 10.0 / 9.0, (1.0 - x) * 10.0)
        return _ClosedForm(M, name, smooth, tent)
    if name == "chi0":
        N = params.get("N")
        if N is None:
            raise ValueError("chi0 needs the half-window N")
        N = _int_param(N, "N", 0)
        m = _int_param(params.get("m", 2), "m", 2)
        L = 2 * N + 1
        if L >= int(M).bit_length() or M != m**L:  # m**L >= 2**L > M in the first case
            raise ValueError(f"chi0 expects M = {m}^{L}")
        # the symbol at position 0 is digit N of the little-endian index; for m = 2, bit N
        digit = (lambda y: (y & 1 << N) != 0) if m == 2 else (lambda y: y // m**N % m == 1)
        return _ClosedForm(M, name, np.int8, digit)
    if name == "constant":
        c = params.get("value")
        if c is None or not np.isfinite(_float_param(c, "constant value")):
            raise ValueError(f"constant needs a finite value, got {c!r}")
        v, w = float(c), _width(float(c))
        return _ClosedForm(M, f"constant({c})", w, lambda y: np.full(y.shape, v, dtype=w))
    raise ValueError(f"unknown observable {name!r}")
