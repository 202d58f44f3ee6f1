"""Self-check suite: runs the library's structural invariants on fixtures.

Used by the CLI `check` subcommand; each check returns (name, ok, detail)
so failures can be reported as machine-readable JSON lines.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dynamics import FinitePermutation, Observable, ergodic_means_prefix, orbit_average
from .integrability import average, integrability_profile, tail_mass
from .rng import SplitMix64
from .stabilization import _discrepancy_tiles, proof_terms
from .systems import build_drift_system, debruijn_window_permutation, paper_observable

CheckResult = tuple[str, bool, str]


def _random_permutation(M: int, rng: SplitMix64) -> FinitePermutation:
    idx = np.arange(M, dtype=np.int64)
    for i in range(M - 1, 0, -1):  # Fisher-Yates with the documented PRNG
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return FinitePermutation(idx)


def check_bijection(image=None) -> CheckResult:
    """Every constructed permutation is a bijection (counting-sort check)."""
    if image is None:
        image = np.roll(np.arange(100), -1)
    try:
        FinitePermutation(image)
        return ("bijection", True, "image array is a permutation")
    except ValueError as e:
        return ("bijection", False, str(e))


def check_mean_recurrence(seed: int = 1) -> CheckResult:
    """n*A_n equals brute-force summation on a random (F, T, y) instance."""
    rng = SplitMix64(seed)
    M = 500
    T = _random_permutation(M, rng)
    F = Observable([rng.next_below(2001) - 1000 for _ in range(M)])
    y = rng.next_below(M)
    n = 200
    a_n = float(ergodic_means_prefix(F, T, y, n)[n - 1])
    z, total = y, 0.0
    for i in range(n):
        total += float(F.values[z])
        z = int(T.image[z])
    ok = abs(n * a_n - total) <= 1e-9 * max(1.0, abs(total))
    return ("mean-recurrence", ok, f"n*A_n={n * a_n}, brute={total}")


def check_exact_identities() -> CheckResult:
    """The exact identity A_M = Av(F) on a cycle, as Fractions, at M = 1e4.

    linear's values are y/M, so M * F(y), rounded, is the integer y.  A_M sums those integers over
    the first M points of the orbit of y = 3, read from T.along(F), and Av(F) over every point.
    """
    M = 10_000
    T, F = build_drift_system(M), paper_observable("linear", M)
    (start,), (p,), (pos,) = T.orbit_index.runs([3])
    orbit = np.resize(np.roll(T.along(F)[start : start + p], -pos), M)
    a_M, av = (Fraction(int(np.rint(v * M).astype(np.int64).sum()), M * M) for v in (orbit, F.values))
    return ("exact-transitive-average", a_M == av, f"A_M={a_M}, Av={av}")


def check_orbit_average() -> CheckResult:
    """Orbit averages are constant along orbits and match the horizon means."""
    rng = SplitMix64(7)
    M = 300
    T = _random_permutation(M, rng)
    F = Observable([rng.next_below(100) for _ in range(M)])
    for y in (0, 17, 123):
        p = T.period(y)
        if abs(ergodic_means_prefix(F, T, y, p)[p - 1] - orbit_average(F, T, y)) > 1e-12:
            return ("orbit-average", False, f"mismatch at y={y}")
    return ("orbit-average", True, "A_p equals the orbit mean")


def check_tail_monotone() -> CheckResult:
    """Tail masses are nonincreasing and consistent with the decomposition."""
    rng = SplitMix64(11)
    F = Observable([rng.next_below(1000) - 500 for _ in range(400)])
    prof = integrability_profile(F)
    mono = bool((np.diff(prof.tail_masses) <= 1e-12).all())
    k = float(prof.thresholds[1])
    a = np.abs(F.values, dtype=np.float64)
    below = a[a <= k].sum() / a.size
    decomp = abs(average(Observable(a)) - (tail_mass(F, k) + below)) < 1e-9
    return ("tail-monotone", mono and decomp, f"monotone={mono}, decomposition={decomp}")


def check_proof_bound() -> CheckResult:
    """|A_K - A_L| <= U + V at every start point, tile by tile: both passes tile alike."""
    rng = SplitMix64(13)
    M = 2_000
    T = _random_permutation(M, rng)
    F = Observable([rng.next_below(200) - 100 for _ in range(M)])
    tiles = zip(_discrepancy_tiles(F, T, [(800, 500)]), proof_terms(F, T, 800, 500))
    ok, slack = zip(*[(bool((d <= U + V + 1e-9).all()), np.max(d - U - V)) for (_, (d,)), (_, (U, V)) in tiles])
    return ("discrepancy-proof-bound", all(ok), f"max slack={float(np.max(slack))}")


def check_debruijn() -> CheckResult:
    """The de Bruijn window permutation is one cycle with distinct windows."""
    T = debruijn_window_permutation(2, 7)
    count = T.orbit_index.lengths.size
    return ("debruijn-single-cycle", count == 1 and T.size == 128, f"cycles={count}")


def run_all(fixture_image=None) -> list[CheckResult]:
    return [
        check_bijection(fixture_image),
        check_mean_recurrence(),
        check_exact_identities(),
        check_orbit_average(),
        check_tail_monotone(),
        check_proof_bound(),
        check_debruijn(),
    ]
