"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line naming its criterion, so a bare
`pytest tests/test_acceptance.py -v -s` doubles as the release checklist.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

import ergodia
from ergodia.approximation import _target_ranges, arc_matcher
from ergodia.cli import main as cli_main
from ergodia.dynamics import ergodic_means_prefix, gamma_series
from ergodia.integrability import family_profile, tail_mass
from ergodia.rng import SplitMix64
from ergodia.systems import (
    build_bernoulli,
    build_drift_system,
    build_rotation,
    debruijn_window_permutation,
    paper_observable,
)
from oracles import (discrepancy_arrays, exact_prefix_means, exceedance_fraction, hall_deficiency_oracle,
                     proof_arrays, tent_function, three_point_average, trajectory, word)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(name, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} acceptance: {name}")
    assert ok


def test_criterion_01_alternating_exact_formula():
    # M=1000, y=698: A_n = 0 for even n, M/n for odd n, exact and fast
    t0 = time.time()
    M, y = 1000, 698
    T = build_drift_system(M)
    F = paper_observable("ex01", M)
    series = ergodic_means_prefix(F, T, y, M)
    exact = exact_prefix_means(F, T, y, M)
    ok = True
    for n in range(1, M + 1):
        want = Fraction(0) if n % 2 == 0 else Fraction(M, n)
        if exact[n - 1] != want:
            ok = False
            break
        got = series[n - 1]
        if abs(got - float(want)) > 1e-12 * max(1.0, abs(float(want))):
            ok = False
            break
    ok = ok and (time.time() - t0) < 1.0
    report("alternating-observable exact means", ok)


def test_criterion_02_discrepancy_theorem_finite_form():
    t0 = time.time()
    M = 100_000
    T = build_rotation(M, 0.5)
    F = paper_observable("tent", M)
    K, L = 50_500, 50_000
    ((sup_disc, _),) = ergodia.sup_discrepancy(F, T, [(K, L)])
    (diffs,) = discrepancy_arrays(F, T, [(K, L)])
    U, V = proof_arrays(F, T, K, L)  # in orbit order, as diffs
    # at a few slots, the terms summed along the orbit of the point in that slot
    terms_ok = True
    for s in (0, 1, 12_345, M - 1):
        a = np.abs(F.values[trajectory(T, int(T.orbit_index.order[s]), K)])
        terms_ok = terms_ok and abs(U[s] - (1 / L - 1 / K) * a[:L].sum()) <= 1e-12
        terms_ok = terms_ok and abs(V[s] - a[L:].sum() / K) <= 1e-12
    ok = (sup_disc <= 0.02
          and bool((diffs <= U + V + 1e-12).all())
          and terms_ok
          and (time.time() - t0) < 10.0)
    report("sup discrepancy bound at a=0.5", ok)


def test_criterion_03_block_observable_phenomenon():
    t0 = time.time()
    M, K = 100_000, 1000
    T = build_drift_system(M)
    F = paper_observable("ex03", M, K=K)
    exc = exceedance_fraction(F, T, K, K // 2, 0.25)
    sample = ergodia.stratified_start_points(M, 100, 25, 0)
    common_K_star, _, _ = ergodia.common_stabilization_segment(
        *ergodia.stabilization_segment(F, T, sample, 50, 0.05, K), 0.05)
    ok = (exc >= 0.4
          and 0.15 * K <= common_K_star < 0.45 * K
          and (time.time() - t0) < 30.0)
    report("block-observable exceedance and common segment", ok)


def test_criterion_04_rotation_near_two_thirds():
    t0 = time.time()
    T = build_rotation(33334, 2.0 / 3.0)
    M, y, P = T.size, 16667, T.orbit_index.P
    F = paper_observable("tent", M)
    pts, _ = gamma_series(F, T, y, 1.0)
    oracle = three_point_average(tent_function, y / M)
    near0 = pts[(pts[:, 0] >= 100) & (pts[:, 0] <= 300), 2]
    near1 = pts[pts[:, 0] >= 0.998 * M, 2]
    ok = (P == 22225
          and abs(P / M - 2.0 / 3.0) <= 0.00046
          and abs(oracle - 0.56) < 0.01
          and bool((np.abs(near0 - oracle) <= 0.02).all())
          and bool((np.abs(near1 - 0.5) <= 0.01).all())
          and (time.time() - t0) < 5.0)
    report("near-2/3 rotation two-regime means", ok)


def test_criterion_05_irrational_rotation_flat_means():
    t0 = time.time()
    T = build_rotation(25001, float(1.0 / np.sqrt(2.0)))
    M, y, P = T.size, 6119, T.orbit_index.P
    F = paper_observable("tent", M)
    series = ergodic_means_prefix(F, T, y, M)
    horizons = [int(0.05 * q * M) for q in range(1, 21)]
    devs = [abs(series[K - 1] - 0.5) for K in horizons]
    ok = (P == 17677
          and abs(P / M - float(1.0 / np.sqrt(2.0))) <= 0.00006
          and max(devs) <= 0.01
          and (time.time() - t0) < 5.0)
    report("near-1/sqrt(2) rotation flat means", ok)


def test_criterion_06_de_bruijn_suite():
    t0 = time.time()
    ok = True
    for n in range(3, 16):
        T = debruijn_window_permutation(2, n)
        if not (T.size == 2**n and len(T.cycles) == 1):
            ok = False
    # exhaustive count of binary de Bruijn sequences at n=3, up to rotation
    valid = 0
    for bits in range(256):
        s = [(bits >> i) & 1 for i in range(8)]
        wins = {tuple(s[(i + j) % 8] for j in range(3)) for i in range(8)}
        if len(wins) == 8:
            valid += 1
    ok = ok and valid // 8 == 2 and valid % 8 == 0
    # shift agreement on the N=5 word space
    Tb = build_bernoulli(2, 5, "debruijn")
    agree = sum(
        1 for y in range(Tb.size)
        if (word(2, 5, int(Tb.image[y]))[:-1] == word(2, 5, y)[1:]).all()
    )
    ok = (ok and agree / Tb.size >= 1.0 - 11.0 / Tb.size
          and (time.time() - t0) < 10.0)
    report("de Bruijn transitivity, count, shift agreement", ok)


def test_criterion_07_matching_pipeline():
    t0 = time.time()
    M = 10_000
    t = float(1.0 / np.sqrt(2.0))
    targets = (np.arange(M) / M + t) % 1.0
    T, mism = ergodia.synthesize_permutation(M, targets, 2.0 / M)
    ok = sorted(T.image.tolist()) == list(range(M)) and mism / M <= 0.01
    C, B = ergodia.make_transitive(T)
    ok = ok and len(C.cycles) == 1 and len(B) == len(T.cycles)
    # matcher optimality against the Hall-deficiency oracle
    rng = SplitMix64(2024)
    for _ in range(20):
        m = 50 + rng.next_below(151)
        tg = np.array([0.15 + 0.7 * rng.next_below(10**6) / 10**6 for _ in range(m)])
        delta = (1 + rng.next_below(4)) / m
        lo, hi = _target_ranges(m, tg, delta, circle=False)
        match = arc_matcher(m, tg, delta, circle=False)
        if int(np.sum(match == -1)) != hall_deficiency_oracle(m, list(zip(lo.tolist(), hi.tolist()))):
            ok = False
    ok = ok and (time.time() - t0) < 20.0
    report("matching pipeline and Hall oracle", ok)


def test_criterion_08_weak_star_convergence():
    t0 = time.time()
    from ergodia.approximation import weak_star_error

    max_errs = []
    for M in (100, 1000, 10_000):
        errs = weak_star_error(np.arange(M) / M, 3)
        max_errs.append(max(errs.values()))
    ok = (all(e <= 2.0 / M for e, M in zip(max_errs, (100, 1000, 10_000)))
          and max_errs[0] > max_errs[1] > max_errs[2]
          and (time.time() - t0) < 1.0)
    report("weak-* monomial convergence on grids", ok)


def test_criterion_09_integrability_dichotomy():
    t0 = time.time()
    ok = True
    for M in (1000, 10_000, 100_000):
        F = paper_observable("delta", M)
        for k in (1, M // 2, M - 1):
            if tail_mass(F, k) != 1.0:
                ok = False
    blocks = [paper_observable("ex03", M, K=M // 100) for M in (1000, 10_000)]
    tents = [paper_observable("tent", M) for M in (1000, 10_000)]
    for fam in (blocks, tents):
        prof = family_profile(fam, [1.0, 2.0, 4.0])
        if not (prof.tail_masses == 0.0).all():
            ok = False
    ok = ok and (time.time() - t0) < 2.0
    report("integrability dichotomy delta vs bounded", ok)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = os.path.join(CONFIG_DIR, "fig3.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["gamma", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_main(["gamma", "--config", cfg, "--out", str(out2)]) == 0
    with open(os.path.join(CONFIG_DIR, "fig3.json")) as fh:
        y = json.load(fh)["start_points"]["explicit"][0]
    f = f"gamma_ex03(K=1000)_y{y}.csv"
    ok = ((out1 / f).read_bytes() == (out2 / f).read_bytes()
          and (time.time() - t0) < 5.0)
    report("byte-identical CSV reruns", ok)
