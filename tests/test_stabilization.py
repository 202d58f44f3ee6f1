"""Discrepancies, proof bounds, and stabilization segments."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodia.dynamics import FinitePermutation, Observable, ergodic_means_prefix
from ergodia import dynamics, stabilization
from ergodia.rng import SplitMix64
from ergodia.stabilization import (
    common_stabilization_segment,
    proof_terms,
    stabilization_segment,
    stratified_start_points,
    sup_discrepancy,
)
from ergodia.systems import build_bernoulli, build_drift_system, build_rotation, paper_observable
from oracles import (band_end_loop, carried_sums_rowwise, common_segment_loop, discrepancy_arrays,
                     exceedance_fraction, permutation_from_cycles, proof_arrays, reference_psi,
                     sup_discrepancy_two_pass, traced_peak, trajectory)


def random_system(M, seed, lo=-50, hi=50):
    rng = SplitMix64(seed)
    idx = np.arange(M, dtype=np.int64)
    for i in range(M - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    T = FinitePermutation(idx)
    F = Observable([rng.next_below(hi - lo + 1) + lo for _ in range(M)])
    return F, T


# -- discrepancies ---------------------------------------------------------


def test_sup_discrepancy_brute_force():
    F, T = random_system(40, 3)
    ((sup_disc, _),) = sup_discrepancy(F, T, [(25, 10)])
    brute = max(
        abs(ergodic_means_prefix(F, T, y, 25)[24]
            - ergodic_means_prefix(F, T, y, 10)[9])
        for y in range(40)
    )
    assert sup_disc == pytest.approx(brute, abs=1e-9)


def test_proof_bound_terms_exact():
    F, T = random_system(60, 9)
    K, L = 30, 12
    (diffs,) = discrepancy_arrays(F, T, [(K, L)])
    U, V = proof_arrays(F, T, K, L)
    assert U.shape == V.shape == (T.size,)
    # slot by slot in orbit order, as diffs: slot i belongs to the point order[i]
    for y, d, u, v in zip(T.orbit_index.order.tolist(), diffs, U, V):
        absvals = np.abs(F.values[trajectory(T, y, K)])
        assert u == pytest.approx((1 / L - 1 / K) * absvals[:L].sum(), abs=1e-9)
        assert v == pytest.approx(absvals[L:].sum() / K, abs=1e-9)
        assert d <= u + v + 1e-9


@given(st.integers(4, 60), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_proof_bound_always_holds(M, seed):
    F, T = random_system(M, seed)
    K = 2 + seed % (3 * M)
    L = 1 + seed % K if K > 1 else 1
    if L >= K:
        L = K - 1
    (diffs,) = discrepancy_arrays(F, T, [(K, L)])
    U, V = proof_arrays(F, T, K, L)
    assert (diffs <= U + V + 1e-9).all()  # both in orbit order


def test_exceedance_fraction_counts():
    # drift on 4 points, F picks out one point: A_2 - A_1 differs by start
    T = FinitePermutation(np.roll(np.arange(4), -1))
    F = Observable([1.0, 0.0, 0.0, 0.0])
    # A_2 - A_1: y=0 -> 1/2-1 = -1/2; y=3 -> 1/2-0 = 1/2; y=1,2 -> 0
    assert exceedance_fraction(F, T, 2, 1, 0.5) == pytest.approx(0.5)
    assert exceedance_fraction(F, T, 2, 1, 0.6) == 0.0


def test_discrepancy_validation():
    F, T = random_system(10, 1)
    with pytest.raises(ValueError):
        sup_discrepancy(F, T, [(5, 5)])
    with pytest.raises(ValueError):
        exceedance_fraction(F, T, 5, 2, 0.0)


def test_exceedance_reads_only_requested_epsilons_and_counts_a_repeat_once():
    F, T = random_system(50, 4)
    (diffs,) = discrepancy_arrays(F, T, [(9, 4)])
    ((_, frac),) = sup_discrepancy(F, T, [(9, 4)], [0.5, 2.0, 0.5, 2])
    assert frac == {0.5: int(np.count_nonzero(diffs >= 0.5)) / 50, 2.0: int(np.count_nonzero(diffs >= 2)) / 50}
    for eps in (0.5, 2.0, 2):
        assert bits(frac[eps]) == bits(np.mean(diffs >= eps))
    for eps in (0.25, 1e-3, float("nan")):
        with pytest.raises(KeyError):
            frac[eps]
    with pytest.raises(KeyError):
        sup_discrepancy(F, T, [(9, 4)])[0][1][0.5]


@pytest.mark.parametrize("K,L", [(5, 5), (3, 0), (20, 40), (1, 0), (0, -1)])
def test_proof_terms_refuse_bad_horizons(K, L):
    F, T = random_system(10, 1)
    with pytest.raises(ValueError, match="1 <= L < K"):
        proof_terms(F, T, K, L)


@pytest.mark.parametrize("name", ["ex01", "tent"])
def test_proof_terms_read_the_memo_of_F_and_build_no_observable(monkeypatch, name):
    # |F| comes from T.along(F): no second gather, F's memo is not replaced, and no Observable is made
    T, F = build_rotation(997, 0.3), paper_observable(name, 997)
    along = T.along(F)

    def no_observable(self, *args, **kwargs):
        raise AssertionError("proof_terms built an Observable")

    monkeypatch.setattr(Observable, "__init__", no_observable)
    U, V = proof_arrays(F, T, 40, 17)
    assert T.along(F) is along
    assert (U >= 0).all() and (V >= 0).all()


# -- stabilization segments ------------------------------------------------


def brute_band_end(means, n_min, eps, scan_limit):
    best = None
    for K in range(n_min, scan_limit + 1):
        window = means[n_min - 1 : K]
        if max(window) - min(window) <= eps:
            best = K
        else:
            break
    return best


@given(st.integers(5, 60), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_segment_matches_brute_force(M, seed):
    F, T = random_system(M, seed, lo=0, hi=6)
    y = seed % M
    n_min, scan = 2, 3 * M
    eps = 0.25
    (k_star,), _ = stabilization_segment(F, T, [y], n_min, eps, scan)
    capped = k_star == scan
    means = ergodic_means_prefix(F, T, y, scan)
    brute = brute_band_end(means, n_min, eps, scan)
    if brute is None:
        # band already violated at the very start of the range
        assert k_star < n_min
    else:
        assert k_star == brute
        assert capped == (brute == scan)


def test_segment_witness_inside_band():
    F, T = random_system(50, 4, lo=0, hi=10)
    (k_star,), (witness,) = stabilization_segment(F, T, [7], 3, 0.5, 100)
    means = ergodic_means_prefix(F, T, 7, 100)
    window = means[2 : k_star]
    assert window.min() - 1e-12 <= witness <= window.max() + 1e-12


def test_segment_validation():
    F, T = random_system(10, 1)
    with pytest.raises(ValueError):
        stabilization_segment(F, T, [0], 0, 0.1, 5)
    with pytest.raises(ValueError):
        stabilization_segment(F, T, [0], 2, -0.1, 5)
    with pytest.raises(ValueError):
        stabilization_segment(F, T, [0], 6, 0.1, 5)


def test_common_segment_quantile():
    # constant observable stabilizes everywhere; K_star is the scan limit
    M = 30
    T = FinitePermutation(np.roll(np.arange(M), -1))
    F = Observable(np.full(M, 2.5))
    k_star, witness, excluded = common_stabilization_segment(
        *stabilization_segment(F, T, list(range(M)), 2, 0.01, 50), 0.1)
    assert k_star == 50  # capped: the band holds to the scan limit
    assert witness == pytest.approx(2.5)
    assert excluded == 0.0


def test_common_segment_drops_eta_fraction():
    # 9 points stabilize to the limit, 1 breaks immediately; eta=0.15 drops it
    M = 10
    T = FinitePermutation(np.arange(M))
    vals = np.zeros(M)
    F = Observable(vals)
    means_break = Observable(np.r_[np.zeros(M - 1), 100.0])
    # fixed points: A_n is constant in n, so every K_star is the cap
    k_star, _, _ = common_stabilization_segment(*stabilization_segment(F, T, list(range(M)), 1, 0.1, 20), 0.15)
    assert k_star == 20
    del means_break


def test_common_segment_order_statistic():
    # per-point K_star values 1..10 on fixed points with crafted means are
    # hard to fabricate; instead check the quantile rule on a real system
    F, T = random_system(40, 11, lo=0, hi=8)
    sample = list(range(0, 40, 2))
    eta = 0.25
    k_star, _, excluded = common_stabilization_segment(*stabilization_segment(F, T, sample, 2, 0.3, 80), eta)
    per = [int(stabilization_segment(F, T, [y], 2, 0.3, 80)[0][0]) for y in sample]
    needed = int(np.ceil((1 - eta) * len(sample)))
    assert k_star == sorted(per, reverse=True)[needed - 1]
    assert excluded == pytest.approx(
        sum(k < k_star for k in per) / len(sample))


@pytest.mark.parametrize("witness", [
    [0.3], [2.0, -1.0], [0.1, 0.7, 0.2], [5.0, 5.0, 5.0, 5.0], [-0.0, 0.0], [0.0, -0.0, -0.0],
    list(np.random.default_rng(9).standard_normal(101)),
    list(np.random.default_rng(9).standard_normal(100) * 1e3),
    [1.0, np.nan, 2.0], [np.nan, 3.0, 1.0, 2.0],
], ids=["one", "two", "odd", "equal", "signed-zeros-even", "signed-zeros-odd", "odd-101",
        "even-100", "nan-odd", "nan-even"])
def test_common_segment_witness_is_bitwise_np_median(witness):
    # every point included, so the witness is the median of all of them; NaN if one of them is
    w = np.asarray(witness)
    got = common_stabilization_segment(np.full(w.size, 9), w, 0.5)[1]
    assert np.float64(got).tobytes() == np.median(w).tobytes()


def test_common_segment_imports_no_numpy_ma():
    # np.median's first call imports numpy.ma; a stab run needs no median of its own
    code = ("import sys, numpy as np; from ergodia.stabilization import *;"
            "from ergodia.systems import build_bernoulli, paper_observable;"
            "T = build_bernoulli(2, 4, 'naive'); F = paper_observable('chi0', T.size, N=4);"
            "common_stabilization_segment(*stabilization_segment(F, T, range(50), 5, 0.2, 100), 0.1);"
            "assert 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_common_segment_validation():
    F, T = random_system(10, 1)
    with pytest.raises(ValueError):
        common_stabilization_segment(*stabilization_segment(F, T, [0], 1, 0.1, 5), 0.0)
    with pytest.raises(ValueError):
        common_stabilization_segment(*stabilization_segment(F, T, [], 1, 0.1, 5), 0.5)
    # the n_min / epsilon / scan_limit checks run in the scan, for a sample as for one point
    for n_min, eps, scan_limit in [(0, 0.1, 5), (1, 0.0, 5), (6, 0.1, 5)]:
        with pytest.raises(ValueError):
            common_stabilization_segment(*stabilization_segment(F, T, [0, 1], n_min, eps, scan_limit), 0.5)


# -- the one-pass kernels against the loop oracles ---------------------------


def naive_system(N, normal=False):
    T = build_bernoulli(2, N, "naive")
    if normal:
        return Observable(np.random.default_rng(N).standard_normal(T.size)), T
    return paper_observable("chi0", T.size, N=N), T


def mixed_cycles(seed, zeros=False):
    """Randomly labelled cycles of lengths 1 to 40 and a non-integral F.

    With zeros, F is -0.0 off the longest cycle, so every point off it has
    -0.0 means, and a lost zero sign would show in its witness.
    """
    rng = np.random.default_rng(seed)
    lengths = [40, 19, 12, 7, 7, 7, 5, 3, 3, 2, 1, 1]
    labels = rng.permutation(sum(lengths))
    cuts = np.cumsum([0] + lengths)
    cycles = [labels[a:b].tolist() for a, b in zip(cuts[:-1], cuts[1:])]
    T = permutation_from_cycles(cycles, labels.size)
    values = rng.standard_normal(labels.size) * 3
    if zeros:
        values[np.setdiff1d(labels, cycles[0])] = -0.0
    return Observable(values), T


KERNEL_SYSTEMS = {
    "naive1": lambda: naive_system(1),
    "naive2": lambda: naive_system(2),
    "naive2-normal": lambda: naive_system(2, normal=True),
    "mixed": lambda: mixed_cycles(1),
    "mixed-zeros": lambda: mixed_cycles(2, zeros=True),
    "drift": lambda: (paper_observable("ex03", 60, K=4), build_drift_system(60)),
    "rotation": lambda: (paper_observable("tent", 61), build_rotation(61, 0.3)),
}
# larger systems, run at the default chunk size only
LARGE_SYSTEMS = {
    "naive5": lambda: naive_system(5),
    "naive5-normal": lambda: naive_system(5, normal=True),
    "naive8": lambda: naive_system(8),
    "drift1000": lambda: (paper_observable("ex03", 1000, K=10), build_drift_system(1000)),
    "rotation997": lambda: (paper_observable("tent", 997), build_rotation(997, 0.3)),
}
# chunks 1 and 7: one row per chunk, in tiles of 1 or 7 columns; chunks 64 and 256: a few rows per chunk
CASES = [(chunk, name) for chunk in (1, 7, 64, 256, dynamics.CHUNK_POINTS) for name in KERNEL_SYSTEMS]
CASES += [(dynamics.CHUNK_POINTS, name) for name in LARGE_SYSTEMS]


def kernel_system(name):
    return {**KERNEL_SYSTEMS, **LARGE_SYSTEMS}[name]()


def awkward_sample(T, seed):
    """Random points, a point three times, and several points of the longest cycle."""
    rng = np.random.default_rng(seed)
    y = int(rng.integers(T.size))
    return np.r_[rng.integers(0, T.size, 12), [y, y, y], T.cycles[0][:4], [T.size - 1, 0]]


def horizon_pairs(T):
    """(K, L) with K a multiple of the longest period P, with K < P, and with L < P < K."""
    P = int(T.orbit_index.lengths[0])
    return [(2 * P, P), (max(P - 1, 2), 1), (P + 3, max(1, P // 2)), (40, 20)]


def bits(*values):
    return np.asarray(values, dtype=np.float64).tobytes()


# the least subnormal counts every nonzero |A_K - A_L|, the last bit of one included
EPSILONS = (5e-324, 1e-3, 0.05, 0.5)


def discrepancies_equal_two_pass(F, T, pairs):
    for K, L in pairs:
        ((sup_disc, frac),) = sup_discrepancy(F, T, [(K, L)], EPSILONS)
        diffs, u, v = sup_discrepancy_two_pass(F, T, K, L)
        assert discrepancy_arrays(F, T, [(K, L)])[0].tobytes() == diffs.tobytes(), (K, L)
        # the proof terms at every point, in the orbit order of diffs
        U, V = proof_arrays(F, T, K, L)
        assert U.tobytes() == u.tobytes(), (K, L)
        assert V.tobytes() == v.tobytes(), (K, L)
        assert bits(sup_disc) == bits(np.max(diffs))
        for eps in EPSILONS:
            assert frac[eps] == exceedance_fraction(F, T, K, L, eps)
            assert bits(frac[eps]) == bits(np.mean(diffs >= eps))


@pytest.mark.parametrize("chunk,name", CASES)
def test_sup_discrepancy_bitwise_equals_two_pass_oracle(monkeypatch, chunk, name):
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    F, T = kernel_system(name)
    discrepancies_equal_two_pass(F, T, horizon_pairs(T)[:2] if name == "naive8" else horizon_pairs(T))


def nan_cycles():
    """mixed-zeros with one NaN on the longest cycle: its points' means are NaN."""
    G, T = mixed_cycles(2, zeros=True)
    values = G.values.copy()
    values[T.cycles[0][3]] = np.nan
    return Observable(values), T


@pytest.mark.parametrize("chunk", [1, 7, 256, dynamics.CHUNK_POINTS])
def test_a_nan_in_f_gives_a_nan_sup_and_the_oracle_exceedances(monkeypatch, chunk):
    # a NaN is never >= eps
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    F, T = nan_cycles()
    for K, L in horizon_pairs(T):
        ((sup_disc, frac),) = sup_discrepancy(F, T, [(K, L)], EPSILONS)
        diffs, u, v = sup_discrepancy_two_pass(F, T, K, L)
        assert np.isnan(diffs).any() and not np.isnan(diffs).all()
        assert discrepancy_arrays(F, T, [(K, L)])[0].tobytes() == diffs.tobytes(), (K, L)
        U, V = proof_arrays(F, T, K, L)
        assert U.tobytes() == u.tobytes() and V.tobytes() == v.tobytes(), (K, L)
        assert np.isnan(sup_disc) and bits(sup_disc) == bits(np.max(diffs))
        for eps in EPSILONS:
            assert bits(frac[eps]) == bits(np.mean(diffs >= eps))


# none, one, two and three pairs, the three repeating a pair and sharing a horizon; and (105, 15),
# which cycle lengths 1 and 5 divide, so those blocks are (rows, 1), nonzero where q*S rounds
PAIR_LISTS = [[], [(40, 20)], [(9, 4), (40, 20)], [(40, 20), (40, 20), (20, 7)], [(105, 15)]]


def fused_pairs_equal_two_pass(F, T):
    for pairs in PAIR_LISTS:
        reports = sup_discrepancy(F, T, pairs, EPSILONS)
        assert len(reports) == len(pairs)  # in pair order: each is held to its own pair's oracle below
        fused = discrepancy_arrays(F, T, pairs)  # the tiles of one pass over every pair
        for (sup_disc, frac), got, (K, L) in zip(reports, fused, pairs, strict=True):
            diffs, u, v = sup_discrepancy_two_pass(F, T, K, L)
            # diffs, U and V are in orbit order: entry i belongs to the point order[i]
            assert got.tobytes() == diffs.tobytes(), (pairs, K, L)
            U, V = proof_arrays(F, T, K, L)
            assert U.tobytes() == u.tobytes(), (pairs, K, L)
            assert V.tobytes() == v.tobytes(), (pairs, K, L)
            assert bits(sup_disc) == bits(np.max(diffs))
            for eps in EPSILONS:
                assert bits(frac[eps]) == bits(np.mean(diffs >= eps))
        # a repeated pair gets its own blocks and fractions with the same values
        if len(reports) == 3:
            assert reports[0][1] is not reports[1][1] and reports[0][1] == reports[1][1]
            assert fused[0] is not fused[1]
            assert fused[0].tobytes() == fused[1].tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 64, 256, dynamics.CHUNK_POINTS])
@pytest.mark.parametrize("name", ["naive2", "naive2-normal", "mixed-zeros", "drift", "rotation"])
def test_fused_pairs_bitwise_equal_two_pass_oracle(monkeypatch, chunk, name):
    # small chunks split a length class between chunks, and the four
    # horizons of two pairs split it at other rows than one horizon would
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    fused_pairs_equal_two_pass(*kernel_system(name))


def test_fused_pairs_take_one_pass_and_check_every_pair_first(monkeypatch):
    F, T = naive_system(4)
    calls, tiles = [], []
    row_means, carried_sums = stabilization._row_means, stabilization._carried_sums

    def counting(along, index, horizons):
        calls.append(tuple(horizons))
        return row_means(along, index, horizons)

    def tiling(along, start, *rest):
        tiles.append(np.size(start))
        return carried_sums(along, start, *rest)

    monkeypatch.setattr(stabilization, "_row_means", counting)
    monkeypatch.setattr(stabilization, "_carried_sums", tiling)
    for pairs in ([(40, 20)], [(400, 200)]):
        sup_discrepancy(F, T, pairs)
    apart = sum(tiles)
    calls.clear()
    tiles.clear()
    sup_discrepancy(F, T, [(40, 20), (400, 200)])
    # one pass over every cycle serves both pairs: one lag cursor, and a lead per remainder
    assert calls == [(40, 20, 400, 200)]
    assert 0 < sum(tiles) < apart
    calls.clear()
    assert sup_discrepancy(F, T, []) == []
    for bad in ([(40, 20), (5, 5)], [(3, 0)], [(40, 20), (20, 40)]):
        with pytest.raises(ValueError):
            sup_discrepancy(F, T, bad)
    for bad in ([0.0], [0.05, float("nan")], [-1.0]):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            sup_discrepancy(F, T, [(40, 20)], bad)
    assert calls == []


@pytest.mark.parametrize("name", ["tent", "ex03"])
def test_discrepancy_temporaries_on_one_long_cycle_stay_a_few_tiles(name):
    # a float64 and an int8 memo; horizons below the period, and above it with a short pair fused
    M = 10**6
    T = build_rotation(M, 1 / np.sqrt(2))
    F = paper_observable(name, M, **({"K": 1000} if name == "ex03" else {}))
    assert T.orbit_index.lengths.tolist() == [M] and T.along(F).dtype == {"tent": np.float64, "ex03": np.int8}[name]
    for pairs in ([(500_000, 250_000)], [(2_500_003, 1_000_001), (40, 7)]):
        _, peak = traced_peak(sup_discrepancy, F, T, pairs, EPSILONS)
        # no array is kept: a report holds a max and one count per epsilon
        assert peak <= 4 * dynamics.CHUNK_POINTS * 2 * len(pairs) * 8, (pairs, peak)


def test_discrepancy_and_proof_bound_passes_hold_a_few_tiles_at_any_size():
    # one drift cycle, an int8 memo: the same bound at 1e5 and 1e6 points, so nothing in either pass
    # grows with M; F has no negative value, so proof_terms reads the memo as |F| and stores no copy
    bound = 8 * dynamics.CHUNK_POINTS * 8
    for M in (10**5, 10**6):
        T, F = build_drift_system(M), paper_observable("ex03", M, K=1000)
        assert T.along(F) is F.values
        _, disc_peak = traced_peak(sup_discrepancy, F, T, [(1000, 500)], EPSILONS)
        tiles, held = traced_peak(proof_terms, F, T, 1000, 500)  # the peak of making it bounds what it holds

        def bound_holds():
            for (_, (d,)), (_, (U, V)) in zip(stabilization._discrepancy_tiles(F, T, [(1000, 500)]), tiles,
                                              strict=True):
                assert (d <= U + V + 1e-9).all()

        _, proof_peak = traced_peak(bound_holds)
        assert disc_peak <= bound and proof_peak <= bound and held <= 1 << 16, (M, disc_peak, proof_peak, held)


def spike_drift(M=2000, z=1000, seed=3):
    """Drift with noise below 0.01 and a spike of 100 at z.

    Every prefix mean from z - K on stays within 0.02 of 0 up to n = K and
    jumps at K + 1, so with n_min <= K and eps = 0.05 that row's band ends
    at K_star = K; rows from z + 1 on see no spike within M - 1 steps.
    """
    values = np.random.default_rng(seed).uniform(-0.01, 0.01, M)
    values[z] = 100.0
    return Observable(values), build_drift_system(M)


def band_rows_equal_loop(F, T, points, n_min, eps, scan_limit):
    k_star, witness = stabilization_segment(F, T, points, n_min, eps, scan_limit)
    capped = k_star == scan_limit
    per_point = [band_end_loop(F, T, int(y), n_min, eps, scan_limit) for y in points]
    assert list(zip(k_star.tolist(), capped.tolist())) == [(k, c) for k, _, c in per_point]
    assert witness.tobytes() == bits(*[w for _, w, _ in per_point])
    return k_star, capped


# rows that leave their band on either side of the 32- and 96-column tile edges
TILE_EDGES = [31, 32, 33, 95, 96, 97]


@pytest.mark.parametrize("chunk", [7, 256, dynamics.CHUNK_POINTS])
def test_band_scan_early_stop_bitwise_equals_point_loop(monkeypatch, chunk):
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    F, T = spike_drift()
    z = 1000
    leavers = np.array([z - K for K in TILE_EDGES + [10, 19, 150, 200, 249, 250, 251]])
    held = np.arange(z + 1, z + 40, 3)  # capped rows, mixed into the same chunks
    points = np.r_[leavers[:3], held[:5], leavers[3:], held[5:]]
    # (n_min, scan_limit): one and several tiles; n_min past the first two
    # tiles; scan_limit below 32; and 250, inside the fourth tile (224..480)
    for n_min, scan_limit in [(1, 300), (5, 1000), (150, 400), (3, 20), (1, 250)]:
        k_star, capped = band_rows_equal_loop(F, T, points, n_min, 0.05, scan_limit)
        if n_min == 1:
            edges = k_star[np.isin(points, z - np.array(TILE_EDGES))]
            assert edges.tolist() == TILE_EDGES
        assert capped[np.isin(points, held)].all()
        assert not capped.all()


@pytest.mark.parametrize("name", ["naive8", "naive5-normal", "drift1000", "mixed-zeros"])
def test_band_scan_early_stop_on_built_systems(name):
    # the cycles-many shape (every row leaves early) and rows that never leave
    F, T = kernel_system(name)
    points = np.r_[SplitMix64(5).sample_points(T.size, 200), awkward_sample(T, 4)].astype(np.int64)
    for n_min, eps, scan_limit in [(5, 0.05, 400), (2, 0.3, 97), (30, 1e-3, 33), (100, 0.5, 1100)]:
        band_rows_equal_loop(F, T, points, n_min, eps, scan_limit)


def segments_equal_point_loop(F, T, name):
    M = T.size
    sample = awkward_sample(T, len(name))
    # (n_min, eps, scan_limit): violations at the second step, scans below,
    # at and above M, n_min = scan_limit, every row capped, and a row whose
    # first break is at K = scan_limit (K_star = last, uncapped)
    last = min((k for k, _, capped in (band_end_loop(F, T, int(y), 2, 0.05, M) for y in sample)
                if not capped), default=M)
    cases = [(1, 1e-12, M // 2 + 1), (3, 0.05, M), (5, 0.3, M + 37),
             (M // 3 + 1, 0.1, M // 3 + 1), (2, 1e6, M + 5), (2, 0.05, last + 1)]
    for n_min, eps, scan_limit in cases:
        per_point = [band_end_loop(F, T, int(y), n_min, eps, scan_limit) for y in sample]
        K_star, witness = stabilization_segment(F, T, sample, n_min, eps, scan_limit)
        capped = K_star == scan_limit
        assert list(zip(K_star.tolist(), capped.tolist())) == [(k, c) for k, _, c in per_point]
        assert witness.tobytes() == bits(*[w for _, w, _ in per_point])
        if eps == 1e-12:  # some row leaves its band at the second step
            assert np.any((K_star == n_min) & ~capped)
        if (n_min, eps, scan_limit) == (2, 0.05, last + 1) and last < M:
            assert np.any((K_star == last) & ~capped)
        for eta in (0.1, 0.5):
            common_k, common_w, common_excluded = common_stabilization_segment(K_star, witness, eta)
            k, w, loop_capped, excluded = common_segment_loop(F, T, n_min, eps, eta, scan_limit, sample)
            assert (common_k, common_k == scan_limit, common_excluded) == (k, loop_capped, excluded)
            assert bits(common_w) == bits(w)
    if name == "mixed-zeros":
        # the points off the longest cycle keep the sign of their -0.0 means
        assert np.any(np.signbit(witness) & capped)


@pytest.mark.parametrize("chunk,name", CASES)
def test_segments_bitwise_equal_point_loop(monkeypatch, chunk, name):
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    segments_equal_point_loop(*kernel_system(name), name)


# -- column-major tiles against the row-major oracle ---------------------------


@pytest.mark.parametrize("chunk", [7, 64, 256, dynamics.CHUNK_POINTS])
@pytest.mark.parametrize("name", [*KERNEL_SYSTEMS, "mixed-nan"])
def test_column_tiles_bitwise_equal_the_rowwise_oracle(monkeypatch, chunk, name):
    # COLUMN_ROWS = 2 puts every tile of two rows or more on the column path (one-row tiles keep
    # their cumsum): each tile is held to the row-major cumsum, and every kernel to its oracle
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    monkeypatch.setattr(dynamics, "COLUMN_ROWS", 2)
    carried, rows = dynamics._carried_sums, []

    def checked(along, start, p, pos, lo, n, carry=None):
        tile = carried(along, start, p, pos, lo, n, carry)
        assert tile.tobytes() == carried_sums_rowwise(along, start, p, pos, lo, n, carry).tobytes()
        assert tile.flags.f_contiguous or tile.shape[0] == 1
        rows.append(tile.shape[0])
        return tile

    monkeypatch.setattr(stabilization, "_carried_sums", checked)
    F, T = nan_cycles() if name == "mixed-nan" else kernel_system(name)
    discrepancies_equal_two_pass(F, T, horizon_pairs(T))
    fused_pairs_equal_two_pass(F, T)
    segments_equal_point_loop(F, T, name)  # mixed-nan: a NaN witness gives a NaN common witness, as np.median
    assert max(rows) >= 2 or chunk == 7  # a 7-slot chunk holds one row of most of these cycles


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_column_tiles_of_both_fills_bitwise_equal_the_rowwise_oracle(monkeypatch, dtype):
    # rows end to end with one p and pos (copied by doubling), and rows of mixed p and pos
    # (gathered); tiles before column 0, from it, and carried from a tile before
    monkeypatch.setattr(dynamics, "COLUMN_ROWS", 2)
    rng = np.random.default_rng(7)
    along = rng.integers(-5, 6, 60).astype(dtype)
    if dtype == np.float64:
        along[::7], along[11] = -0.0, np.nan
    runs = [(np.arange(0, 60, 5), 5, 3), (np.array([0, 5, 12, 30, 41]), np.array([5, 7, 9, 11, 3]),
                                           np.array([0, 6, 2, 10, 1]))]
    for start, p, pos in runs:
        for lo, n in [(-3, 8), (0, 1), (0, 17), (4, 23)]:
            for carry in (None, np.full(start.size, -0.0), rng.standard_normal(start.size)):
                tile = dynamics._carried_sums(along, start, p, pos, lo, n, carry)
                assert tile.flags.f_contiguous and not tile.flags.c_contiguous or n == 1
                assert tile.tobytes() == carried_sums_rowwise(along, start, p, pos, lo, n, carry).tobytes()


def test_a_naive_tile_takes_the_column_path_and_a_one_row_tile_does_not(monkeypatch):
    # at the default COLUMN_ROWS: the 2^17 shift's 963-row tiles are column-major and never reach
    # np.cumsum, and a one-row tile is summed by np.cumsum
    F, T = naive_system(8)
    along, carried, tiles, summed = T.along(F), dynamics._carried_sums, [], []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum", lambda a, *args, **kw: summed.append(a.shape) or cumsum(a, *args, **kw))
    monkeypatch.setattr(stabilization, "_carried_sums", lambda *a: tiles.append(carried(*a)) or tiles[-1])
    sup_discrepancy(F, T, [(40, 20), (400, 200)])
    big = [t for t in tiles if t.shape[0] >= dynamics.COLUMN_ROWS]
    assert {t.shape[0] for t in big} >= {963} and all(t.flags.f_contiguous and not t.flags.c_contiguous
                                                     for t in big)
    assert not any(shape[0] >= dynamics.COLUMN_ROWS for shape in summed)
    summed.clear()
    tile = dynamics._carried_sums(along, 0, int(T.orbit_index.lengths[0]), 3, 0, 40)
    assert summed == [(1, 40)] and tile.flags.c_contiguous


def test_segment_start_point_out_of_range():
    F, T = random_system(10, 1)
    for y in (-1, 10):
        with pytest.raises(IndexError):
            stabilization_segment(F, T, [y], 1, 0.1, 5)
        with pytest.raises(IndexError):
            stabilization_segment(F, T, [0, y], 1, 0.1, 5)


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
def test_nan_and_nonpositive_epsilons_are_refused(eps):
    F, T = random_system(10, 1)
    ((_, frac),) = sup_discrepancy(F, T, [(5, 2)])
    with pytest.raises(KeyError):
        frac[eps]
    for call in (lambda: exceedance_fraction(F, T, 5, 2, eps),
                 lambda: stabilization_segment(F, T, [0], 1, eps, 5),
                 lambda: stabilization_segment(F, T, [0, 1], 1, eps, 5)):
        with pytest.raises(ValueError):
            call()


# -- reference profile and sampling ----------------------------------------


def test_reference_psi_branches():
    assert reference_psi(0.5, 0.25) == pytest.approx(0.5)
    assert reference_psi(0.5, 0.5) == pytest.approx(0.75)
    # second branch: t=0.75, a=0.5 -> 0.75+0.25-1+0.5 = 0.5
    assert reference_psi(0.5, 0.75) == pytest.approx(0.5)
    assert reference_psi(1.0, 1.0) == pytest.approx(0.5)
    # a = 0 stays on the first branch for every admissible t
    assert reference_psi(0.0, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        reference_psi(-0.1, 0.5)


def test_reference_psi_matches_drift_means():
    # linear observable on the drift system: A_n(y) tends to psi(n/M, y/M)
    from ergodia.systems import build_drift_system, paper_observable

    M = 2000
    T = build_drift_system(M)
    F = paper_observable("linear", M)
    for y_frac, a_frac in [(0.3, 0.5), (0.8, 0.5), (0.1, 0.9)]:
        y = int(y_frac * M)
        n = int(a_frac * M)
        got = ergodic_means_prefix(F, T, y, n)[n - 1]
        assert got == pytest.approx(reference_psi(a_frac, y_frac), abs=2.0 / M)


def test_stratified_start_points_deterministic():
    a = stratified_start_points(1000, 10, 5, 42)
    b = stratified_start_points(1000, 10, 5, 42)
    assert a == b
    assert a[:10] == list(range(0, 1000, 100))
    assert len(set(a)) == len(a)


def test_stratified_start_points_extras_in_range():
    pts = stratified_start_points(97, 5, 20, 7)
    assert all(0 <= y < 97 for y in pts)


def test_sample_points_stops_once_every_point_is_drawn():
    # draws after all M points are in cannot add one, so a huge count returns at once
    assert SplitMix64(9).sample_points(5, 10**30) == SplitMix64(9).sample_points(5, 200)
    assert sorted(SplitMix64(9).sample_points(5, 200)) == list(range(5))
    assert stratified_start_points(10, 2, 10**30, 3) == stratified_start_points(10, 2, 200, 3)
