"""Core dynamics: permutations, orbits, prefix means, Gamma series."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ergodia import dynamics
from ergodia.dynamics import (
    FinitePermutation,
    Observable,
    ergodic_means_prefix,
    gamma_series,
    orbit_average,
)
from ergodia.rng import SplitMix64
from ergodia.systems import build_bernoulli, build_drift_system, build_rotation, paper_observable
from oracles import apply_power, cycle_decomposition, orbit_and_period, permutation_from_cycles


def random_permutation(M, seed):
    rng = SplitMix64(seed)
    idx = np.arange(M, dtype=np.int64)
    for i in range(M - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return FinitePermutation(idx, validate=False)


# -- permutation structure -------------------------------------------------


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        FinitePermutation([0, 0, 1])
    with pytest.raises(ValueError):
        FinitePermutation([0, 1, 3])
    with pytest.raises(ValueError):
        FinitePermutation([-1, 0, 1])
    with pytest.raises(ValueError):  # ascending like the identity, but with a repeat
        FinitePermutation([0, 1, 1])


def test_identity_cycles():
    T = FinitePermutation.identity(5)
    assert cycle_decomposition(T) == [[0], [1], [2], [3], [4]]
    assert all(T.period(y) == 1 for y in range(5))


def test_from_cycles_round_trip():
    T = permutation_from_cycles([[0, 3, 1], [2, 4]], size=6)
    assert T(0) == 3 and T(3) == 1 and T(1) == 0
    assert T(2) == 4 and T(4) == 2
    assert T(5) == 5
    # descending length, then smallest element
    assert [len(c) for c in T.cycles] == [3, 2, 1]


def test_cycle_order_tie_break():
    T = permutation_from_cycles([[4, 5], [0, 1], [2, 3]], size=6)
    assert [c[0] for c in T.cycles] == [0, 2, 4]


@given(st.integers(1, 200), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_cycles_partition(M, seed):
    T = random_permutation(M, seed)
    seen = np.concatenate(T.cycles)
    assert sorted(seen.tolist()) == list(range(M))
    # each cycle is consistent with the image array
    for cyc in T.cycles:
        for a, b in zip(cyc, np.roll(cyc, -1)):
            assert T(int(a)) == int(b)


@given(st.integers(2, 100), st.integers(0, 2**32), st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_apply_power_matches_iteration(M, seed, n):
    T = random_permutation(M, seed)
    y = seed % M
    z = y
    for _ in range(n):
        z = T(z)
    assert apply_power(T, y, n) == z


def test_orbit_and_period():
    T = permutation_from_cycles([[0, 2, 4, 1]], size=5)
    orb, p = orbit_and_period(T, 4)
    assert p == 4
    assert orb == [4, 1, 0, 2]


def test_trajectory_wraps():
    T = permutation_from_cycles([[0, 1, 2]], size=3)
    assert T.trajectory(1, 7).tolist() == [1, 2, 0, 1, 2, 0, 1]


def test_trajectory_equals_modular_index():
    # fixed points, short and long cycles; horizons below, at and far past the period
    T = permutation_from_cycles([[0, 5, 3, 8, 1], [2, 7], [4, 9, 6, 10, 11, 12, 13]], size=15)
    for y in range(T.size):
        cyc, pos = T.cycle_of(y)
        for n in (0, 1, 2, 4, 5, 6, 7, 33, 1000):
            expect = cyc[(pos + np.arange(n)) % len(cyc)]
            assert T.trajectory(y, n).tolist() == expect.tolist()


def test_out_of_range_start_rejected():
    T = FinitePermutation.identity(4)
    with pytest.raises(IndexError):
        apply_power(T, 4, 1)
    with pytest.raises(IndexError):
        T.trajectory(-1, 3)


# -- observables -----------------------------------------------------------


def test_observable_exact_integral_values():
    F = Observable.from_values([1.0, -3.0, 2.0])
    assert F.exact(1) == Fraction(-3)


def test_observable_exact_needs_rule_for_fractions():
    F = Observable.from_values([0.5])
    with pytest.raises(ValueError):
        F.exact(0)


@pytest.mark.parametrize("size", [0, -1])
def test_observable_refuses_an_empty_space(size):
    with pytest.raises(ValueError, match="size >= 1"):
        Observable(size, np.empty(0))
    with pytest.raises(ValueError, match="size >= 1"):
        Observable.from_values([])


def test_observable_values_read_only():
    F = Observable.from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        F.values[0] = 9.0


# -- ergodic means ---------------------------------------------------------


def brute_mean(F, T, y, n):
    z, total = y, 0.0
    for _ in range(n):
        total += F(z)
        z = T(z)
    return total / n


@given(st.integers(2, 60), st.integers(0, 2**32), st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_prefix_means_match_brute_force(M, seed, n_max):
    T = random_permutation(M, seed)
    rng = SplitMix64(seed ^ 0xABCDEF)
    F = Observable.from_values([rng.next_below(41) - 20 for _ in range(M)])
    y = seed % M
    series = ergodic_means_prefix(F, T, y, n_max)
    for n in (1, n_max // 2 + 1, n_max):
        assert series.mean_at(n) == pytest.approx(brute_mean(F, T, y, n), abs=1e-10)


def test_exact_mode_fractions():
    T = permutation_from_cycles([[0, 1, 2]], size=3)
    F = Observable.from_values([1.0, 0.0, 0.0])
    series = ergodic_means_prefix(F, T, 0, 3, exact=True)
    assert series.exact_means == (Fraction(1), Fraction(1, 2), Fraction(1, 3))


def assert_means_are_rounded_fractions(series):
    # means[n-1] is float(A_n) of the exact Fraction, bit for bit
    assert series.means.tobytes() == np.asarray([float(q) for q in series.exact_means]).tobytes()


@pytest.mark.parametrize("name,M", [("tent", 1000), ("tent", 997), ("linear", 1000), ("linear", 4099)])
def test_exact_means_are_rounded_fractions_of_rational_observables(name, M):
    # tent has denominator 9M, linear M
    F = paper_observable(name, M)
    T = build_rotation(M, 0.6180339887498949).permutation
    for y in (0, 1, M // 3):
        assert_means_are_rounded_fractions(ergodic_means_prefix(F, T, y, 2 * M + 7, exact=True))


@given(st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=40), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_exact_means_are_rounded_fractions_past_2_53(nums, n_max):
    # integer values near 2^53: the prefix sums leave float64's exact range within a few terms
    F = Observable.from_values([float(v) for v in nums])
    T = random_permutation(len(nums), len(nums) + n_max)
    series = ergodic_means_prefix(F, T, 0, n_max, exact=True)
    assert_means_are_rounded_fractions(series)
    assert series.exact_means[-1] == Fraction(sum(int(F.values[z]) for z in T.trajectory(0, n_max)), n_max)


def test_exact_means_of_large_integers_round_where_the_float_cumsum_does_not():
    F = Observable.from_values([2.0**53 - 1, 2.0**53 - 1, 3.0])
    T = permutation_from_cycles([[0, 1, 2]], size=3)
    series = ergodic_means_prefix(F, T, 0, 3, exact=True)
    assert_means_are_rounded_fractions(series)
    assert series.exact_means[2] == Fraction(2**54 + 1, 3)
    assert series.means[2] != np.cumsum(F.values)[2] / 3


def test_mean_at_full_period_is_orbit_average():
    T = random_permutation(97, 5)
    rng = SplitMix64(6)
    F = Observable.from_values([rng.next_below(100) for _ in range(97)])
    for y in (0, 13, 96):
        p = T.period(y)
        series = ergodic_means_prefix(F, T, y, p)
        assert series.mean_at(p) == pytest.approx(orbit_average(F, T, y), abs=1e-12)


def test_means_constant_beyond_lcm_structure():
    # on a single cycle, A_{qM} = Av(F) exactly for every multiple of M
    M = 20
    T = FinitePermutation(np.roll(np.arange(M), -1), validate=False)
    F = Observable.from_values(np.arange(M, dtype=float))
    series = ergodic_means_prefix(F, T, 7, 3 * M)
    av = float(np.mean(F.values))
    for q in (1, 2, 3):
        assert series.mean_at(q * M) == pytest.approx(av, abs=1e-12)


# -- gamma series ----------------------------------------------------------


def test_gamma_series_columns():
    M = 100
    T = FinitePermutation(np.roll(np.arange(M), -1), validate=False)
    F = Observable.from_values(np.ones(M))
    pts, stride = gamma_series(F, T, 0, 0.5)
    assert stride == 1
    assert pts.shape == (50, 3)
    assert pts[0].tolist() == [1.0, 0.01, 1.0]
    assert pts[-1, 0] == 50


def test_gamma_series_stride_cap():
    M = 1000
    T = FinitePermutation(np.roll(np.arange(M), -1), validate=False)
    F = Observable.from_values(np.zeros(M))
    pts, stride = gamma_series(F, T, 0, 1.0, stride=7)
    assert stride == 7
    assert pts[:, 0].tolist() == list(range(7, 1001, 7))


def test_gamma_series_k_beyond_one():
    M = 50
    T = FinitePermutation(np.roll(np.arange(M), -1), validate=False)
    F = Observable.from_values(np.arange(M, dtype=float))
    pts, _ = gamma_series(F, T, 3, 2.0)
    assert pts[-1, 0] == 100
    assert pts[-1, 1] == pytest.approx(2.0)


def test_gamma_series_bitwise_equals_prefix_means():
    # the means at the stride points are the quotients ergodic_means_prefix forms
    from ergodia.systems import RotationSystem, build_bernoulli

    rng = np.random.default_rng(4)
    cases = [(RotationSystem(1000, 667, 2.0 / 3.0, abs(667 / 1000 - 2.0 / 3.0)).permutation, 3),
             (build_bernoulli(2, 3, "naive").permutation, 5), (random_permutation(500, 9), 0)]
    for T, y in cases:
        F = Observable.from_values(rng.standard_normal(T.size) * 1e3)
        for k, stride in ((1.0, None), (2.7, 7), (0.5, 1)):
            pts, stride = gamma_series(F, T, y, k, stride)
            n_total = int(np.floor(k * T.size))
            ns = np.arange(stride, n_total + 1, stride)
            means = ergodic_means_prefix(F, T, y, n_total).means
            assert pts[:, 0].tolist() == ns.tolist()
            assert pts[:, 2].tobytes() == means[ns - 1].tobytes()


GAMMA_CASES = {
    # short cycles (periods 1, 3 and 7) far past one period
    "naive-N3": (lambda: build_bernoulli(2, 3, "naive").permutation,
                 lambda M: paper_observable("chi0", M, N=3), 3.0),
    "rotation-1001": (lambda: build_rotation(1001, 0.3).permutation,
                      lambda M: paper_observable("tent", M), 2.5),
    "drift-997": (lambda: build_drift_system(997), lambda M: paper_observable("ex03", M, K=10), 1.7),
    "drift-997-normal": (lambda: build_drift_system(997),
                         lambda M: Observable.from_values(np.random.default_rng(3).standard_normal(M)), 2.2),
}


@pytest.mark.parametrize("chunk", [1, 7, 64, dynamics.CHUNK_POINTS])
@pytest.mark.parametrize("name", sorted(GAMMA_CASES))
def test_gamma_series_in_chunks_is_bitwise_the_prefix_means(monkeypatch, chunk, name):
    # the carried sum crosses cycle wraps and stride points, and every mean
    # is still ergodic_means_prefix's float
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    make_T, make_F, k = GAMMA_CASES[name]
    T = make_T()
    F, index = make_F(T.size), T.orbit_index
    n_total = int(np.floor(k * T.size))
    last_slot = int(index.order[index.lengths[0] - 1])  # the last point of the first cycle
    last_head = int(index.order[index.starts[-1]])  # the head of the last cycle
    for y in {0, last_slot, last_head, T.size - 1}:
        means = ergodic_means_prefix(F, T, y, n_total).means
        for stride in (1, 3, n_total):
            pts, _ = gamma_series(F, T, y, k, stride)
            ns = np.arange(stride, n_total + 1, stride)
            assert pts[:, 0].tolist() == ns.tolist()
            assert pts[:, 2].tobytes() == means[ns - 1].tobytes()


@pytest.mark.parametrize("chunk", [1, 7, dynamics.CHUNK_POINTS])
def test_gamma_of_a_negative_zero_keeps_its_sign_across_chunks(monkeypatch, chunk):
    # the first chunk adds no carry: 0.0 + -0.0 would be +0.0
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    T = build_drift_system(50)
    F = paper_observable("constant", 50, value=-0.0)
    pts, _ = gamma_series(F, T, 7, 2.0, 1)
    assert np.signbit(pts[:, 2]).all() and not pts[:, 2].any()


def test_gamma_series_rejects_out_of_range_start():
    T = FinitePermutation.identity(10)
    F = Observable.from_values(np.zeros(10))
    with pytest.raises(IndexError):
        gamma_series(F, T, 10, 1.0)


def test_gamma_series_rejects_empty():
    T = FinitePermutation.identity(10)
    F = Observable.from_values(np.zeros(10))
    with pytest.raises(ValueError):
        gamma_series(F, T, 0, 0.01)


def test_array_dataclasses_compare_by_identity():
    from ergodia.integrability import integrability_profile
    from ergodia.stabilization import sup_discrepancy

    T = FinitePermutation(np.roll(np.arange(4), -1), validate=False)
    F = Observable.from_values([1.0, 2.0, 3.0, 4.0])
    G = Observable.from_values([1.0, 2.0, 3.0, 4.0])
    pairs = [
        (F, G),
        (ergodic_means_prefix(F, T, 0, 3), ergodic_means_prefix(F, T, 0, 3)),
        (T.orbit_index, FinitePermutation(T.image).orbit_index),
        (integrability_profile(F, [0.5, 2.5]), integrability_profile(F, [0.5, 2.5])),
        (sup_discrepancy(F, T, [(3, 2)])[0], sup_discrepancy(F, T, [(3, 2)])[0]),
    ]
    for a, b in pairs:
        # equal fields, distinct objects: == is identity and never raises
        assert a == a
        assert not a == b
        assert a != b
        assert len({a, b}) == 2
