"""Core dynamics: permutations, orbits, prefix means, Gamma series."""

import copy

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
from oracles import (apply_power, cycle_decomposition, exact_prefix_means, exact_value, mean_rounding_bound,
                     numerators, orbit_and_period, permutation_from_cycles, prefix_means_gather, traced_peak,
                     trajectory)


def random_permutation(M, seed):
    rng = SplitMix64(seed)
    idx = np.arange(M, dtype=np.int64)
    for i in range(M - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return FinitePermutation(idx)


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
    T = FinitePermutation(np.arange(5))
    assert cycle_decomposition(T) == [[0], [1], [2], [3], [4]]
    assert all(T.period(y) == 1 for y in range(5))


def test_from_cycles_round_trip():
    T = permutation_from_cycles([[0, 3, 1], [2, 4]], size=6)
    assert T.image[0] == 3 and T.image[3] == 1 and T.image[1] == 0
    assert T.image[2] == 4 and T.image[4] == 2
    assert T.image[5] == 5
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
            assert T.image[int(a)] == int(b)


@given(st.integers(2, 100), st.integers(0, 2**32), st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_apply_power_matches_iteration(M, seed, n):
    T = random_permutation(M, seed)
    y = seed % M
    z = y
    for _ in range(n):
        z = T.image[z]
    assert apply_power(T, y, n) == z


def test_orbit_and_period():
    T = permutation_from_cycles([[0, 2, 4, 1]], size=5)
    orb, p = orbit_and_period(T, 4)
    assert p == 4
    assert orb == [4, 1, 0, 2]


def test_trajectory_wraps():
    T = permutation_from_cycles([[0, 1, 2]], size=3)
    assert trajectory(T, 1, 7).tolist() == [1, 2, 0, 1, 2, 0, 1]


def test_trajectory_equals_modular_index():
    # fixed points, short and long cycles; horizons below, at and far past the period: the walk on
    # the image against y's cycle in the orbit index, read from y's slot
    T = permutation_from_cycles([[0, 5, 3, 8, 1], [2, 7], [4, 9, 6, 10, 11, 12, 13]], size=15)
    index = T.orbit_index
    for y in range(T.size):
        slot = int(index.slots([y])[0])
        c = int(index.cycle_at(slot))
        start, p = int(index.starts[c]), int(index.lengths[c])
        assert T.period(y) == p
        for n in (0, 1, 2, 4, 5, 6, 7, 33, 1000):
            expect = index.order[start + (slot - start + np.arange(n)) % p]
            assert trajectory(T, y, n).tolist() == expect.tolist()


def test_out_of_range_start_rejected():
    T = FinitePermutation(np.arange(4))
    with pytest.raises(IndexError):
        apply_power(T, 4, 1)
    with pytest.raises(IndexError):
        T.period(-1)
    with pytest.raises(IndexError):
        ergodic_means_prefix(Observable([1.0] * 4), T, 4, 3)


# -- observables -----------------------------------------------------------


def test_observable_exact_integral_values():
    F = Observable([1.0, -3.0, 2.0])
    assert exact_value(F, 1) == Fraction(-3)


def test_observable_exact_needs_rule_for_fractions():
    F = Observable([0.5])
    with pytest.raises(ValueError):
        exact_value(F, 0)


@pytest.mark.parametrize("values", [np.empty(0), [], np.float64(1.0), 5, np.ones((2, 2)), np.empty((0, 3))],
                         ids=["empty", "empty-list", "0-d", "0-d-int", "2-d", "2-d-empty"])
def test_observable_refuses_all_but_a_non_empty_vector(values):
    with pytest.raises(ValueError, match=r"^values must be a non-empty 1-d array, got shape \("):
        Observable(values)


def test_observable_values_read_only():
    F = Observable([1.0, 2.0])
    with pytest.raises(ValueError):
        F.values[0] = 9.0


def test_narrow_numerators_are_widened_before_scaling():
    # int8 values times a denominator: in int8, 100 * 3 and -128 * 3 would wrap
    F = Observable(np.array([100, -128, 5], dtype=np.int8))
    assert F.values.dtype == np.int8
    assert numerators(F.values, 3).tolist() == [300, -384, 15]


# -- ergodic means ---------------------------------------------------------


def brute_mean(F, T, y, n):
    z, total = y, 0.0
    for _ in range(n):
        total += F.values[z]
        z = T.image[z]
    return total / n


@given(st.integers(2, 60), st.integers(0, 2**32), st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_prefix_means_match_brute_force(M, seed, n_max):
    T = random_permutation(M, seed)
    rng = SplitMix64(seed ^ 0xABCDEF)
    F = Observable([rng.next_below(41) - 20 for _ in range(M)])
    y = seed % M
    series = ergodic_means_prefix(F, T, y, n_max)
    for n in (1, n_max // 2 + 1, n_max):
        assert series[n - 1] == pytest.approx(brute_mean(F, T, y, n), abs=1e-10)


def test_exact_mode_fractions():
    T = permutation_from_cycles([[0, 1, 2]], size=3)
    F = Observable([1.0, 0.0, 0.0])
    assert exact_prefix_means(F, T, 0, 3) == [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    assert exact_prefix_means(F, T, 1, 4) == [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 4)]


def assert_means_are_rounded_fractions(F, means, exact):
    # the float means against float(A_n) of the exact Fractions: bit for bit where the float path
    # sums exactly, else within the recursive-summation bound
    want = np.asarray([float(q) for q in exact])
    bound = mean_rounding_bound(F, want.size)
    assert (np.abs(means - want) <= bound).all()
    assert means[bound == 0].tobytes() == want[bound == 0].tobytes()


@pytest.mark.parametrize("name,M", [("tent", 1000), ("tent", 997), ("linear", 1000), ("linear", 4099)])
def test_exact_means_are_rounded_fractions_of_rational_observables(name, M):
    # the exact means at tent's denominator 9M and linear's M, on the drift and on a rotation
    F = paper_observable(name, M)
    D = 9 * M if name == "tent" else M
    for T in (build_drift_system(M), build_rotation(M, 0.6180339887498949)):
        for y in (0, 1, M // 3):
            exact = exact_prefix_means(F, T, y, 2 * M + 7, D)
            assert_means_are_rounded_fractions(F, ergodic_means_prefix(F, T, y, 2 * M + 7), exact)
            # over whole periods the orbit sum is the sum of every numerator
            assert exact[M - 1] == Fraction(int(numerators(F.values, D).sum()), D * M)


@given(st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=40), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_exact_means_are_rounded_fractions_past_2_53(nums, n_max):
    # integer values near 2^53: the prefix sums leave float64's exact range within a few terms
    F = Observable([float(v) for v in nums])
    T = random_permutation(len(nums), len(nums) + n_max)
    exact = exact_prefix_means(F, T, 0, n_max)
    assert_means_are_rounded_fractions(F, ergodic_means_prefix(F, T, 0, n_max), exact)
    assert exact[-1] == Fraction(sum(int(F.values[z]) for z in trajectory(T, 0, n_max)), n_max)


def test_exact_means_of_large_integers_round_where_the_float_cumsum_does_not():
    F = Observable([2.0**53 - 1, 2.0**53 - 1, 3.0])
    T = permutation_from_cycles([[0, 1, 2]], size=3)
    exact = exact_prefix_means(F, T, 0, 3)
    assert exact[2] == Fraction(2**54 + 1, 3)
    means = ergodic_means_prefix(F, T, 0, 3)
    assert_means_are_rounded_fractions(F, means, exact)
    assert means[2] == np.cumsum(F.values)[2] / 3 != float(exact[2])


def test_the_mean_over_a_full_period_is_orbit_average():
    T = random_permutation(97, 5)
    rng = SplitMix64(6)
    F = Observable([rng.next_below(100) for _ in range(97)])
    for y in (0, 13, 96):
        p = T.period(y)
        series = ergodic_means_prefix(F, T, y, p)
        assert series[p - 1] == pytest.approx(orbit_average(F, T, y), abs=1e-12)


def test_means_constant_beyond_lcm_structure():
    # on a single cycle, A_{qM} = Av(F) exactly for every multiple of M
    M = 20
    T = FinitePermutation(np.roll(np.arange(M), -1))
    F = Observable(np.arange(M, dtype=float))
    series = ergodic_means_prefix(F, T, 7, 3 * M)
    av = float(np.mean(F.values))
    for q in (1, 2, 3):
        assert series[q * M - 1] == pytest.approx(av, abs=1e-12)


# -- gamma series ----------------------------------------------------------


def test_gamma_series_columns():
    M = 100
    T = FinitePermutation(np.roll(np.arange(M), -1))
    F = Observable(np.ones(M))
    pts, stride = gamma_series(F, T, 0, 0.5)
    assert stride == 1
    assert pts.shape == (50, 3)
    assert pts[0].tolist() == [1.0, 0.01, 1.0]
    assert pts[-1, 0] == 50


def test_gamma_series_stride_cap():
    M = 1000
    T = FinitePermutation(np.roll(np.arange(M), -1))
    F = Observable(np.zeros(M))
    pts, stride = gamma_series(F, T, 0, 1.0, stride=7)
    assert stride == 7
    assert pts[:, 0].tolist() == list(range(7, 1001, 7))


def test_gamma_series_k_beyond_one():
    M = 50
    T = FinitePermutation(np.roll(np.arange(M), -1))
    F = Observable(np.arange(M, dtype=float))
    pts, _ = gamma_series(F, T, 3, 2.0)
    assert pts[-1, 0] == 100
    assert pts[-1, 1] == pytest.approx(2.0)


def test_gamma_series_bitwise_equals_prefix_means():
    # the means at the stride points are the quotients of the gathered prefix sums, and
    # ergodic_means_prefix gives every one of them, as a read-only float64 array: at stride 1, gamma's
    # whole mean column
    from ergodia.systems import _rotation, build_bernoulli

    rng = np.random.default_rng(4)
    cases = [(_rotation(1000, 667), 3),
             (build_bernoulli(2, 3, "naive"), 5), (random_permutation(500, 9), 0)]
    for T, y in cases:
        F = Observable(rng.standard_normal(T.size) * 1e3)
        for k, stride in ((1.0, None), (2.7, 7), (0.5, 1)):
            pts, stride = gamma_series(F, T, y, k, stride)
            n_total = int(np.floor(k * T.size))
            ns = np.arange(stride, n_total + 1, stride)
            means = prefix_means_gather(F, T, y, n_total)
            got = ergodic_means_prefix(F, T, y, n_total)
            assert type(got) is np.ndarray and got.dtype == np.float64 and got.tobytes() == means.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0
            assert pts[:, 0].tolist() == ns.tolist()
            assert pts[:, 2].tobytes() == got[ns - 1].tobytes()


GAMMA_CASES = {
    # short cycles (periods 1, 3 and 7) far past one period
    "naive-N3": (lambda: build_bernoulli(2, 3, "naive"),
                 lambda M: paper_observable("chi0", M, N=3), 3.0),
    "rotation-1001": (lambda: build_rotation(1001, 0.3),
                      lambda M: paper_observable("tent", M), 2.5),
    "drift-997": (lambda: build_drift_system(997), lambda M: paper_observable("ex03", M, K=10), 1.7),
    "drift-997-normal": (lambda: build_drift_system(997),
                         lambda M: Observable(np.random.default_rng(3).standard_normal(M)), 2.2),
}


@pytest.mark.parametrize("chunk", [1, 7, 64, dynamics.CHUNK_POINTS])
@pytest.mark.parametrize("name", sorted(GAMMA_CASES))
def test_gamma_series_in_chunks_is_bitwise_the_prefix_means(monkeypatch, chunk, name):
    # the carried sum crosses cycle wraps and stride points, and every mean of
    # gamma_series and of ergodic_means_prefix is still the gathered cumsum's float
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    make_T, make_F, k = GAMMA_CASES[name]
    T = make_T()
    F, index = make_F(T.size), T.orbit_index
    n_total = int(np.floor(k * T.size))
    last_slot = int(index.order[index.lengths[0] - 1])  # the last point of the first cycle
    last_head = int(index.order[index.starts[-1]])  # the head of the last cycle
    for y in {0, last_slot, last_head, T.size - 1}:
        means = prefix_means_gather(F, T, y, n_total)
        assert ergodic_means_prefix(F, T, y, n_total).tobytes() == means.tobytes()
        for stride in (1, 3, n_total):
            pts, _ = gamma_series(F, T, y, k, stride)
            ns = np.arange(stride, n_total + 1, stride)
            assert pts[:, 0].tolist() == ns.tolist()
            assert pts[:, 2].tobytes() == means[ns - 1].tobytes()


# ---- the int64 block sums of an integer memo ------------------------------

BLOCK_SYSTEMS = {
    "drift-1000": lambda: build_drift_system(1000),  # one cycle, wrapped 2.5 times
    "random-997": lambda: random_permutation(997, 5),  # cycles of 540, 372, 56, ..., 2 and 1 points
    "naive-2^9": lambda: build_bernoulli(2, 4, "naive"),  # 60 cycles of at most 9 points
}


def extreme_integers(M, dtype, seed):
    """M integers of dtype with both ends of its range, which Observable stores as that dtype."""
    info, rng = np.iinfo(dtype), np.random.default_rng(seed)
    values = rng.integers(info.min, info.max, M, endpoint=True)
    values[rng.integers(0, M, M // 2)] = rng.choice([info.min, info.max], M // 2)
    values[:2] = info.min, info.max
    return Observable(values)


def stored_as_float64(F):
    """F with its values held as float64, the dtype _narrow never keeps for integers, so every
    kernel takes its float path."""
    G = copy.copy(F)
    object.__setattr__(G, "values", F.values.astype(np.float64))
    return G


def failing_carried_sums(*args, **kwargs):
    raise AssertionError("the float path ran")


@pytest.mark.parametrize("chunk", [1, 7, 64, dynamics.CHUNK_POINTS])
@pytest.mark.parametrize("dtype", [np.int8, np.int32])
@pytest.mark.parametrize("name", sorted(BLOCK_SYSTEMS))
def test_block_sums_of_an_integer_memo_are_bitwise_the_float_sums(monkeypatch, chunk, dtype, name):
    # strides that do not divide n_total = 2.5 * M, start points in the middle of a cycle and at
    # its end, and runs that wrap: the int64 block sums with their carry are the floats of one
    # whole float64 cumsum; a stride above CHUNK_POINTS takes the float path
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    T = BLOCK_SYSTEMS[name]()
    F, index = extreme_integers(T.size, dtype, chunk), T.orbit_index
    G, n_total = stored_as_float64(F), int(2.5 * T.size)
    assert F.values.dtype == dtype and G.values.dtype == np.float64
    ends = index.starts + index.lengths - 1
    middles = index.starts + index.lengths // 2
    starts = {int(index.order[s]) for s in (middles[0], middles[-1], ends[0], ends[len(ends) // 2])}
    for y in starts:
        means = prefix_means_gather(F, T, y, n_total)
        for stride in (1, 3, 40, 65):
            ns = np.arange(stride, n_total + 1, stride)
            floats = dynamics._prefix_sums(G, T, y, n_total, stride)
            with monkeypatch.context() as m:
                if stride <= chunk:
                    m.setattr(dynamics, "_carried_sums", failing_carried_sums)
                sums = dynamics._prefix_sums(F, T, y, n_total, stride)
                pts, _ = gamma_series(F, T, y, 2.5, stride)
            assert sums.tobytes() == floats.tobytes()
            assert pts[:, 2].tobytes() == means[ns - 1].tobytes()
        assert ergodic_means_prefix(F, T, y, n_total).tobytes() == means.tobytes()


def test_int32_sums_that_float64_rounds_take_the_float_path(monkeypatch):
    # past 2^22 values of 2^31 - 1 the float64 cumsum rounds, where int64 sums would not: the
    # block sums are refused, and the means are the float oracle's
    T, F = build_drift_system(1000), paper_observable("constant", 1000, value=2**31 - 1)
    k, stride = 4195.5, 1000  # n_total = 4,195,500, just above 2^22 = 4,194,304
    n_total = int(k * T.size)
    assert F.values.dtype == np.int32 and n_total > 2**22
    pts, _ = gamma_series(F, T, 123, k, stride)
    means = prefix_means_gather(F, T, 123, n_total)[stride - 1 :: stride]
    assert pts[:, 2].tobytes() == means.tobytes()
    assert (means != 2**31 - 1).any()  # the exact means are all 2^31 - 1
    monkeypatch.setattr(dynamics, "_carried_sums", failing_carried_sums)
    with pytest.raises(AssertionError, match="the float path ran"):
        gamma_series(F, T, 123, k, stride)
    gamma_series(F, T, 123, 2**22 / T.size, stride)  # at 2^22 values the int64 sums are the floats


@pytest.mark.parametrize("stride", [40, dynamics.CHUNK_POINTS, dynamics.CHUNK_POINTS + 1, 4_000_000])
def test_block_sums_hold_at_most_a_chunk_at_any_stride(stride):
    # beyond the output, the temporaries stay under three float64 chunks whatever the stride: a
    # block longer than a chunk is left to the float path, which reads it a tile at a time
    T, F = build_drift_system(1_000_000), paper_observable("ex03", 1_000_000, K=1000)
    T.locate([12345])
    T.along(F)  # the memo is F's one array, not a temporary of the kernel
    (pts, _), peak = traced_peak(gamma_series, F, T, 12345, 4.0, stride)
    assert peak - pts.nbytes < 3 * dynamics.CHUNK_POINTS * 8, peak - pts.nbytes


def column_stacked_gamma(F, T, y, k, stride):
    """gamma_series's points as they were built before the in-place fill: n as float, n / M and
    kept / n, each its own array, then a column_stack."""
    n_total = int(np.floor(k * T.size))
    kept = dynamics._prefix_sums(F, T, y, n_total, stride)
    ns = np.arange(stride, n_total + 1, stride, dtype=np.int64)
    return np.column_stack([ns.astype(np.float64), ns / T.size, kept / ns])


# and a series of 3e5 means, whose default stride is 3
IN_PLACE_CASES = {**GAMMA_CASES, "rotation-100003": (lambda: build_rotation(100_003, 0.3),
                                                     lambda M: paper_observable("tent", M), 3.0)}


@pytest.mark.parametrize("stride", [1, 7, None])
@pytest.mark.parametrize("name", sorted(IN_PLACE_CASES))
def test_gamma_series_filled_in_place_is_bitwise_the_column_stack(name, stride):
    make_T, make_F, k = IN_PLACE_CASES[name]
    T = make_T()
    F = make_F(T.size)
    for y in (0, T.size // 3, T.size - 1):
        pts, used = gamma_series(F, T, y, k, stride)
        assert used == (stride or max(1, int(k * T.size) // 100_000))
        assert pts.dtype == np.float64 and pts.flags.c_contiguous
        assert pts.tobytes() == column_stacked_gamma(F, T, y, k, used).tobytes()


@pytest.mark.parametrize("chunk", [1, 7, dynamics.CHUNK_POINTS])
def test_gamma_of_a_negative_zero_keeps_its_sign_across_chunks(monkeypatch, chunk):
    # the first chunk adds no carry: 0.0 + -0.0 would be +0.0
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    T = build_drift_system(50)
    F = paper_observable("constant", 50, value=-0.0)
    pts, _ = gamma_series(F, T, 7, 2.0, 1)
    assert np.signbit(pts[:, 2]).all() and not pts[:, 2].any()
    means = ergodic_means_prefix(F, T, 7, 100)
    assert np.signbit(means).all() and not means.any()


def test_gamma_series_rejects_out_of_range_start():
    T = FinitePermutation(np.arange(10))
    F = Observable(np.zeros(10))
    with pytest.raises(IndexError):
        gamma_series(F, T, 10, 1.0)


def test_gamma_series_rejects_empty():
    T = FinitePermutation(np.arange(10))
    F = Observable(np.zeros(10))
    with pytest.raises(ValueError):
        gamma_series(F, T, 0, 0.01)


def test_array_dataclasses_compare_by_identity():
    from ergodia.integrability import integrability_profile

    T = FinitePermutation(np.roll(np.arange(4), -1))
    F = Observable([1.0, 2.0, 3.0, 4.0])
    G = Observable([1.0, 2.0, 3.0, 4.0])
    pairs = [
        (F, G),
        (T.orbit_index, FinitePermutation(T.image).orbit_index),
        (integrability_profile(F, [0.5, 2.5]), integrability_profile(F, [0.5, 2.5])),
    ]
    for a, b in pairs:
        # equal fields, distinct objects: == is identity and never raises
        assert a == a
        assert not a == b
        assert a != b
        assert len({a, b}) == 2
