"""Model systems: drift, rotations, de Bruijn shifts, and observables."""

import hashlib

import numpy as np
import pytest
from fractions import Fraction
from math import gcd
from hypothesis import given, settings, strategies as st

from ergodia import dynamics, systems
from ergodia.dynamics import FinitePermutation, Observable, _narrow, ergodic_means_prefix, orbit_average
from ergodia.systems import (
    _naive_shift,
    _necklaces,
    _windows,
    build_bernoulli,
    build_drift_system,
    build_rotation,
    debruijn_window_permutation,
    paper_observable,
)
from oracles import (
    block_density,
    debruijn_sequence,
    exact_prefix_means,
    exact_value,
    index_field,
    debruijn_lyndon,
    mean_rounding_bound,
    numerators,
    necklaces_brute,
    paper_observable_in_place,
    prefer_largest_debruijn,
    rotation_order_two_mod,
    tent_function,
    three_point_average,
    traced_peak,
    walk_index,
    width_rule,
    window_indices_roll,
    window_successor,
    word,
    word_index,
)


# -- drift and rotation ----------------------------------------------------


def test_drift_is_transitive():
    T = build_drift_system(50)
    assert len(T.cycles) == 1
    assert T.image[49] == 0


def test_build_rotation_coprime_search():
    P = build_rotation(10, 0.31).orbit_index.P
    assert gcd(P, 10) == 1
    assert P == 3
    assert abs(P / 10 - 0.31) == pytest.approx(0.01)


def test_build_rotation_even_tie():
    # t*M = 5 exactly but gcd(5, 10) != 1; nearest coprime is 3 or 7
    P = build_rotation(10, 0.5).orbit_index.P
    assert P in (3, 7)
    assert gcd(P, 10) == 1


def test_rotation_orbits_have_period_m_over_gcd():
    T = systems._rotation(12, 3)
    assert len(T.cycles) == gcd(3, 12)
    assert all(len(c) == 4 for c in T.cycles)


def test_rotation_order_needs_one_reduction():
    # r + (j*P mod M) < M already, so the outer mod M of the oracle changes nothing
    for M in range(2, 200):
        for P in range(1, M):
            order = systems._rotation(M, P).orbit_index.order
            assert np.array_equal(order, rotation_order_two_mod(M, P)), (M, P)


def test_rotation_validation():
    with pytest.raises(ValueError):
        build_rotation(1, 0.5)
    with pytest.raises(ValueError):
        build_rotation(10, 1.5)


def test_published_rotation_presets():
    assert build_rotation(33334, 2.0 / 3.0).orbit_index.P == 22225
    assert build_rotation(25001, float(1.0 / np.sqrt(2.0))).orbit_index.P == 17677


# -- de Bruijn -------------------------------------------------------------


def all_windows_distinct(s, n, m):
    wins = set()
    L = len(s)
    for i in range(L):
        wins.add(tuple(s[(i + j) % L] for j in range(n)))
    return len(wins) == m**n


@pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (2, 8), (3, 3), (4, 2), (5, 2)])
def test_debruijn_sequence_windows(m, n):
    s = debruijn_sequence(m, n)
    assert s.size == m**n
    assert all_windows_distinct(s.tolist(), n, m)
    # canonical rotation: starts with the all-zeros window
    assert s[:n].tolist() == [0] * n


def test_debruijn_sequence_validation():
    with pytest.raises(ValueError):
        debruijn_sequence(1, 3)
    with pytest.raises(ValueError):
        debruijn_sequence(2, 30)  # over the memory budget


@pytest.mark.parametrize("m,n", [(2, 3), (2, 6), (3, 3)])
def test_window_permutation_single_cycle(m, n):
    T = debruijn_window_permutation(m, n)
    assert T.size == m**n
    assert len(T.cycles) == 1


def test_window_permutation_follows_sequence():
    s = debruijn_sequence(2, 3)
    T = debruijn_window_permutation(2, 3)
    # the image of window i is window i+1 in the cyclic sequence
    def widx(i):
        return sum(int(s[(i + j) % 8]) << j for j in range(3))

    for i in range(8):
        assert T.image[widx(i)] == widx(i + 1)


@pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (3, 4), (2, 9), (5, 5), (4, 2), (7, 1),
                                 (2, 21), (3, 13)])
def test_debruijn_sequence_matches_lyndon_generator(m, n):
    s = debruijn_sequence(m, n)
    assert s.dtype == np.int64
    assert np.array_equal(s, debruijn_lyndon(m, n))


@pytest.mark.parametrize("m,L", [(2, 1), (3, 1), (2, 2), (2, 5), (2, 6), (3, 4), (2, 9), (5, 3),
                                 (4, 4), (2, 12), (3, 7), (4, 5), (2, 13), (6, 3)])
def test_necklaces_match_brute_force_in_both_readings(m, L):
    heads, period = _necklaces(m, L)
    for big_endian in (False, True):
        h, p = necklaces_brute(m, L, big_endian)
        assert np.array_equal(heads, h)
        assert np.array_equal(period, p)


def _debruijn_variants(m, n):
    """The lex-least sequence, a greedy one, and relabelled, reversed and rotated copies."""
    s = debruijn_sequence(m, n)
    greedy = prefer_largest_debruijn(m, n)
    return {"fkm": s, "prefer-largest": greedy, "complement": m - 1 - s,
            "reversed": greedy[::-1].copy(), "rotated": np.roll(s, s.size // 3 + 1)}


@pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (3, 3), (2, 7), (4, 3), (2, 11)])
def test_window_indices_match_roll_loop(m, n):
    for name, s in _debruijn_variants(m, n).items():
        assert all_windows_distinct(s.tolist(), n, m), name
        windows = window_indices_roll(s, n, m)
        assert np.array_equal(_windows(s, 0, s.size, n, m), windows), name
        # the successor map of a supplied sequence: window i goes to window i + 1
        T = window_successor(s, m, n)
        image = np.empty(m**n, dtype=np.int64)
        image[windows] = np.roll(windows, -1)
        assert np.array_equal(T.image, image), name
        assert len(T.cycles) == 1
    # the library's generated order is the supplied-sequence order of its own sequence
    generated = debruijn_window_permutation(m, n).orbit_index.order
    assert np.array_equal(generated, window_successor(debruijn_sequence(m, n), m, n).orbit_index.order)


# chunk sizes of the de Bruijn kernels: one window or candidate per chunk,
# uneven chunks, and the default, under which every case here is one chunk
KERNEL_CHUNKS = [1, 7, 64, systems.CHUNK_POINTS]
# n = 1, powers of two and n with every bit set, as far as m^n <= 2^13
WINDOW_CASES = [(m, n) for m in (2, 3, 4) for n in (1, 2, 3, 4, 7, 8, 11) if m**n <= 1 << 13]


@pytest.mark.parametrize("chunk", KERNEL_CHUNKS)
@pytest.mark.parametrize("m,n", WINDOW_CASES)
def test_chunked_window_indices_match_roll_loop(m, n, chunk):
    # _windows of every chunk of chunk positions, the last one short, wrapping round s at its end
    for name, s in _debruijn_variants(m, n).items():
        chunks = [_windows(s, lo, min(lo + chunk, s.size), n, m) for lo in range(0, s.size, chunk)]
        idx = np.concatenate(chunks)
        assert np.array_equal(idx, window_indices_roll(s, n, m)), name


@pytest.mark.parametrize("chunk", KERNEL_CHUNKS)
@pytest.mark.parametrize("m,L", [(2, 1), (3, 1), (2, 2), (2, 5), (2, 6), (3, 4), (2, 9), (5, 3),
                                 (4, 4), (2, 12), (3, 7)])
def test_chunked_necklaces_match_brute_force(m, L, chunk, monkeypatch):
    monkeypatch.setattr(systems, "CHUNK_POINTS", chunk)
    heads, period = _necklaces(m, L)
    h, p = necklaces_brute(m, L, big_endian=True)
    assert np.array_equal(heads, h)
    assert np.array_equal(period, p)


@pytest.mark.parametrize("m,N,digest", [
    (2, 10, "775a915a431a2a1002f60f2477be75fba151812ea6b6bc6b4194c9940bc2761e"),
    (3, 6, "303ded7946b3d56740abc26fd866913df383f0bf776ce70d6ff9c95962acc35e"),
])
def test_multi_chunk_debruijn_order_is_pinned(m, N, digest):
    # 2^21 and 3^13 windows: 32 and 25 chunks of CHUNK_POINTS
    order = build_bernoulli(m, N, "debruijn").orbit_index.order
    assert hashlib.sha256(order.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("m,L", [(2, 1), (2, 5), (3, 4), (2, 9), (4, 3), (2, 12), (3, 5)])
def test_naive_cycles_match_the_generic_walk(m, L):
    generated = _naive_shift(m, L).orbit_index
    words = np.arange(m**L)
    walked = walk_index(words // m + words % m * m ** (L - 1))
    for field in ("order", "starts", "lengths", "slot"):
        assert np.array_equal(index_field(generated, field), index_field(walked, field)), field


# -- Bernoulli approximations ----------------------------------------------


def test_naive_shift_orbit_lengths():
    T = build_bernoulli(2, 2, "naive")
    # orbit lengths divide 2N+1 = 5, so the system is far from transitive
    lens = {len(c) for c in T.cycles}
    assert lens <= {1, 5}
    assert len(T.cycles) > 1


def test_naive_shift_rotates_word():
    T = build_bernoulli(2, 1, "naive")
    w = [1, 0, 1]
    y = word_index(2, w)
    assert word(2, 1, T.image[y]).tolist() == [0, 1, 1]


def test_debruijn_shift_transitive_and_consistent():
    T = build_bernoulli(2, 2, "debruijn")
    assert len(T.cycles) == 1
    # successor words overlap the source on the left-shifted window
    for y in range(T.size):
        w = word(2, 2, y)
        w2 = word(2, 2, T.image[y])
        assert (w2[:-1] == w[1:]).all()


def test_word_index_round_trip():
    for y in (0, 5, 26):
        assert word_index(3, word(3, 1, y)) == y


@pytest.mark.parametrize("mode", ["naive", "debruijn"])
@pytest.mark.parametrize("m,N", [(2, 0), (2, 3), (3, 1)])
def test_build_bernoulli_returns_the_permutation_of_the_word_space(m, N, mode):
    T = build_bernoulli(m, N, mode)
    assert type(T) is FinitePermutation and T.size == m ** (2 * N + 1)


def test_build_bernoulli_validation():
    with pytest.raises(ValueError):
        build_bernoulli(2, 2, "magic")
    with pytest.raises(ValueError):
        build_bernoulli(2, 14)
    # both modes refuse these before any array is sized from them
    for m, N in [(1, 2), (0, 1), (2, -1), (3, -2)]:
        for mode in ("naive", "debruijn"):
            with pytest.raises(ValueError, match="alphabet size m >= 2 and half-window N >= 0"):
                build_bernoulli(m, N, mode)


# -- observables -----------------------------------------------------------


def test_ex01_values_and_average():
    F = paper_observable("ex01", 6)
    assert F.values.tolist() == [6.0, -6.0, 6.0, -6.0, 6.0, -6.0]
    assert exact_value(F, 2) == Fraction(6)


def test_delta_values():
    F = paper_observable("delta", 5)
    assert F.values.tolist() == [5.0, 0.0, 0.0, 0.0, 0.0]


def test_ex03_block_structure():
    F = paper_observable("ex03", 100, K=10)
    # R = 10 blocks, even -> blocks 0,2,4,6,8 are ones
    assert F.values[0] == 1.0 and F.values[9] == 1.0
    assert F.values[10] == 0.0
    assert F.values[20] == 1.0
    assert float(np.mean(F.values)) == pytest.approx(0.5)


def test_ex03_partial_last_block_zeroed():
    # M = 95, K = 10: R = floor(9.5) -> 9 -> rounded down to 8
    F = paper_observable("ex03", 95, K=10)
    assert F.values[79] == 0.0  # block 7 odd
    assert F.values[85] == 0.0  # block 8 >= R
    assert F.values[65] == 1.0  # block 6 even and < R


def test_linear_and_tent():
    M = 1000
    Fl = paper_observable("linear", M)
    assert exact_value(Fl, 250, M) == Fraction(1, 4)
    Ft = paper_observable("tent", M)
    assert Ft.values[0] == 0.0
    assert Ft.values[900] == pytest.approx(1.0)
    assert Ft.values[950] == pytest.approx(0.5)
    # integral of the tent is 1/2; grid average converges to it
    assert float(np.mean(Ft.values)) == pytest.approx(0.5, abs=2.0 / M)


def test_tent_exact_rule_matches_float():
    M = 90
    F = paper_observable("tent", M)
    for y in range(M):
        assert float(exact_value(F, y, 9 * M)) == pytest.approx(F.values[y], abs=1e-12)


def test_chi0_counts_symbol_at_origin():
    T = build_bernoulli(2, 1, "naive")
    F = paper_observable("chi0", T.size, N=1)
    for y in range(T.size):
        assert F.values[y] == float(word(2, 1, y)[1] == 1)
    # exactly half the words have a 1 at position 0
    assert float(np.mean(F.values)) == 0.5


def test_chi0_orbit_average_debruijn():
    # transitive system: the single orbit average is the integral 1/2
    T = build_bernoulli(2, 3, "debruijn")
    F = paper_observable("chi0", T.size, N=3)
    assert orbit_average(F, T, 0) == pytest.approx(0.5)


def test_observable_validation():
    with pytest.raises(ValueError):
        paper_observable("ex03", 100)
    with pytest.raises(ValueError):
        paper_observable("chi0", 100, N=1)
    with pytest.raises(ValueError):
        paper_observable("nope", 10)
    with pytest.raises(ValueError):
        paper_observable("ex03", 100, K=0)
    with pytest.raises(ValueError):
        paper_observable("ex03", 100, K=2.5)
    with pytest.raises(ValueError):
        paper_observable("chi0", 1, N=1, m=1)


# a parameter each name does not take, beside the ones it takes
TAKES = {"ex01": {}, "delta": {}, "linear": {}, "tent": {}, "ex03": {"K": 5},
         "chi0": {"N": 1, "m": 2}, "constant": {"value": 2.5}}


@pytest.mark.parametrize("name", sorted(TAKES))
@pytest.mark.parametrize("extra", ["K", "N", "m", "value"])
def test_paper_observable_refuses_parameters_it_does_not_take(name, extra):
    M = 8 if name == "chi0" else 100
    params = TAKES[name]
    paper_observable(name, M, **params)  # the parameters it takes pass
    if extra in params:
        return
    with pytest.raises(ValueError, match=f"takes no parameter '{extra}'"):
        paper_observable(name, M, **params, **{extra: 3})


@pytest.mark.parametrize("name,params,dtype", [
    ("ex03", {"K": 1000}, np.int8), ("chi0", {"N": 10}, np.int8), ("constant", {"value": 3}, np.int8),
    ("ex01", {}, np.int32), ("delta", {}, np.int32),
])
def test_integer_observables_are_built_at_their_width(name, params, dtype):
    # the rule builds no array, and its point-order memo is written a part of a chunk at a time at
    # the stored width: no float64 array of M values, 8 bytes per point, is ever built, so ex03 and
    # chi0 take about 1.1 bytes per point at most
    M = 2**21
    F, built = traced_peak(paper_observable, name, M, **params)
    _, peak = traced_peak(lambda: F.values)
    assert built < 1 << 16, built
    assert F.values.dtype == dtype
    assert peak <= 1.1 * np.dtype(dtype).itemsize * M, peak


def point_rule(name, M, **params):
    """The closed form of each paper observable, one Python call per point.

    This is how the values were once built (Observable.from_rule); it is
    kept here as the oracle for the array construction in paper_observable.
    """
    if name == "ex01":
        return lambda y: float(M) if y % 2 == 0 else -float(M)
    if name == "delta":
        return lambda y: float(M) if y == 0 else 0.0
    if name == "ex03":
        K = params["K"]
        R = (M // K) // 2 * 2

        def rule(y):
            blk = y // K
            return 1.0 if blk < R and blk % 2 == 0 else 0.0

        return rule
    if name == "linear":
        return lambda y: y / M
    if name == "tent":
        return lambda y: tent_function(y / M)
    if name == "chi0":
        N, m = params["N"], params.get("m", 2)
        return lambda y: 1.0 if (y // m**N) % m == 1 else 0.0
    if name == "constant":
        return lambda y: float(params["value"])
    raise ValueError(name)


RATIONAL_CASES = [
    ("ex01", 6, {}), ("ex01", 7, {}), ("ex01", 1, {}),
    ("delta", 5, {}), ("delta", 1, {}),
    ("ex03", 100, {"K": 10}), ("ex03", 95, {"K": 10}),  # M a multiple of 2K, and not
    ("ex03", 15, {"K": 10}), ("ex03", 25, {"K": 10}),  # M < 2K, and 2K < M < 4K
    ("ex03", 100_003, {"K": 1000}), ("ex03", 40, {"K": 10.0}),
    ("linear", 1000, {}), ("linear", 33_334, {}),
    ("tent", 10, {}), ("tent", 33_334, {}), ("tent", 1_000_003, {}),
    ("chi0", 2**3, {"N": 1}), ("chi0", 2**9, {"N": 4}), ("chi0", 3**5, {"N": 2, "m": 3}),
]


@pytest.mark.parametrize("name,M,params", RATIONAL_CASES + [("constant", 7, {"value": 0.1})])
def test_paper_observable_bitwise_equals_point_rule(name, M, params):
    F = paper_observable(name, M, **params)
    rule = point_rule(name, M, **params)
    expect = np.fromiter((rule(y) for y in range(M)), dtype=np.float64, count=M)
    assert F.values.dtype == width_rule(expect) and F.values.shape == (M,)
    assert F.values.astype(np.float64).tobytes() == expect.tobytes()


def test_tent_branches_meet_at_the_split():
    # y/M = 0.9 exactly at M = 10: the point takes the 10(1-x) branch
    F = paper_observable("tent", 10)
    assert F.values[8] == 10.0 * 0.8 / 9.0
    assert F.values[9] == 10.0 * (1.0 - 0.9)
    assert exact_value(F, 9, 90) == Fraction(1)


@pytest.mark.parametrize("name,M,params", [
    ("ex01", 7, {}), ("delta", 5, {}), ("ex03", 95, {"K": 10}), ("linear", 90, {}),
    ("tent", 90, {}), ("chi0", 3**3, {"N": 1, "m": 3}),
])
def test_exact_rules_agree_with_values(name, M, params):
    F = paper_observable(name, M, **params)
    D = exact_closed_form(name, M, **params)[1]
    assert [exact_value(F, y, D) for y in range(M)] == [Fraction(v).limit_denominator(9 * M)
                                             for v in F.values.tolist()]


# -- vectorized rules: values_at and the orbit memo, bitwise the in-place arrays --


RULE_CASES = [
    ("ex01", 7, {}), ("ex01", 1, {}), ("ex01", 1000, {}),  # int8, and int32 from M = 128
    ("delta", 5, {}), ("delta", 1, {}), ("delta", 1000, {}),
    ("ex03", 95, {"K": 10}), ("ex03", 15, {"K": 10}), ("ex03", 40, {"K": 41}),
    ("linear", 1, {}), ("linear", 1000, {}), ("tent", 1, {}), ("tent", 10, {}), ("tent", 33_334, {}),
    ("chi0", 2**9, {"N": 4}), ("chi0", 2**1, {"N": 0}), ("chi0", 3**5, {"N": 2, "m": 3}),
    ("constant", 7, {"value": 0.0}), ("constant", 7, {"value": -0.0}), ("constant", 7, {"value": 3}),
    ("constant", 7, {"value": 2.5}), ("constant", 7, {"value": -(2**31)}),
]


@pytest.mark.parametrize("name,M,params", RULE_CASES)
def test_values_at_is_bitwise_the_in_place_array(name, M, params):
    # at every point, in any order and from int64 or int32 points (de Bruijn chunks are int32), in
    # the width _narrow gives the whole array; values is the same array, read-only
    F, want = paper_observable(name, M, **params), paper_observable_in_place(name, M, **params).values
    points = np.random.default_rng(M).permutation(M)
    for got in (F.values_at(np.arange(M)), F.values_at(points), F.values_at(points.astype(np.int32))):
        assert got.dtype == want.dtype == _narrow(want.astype(np.float64)).dtype
    assert F.values_at(points).tobytes() == want[points].tobytes()
    assert F.values_at(points.astype(np.int32)).tobytes() == want[points].tobytes()
    assert F.values.tobytes() == want.tobytes() and not F.values.flags.writeable


def test_ex03_with_a_block_past_int64_is_zero():
    # a block longer than M holds every point, and zero blocks reach R; the in-place array could
    # not reshape a zero-length slice by 2K past intp, and the rule takes no K past int64
    F = paper_observable("ex03", 40, K=2**70)
    assert F.values_at(np.arange(40)).tobytes() == paper_observable("ex03", 40, K=41).values.tobytes()


# each system with the parameters of chi0 on its words, if it is a Bernoulli shift
RULE_SYSTEMS = {
    "drift": (lambda: build_drift_system(300), None),
    "rotation-coprime": (lambda: build_rotation(1000, 0.3), None),
    "rotation-33334-gcd2": (lambda: build_rotation(33334, 2.0 / 3.0), None),  # the published pair, 2 cycles
    "debruijn": (lambda: build_bernoulli(2, 4, "debruijn"), {"N": 4}),
    "debruijn-m3": (lambda: build_bernoulli(3, 2, "debruijn"), {"N": 2, "m": 3}),
    "naive": (lambda: build_bernoulli(2, 4, "naive"), {"N": 4}),
    "naive-m3": (lambda: build_bernoulli(3, 2, "naive"), {"N": 2, "m": 3}),
}


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("system", sorted(RULE_SYSTEMS))
def test_the_orbit_memo_is_filled_from_the_rule(monkeypatch, system, chunk):
    # order chunks that cross cycle bounds (the naive shifts' short cycles, the two of the published
    # rotation) and chunk bounds: T.along(F) is the in-place array in orbit order, bitwise, and only
    # the identity order (the drift's) builds F.values, which is then the memo itself
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    build, chi0 = RULE_SYSTEMS[system]
    T = build()
    order = T.orbit_index.order
    assert (len(T.cycles) > 1) == (system.startswith("naive") or system == "rotation-33334-gcd2")
    observables = [("ex01", {}), ("delta", {}), ("ex03", {"K": 7}), ("linear", {}), ("tent", {}),
                   ("constant", {"value": -0.0}), ("constant", {"value": 3})]
    for name, params in observables + ([("chi0", chi0)] if chi0 else []):
        F, want = paper_observable(name, T.size, **params), paper_observable_in_place(name, T.size, **params)
        along = T.along(F)
        assert along.dtype == want.values.dtype and along.tobytes() == want.values[order].tobytes(), name
        assert not along.flags.writeable and ("values" in vars(F)) == (system == "drift"), name
        assert (along is F.values) == (system == "drift")


@pytest.mark.parametrize("system", ["drift", "rotation-coprime", "debruijn"])
def test_along_refuses_an_observable_on_another_number_of_points(system):
    # a rule would answer at points past its M, and an array has no value there: both are refused,
    # on the identity order as on a permuted one
    T = RULE_SYSTEMS[system][0]()
    for F in (paper_observable("tent", 100), Observable(np.ones(100)), paper_observable("tent", T.size + 1)):
        with pytest.raises(ValueError, match=f"is on {F.size} points, T on {T.size}"):
            T.along(F)
    assert T.along(paper_observable("tent", T.size)).size == T.size


def exact_closed_form(name, M, **params):
    """(numerators, denominator) of each rational paper observable, in integers.

    The closed forms as int64 numpy expressions, the oracle for numerators
    in tests/oracles.py; the denominator is the one each observable's exact
    means are taken at.
    """
    y = np.arange(M, dtype=np.int64)
    if name == "ex01":
        return np.where(y % 2 == 0, M, -M), 1
    if name == "delta":
        return np.where(y == 0, M, 0), 1
    if name == "ex03":
        K = int(params["K"])
        R = (M // K) // 2 * 2
        blk = y // K
        return ((blk < R) & (blk % 2 == 0)).astype(np.int64), 1
    if name == "linear":
        return y, M
    if name == "tent":
        # 10x/9 = 10y/(9M) for x = y/M < 9/10, else 10(1-x) = 90(M-y)/(9M)
        return np.where(10 * y < 9 * M, 10 * y, 90 * (M - y)), 9 * M
    if name == "chi0":
        N, m = params["N"], params.get("m", 2)
        return ((y // m**N) % m == 1).astype(np.int64), 1
    raise ValueError(name)


@pytest.mark.parametrize("name,M,params", RATIONAL_CASES)
def test_numerators_equal_exact_closed_form(name, M, params):
    F = paper_observable(name, M, **params)
    nums, D = exact_closed_form(name, M, **params)
    got = numerators(F.values, D)
    assert got.dtype == np.int64 and np.array_equal(got, nums)
    for y in sorted({0, M // 2, (9 * M) // 10, M - 1}):
        assert exact_value(F, y, D) == Fraction(int(nums[y]), D)
    pts = np.arange(M - 1, -1, -max(1, M // 7))
    assert np.array_equal(numerators(F.values[pts], D), nums[pts])


@pytest.mark.parametrize("name", ["linear", "tent", "ex01"])
def test_exact_prefix_means_equal_fraction_loop(name):
    # a rotation, so the orbit visits Y out of index order
    M = 10_000
    T = build_rotation(M, 0.3)
    F = paper_observable(name, M)
    nums, D = exact_closed_form(name, M)
    y = 4321
    exact = exact_prefix_means(F, T, y, M + 17, D)
    acc, expect = Fraction(0), []
    z = y
    for n in range(1, M + 18):
        acc += Fraction(int(nums[z]), D)
        expect.append(acc / n)
        z = T.image[z]
    assert exact == expect
    # the float means: the rounded fractions for ex01, whose integer sums are exact, and within the
    # summation bound for linear and tent
    floats = np.asarray([float(q) for q in expect])
    gap = np.abs(ergodic_means_prefix(F, T, y, M + 17) - floats)
    assert (gap <= mean_rounding_bound(F, M + 17)).all()


@pytest.mark.parametrize("F", [
    paper_observable("constant", 7, value=0.1),
    Observable([0.5]),
    Observable([1.0 + 1e-9]),
], ids=["constant-0.1", "half", "1+1e-9"])
def test_off_lattice_values_raise(F):
    with pytest.raises(ValueError):
        numerators(F.values, 1)
    with pytest.raises(ValueError):
        exact_value(F, 0)
    with pytest.raises(ValueError):
        exact_prefix_means(F, FinitePermutation(np.arange(F.values.size)), 0, 3)


# -- helpers ---------------------------------------------------------------


def test_block_density_prefixes():
    # word positions -2..2 = [., ., 1, 0, 1]
    densities = block_density([0, 0, 1, 0, 1], 2)
    assert densities == [1.0, 0.5]
    with pytest.raises(ValueError):
        block_density([0, 0, 1, 0, 1], 3)


def test_block_density_matches_means():
    T = build_bernoulli(2, 4, "debruijn")
    F = paper_observable("chi0", T.size, N=4)
    for y in (3, 100, 400):
        dens = block_density(word(2, 4, y), 3)
        means = ergodic_means_prefix(F, T, y, 3)
        assert np.allclose(dens, means)


def test_three_point_average():
    assert three_point_average(lambda x: 1.0, 0.3) == pytest.approx(1.0)
    got = three_point_average(tent_function, 0.5)
    expect = (tent_function(0.5 - 1 / 3) + tent_function(0.5) + tent_function(0.5 + 1 / 3)) / 3
    assert got == pytest.approx(expect)
