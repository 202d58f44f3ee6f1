"""Distances, quality metrics, matching synthesis, cycle surgery."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from ergodia.approximation import (
    _distance,
    _target_ranges,
    arc_matcher,
    make_transitive,
    map_mismatch_fraction,
    synthesize_permutation,
    thickening_measure_error,
    weak_star_error,
)
from ergodia import dynamics
from ergodia.dynamics import FinitePermutation
from ergodia.rng import SplitMix64
from oracles import (arc_matcher_by_runs, arc_matcher_lexsort, augmenting_path_matcher,
                     hall_deficiency_oracle, make_transitive_walk, permutation_from_cycles, permutation_images,
                     split_into_n_cycles, synthesis_families, target_ranges_loop, walk_index)


# -- distances -------------------------------------------------------------


def test_circle_distance_wraps():
    assert _distance(0.1, 0.9, circle=True) == pytest.approx(0.2)
    assert _distance(0.0, 0.5, circle=True) == pytest.approx(0.5)
    assert _distance(0.25, 0.25, circle=True) == 0.0


def test_interval_distance():
    assert _distance(0.1, 0.9, circle=False) == pytest.approx(0.8)


# -- quality metrics -------------------------------------------------------


def grid(M):
    return np.arange(M) / M


def test_weak_star_error_exact_on_grid():
    errs = weak_star_error(grid(100), 1)
    assert errs["x^0"] == 0.0
    # grid mean of y/M over y < M is (M-1)/(2M); error exactly 1/(2M)
    assert errs["x^1"] == pytest.approx(1.0 / 200.0)


def measure(a, b):
    """The measure of the closed interval [a, b]: NaN lies in no interval and near none, so on the
    one-point grid [NaN] the thickening error is the measure itself."""
    return thickening_measure_error(np.array([np.nan]), (a, b), 1.0, circle=False)


def test_thickening_measure_error_interval():
    M = 1000
    err = thickening_measure_error(grid(M), (0.25, 0.5), 1.0 / M, circle=False)
    assert err <= 3.0 / M


def test_thickening_wrapped_circle_interval():
    M = 1000
    C = (0.9, 0.1)  # wraps through 0
    assert measure(*C) == pytest.approx(0.2)
    err = thickening_measure_error(grid(M), C, 1.0 / M, circle=True)
    assert err <= 3.0 / M


def test_wrapped_interval_on_the_interval_space_matches_the_circle():
    # [0.9, 0.1] is [0.9, 1] with [0, 0.1] on the interval too, as measure counts it
    M = 1000
    C = (0.9, 0.1)
    on_interval = thickening_measure_error(grid(M), C, 0.002, circle=False)
    on_circle = thickening_measure_error(grid(M), C, 0.002, circle=True)
    assert on_interval <= 5.0 / M and on_circle <= 5.0 / M
    assert abs(on_interval - on_circle) <= 2.0 / M


@pytest.mark.parametrize("a,b", [(0.25, 0.5), (0.9, 0.1), (0.0, 1.0), (1.0, 0.0), (0.3, 0.3),
                                 (0.1, 0.7000000000000001), (0.95, 0.05)])
def test_single_interval_measure_is_its_length(a, b):
    # the same float as the length formula, wrapped or not
    expected = (b - a) if a <= b else (1.0 - a + b)
    assert measure(a, b) == expected


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_interval_measure_matches_fine_grid_count(interval):
    G = 200_000
    x = (np.arange(G) + 0.5) / G
    a, b = interval
    inside = ((a <= x) & (x <= b)) if a <= b else ((x >= a) | (x <= b))
    # each of the at most 2 piece ends moves the count by at most one grid cell
    assert abs(measure(a, b) - np.count_nonzero(inside) / G) <= 2 / G


def test_map_mismatch_identity():
    M = 500
    T = FinitePermutation(np.roll(np.arange(M), -1))
    # +1 mod M approximates the identity with defect exactly 1/M
    assert map_mismatch_fraction(grid(M), T, grid(M), 2.0 / M, circle=True) == 0.0
    assert map_mismatch_fraction(grid(M), T, grid(M), 0.5 / M, circle=True) == 1.0


def test_map_mismatch_refuses_targets_of_another_shape():
    # as synthesize_permutation does: a scalar or a column would broadcast against x silently
    M = 50
    T = FinitePermutation(np.roll(np.arange(M), -1))
    for targets in (0.5, grid(M)[:-1], grid(M)[:, None], np.zeros(M + 1)):
        with pytest.raises(ValueError, match="one target per grid point"):
            map_mismatch_fraction(grid(M), T, targets, 2.0 / M, circle=True)


# -- matching --------------------------------------------------------------


def brute_force_max_matching(M, neighbors):
    # classic Kuhn's algorithm, quadratic, for small oracle instances
    match_tgt = [-1] * M

    def try_assign(y, seen):
        for g in neighbors[y]:
            if g in seen:
                continue
            seen.add(g)
            if match_tgt[g] == -1 or try_assign(match_tgt[g], seen):
                match_tgt[g] = y
                return True
        return False

    size = 0
    for y in range(M):
        if try_assign(y, set()):
            size += 1
    return size


def checked_matching_size(M, targets, delta, circle):
    """The size of arc_matcher's matching, after checking that its grid points are distinct and each
    inside its source's arc, and each source's grid points (its _target_ranges range mod M)."""
    match = arc_matcher(M, targets, delta, circle=circle)
    assert match.shape == (M,)
    lo, hi = _target_ranges(M, targets, delta, circle)
    neighbors = [sorted({g % M for g in range(a, b + 1)}) for a, b in zip(lo.tolist(), hi.tolist())]
    used = match[match >= 0].tolist()
    assert len(used) == len(set(used))
    for y, g in enumerate(match.tolist()):
        assert g == -1 or g in neighbors[y]
    return len(used), neighbors


@given(synthesis_families(circle=st.just(False)))
@settings(max_examples=200, deadline=None)
def test_interval_matcher_is_maximum(family):
    size, neighbors = checked_matching_size(*family)
    assert size == brute_force_max_matching(family[0], neighbors)


@given(st.integers(2, 30), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_hopcroft_karp_is_maximum(M, seed):
    rng = SplitMix64(seed)
    neighbors = []
    for _ in range(M):
        k = rng.next_below(4)
        neighbors.append(sorted({rng.next_below(M) for _ in range(k)}))
    match = augmenting_path_matcher(M, neighbors)
    used = [g for g in match if g >= 0]
    assert len(used) == len(set(used))
    for y, g in enumerate(match):
        if g >= 0:
            assert g in neighbors[y]
    assert len(used) == brute_force_max_matching(M, neighbors)


@given(st.integers(10, 120), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_matcher_mismatch_equals_hall_deficiency(M, seed):
    rng = SplitMix64(seed)
    # targets kept away from the edges so no range wraps or clips
    targets = np.array([0.15 + 0.7 * rng.next_below(10**6) / 10**6 for _ in range(M)])
    delta = (1 + rng.next_below(4)) / M
    lo, hi = _target_ranges(M, targets, delta, circle=False)
    match = arc_matcher(M, targets, delta, circle=False)
    assert int(np.sum(match == -1)) == hall_deficiency_oracle(M, list(zip(lo.tolist(), hi.tolist())))


def test_target_ranges_strict_inequality():
    # target exactly on a grid point: endpoints at distance delta excluded
    ranges = _target_ranges(10, np.array([0.5]* 1 + [0.0] * 9), 0.1, circle=False)
    lo, hi = (int(r[0]) for r in ranges)
    assert (lo, hi) == (5, 5) or (lo / 10 > 0.4 and hi / 10 < 0.6)


@given(synthesis_families())
@settings(max_examples=1000, deadline=None)
def test_arc_matcher_matches_hopcroft_karp(family):
    # the arcs of one delta: both ends rise with the target, so the greedy needs no augmenting path
    size, neighbors = checked_matching_size(*family)
    assert size == int(np.sum(augmenting_path_matcher(family[0], neighbors) >= 0))


@given(synthesis_families())
@settings(max_examples=1000, deadline=None)
def test_arc_matcher_equals_the_per_source_redo(family):
    M, targets, delta, circle = family
    assert np.array_equal(arc_matcher(M, targets, delta, circle=circle),
                          arc_matcher_by_runs(M, targets, delta, circle=circle))


@pytest.mark.parametrize("steps", [0.4, 1.0])
def test_arc_matcher_equals_the_per_source_redo_on_doubling_at_1e5(steps):
    # two sources per image point, on arcs of one point (0.4 / M) or of one or two (1 / M): the greedy
    # skips sources all along the circle
    M = 10**5
    targets = 2 * (np.arange(M) / M) % 1.0
    match = arc_matcher_by_runs(M, targets, steps / M, circle=True)
    assert np.array_equal(arc_matcher(M, targets, steps / M, circle=True), match)
    # the slack bijection: the free sources, in index order, take the points no source took
    free = match == -1
    assert free.any()
    match[free] = np.setdiff1d(np.arange(M), match[~free])
    assert np.array_equal(synthesize_permutation(M, targets, steps / M)[0].image, match)


@given(synthesis_families(), st.sampled_from([1, 7, 64, dynamics.CHUNK_POINTS]))
@settings(max_examples=1000, deadline=None)
def test_arc_matcher_equals_the_lexsort_oracle(family, chunk):
    # int32 arcs a chunk at a time, one int64 sort key and the reductions mod M by one conditional
    # add or subtract (% only in a chunk holding a far stray): the same match, bit for bit, as the
    # int64 lexsort matcher
    M, targets, delta, circle = family
    with mock.patch.object(dynamics, "CHUNK_POINTS", chunk):
        got = arc_matcher(M, targets, delta, circle=circle)
    assert np.array_equal(got, arc_matcher_lexsort(M, targets, delta, circle=circle))


@pytest.mark.parametrize("circle", [False, True])
def test_far_stray_target_is_matched_as_the_oracle_matches_it(circle):
    # on the interval, lo is clamped only from below, so hi - lo is about -2^32 here: narrowed to
    # int32 unclamped it would wrap to a non-empty arc and take grid point 5 or 999
    M = 1000
    targets = np.arange(M) / M
    targets[7] = (2**32 - 5) / M
    match = arc_matcher(M, targets, 1e-3, circle=circle)
    assert np.array_equal(match, arc_matcher_lexsort(M, targets, 1e-3, circle=circle))
    assert (match[7] == -1) if not circle else (match[7] >= 0)


def test_arc_matcher_traced_peak_at_1e6():
    # tracemalloc counts every numpy buffer, so the peak is the same on each run: int32 arcs, one
    # int64 key, the sort order and the int64 match.  The int64 lexsort matcher took 92.5 MiB.
    M = 10**6
    targets = (np.arange(M) / M + 0.381966011250105) % 1.0
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        match = arc_matcher(M, targets, 1e-3, circle=True)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 48e6, peak / 1e6
    assert np.array_equal(match, arc_matcher_lexsort(M, targets, 1e-3, circle=True))


def arc_kinds(family):
    """Which kinds of arc a family holds."""
    M, targets, delta, circle = family
    lo, hi = _target_ranges(M, targets, delta, circle)
    n = hi - lo + 1
    free = arc_matcher(M, targets, delta, circle=circle) == -1
    return {"empty": (n <= 0).any(),
            "whole-circle-among-others": M > 1 and (n == M).any() and ((0 < n) & (n < M)).any(),
            "through-0": ((lo < 0) | (hi >= M)).any(),
            "target-off-the-unit-interval": ((targets < 0) | (targets >= 1)).any(),
            "span-below-int32": (hi - lo < -2**31).any(),
            "free-source-with-two-or-more-points": (free & (n >= 2)).any()}


@pytest.mark.parametrize("kind", ["empty", "whole-circle-among-others", "through-0",
                                  "target-off-the-unit-interval", "span-below-int32",
                                  "free-source-with-two-or-more-points"])
def test_synthesis_families_reach_every_kind_of_arc(kind):
    find(synthesis_families(), lambda family: arc_kinds(family)[kind],
         settings=settings(max_examples=2000, database=None))


def test_arc_matcher_wide_rotation_needs_no_repair():
    # a rotation target with delta = 1e-2 wraps through 0 at every phase, and every source is matched
    M = 2000
    targets = (np.arange(M) / M + 0.3819660112501051) % 1.0
    lo, hi = _target_ranges(M, targets, 1e-2, circle=True)
    assert (lo < 0).any() or (hi >= M).any()
    assert (arc_matcher(M, targets, 1e-2, circle=True) >= 0).all()


@given(st.integers(1, 300), st.integers(0, 2**32), st.booleans())
@settings(max_examples=100, deadline=None)
def test_target_ranges_match_loop_oracle(M, seed, circle):
    rng = SplitMix64(seed)
    delta = (1 + rng.next_below(5)) / M if seed % 2 else (1 + rng.next_below(10**6)) / 10**6
    grid = np.arange(M) / M
    # grid points, points exactly delta from a grid point, and strays off [0, 1)
    strays = np.array([rng.next_below(4 * 10**6) / 10**6 - 1.5 for _ in range(M)])
    targets = np.concatenate([grid, grid + delta, grid - delta, strays])
    lo, hi = _target_ranges(M, targets, delta, circle)
    assert lo.dtype == hi.dtype == np.int64
    assert list(zip(lo.tolist(), hi.tolist())) == target_ranges_loop(M, targets, delta, circle)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_targets_raise(bad):
    targets = np.linspace(0.0, 0.9, 10)
    targets[3] = bad
    with pytest.raises(ValueError):
        synthesize_permutation(10, targets, 0.1)
    with pytest.raises(ValueError):
        synthesize_permutation(10, targets, 0.1, circle=False)


def test_synthesize_permutation_always_bijective():
    M = 50
    # pathological target: everything maps near 0, delta tiny
    targets = np.zeros(M)
    T, mism = synthesize_permutation(M, targets, 1.5 / M)
    assert sorted(T.image.tolist()) == list(range(M))
    assert mism >= M - 3  # only a few grid points sit near 0


def test_synthesize_rotation_no_mismatch():
    M = 1000
    t = 1.0 / np.sqrt(2.0)
    targets = (np.arange(M) / M + t) % 1.0
    T, mism = synthesize_permutation(M, targets, 2.0 / M)
    assert mism == 0
    for y in range(0, M, 97):
        assert _distance(T.image[y] / M, targets[y], circle=True) < 2.0 / M


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_permutation(10, np.zeros(10), 0.0)
    with pytest.raises(ValueError):
        synthesize_permutation(10, np.zeros(10), np.nan)
    with pytest.raises(ValueError):
        synthesize_permutation(10, np.zeros(5), 0.1)


def test_hall_oracle_rejects_wrapping():
    with pytest.raises(ValueError):
        hall_deficiency_oracle(10, [(-1, 2)])


def test_hall_oracle_counts_empty_ranges():
    # two sources fight over one point; a third has an empty neighborhood
    assert hall_deficiency_oracle(3, [(0, 0), (0, 0), (2, 1)]) == 2


# -- cycle surgery ---------------------------------------------------------


def test_make_transitive_merges_cycles():
    T = permutation_from_cycles([[0, 1, 2], [3, 4], [5]], size=6)
    C, B = make_transitive(T)
    assert len(C.cycles) == 1
    assert len(B) == 3
    # outside B the maps agree
    for y in range(6):
        if y not in B:
            assert C.image[y] == T.image[y]


def test_make_transitive_identity_input():
    C, B = make_transitive(FinitePermutation(np.arange(5)))
    assert len(C.cycles) == 1
    assert len(B) == 5


def test_make_transitive_noop_on_cycle():
    M = 7
    T = FinitePermutation(np.roll(np.arange(M), -1))
    C, B = make_transitive(T)
    assert np.array_equal(C.image, T.image)
    assert B == []


@given(st.integers(2, 100), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_make_transitive_bound(M, seed):
    rng = SplitMix64(seed)
    idx = np.arange(M, dtype=np.int64)
    for i in range(M - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    T = FinitePermutation(idx)
    C, B = make_transitive(T)
    assert len(C.cycles) == 1
    assert len(B) <= len(T.cycles)


def assert_merge_equals_the_walk(image):
    T = FinitePermutation(image)
    C, B = make_transitive(T)
    want_C, want_B = make_transitive_walk(T)
    assert np.array_equal(C.image, want_C.image) and B == want_B
    # |B| is the cycle count, read as 1 when T is already one cycle and so no seam differs from T
    assert max(1, len(B)) == walk_index(image).lengths.size
    assert T._index is None  # the merge builds no orbit index of T


@given(permutation_images())
@settings(max_examples=300, deadline=None)
def test_the_merge_from_cycle_minima_equals_the_walks(image):
    assert_merge_equals_the_walk(image)


def test_the_merge_from_cycle_minima_equals_the_walks_at_1e5():
    assert_merge_equals_the_walk(np.random.default_rng(36).permutation(100_000))


def test_split_into_n_cycles():
    T = permutation_from_cycles([[0, 1, 2, 3, 4, 5, 6]], size=7)
    kept, image = split_into_n_cycles(T, 3)
    assert len(kept) == 6  # 7 = 2*3 + 1, one point dropped
    # every orbit of the new map has length exactly 3
    for y in kept:
        z, steps = image[y], 1
        while z != y:
            z = image[z]
            steps += 1
        assert steps == 3


def test_split_drops_short_cycles():
    T = permutation_from_cycles([[0, 1], [2, 3, 4]], size=5)
    kept, image = split_into_n_cycles(T, 4)
    assert kept == []
    assert image == {}


def test_split_validation():
    with pytest.raises(ValueError):
        split_into_n_cycles(FinitePermutation(np.arange(3)), 0)
