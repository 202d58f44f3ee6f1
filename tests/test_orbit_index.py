"""The orbit index: constructor-built cycle structure against the walk oracle.

Built-in systems generate their orbit order (FinitePermutation.from_index);
a permutation built from the bare image array finds it by array passes.
Both must give the index the list walk of tests/oracles.py gives, and every
kernel must give the same answer on a system and on a relabelled copy of it.
"""

import dataclasses
import json
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodia import cli, dynamics, stabilization, systems
from ergodia.dynamics import (FinitePermutation, Observable, OrbitIndex, ergodic_means_prefix, gamma_series,
                              orbit_average)
from ergodia.integrability import average, integrability_profile, tail_mass
from ergodia.stabilization import common_stabilization_segment, stabilization_segment, sup_discrepancy
from ergodia.systems import (
    build_bernoulli,
    build_drift_system,
    build_rotation,
    paper_observable,
)
from oracles import (band_end_loop, debruijn_lyndon, discrepancy_arrays, exact_prefix_means, index_field,
                     inverse_order, mean_rounding_bound, orbit_and_period, permutation_from_cycles,
                     permutation_images, permutation_of_cycle_order, prefix_means_gather, proof_arrays,
                     sup_discrepancy_two_pass, traced_peak, walk_index, width_rule)


def drift(M):
    return build_drift_system(M), np.roll(np.arange(M), -1)


def rotation(M, t):
    T = build_rotation(M, t)
    return T, (np.arange(M) + T.orbit_index.P) % M


def naive(m, N):
    L = 2 * N + 1
    words = np.arange(m**L)
    # left rotation of the word, as arithmetic on its little-endian index
    return build_bernoulli(m, N, "naive"), words // m + words % m * m ** (L - 1)


def debruijn(m, N):
    L = 2 * N + 1
    s = debruijn_lyndon(m, L)
    windows = sum(np.roll(s, -j) * m**j for j in range(L))
    image = np.empty(m**L, dtype=np.int64)
    image[windows] = np.roll(windows, -1)
    return build_bernoulli(m, N, "debruijn"), image


SYSTEMS = {
    "drift": lambda: drift(1000),
    # fig5: P = 22225 and M = 33334 share the factor 7, so 7 cycles
    "rotation-fig5": lambda: rotation(33334, 2.0 / 3.0),
    "rotation-coprime": lambda: rotation(1009, 0.3),
    "debruijn": lambda: debruijn(2, 4),
    "naive-prime-L": lambda: naive(2, 3),      # L = 7: periods 1 and 7
    "naive-composite-L": lambda: naive(2, 4),  # L = 9: periods 1, 3 and 9
    "naive-ternary": lambda: naive(3, 1),      # L = 3 over three symbols
    # the identity's index built directly, as the generators build theirs, leaving the image to first use
    "identity": lambda: (
        FinitePermutation.from_index(OrbitIndex(np.arange(1000), np.ones(1000, dtype=np.int64))), np.arange(1000)),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_constructor_index_equals_generic_walk(name):
    T, image = SYSTEMS[name]()
    assert np.array_equal(T.image, image)
    walked = FinitePermutation.from_index(walk_index(image))
    assert T.orbit_index is not None
    built, ref = T.orbit_index, walked.orbit_index
    assert len(T.cycles) == len(walked.cycles)
    assert all(np.array_equal(a, b) for a, b in zip(T.cycles, walked.cycles))
    for field in ("order", "starts", "lengths", "slot"):
        assert np.array_equal(index_field(built, field), index_field(ref, field)), field
    for y in range(0, T.size, max(1, T.size // 50)):
        assert T.period(y) == walked.period(y)


@pytest.mark.parametrize("M", [1, 2, 1000])
def test_identity_knows_its_fixed_points_without_a_walk(M):
    T = FinitePermutation(np.arange(M))
    index = T.orbit_index
    assert type(index) is OrbitIndex  # an identity index stores no order
    assert np.array_equal(index.order, np.arange(M)) and np.array_equal(index.lengths, np.ones(M))
    assert np.array_equal(T.image, np.arange(M))
    assert all(T.period(y) == 1 for y in range(M))


def test_identity_of_no_points_is_refused():
    with pytest.raises(ValueError):
        FinitePermutation(np.arange(0))
    with pytest.raises(ValueError):
        build_drift_system(0)


@pytest.mark.parametrize("M", [2, 3, 1000])
def test_the_shift_index_equals_the_checked_identity_order(M):
    # the drift's one-cycle index is built directly, with no order array to check and drop
    T, want = build_drift_system(M), permutation_of_cycle_order(np.arange(M), [M])
    got, ref = T.orbit_index, want.orbit_index
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if b is None:
            assert a is None, field.name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable, field.name
    assert "order" not in vars(got)
    assert T.size == M and np.array_equal(got.order, ref.order) and np.array_equal(T.image, want.image)


@given(permutation_images())
@settings(max_examples=300, deadline=None)
def test_the_walk_lays_its_cycles_out_in_canonical_order(image):
    # an image's index is not checked when it is built, so its canonical order is proved here
    index = FinitePermutation(image).orbit_index
    order, starts, lengths = index.order, index.starts, index.lengths
    heads = order[starts]
    assert np.array_equal(starts, np.cumsum(lengths) - lengths)
    assert (lengths[1:] <= lengths[:-1]).all()  # lengths descend
    tie = lengths[1:] == lengths[:-1]
    assert (heads[1:][tie] > heads[:-1][tie]).all()  # equal-length heads ascend
    assert np.array_equal(np.minimum.reduceat(order, starts), heads)  # each cycle starts at its minimum
    # an increasing order is the identity's, which only the base class holds, with no array
    assert (type(index) is OrbitIndex) == bool((order[1:] > order[:-1]).all())
    assert np.array_equal(FinitePermutation.from_index(index).image, image)


def assert_index_equals_the_walks(image):
    got, want = FinitePermutation(image).orbit_index, walk_index(image)
    assert type(got) is type(want)
    for field in ("starts", "lengths", "order"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int64 and not a.flags.writeable and np.array_equal(a, b), field


@given(permutation_images())
@settings(max_examples=300, deadline=None)
def test_the_array_index_equals_the_walks(image):
    assert_index_equals_the_walks(image)


@pytest.mark.parametrize("kind", ["random", "one-cycle", "two-cycles"])
def test_the_array_index_equals_the_walks_at_1e5(kind):
    M, points = 100_000, np.random.default_rng(40).permutation(100_000)
    image = points if kind == "random" else np.empty(M, dtype=np.int64)
    if kind == "one-cycle":
        image[points] = np.roll(points, -1)
    elif kind == "two-cycles":  # 50,000 swaps, their heads scattered by the shuffle
        image[points] = points.reshape(-1, 2)[:, ::-1].ravel()
    assert_index_equals_the_walks(image)


def test_the_drift_is_built_without_an_m_sized_array():
    T, peak = traced_peak(build_drift_system, 1 << 20)
    assert T.size == 1 << 20 and peak < 1 << 16, peak


def test_expected_cycle_counts():
    assert len(SYSTEMS["rotation-fig5"]()[0].cycles) == 7
    assert len(SYSTEMS["rotation-coprime"]()[0].cycles) == 1
    T = SYSTEMS["naive-composite-L"]()[0]
    assert sorted(set(len(c) for c in T.cycles)) == [1, 3, 9]
    # binary necklaces of length 9: (2^9 + 2 * 2^3 + 6 * 2) / 9
    assert len(T.cycles) == 60


def test_rotation_permutation_is_cached():
    T = build_rotation(1000, 0.3)
    assert T._index is not None  # built by build_rotation, not on first use
    assert T.orbit_index is T.orbit_index


SHARED = {
    "drift": lambda: build_drift_system(4000),
    # the identity's index built directly, and the one the walk finds in its image
    "identity": lambda: FinitePermutation.from_index(OrbitIndex(np.arange(4000), np.ones(4000, dtype=np.int64))),
    "identity-from-image": lambda: FinitePermutation(np.arange(4000)),
    # T swaps 0 and 1, yet its order, the 2-cycle then the fixed points, is 0, 1, 2, ...
    "swap-0-1": lambda: FinitePermutation(np.r_[1, 0, np.arange(2, 4000)]),
}
COPIED = {
    "rotation": lambda: build_rotation(4000, 0.3),
    "shuffled": lambda: FinitePermutation(np.random.default_rng(2).permutation(4000)),
    "swap-1-2": lambda: FinitePermutation(np.r_[0, 2, 1, np.arange(3, 4000)]),  # order 1, 2, 0, 3, ...
}


@pytest.mark.parametrize("name", sorted(SHARED) + sorted(COPIED))
def test_an_identity_order_is_its_own_inverse_and_the_memo_shares_the_values(name):
    # an identity order is neither stored nor generated, and its orbit-order values
    # are F.values itself; any other order has its own copy of the values
    T = {**SHARED, **COPIED}[name]()
    index = T.orbit_index
    F = Observable(np.random.default_rng(6).standard_normal(T.size))
    assert np.array_equal(index.order[inverse_order(index)], np.arange(T.size))
    assert np.array_equal(T.along(F), F.values[index.order])
    assert not index.order.flags.writeable and not T.along(F).flags.writeable
    shared = name in SHARED
    assert (type(index) is OrbitIndex) == shared
    assert (T.along(F) is F.values) == shared


# -- slots: the slots of given points, with no stored inverse -----------------


@st.composite
def indexed_points(draw):
    """(T, points): T from a random image, naive Bernoulli, a rotation with
    gcd(P, M) > 1, the identity or the drift; points may repeat and hold the
    first and last slot's points."""
    kind = draw(st.sampled_from(["walk", "naive", "rotation", "identity", "drift"]))
    if kind == "walk":
        M = draw(st.integers(1, 300))
        T = FinitePermutation(np.random.default_rng(draw(st.integers(0, 2**32))).permutation(M))
    elif kind == "naive":
        T = build_bernoulli(*draw(st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 1), (2, 3)])), "naive")
    elif kind == "rotation":
        g, q = draw(st.integers(2, 6)), draw(st.integers(2, 60))
        P = g * draw(st.integers(1, q - 1))
        T = systems._rotation(g * q, P)
    elif kind == "identity":
        T = FinitePermutation(np.arange(draw(st.integers(1, 300))))
    else:
        T = build_drift_system(draw(st.integers(2, 300)))
    order = T.orbit_index.order
    ends = st.sampled_from([int(order[0]), int(order[-1])])
    points = draw(st.lists(st.one_of(st.integers(0, T.size - 1), ends), max_size=40))
    return T, np.asarray(points, dtype=np.int64)


@given(indexed_points(), st.sampled_from([1, 7, 64, dynamics.CHUNK_POINTS]))
@settings(max_examples=300, deadline=None)
def test_slots_equal_the_inverse_order_at_the_points(case, chunk):
    T, points = case
    index = T.orbit_index
    with mock.patch.object(dynamics, "CHUNK_POINTS", chunk):
        got = index.slots(points)
        cycles = index.cycle_at(got)
    want = inverse_order(index)[points]
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(cycles, np.searchsorted(index.starts, want, side="right") - 1)
    if points.size:
        y = int(points[-1])
        orbit, p = orbit_and_period(T, y)
        # the cycle found for y is y's orbit, headed by its least point
        assert index.lengths[cycles[-1]] == p and index.order[index.starts[cycles[-1]]] == min(orbit)


@pytest.mark.parametrize("build", [lambda: build_bernoulli(2, 2, "naive"),
                                   lambda: FinitePermutation(np.arange(32)), lambda: build_drift_system(32)])
@pytest.mark.parametrize("bad", [-1, -32, 32, 10**6])
def test_slots_refuse_points_outside_the_space(build, bad):
    # a gather from an inverse array would wrap -1 to point 31: naive m=2, N=2 gave cycle 7
    index = build().orbit_index
    with pytest.raises(IndexError, match=f"point {bad} out of range for size 32"):
        index.slots([0, bad, 5])
    with pytest.raises(IndexError):
        index.slots(bad)


# wrapped-negative: a list walk over the image [-1, 0] would go 0 -> -1 -> 0, as Python lists wrap -1
# to the last point
BAD_ENTRIES = {"repeated": [0, 2, 1, 2], "negative": [-1, 0, 1, 2], "out-of-range": [0, 1, 2, 4],
               "wrapped-negative": [-1, 0]}


@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_bad_entries_raise_the_same_error_through_every_entry_point(kind):
    bad = np.asarray(BAD_ENTRIES[kind])
    with pytest.raises(ValueError, match=r"^image array is not a permutation of 0\.\.M-1$"):
        FinitePermutation(bad)


def test_gamma_and_the_band_scan_on_a_drift_system_build_no_order():
    # nor do the other mean kernels: each reads T.along(F) by orbit slot
    T, F = build_drift_system(5000), paper_observable("ex03", 5000, K=50)
    for y in (0, 3, 4999):
        gamma_series(F, T, y, 2.5)
        ergodic_means_prefix(F, T, y, 7000)
        orbit_average(F, T, y)
        T.period(y)
    stabilization_segment(F, T, [0, 3, 77, 4999], 2, 0.05, 300)
    sup_discrepancy(F, T, [(40, 17), (5003, 1000)], [0.05])  # _row_means reads no order
    proof_arrays(F, T, 5003, 1000)
    index = T.orbit_index
    assert type(index) is OrbitIndex and "order" not in vars(index)
    assert T.along(F) is F.values


def test_exact_prefix_means_on_a_drift_system_build_no_order():
    # the float means read y's cycle in T.along(F), with no order array; the exact ones, taken
    # after them at linear's denominator M, walk the image
    T, F = build_drift_system(10_000), paper_observable("linear", 10_000)
    means = ergodic_means_prefix(F, T, 3, 100)
    assert "order" not in vars(T.orbit_index)
    exact = exact_prefix_means(F, T, 3, 100, 10_000)
    assert exact[:2] == [Fraction(3, 10_000), Fraction(7, 20_000)]
    assert (np.abs(means - [float(q) for q in exact]) <= mean_rounding_bound(F, 100)).all()


@pytest.mark.parametrize("name,arrays", [
    # F.values and up to three chunks of gamma's sums; in the build, before
    # F, the order and an M-byte table
    ("drift", 1.25),
    # the order, F.values and T.along(F), and up to three chunks of gamma's sums;
    # an inverse of the order would be a fourth M-array
    ("debruijn", 4.5),
])
def test_gamma_holds_no_inverse_of_the_order(name, arrays):
    M = {"drift": 1 << 20, "debruijn": 1 << 17}[name]

    def build_and_run():
        if name == "drift":
            T, F = build_drift_system(M), paper_observable("ex03", M, K=1000)
        else:
            T, F = build_bernoulli(2, 8, "debruijn"), paper_observable("chi0", M, N=8)
        gamma_series(F, T, 1000, 1.0, 64)

    _, peak = traced_peak(build_and_run)
    assert peak <= arrays * 8 * M, peak / (8 * M)


# -- metamorphic: relabelling Y changes no answer ---------------------------


def relabel(F, T, sigma):
    """(F o sigma^-1, sigma T sigma^-1) as plain arrays: the path that finds the index in the image."""
    image = np.empty(T.size, dtype=np.int64)
    image[sigma] = sigma[T.image]
    values = np.empty(T.size)
    values[sigma] = F.values
    return Observable(values), FinitePermutation(image)


RELABELLED = {
    "drift-ex03": lambda: (build_drift_system(600), paper_observable("ex03", 600, K=50)),
    "rotation-fig5-ex01": lambda: (build_rotation(33334, 2.0 / 3.0),
                                   paper_observable("ex01", 33334)),
    "debruijn-chi0": lambda: (build_bernoulli(2, 4, "debruijn"),
                              paper_observable("chi0", 512, N=4)),
    "naive-chi0": lambda: (build_bernoulli(2, 4, "naive"),
                           paper_observable("chi0", 512, N=4)),
    # cycles of lengths 1 to 40, with an integer-valued F so the sums are exact
    "mixed-cycles": lambda: (permutation_from_cycles(
        np.split(np.random.default_rng(3).permutation(107), np.cumsum([40, 19, 12, 7, 7, 7, 5, 3, 3, 2, 1])), 107),
        Observable(np.random.default_rng(4).integers(-9, 10, 107))),
}


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelling_preserves_means_discrepancies_segments_and_tails(name):
    T, F = RELABELLED[name]()
    sigma = np.random.default_rng(len(name)).permutation(T.size)
    F2, T2 = relabel(F, T, sigma)
    assert T2._index is None  # the relabelled copy finds its index in its image
    # diffs, U and V of each copy in its own orbit order, compared in point order
    slot, slot2 = inverse_order(T.orbit_index), inverse_order(T2.orbit_index)
    pairs = [(2, 1), (7, 2), (T.size + 5, T.size // 3), (T.size // 2 + 3, T.size // 5 + 1)]
    epsilons = (1e-3, 0.05, 0.5)
    reports = zip(sup_discrepancy(F, T, pairs, epsilons), sup_discrepancy(F2, T2, pairs, epsilons))
    for (K, L), d, d2, ((sup, frac), (sup2, frac2)) in zip(pairs, discrepancy_arrays(F, T, pairs),
                                                            discrepancy_arrays(F2, T2, pairs), reports, strict=True):
        assert np.array_equal(d2[slot2][sigma], d[slot])
        assert sup2 == sup
        for eps in epsilons:
            assert frac2[eps] == frac[eps]
        for term2, term in zip(proof_arrays(F2, T2, K, L), proof_arrays(F, T, K, L), strict=True):
            assert np.array_equal(term2[slot2][sigma], term[slot])
    sample = np.random.default_rng(5).integers(0, T.size, 40)
    for n_min, eps, scan_limit in ((1, 1e-9, 50), (3, 0.05, 300), (2, 0.5, T.size + 9)):
        K_star, witness = stabilization_segment(F, T, sample, n_min, eps, scan_limit)
        K_star2, witness2 = stabilization_segment(F2, T2, sigma[sample], n_min, eps, scan_limit)
        assert_bitwise((K_star2, witness2, K_star2 == scan_limit), (K_star, witness, K_star == scan_limit))
        assert common_stabilization_segment(K_star2, witness2, 0.2) == common_stabilization_segment(K_star, witness, 0.2)
    assert np.array_equal(integrability_profile(F2).tail_masses,
                          integrability_profile(F).tail_masses)
    for y in (0, 1, T.size // 2, T.size - 1):
        assert np.array_equal(ergodic_means_prefix(F2, T2, int(sigma[y]), 300),
                              ergodic_means_prefix(F, T, y, 300))
        K_star, witness = stabilization_segment(F, T, [y], 3, 0.05, 300)
        K_star2, witness2 = stabilization_segment(F2, T2, [sigma[y]], 3, 0.05, 300)
        assert_bitwise((K_star2, witness2, K_star2 == 300), (K_star, witness, K_star == 300))


# -- the orbit-order layout: slots, the lazy image and the observable memo ----


def mixed_cycles():
    """Cycles of lengths 1 to 40 on 107 points, and a non-integral F."""
    rng = np.random.default_rng(3)
    cycles = np.split(rng.permutation(107), np.cumsum([40, 19, 12, 7, 7, 7, 5, 3, 3, 2, 1]))
    return permutation_from_cycles(cycles, 107), Observable(rng.normal(size=107))


LAYOUTS = {
    "random": lambda: FinitePermutation(np.random.default_rng(11).permutation(2000)),
    "identity": lambda: FinitePermutation(np.arange(300)),
    "single-cycle": lambda: permutation_from_cycles(
        [np.random.default_rng(7).permutation(1500).tolist()], 1500),
    "naive": lambda: naive(2, 4)[0],
    "naive-ternary": lambda: naive(3, 1)[0],
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_cycle_ids_and_positions_match_the_walks_cycles(name):
    T = LAYOUTS[name]()
    walked = FinitePermutation.from_index(walk_index(T.image))
    want_cycle, want_pos = np.full(T.size, -1), np.full(T.size, -1)
    for c, cyc in enumerate(walked.cycles):
        for pos, y in enumerate(cyc.tolist()):
            want_cycle[y], want_pos[y] = c, pos
    index, points = T.orbit_index, np.arange(T.size)
    cid = index.cycle_at(index.slots(points))
    assert np.array_equal(cid, want_cycle)
    assert np.array_equal(inverse_order(index)[points] - index.starts[cid], want_pos)
    assert np.array_equal(index.order[inverse_order(index)], points)
    assert np.array_equal(index.slots(points), inverse_order(index))
    for y in range(0, T.size, max(1, T.size // 40)):
        orbit, p = orbit_and_period(T, y)
        assert orbit == np.roll(walked.cycles[want_cycle[y]], -want_pos[y]).tolist()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_lazy_image_equals_the_successor_image_and_is_read_only(name):
    T, image = SYSTEMS[name]()
    assert T._image is None
    assert np.array_equal(T.image, image) and T.image.dtype == np.int64
    assert T.image is T.image
    assert not T.image.flags.writeable
    with pytest.raises(ValueError):
        T.image[0] = 0
    with pytest.raises(AttributeError):
        T.image = image


def kernel_results(F, T):
    """Every kernel that reads T.along(F), as plain arrays and tuples; diffs, U and V in orbit order."""
    gamma, _ = gamma_series(F, T, 5, 2.7, 1)
    ((sup_disc, frac),) = sup_discrepancy(F, T, [(40, 17)], [0.05])
    U, V = proof_arrays(F, T, 40, 17)
    K_star, witness = stabilization_segment(F, T, [0, 5, 33, 60, 106], 2, 0.05, 150)
    common_k, common_w, excluded = common_stabilization_segment(K_star, witness, 0.2)
    return (gamma, discrepancy_arrays(F, T, [(40, 17)])[0], U, V, sup_disc, frac[0.05],
            K_star, witness, K_star == 150,
            (common_k, common_w, common_k == 150, excluded))


def assert_bitwise(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b), (a, b)


def test_the_memo_gives_each_observable_its_own_values():
    T, F = mixed_cycles()
    G = Observable(np.random.default_rng(8).integers(-9, 10, T.size))
    first_f, on_g, again_f = kernel_results(F, T), kernel_results(G, T), kernel_results(F, T)
    assert T.along(F) is T.along(F)
    assert not T.along(F).flags.writeable
    assert np.array_equal(T.along(G), G.values[T.orbit_index.order])
    assert_bitwise(first_f, kernel_results(F, mixed_cycles()[0]))
    assert_bitwise(again_f, first_f)
    assert_bitwise(on_g, kernel_results(G, mixed_cycles()[0]))
    assert not np.array_equal(on_g[0], first_f[0])


def test_racing_observables_on_one_permutation_keep_their_own_values():
    T, F = mixed_cycles()
    G = Observable(np.random.default_rng(8).integers(-9, 10, T.size))
    want = {id(H): gamma_series(H, mixed_cycles()[0], 5, 2.7, 1)[0] for H in (F, G)}
    failures = []

    def worker(first, second):
        for _ in range(1000):
            for H in (first, second):
                try:
                    assert np.array_equal(gamma_series(H, T, 5, 2.7, 1)[0], want[id(H)])
                except Exception as e:  # a thread's exception would not fail the test
                    failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(F, G) if i % 2 else (G, F)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[:3]


BUILT = {
    "drift": lambda: (build_drift_system(5000), paper_observable("ex03", 5000, K=50)),
    "rotation": lambda: (build_rotation(33334, 2.0 / 3.0), paper_observable("tent", 33334)),
    "naive": lambda: (build_bernoulli(2, 4, "naive"), paper_observable("chi0", 512, N=4)),
    "debruijn": lambda: (build_bernoulli(2, 4, "debruijn"),
                         paper_observable("chi0", 512, N=4)),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_the_kernels_build_no_image(name):
    T, F = BUILT[name]()
    for y in (0, 3, T.size - 1):
        gamma_series(F, T, y, 2.5)
    common_stabilization_segment(*stabilization_segment(F, T, [0, 3, 77, T.size - 1], 2, 0.05, 300), 0.2)
    sup_discrepancy(F, T, [(40, 17)], [0.05])
    proof_arrays(F, T, 40, 17)
    assert T._image is None


@pytest.mark.parametrize("name", sorted(BUILT))
def test_cycles_are_read_from_the_index_and_build_no_order(name):
    T, _ = BUILT[name]()
    index = T.orbit_index
    assert len(T.cycles) == index.lengths.size
    assert "order" not in vars(index)
    # the views the cycles were before: one row per cycle of each length class's block of the order
    order = index.order
    views = [row for offset, count, p in index.length_classes()
             for row in order[offset : offset + count * p].reshape(count, p)]
    cycles = list(T.cycles)
    assert len(cycles) == len(views) and all(np.array_equal(a, b) for a, b in zip(cycles, views))
    for c in (0, -1, len(views) - 1, -len(views)):
        assert np.array_equal(T.cycles[c], views[c]), c
    for c in (len(views), -len(views) - 1):
        with pytest.raises(IndexError):
            T.cycles[c]


@pytest.mark.parametrize("k", [0.5, 1, 2.7, 5])
def test_gamma_from_a_short_cycle_is_the_prefix_means(k):
    T, F = mixed_cycles()
    for p in (3, 7, 1):
        y = int(next(c[-1] for c in T.cycles if len(c) == p))
        n_total = int(np.floor(k * T.size))
        points, stride = gamma_series(F, T, y, k, 1)
        assert stride == 1 and points.shape == (n_total, 3)
        assert points[:, 2].tobytes() == prefix_means_gather(F, T, y, n_total).tobytes()


# -- the width of the orbit-order values ----------------------------------

# the int8 and int32 bounds and their neighbours, and values no int holds exactly
EDGE_VALUES = [0.0, 1.0, 127.0, 128.0, -128.0, -129.0, 2.0**31 - 1, 2.0**31, -(2.0**31), -(2.0**31) - 1,
               -0.0, np.nan, np.inf, -np.inf, 0.5]


@given(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.integers(-3, 3).map(float)),
                min_size=1, max_size=60),
       st.sampled_from(["shuffled", "shift", "identity"]), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 7, 64, dynamics.CHUNK_POINTS]))
@settings(max_examples=300, deadline=None)
def test_the_memo_takes_the_narrowest_exact_width(values, kind, seed, chunk):
    M = len(values)
    T = {"shuffled": lambda: FinitePermutation(np.random.default_rng(seed).permutation(M)),
         # the drift needs M >= 2; on one point the shift is the identity
         "shift": lambda: build_drift_system(M) if M > 1 else FinitePermutation(np.arange(1)),
         "identity": lambda: FinitePermutation(np.arange(M))}[kind]()
    with mock.patch.object(dynamics, "CHUNK_POINTS", chunk):
        F = Observable(values)
        along = T.along(F)
    index, want = T.orbit_index, np.asarray(values, dtype=np.float64)
    # F is stored narrow from construction on; bitwise, so a NaN, an inf and the sign of every zero are kept
    assert F.values.dtype == width_rule(values) and not F.values.flags.writeable
    assert F.values.astype(np.float64).tobytes() == want.tobytes()
    if type(index) is OrbitIndex:  # an identity order: no copy
        assert along is F.values
    else:
        assert along.dtype == width_rule(values)
        assert along.astype(np.float64).tobytes() == want[index.order].tobytes()
        assert not along.flags.writeable
    assert T.along(F) is along


WIDTH_SYSTEMS = {
    "naive": lambda: build_bernoulli(2, 3, "naive"),
    "debruijn": lambda: build_bernoulli(2, 3, "debruijn"),
    # gcd(36, 150) = 6 cycles of 25
    "rotation-gcd-6": lambda: systems._rotation(150, 36),
    "shuffled": lambda: FinitePermutation(np.random.default_rng(9).permutation(150)),
}


def integer_observable(M, dtype):
    """Random integers over the whole range of dtype, both ends included."""
    info = np.iinfo(dtype)
    values = np.random.default_rng(M).integers(info.min, info.max, M, endpoint=True)
    values[:2] = info.min, info.max
    return Observable(values)


@pytest.mark.parametrize("chunk", [1, 7, 64, 256, dynamics.CHUNK_POINTS])
@pytest.mark.parametrize("dtype", [np.int8, np.int32])
@pytest.mark.parametrize("name", sorted(WIDTH_SYSTEMS))
def test_kernels_on_a_narrow_memo_bitwise_equal_the_oracles(monkeypatch, name, dtype, chunk):
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    T = WIDTH_SYSTEMS[name]()
    M, F = T.size, integer_observable(T.size, dtype)
    assert T.along(F).dtype == dtype
    for y in (0, 5, M - 1):
        gamma, _ = gamma_series(F, T, y, 2.3, 1)
        means = prefix_means_gather(F, T, y, gamma.shape[0])
        assert gamma[:, 2].tobytes() == means.tobytes()
        assert ergodic_means_prefix(F, T, y, means.size).tobytes() == means.tobytes()
    points, scale = np.array([0, 5, 33, M - 1, 5]), float(np.iinfo(dtype).max)
    for K, L in ((7, 1), (40, 17), (M + 5, M // 3)):
        ((sup_disc, frac),) = sup_discrepancy(F, T, [(K, L)], [0.5 * scale])
        diffs, u, v = sup_discrepancy_two_pass(F, T, K, L)  # all in orbit order
        assert discrepancy_arrays(F, T, [(K, L)])[0].tobytes() == diffs.tobytes()
        U, V = proof_arrays(F, T, K, L)
        assert U.tobytes() == u.tobytes() and V.tobytes() == v.tobytes()
        assert np.float64(sup_disc).tobytes() == np.max(diffs).tobytes()
        assert np.float64(frac[0.5 * scale]).tobytes() == np.mean(diffs >= 0.5 * scale).tobytes()
    for n_min, eps, scan_limit in ((1, 1e-9, 50), (3, 0.3 * scale, M + 9)):
        K_star, witness = stabilization_segment(F, T, points, n_min, eps, scan_limit)
        want = [band_end_loop(F, T, int(y), n_min, eps, scan_limit) for y in points]
        assert list(zip(K_star.tolist(), (K_star == scan_limit).tolist())) == [(k, c) for k, _, c in want]
        assert witness.tobytes() == np.array([w for _, w, _ in want]).tobytes()


def test_the_first_narrow_memo_costs_two_bytes_per_point():
    # F is int8 from construction on, so the gather is the one copy; a float64 temporary would be 8 bytes per point
    T = build_bernoulli(2, 10, "debruijn")
    F = paper_observable("chi0", T.size, N=10)
    along, peak = traced_peak(T.along, F)
    assert along.dtype == np.int8
    assert peak <= 2 * T.size + (1 << 20), peak


def forced_float64(F):
    """F with its values stored as float64, as Observable stored every observable before it narrowed
    them: a new array Observable (the along memo is keyed by identity, and a rule's values_at would
    still give its narrow width) whose narrowed values are then replaced."""
    G = Observable(F.values, F.name)
    G.values = F.values.astype(np.float64)
    G.values.setflags(write=False)
    return G


def kernel_outputs(F, T):
    """The bytes of every kernel's result on (F, T), scalars included, for a bitwise comparison."""
    M, points = T.size, np.array([0, 5, 33, T.size - 1])
    out = []
    for y in points.tolist():
        out.append(gamma_series(F, T, y, 2.3)[0])
        out.append(ergodic_means_prefix(F, T, y, M + 7))
    top = float(np.max(np.abs(F.values, dtype=np.float64)))
    for n_min, eps, scan_limit in ((1, 1e-9, 50), (3, 0.3 * top, M + 9)):
        K_star, witness = stabilization_segment(F, T, points, n_min, eps, scan_limit)
        out += [K_star, witness, K_star == scan_limit]
    pairs = [(7, 1), (40, 17), (M + 5, M // 3)]
    out += discrepancy_arrays(F, T, pairs)
    out.append(np.array([(sup, frac[1.0]) for sup, frac in sup_discrepancy(F, T, pairs, [1.0])]))
    out += proof_arrays(F, T, 40, 17)
    profile = integrability_profile(F)
    out += [profile.thresholds, profile.tail_masses, np.array([profile.av_abs, profile.max_abs])]
    out.append(np.array([tail_mass(F, k) for k in (0.5, 1.0, 127.0, 128.0, 2.0**31)] + [average(F)]))
    return [a.tobytes() for a in out]


def width_observables(M):
    """Integer observables on M points, with their stored dtype: the int8 and int32 ranges with both
    ends (-128 and -2^31 among them, whose abs wraps at that width), and the paper's."""
    rng = np.random.default_rng(M)
    int8 = rng.integers(-128, 127, M, endpoint=True)
    int8[:2] = -128, 127
    int32 = rng.integers(-(2**31), 2**31 - 1, M, endpoint=True)
    int32[:3] = -(2**31), 2**31 - 1, -128
    yield Observable(int8), np.int8
    yield Observable(int32), np.int32
    yield paper_observable("ex01", M), np.int32 if M > 127 else np.int8
    yield paper_observable("delta", M), np.int32 if M > 127 else np.int8
    yield paper_observable("ex03", M, K=5), np.int8
    if M == 2**7:
        yield paper_observable("chi0", M, N=3), np.int8
    yield paper_observable("constant", M, value=-128.0), np.int8


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(WIDTH_SYSTEMS) + ["drift"])
def test_narrow_observables_give_the_float64_results_bitwise(monkeypatch, name, chunk):
    # metamorphic: the same observable stored narrow and forced to float64 gives the same bytes from
    # every kernel, as each tile is widened to float64 and integer sums below 2^53 are exact
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    T = build_drift_system(150) if name == "drift" else WIDTH_SYSTEMS[name]()
    for F, dtype in width_observables(T.size):
        G = forced_float64(F)
        assert F.values.dtype == dtype and G.values.dtype == np.float64, F.name
        assert kernel_outputs(F, T) == kernel_outputs(G, T), F.name


# -- generated orders: rotation, de Bruijn and naive store no order array -----


def lyndon_debruijn_image(m, L):
    """The window successor of the Lyndon-generator sequence, window by window."""
    s = debruijn_lyndon(m, L)
    windows = sum(np.roll(s, -j) * m**j for j in range(L))
    image = np.empty(m**L, dtype=np.int64)
    image[windows] = np.roll(windows, -1)
    return image


# family -> (build the generated permutation, its image by a separate rule)
GENERATED = {
    # g = 1, the search's and the published (25001, 1/sqrt2) pair's
    "rotation-g1": (lambda: systems._rotation(1009, 300),
                    lambda: (np.arange(1009) + 300) % 1009),
    "rotation-25001": (lambda: build_rotation(25001, float(1.0 / np.sqrt(2.0))),
                       lambda: (np.arange(25001) + 17677) % 25001),
    # g = 7: the published (33334, 2/3) pair; g = 6 with cycles shorter than most chunks
    "rotation-g7": (lambda: build_rotation(33334, 2.0 / 3.0),
                    lambda: (np.arange(33334) + 22225) % 33334),
    "rotation-g6": (lambda: systems._rotation(150, 36),
                    lambda: (np.arange(150) + 36) % 150),
    **{f"debruijn-{m}-{N}": (lambda m=m, N=N: build_bernoulli(m, N, "debruijn"),
                             lambda m=m, N=N: lyndon_debruijn_image(m, 2 * N + 1))
       for m, N in [(2, 0), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2)]},
    **{f"naive-{m}-{N}": (lambda m=m, N=N: build_bernoulli(m, N, "naive"),
                          lambda m=m, N=N: naive(m, N)[1])
       for m, N in [(2, 0), (2, 1), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2)]},
}


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_orders_equal_the_checked_index(monkeypatch, name, chunk):
    # the canonical order is proved here, not checked at build time: a generator
    # has no input but its parameters, and a check would cost an M-byte table
    monkeypatch.setattr(dynamics, "CHUNK_POINTS", chunk)
    monkeypatch.setattr(systems, "CHUNK_POINTS", chunk)
    build, image = GENERATED[name]
    T = build()
    index, ref = T.orbit_index, walk_index(image())
    assert "order" not in vars(index)
    assert np.array_equal(index.order, ref.order) and not index.order.flags.writeable
    checked = permutation_of_cycle_order(index.order, index.lengths).orbit_index
    for field in ("starts", "lengths"):
        got = getattr(index, field)
        assert got.dtype == np.int64 and not got.flags.writeable, field
        assert np.array_equal(got, getattr(ref, field)), field
        assert np.array_equal(got, getattr(checked, field)), field
    M = T.size
    for lo in sorted({0, 1, M // 3, M - 2, M - 1} & set(range(M))):
        for hi in sorted({lo + 1, lo + 2, lo + 9, lo + 100, M} & set(range(lo + 1, M + 1))):
            assert np.array_equal(index.order_chunk(lo, hi), ref.order[lo:hi]), (lo, hi)
    points = np.random.default_rng(M).integers(0, M, 50)
    for pts in (np.arange(M), points, points[:1], np.array([M - 1, 0, M - 1])):
        assert np.array_equal(index.slots(pts), inverse_order(ref)[pts])
    for bad in (-1, M):
        with pytest.raises(IndexError, match=f"point {bad} out of range for size {M}"):
            index.slots([0, bad])
    assert np.array_equal(T.image, image()) and T.size == ref.size


@pytest.mark.parametrize("name", ["rotation-g1", "rotation-g7", "debruijn-2-4", "debruijn-3-2",
                                  "naive-2-4", "naive-3-2"])
def test_gamma_and_stab_runs_on_generated_orders_build_no_order(tmp_path, monkeypatch, name):
    # the CLI's gamma and stab runs read the order by chunks and slots only
    T = GENERATED[name][0]()
    monkeypatch.setattr(cli, "_build_system", lambda spec: (T, {}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "observable": {"name": "constant", "value": 0.25},
        "start_points": {"explicit": [0, 5, T.size - 1]}, "gamma": {"k": 2.5},
        "stab": {"epsilon": 0.05, "eta": 0.1, "n_min": 2, "scan_limit": 300, "pairs": [[40, 17]]}}))
    for command in ("gamma", "stab"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    assert "order" not in vars(T.orbit_index) and T._image is None


def test_a_gamma_run_finds_its_start_points_in_one_slots_pass(tmp_path, monkeypatch):
    # one scan of the de Bruijn order for three start points, not one each
    passes = []
    scan = dynamics.PermutedOrder._slots
    monkeypatch.setattr(dynamics.PermutedOrder, "_slots",
                        lambda self, pts: passes.append(pts.size) or scan(self, pts))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": {"name": "bernoulli", "m": 2, "N": 4, "mode": "debruijn"},
        "observable": {"name": "chi0", "N": 4},
        "start_points": {"explicit": [1, 17, 511]}, "gamma": {"k": 1.0}}))
    assert cli.main(["gamma", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert passes == [3]
