"""Array metrics and the list cycle walk, pinned against their per-point oracles.

The approximation metrics work on whole coordinate arrays; tests/oracles.py
keeps the loops they replaced, one point at a time.  The two must agree
bitwise: the distances and thresholds are the same IEEE operations per
point, and the monomial means are compared as computed.
"""

import numpy as np
import pytest

from ergodia.approximation import (
    ClosedSet,
    map_mismatch_fraction,
    synthesize_permutation,
    thickening_measure_error,
    weak_star_error,
)
from ergodia.cli import _monomial_tests, _target_map
from ergodia.dynamics import FinitePermutation
from ergodia.systems import build_bernoulli, build_drift_system, build_rotation, grid_embedding
from oracles import (
    cylinder_measure_loop,
    map_mismatch_fraction_loop,
    permutation_from_cycles,
    thickening_measure_error_loop,
    weak_star_error_loop,
)

SIZES = [2, 7, 1000, 33334, 100_000]
GOLDEN = 0.3819660112501051


def grid_system(kind, M):
    """(T, embedding, target spec): drift on the interval or a rotation on the circle."""
    if kind == "drift":
        T, emb = build_drift_system(M)
        return T, emb, {"name": "identity"}
    rot = build_rotation(M, GOLDEN)
    return rot.permutation, rot.embedding, {"name": "rotation", "t": GOLDEN}


def per_point(M):
    return lambda y: y / M


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kind", ["drift", "rotation"])
def test_weak_star_equals_oracle(kind, M):
    _, emb, _ = grid_system(kind, M)
    tests = _monomial_tests(5)
    loop = [(t.name, lambda x, d=d: float(x) ** d, t.integral) for d, t in enumerate(tests)]
    assert weak_star_error(emb, tests) == weak_star_error_loop(per_point(M), M, loop)


CLOSED_SETS = {
    "plain": ((0.25, 0.5),),
    "wrapped": ((0.9, 0.1),),
    "union": ((0.05, 0.2), (0.6, 0.75)),
    "whole": ((0, 1),),
}


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kind", ["drift", "rotation"])
def test_thickening_equals_oracle(kind, M):
    _, emb, _ = grid_system(kind, M)
    for name, intervals in CLOSED_SETS.items():
        C = ClosedSet(kind="intervals", intervals=intervals)
        for eps in (2.0 / M, 0.5 / M, 0.013):
            got = thickening_measure_error(emb, C, eps)
            assert got == thickening_measure_error_loop(per_point(M), M, emb.space, C, eps), (name, eps)


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kind", ["drift", "rotation"])
def test_map_mismatch_equals_oracle(kind, M):
    T, emb, target = grid_system(kind, M)
    for spec in (target, {"name": "doubling"}):
        tau = _target_map(spec)
        for eps in (0.5 / M, 2.0 / M, 0.25):
            got = map_mismatch_fraction(emb, T, tau, eps)
            want = map_mismatch_fraction_loop(per_point(M), M, emb.space, T.image, tau, eps)
            assert got == want, (spec, eps)


@pytest.mark.parametrize("M,delta", [(1000, 1e-3), (1000, 3e-3), (1000, 1e-2),
                                     (20_000, 1.5e-4), (20_000, 5e-4), (20_000, 1e-3)])
@pytest.mark.parametrize("base", ["rotation", "doubling"])
def test_partial_mismatch_on_synthesized_permutation(base, M, delta):
    # a clean target puts every source at the far end of its arc (fraction 0
    # or 1); targets jittered within delta spread the distances out
    grid = np.arange(M) / M
    clean = _target_map({"name": base, "t": GOLDEN})(grid)
    targets = (clean + np.random.default_rng(M).uniform(-1.0, 1.0, M) * delta) % 1.0

    def tau(x):
        return targets[np.rint(np.multiply(x, M)).astype(np.int64) % M]

    T, _ = synthesize_permutation(M, targets, delta)
    emb = grid_embedding(M)
    for eps in (delta / 7, delta / 3, delta / 2):
        got = map_mismatch_fraction(emb, T, tau, eps)
        assert 0.0 < got < 1.0, eps
        assert got == map_mismatch_fraction_loop(per_point(M), M, emb.space, T.image, tau, eps)


SYMBOLIC = {
    "naive-2-2": (build_bernoulli(2, 2, "naive"),
                  [({0: 1},), ({-1: 0, 1: 1},), ({2: 1}, {0: 0, -2: 1}), ({},)]),
    "debruijn-3-1": (build_bernoulli(3, 1, "debruijn"),
                     [({0: 2},), ({-1: 0, 1: 2}, {0: 1}), ({1: 1}, {-1: 2})]),
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_cylinder_thickening_equals_oracle(name):
    system, cylinder_sets = SYMBOLIC[name]
    emb = system.embedding
    assert [emb.coordinates[y].tolist() for y in range(system.M)] == \
        [system.word(y).tolist() for y in range(system.M)]
    for cylinders in cylinder_sets:
        C = ClosedSet(kind="cylinders", cylinders=cylinders)
        assert C.measure(emb.space) == cylinder_measure_loop(cylinders, system.m)
        for eps in (0.3, 0.5, 0.75, 1.0, 1.5):
            got = thickening_measure_error(emb, C, eps)
            want = thickening_measure_error_loop(system.word, system.M, emb.space, C, eps)
            assert got == want, (cylinders, eps)


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_symbolic_shift_mismatch_equals_oracle(name):
    system, _ = SYMBOLIC[name]
    emb = system.embedding

    def shift(words):
        return np.roll(words, -1, axis=-1)  # y'(n) = y(n + 1) on the truncated window

    for eps in (0.2, 0.3, 0.6):
        got = map_mismatch_fraction(emb, system.permutation, shift, eps)
        want = map_mismatch_fraction_loop(system.word, system.M, emb.space,
                                          system.permutation.image, shift, eps)
        assert got == want, eps


def test_coordinates_are_built_on_first_read():
    emb = build_drift_system(1000)[1]
    assert "coordinates" not in vars(emb)
    assert emb.coordinates is emb.coordinates
    assert emb.coordinates.tobytes() == np.asarray([y / 1000 for y in range(1000)]).tobytes()
    assert not emb.coordinates.flags.writeable


# -- the generic cycle walk --------------------------------------------------


def canonical_index(cycles):
    """The orbit index of a permutation given by its cycles, built without the walk."""
    cycles = [c[c.index(min(c)):] + c[:c.index(min(c))] for c in cycles]
    cycles.sort(key=lambda c: (-len(c), c[0]))
    order = [y for c in cycles for y in c]
    return FinitePermutation.from_cycle_order(order, [len(c) for c in cycles])


def random_cycles(M, seed):
    rng = np.random.default_rng(seed)
    points = rng.permutation(M).tolist()
    cuts = sorted(set(rng.integers(1, M, size=rng.integers(0, M)).tolist())) if M > 1 else []
    return [points[a:b] for a, b in zip([0] + cuts, cuts + [M])]


WALK_CASES = {
    **{f"random-{M}-{seed}": (M, random_cycles(M, seed))
       for M in (1, 2, 50, 1000, 20_000) for seed in (0, 1)},
    "identity": (300, [[y] for y in range(300)]),
    "single-cycle": (5000, [np.random.default_rng(7).permutation(5000).tolist()]),
    "two-cycles": (3000, np.array_split(np.random.default_rng(3).permutation(3000), [1234])),
}


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_list_walk_equals_index_from_cycles(name):
    M, cycles = WALK_CASES[name]
    cycles = [list(map(int, c)) for c in cycles]  # every case covers all M points
    T = permutation_from_cycles(cycles, M)
    assert T._index is None
    ref = canonical_index(cycles)
    assert np.array_equal(ref.image, T.image)
    for field in ("order", "starts", "lengths", "slot"):
        got, want = getattr(T.orbit_index, field), getattr(ref.orbit_index, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
