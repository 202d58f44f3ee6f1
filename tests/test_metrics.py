"""Array metrics and the orbit index, pinned against their per-point oracles.

The approximation metrics work on the whole grid array x = y/M; tests/oracles.py
keeps the loops they replaced, one point at a time.  The two must agree
bitwise: the distances and thresholds are the same IEEE operations per
point, and the monomial means are compared as computed.  The orbit index of
an image and the list cycle walk that serves as its oracle are both pinned
against an index laid out from the cycles themselves.
"""

from functools import partial

import numpy as np
import pytest

from ergodia.approximation import (
    map_mismatch_fraction,
    synthesize_permutation,
    thickening_measure_error,
    weak_star_error,
)
from ergodia.cli import _target_images
from ergodia.dynamics import FinitePermutation, StoredOrder
from ergodia.systems import build_drift_system, build_rotation
from oracles import (
    index_field,
    map_mismatch_fraction_loop,
    permutation_from_cycles,
    thickening_measure_error_loop,
    walk_index,
    weak_star_error_loop,
)

SIZES = [2, 7, 1000, 33334, 100_000]
GOLDEN = 0.3819660112501051


def grid_system(kind, M):
    """(T, x, circle, target spec): drift on the interval or a rotation on the circle."""
    x = np.arange(M) / M
    if kind == "drift":
        return build_drift_system(M), x, False, {"name": "identity"}
    return build_rotation(M, GOLDEN), x, True, {"name": "rotation", "t": GOLDEN}


def per_point(M):
    return lambda y: y / M


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kind", ["drift", "rotation"])
def test_weak_star_equals_oracle(kind, M):
    _, x, _, _ = grid_system(kind, M)
    loop = [(f"x^{d}", lambda x, d=d: float(x) ** d, 1.0 / (d + 1)) for d in range(6)]
    assert weak_star_error(x, 5) == weak_star_error_loop(per_point(M), M, loop)


CLOSED_INTERVALS = {
    "plain": (0.25, 0.5),
    "wrapped": (0.9, 0.1),
    "whole": (0, 1),
}


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kind", ["drift", "rotation"])
def test_thickening_equals_oracle(kind, M):
    _, x, circle, _ = grid_system(kind, M)
    for name, interval in CLOSED_INTERVALS.items():
        for eps in (2.0 / M, 0.5 / M, 0.013):
            got = thickening_measure_error(x, interval, eps, circle=circle)
            assert got == thickening_measure_error_loop(per_point(M), M, circle, interval, eps), (name, eps)


@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("kind", ["drift", "rotation"])
def test_map_mismatch_equals_oracle(kind, M):
    T, x, circle, target = grid_system(kind, M)
    for spec in (target, {"name": "doubling"}):
        tau = partial(_target_images, spec)  # per point, for the oracle
        for eps in (0.5 / M, 2.0 / M, 0.25):
            got = map_mismatch_fraction(T, _target_images(spec, x), eps, circle=circle)
            want = map_mismatch_fraction_loop(per_point(M), M, circle, T.image, tau, eps)
            assert got == want, (spec, eps)


@pytest.mark.parametrize("M,delta", [(1000, 1e-3), (1000, 3e-3), (1000, 1e-2),
                                     (20_000, 1.5e-4), (20_000, 5e-4), (20_000, 1e-3)])
@pytest.mark.parametrize("base", ["rotation", "doubling"])
def test_partial_mismatch_on_synthesized_permutation(base, M, delta):
    # a clean target puts every source at the far end of its arc (fraction 0
    # or 1); targets jittered within delta spread the distances out
    grid = np.arange(M) / M
    clean = _target_images({"name": "rotation", "t": GOLDEN} if base == "rotation" else {"name": base}, grid)
    targets = (clean + np.random.default_rng(M).uniform(-1.0, 1.0, M) * delta) % 1.0

    def tau(x):
        return targets[np.rint(np.multiply(x, M)).astype(np.int64) % M]

    T, _ = synthesize_permutation(M, targets, delta)
    for eps in (delta / 7, delta / 3, delta / 2):
        got = map_mismatch_fraction(T, targets, eps, circle=True)
        assert 0.0 < got < 1.0, eps
        assert got == map_mismatch_fraction_loop(per_point(M), M, True, T.image, tau, eps)


# -- the orbit index of an image and the list walk ---------------------------


def canonical_index(cycles):
    """The permutation given by its cycles, from an orbit index laid out from them, not found in an image."""
    cycles = [c[c.index(min(c)):] + c[:c.index(min(c))] for c in cycles]
    cycles.sort(key=lambda c: (-len(c), c[0]))
    lengths = np.array([len(c) for c in cycles], dtype=np.int64)
    order = np.array([y for c in cycles for y in c], dtype=np.int64)
    return FinitePermutation.from_index(StoredOrder(np.cumsum(lengths) - lengths, lengths, order))


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
    for index in (walk_index(T.image), T.orbit_index):  # the oracle and the array passes
        for field in ("order", "starts", "lengths", "slot"):
            got, want = index_field(index, field), index_field(ref.orbit_index, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
