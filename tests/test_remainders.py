"""The remainder-free circle arithmetic, pinned bit for bit against the % forms it replaces.

_mod1 (the circle distance, the closed-interval thickening and the target maps), arc_matcher's
reduction of arc starts mod M and the rotation's order_chunk skip numpy's remainder where its
operands are already in range; each is compared here with the remainder taken on every value
(tests/oracles.py), on the edges of that range and beyond it.  arc_matcher's random families are
compared with its lexsort oracle at chunk sizes 1, 7 and 64 in test_approximation.py.
"""

from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodia import approximation, dynamics, systems
from ergodia.approximation import _distance, _mod1, arc_matcher, thickening_measure_error
from ergodia.cli import _target_images
from oracles import (arc_matcher_lexsort, circle_distance_mod, remainder_mod1, rotation_order_chunk_divmod,
                     target_images_mod)

BELOW_1, BELOW_2 = np.nextafter(1.0, 0.0), np.nextafter(2.0, 0.0)
# the edges of [+0, 2), where the remainder is skipped, and values on either side of them
EDGES = [0.0, -0.0, 5e-324, BELOW_1, 1.0, np.nextafter(1.0, 2.0), BELOW_2, 2.0, np.nextafter(2.0, 3.0),
         -5e-324, -BELOW_1, -1.0, 3.5, 2.0**60, -(2.0**60), np.nan, -np.nan, np.inf, -np.inf]
CHUNKS = [1, 7, 64]
# numpy warns of NaN made by the remainder of an infinity, in the old form and the fallback alike
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


@st.composite
def float_arrays(draw):
    """float64 arrays all in [+0, 2) (the skipped remainder) or with values outside it as well:
    the edges, NaN, +-inf and any float."""
    inside = st.one_of(st.sampled_from([0.0, 5e-324, BELOW_1, 1.0, BELOW_2]),
                       st.floats(0.0, 2.0, exclude_max=True, allow_subnormal=True))
    anywhere = st.one_of(inside, st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))
    values = draw(st.lists(inside if draw(st.booleans()) else anywhere, min_size=0, max_size=40))
    return np.array(values, dtype=np.float64)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@given(float_arrays())
@settings(max_examples=500, deadline=None)
def test_mod1_is_the_float_remainder_bit_for_bit(v):
    assert same_bits(_mod1(v.copy()), remainder_mod1(v))


@pytest.mark.parametrize("value", EDGES)
def test_mod1_of_each_edge_alone_and_as_a_scalar(value):
    v = np.array([value])
    assert same_bits(_mod1(v.copy()), remainder_mod1(v))
    assert same_bits(_mod1(np.float64(value)), remainder_mod1(np.float64(value)))
    assert same_bits(_mod1(value), remainder_mod1(value))


def test_mod1_takes_no_remainder_on_its_range():
    # on [+0, 2) the result is the conditional subtract, written into the array given
    v = np.array([0.0, 5e-324, BELOW_1, 1.0, BELOW_2])
    out = _mod1(v)
    assert out is v and same_bits(out, np.array([0.0, 5e-324, BELOW_1, 0.0, BELOW_2 - 1.0]))


@given(float_arrays(), float_arrays())
@settings(max_examples=300, deadline=None)
def test_circle_distance_is_the_remainder_form_bit_for_bit(a, b):
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    assert same_bits(_distance(a, b, circle=True), circle_distance_mod(a, b))
    for x, y in zip(a.tolist()[:3], b.tolist()[:3]):  # scalars take the remainder
        assert same_bits(_distance(x, y, circle=True), circle_distance_mod(x, y))


@pytest.mark.parametrize("t", [0.0, -0.0, 0.25, 0.7071067811865476, BELOW_1, 1.0, 1.5, BELOW_2, 2.0, 7.25,
                               -0.25, -BELOW_1, -1.0, -3.75, 2.0**40, -(2.0**40)])
@pytest.mark.parametrize("M", [1, 2, 997])
def test_rotation_target_is_the_remainder_form_bit_for_bit(t, M):
    spec = {"name": "rotation", "t": t}
    grid = np.arange(M) / M
    for x in (grid, grid[::-1].copy(), np.array(EDGES)):
        assert same_bits(_target_images(spec, x.copy()), target_images_mod(spec, x))
    for x in grid.tolist()[:5] + EDGES:
        assert same_bits(_target_images(spec, x), target_images_mod(spec, x))


@given(float_arrays(), st.sampled_from(["identity", "doubling"]))
@settings(max_examples=200, deadline=None)
def test_doubling_and_identity_targets_are_the_remainder_form_bit_for_bit(x, name):
    spec = {"name": name}
    assert same_bits(_target_images(spec, x.copy()), target_images_mod(spec, x))


@given(float_arrays(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-9, 0.5))
@settings(max_examples=300, deadline=None)
def test_circle_thickening_equals_the_remainder_form(x, a, b, eps):
    if x.size == 0:
        return
    with mock.patch.object(approximation, "_mod1", remainder_mod1):
        want = thickening_measure_error(x, (a, b), eps, circle=True)
    kept = x.copy()
    assert thickening_measure_error(x, (a, b), eps, circle=True) == want
    assert same_bits(x, kept)  # the caller's points are not written


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("circle", [False, True])
@pytest.mark.parametrize("stray", [-(2.0**40), -1.5, -1.0, -0.997, -0.9937, 1.0 - 1e-4, 1.005, 1.5, 2.0**40])
def test_far_stray_arcs_among_near_ones(chunk, circle, stray):
    # strays in one chunk: only that chunk reduces by %; at M = 300 and delta = 2.5/M, -0.997, -0.9937
    # and 1.005 put the arc's first point at -M - 1, -M and M, the edges of the conditional add
    M = 300
    targets = (np.arange(M) / M + 0.381966011250105) % 1.0
    targets[[0, 150, M - 1]] = stray
    with mock.patch.object(dynamics, "CHUNK_POINTS", chunk):
        got = arc_matcher(M, targets, 2.5 / M, circle=circle)
    assert np.array_equal(got, arc_matcher_lexsort(M, targets, 2.5 / M, circle=circle))


ROTATIONS = [(2, 1), (10, 3), (12, 5), (97, 41), (12, 4), (30, 12), (64, 48), (33334, 22225)]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("M, P", ROTATIONS)
def test_rotation_order_is_the_divmod_form_at_every_chunk_size(chunk, M, P):
    # g = gcd(P, M) is 1 for the first four and 4, 6, 16 and 7 (fig5's published step) for the rest;
    # chunk bounds cross cycles wherever n = M / g is not a multiple of the chunk
    n = M // gcd(P, M)
    with mock.patch.object(dynamics, "CHUNK_POINTS", chunk), mock.patch.object(systems, "CHUNK_POINTS", chunk):
        index = systems._rotation(M, P).orbit_index
        assert np.array_equal(index.order, rotation_order_chunk_divmod(M, P, 0, M))
    for c in range(1, M // n):
        for lo, hi in ((c * n - 1, c * n + 1), (c * n - chunk, c * n + chunk), (c * n, c * n + 1)):
            lo, hi = max(lo, 0), min(hi, M)
            assert np.array_equal(index.order_chunk(lo, hi), rotation_order_chunk_divmod(M, P, lo, hi))


@given(st.integers(2, 400).flatmap(lambda M: st.tuples(st.just(M), st.integers(1, M - 1),
                                                       st.integers(0, M), st.integers(0, M))))
@settings(max_examples=500, deadline=None)
def test_rotation_order_chunk_is_the_divmod_form(case):
    M, P, lo, hi = case
    lo, hi = min(lo, hi), max(lo, hi)
    got = systems._rotation(M, P).orbit_index.order_chunk(lo, hi)
    assert got.dtype == np.int64 and np.array_equal(got, rotation_order_chunk_divmod(M, P, lo, hi))


def test_rotation_order_chunk_near_int64_limits():
    # s*P < M^2 < 2^62: the multiply-subtract stays exact for M just under 2^31
    M = 2**31 - 1
    for P in (1, 2**30, M - 1):
        for lo, hi in ((0, 5), (M - 7, M)):
            got = systems._RotationOrder(np.zeros(1, np.int64), np.full(1, M), P).order_chunk(lo, hi)
            assert np.array_equal(got, rotation_order_chunk_divmod(M, P, lo, hi))
