"""Tail masses and uniform-integrability profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodia.dynamics import Observable
from ergodia.integrability import (
    average,
    family_profile,
    integrability_profile,
    tail_mass,
)
from ergodia.systems import paper_observable
from oracles import doubling_grid, profile_by_suffix_sums, small_set_mass, traced_peak


def test_average_exact_small():
    F = Observable([1.0, 2.0, 3.0, 4.0])
    assert average(F) == 2.5


def test_tail_mass_brute_force():
    vals = [3.0, -5.0, 0.5, -0.5, 10.0]
    F = Observable(vals)
    for k in (0.4, 0.5, 1.0, 4.0, 9.0, 11.0):
        brute = sum(abs(v) for v in vals if abs(v) > k) / len(vals)
        assert tail_mass(F, k) == pytest.approx(brute, abs=1e-12)


def test_tail_mass_strict_threshold():
    # values exactly at the threshold are excluded
    F = Observable([1.0, 1.0, 2.0])
    assert tail_mass(F, 1.0) == pytest.approx(2.0 / 3.0)


def test_tail_mass_rejects_nonpositive_threshold():
    F = Observable([1.0])
    with pytest.raises(ValueError):
        tail_mass(F, 0.0)


def test_nan_thresholds_are_refused():
    # NaN > 0 is False, so a NaN threshold is no positive one: tail_mass would count no value above it
    F = Observable([1.0, -3.0])
    with pytest.raises(ValueError, match="positive"):
        tail_mass(F, float("nan"))
    for ks in ([float("nan")], [float("nan"), 1.0], [1.0, float("nan")]):
        with pytest.raises(ValueError, match="positive"):
            integrability_profile(F, ks)


def test_small_set_mass():
    F = Observable([1.0, -2.0, 3.0, -4.0])
    assert small_set_mass(F, [1, 3]) == pytest.approx(6.0 / 4.0)
    assert small_set_mass(F, []) == 0.0
    with pytest.raises(IndexError):
        small_set_mass(F, [4])


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200), st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_profile_matches_pointwise_tail_mass(vals, kexp):
    F = Observable(vals)
    k = 1.0 + kexp * 17.0
    prof = integrability_profile(F, [k])
    assert prof.tail_masses[0] == pytest.approx(tail_mass(F, k), abs=1e-9)


def test_profile_monotone_and_vanishes():
    rng = np.random.default_rng(0)
    F = Observable(rng.normal(size=500) * 10)
    prof = integrability_profile(F)
    assert (np.diff(prof.tail_masses) <= 1e-12).all()
    assert prof.tail_masses[-1] == 0.0  # last threshold exceeds max|F|


def test_default_thresholds_cover_range():
    F = Observable([0.0, 100.0])
    ks = integrability_profile(F).thresholds
    assert ks[0] == 1.0
    assert ks[-1] >= 200.0


def test_delta_spike_not_integrable():
    # height-M spike: tail mass stays 1 below M, drops to 0 at M
    for M in (100, 1000):
        F = paper_observable("delta", M)
        assert tail_mass(F, M - 1) == pytest.approx(1.0)
        assert tail_mass(F, M) == 0.0
        assert average(F) == pytest.approx(1.0)


def test_bounded_family_uniformly_integrable():
    family = [paper_observable("tent", M) for M in (100, 1000, 5000)]
    prof = family_profile(family, [1.0, 2.0])
    assert prof.tail_masses.tolist() == [0.0, 0.0]
    assert prof.max_abs <= 1.0


def test_delta_family_profile_sup():
    family = [paper_observable("delta", M) for M in (100, 1000)]
    prof = family_profile(family, [1.0, 50.0, 99.0])
    # every threshold below the smallest M still sees full mass somewhere
    assert prof.tail_masses.tolist() == [1.0, 1.0, 1.0]


def test_profile_rejects_bad_thresholds():
    F = Observable([1.0])
    with pytest.raises(ValueError):
        integrability_profile(F, [2.0, 1.0])
    with pytest.raises(ValueError):
        integrability_profile(F, [0.0, 1.0])
    with pytest.raises(ValueError):
        integrability_profile(F, [])


# -- the one-array profile against the three-array oracle, bit for bit -----

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 2.0, 0.5, 1e300, -1e-300, np.inf, -np.inf]
VALUES = st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL)),
                  min_size=1, max_size=60)


def assert_profile_is_oracle(prof, want):
    tails, av_abs, max_abs = want
    assert prof.tail_masses.tobytes() == tails.tobytes()
    assert prof.av_abs == av_abs
    assert prof.max_abs == max_abs


@st.composite
def thresholds_for(draw, vals):
    """Increasing positive thresholds: some at data values (ties), some below the least, some above the greatest."""
    mags = sorted({abs(v) for v in vals if 0.0 < abs(v) < np.inf}) or [1.0]
    picks = draw(st.lists(st.sampled_from(mags), max_size=4))
    free = draw(st.lists(st.floats(min_value=5e-324, max_value=1e308), max_size=4))
    edges = [k for k in (5e-324, mags[0] / 2, 2.0 * mags[-1], 1e308) if k > 0.0]
    return sorted(set(picks + free + draw(st.lists(st.sampled_from(edges), min_size=1, max_size=2))))


OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@OVERFLOW_OK
@given(st.data(), VALUES)
@settings(max_examples=300, deadline=None)
def test_profile_is_the_suffix_sum_oracle_bitwise(data, vals):
    F = Observable(vals)
    ks = data.draw(thresholds_for(vals))
    assert_profile_is_oracle(integrability_profile(F, ks), profile_by_suffix_sums(F, ks))


@OVERFLOW_OK
@given(VALUES)
@settings(max_examples=100, deadline=None)
def test_default_profile_is_the_suffix_sum_oracle_bitwise(vals):
    F = Observable(vals)
    prof = integrability_profile(F)
    assert prof.thresholds.tobytes() == doubling_grid(F).tobytes()
    assert_profile_is_oracle(prof, profile_by_suffix_sums(F))


@OVERFLOW_OK
@given(st.data(), st.lists(VALUES, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_family_profile_is_the_suffix_sum_oracle_bitwise(data, members):
    family = [Observable(vals) for vals in members]
    ks = data.draw(thresholds_for([v for vals in members for v in vals]))
    wants = [profile_by_suffix_sums(F, ks) for F in family]
    prof = family_profile(family, ks)
    assert prof.tail_masses.tobytes() == np.max([w[0] for w in wants], axis=0).tobytes()
    assert prof.av_abs == max(w[1] for w in wants)
    assert prof.max_abs == max(w[2] for w in wants)


def test_single_point_profile_is_the_oracle_bitwise():
    for v in (0.0, -0.0, 3.0, -np.inf):
        F = Observable([v])
        for ks in (None, [1e-300], [1e-300, 3.0, 1e300]):
            assert_profile_is_oracle(integrability_profile(F, ks), profile_by_suffix_sums(F, ks))


@pytest.mark.parametrize("name,M", [("ex01", 100_001), ("delta", 65_536), ("ex03", 200_000),
                                    ("linear", 300_007), ("tent", 250_000)])
def test_paper_observable_profiles_are_the_oracle_bitwise(name, M):
    F = paper_observable(name, M, **({"K": 1000} if name == "ex03" else {}))
    for ks in (None, [2.0**j for j in range(-30, 22)], [1e-6, 0.5, 0.9]):
        assert_profile_is_oracle(integrability_profile(F, ks), profile_by_suffix_sums(F, ks))


def test_heavy_tailed_profiles_are_the_oracle_bitwise():
    rng = np.random.default_rng(22)
    for vals in (rng.pareto(1.1, 100_000) * rng.choice([-1.0, 1.0], 100_000),
                 np.round(rng.normal(0.0, 50.0, 100_000)),
                 rng.random(100_001) * 1e-3):
        F = Observable(vals)
        for ks in (None, np.geomspace(1e-9, 1e9, 37)):
            assert_profile_is_oracle(integrability_profile(F, ks), profile_by_suffix_sums(F, ks))


def test_profile_holds_one_values_sized_array():
    # |F| is the one M-sized temporary: sorted in place, suffix sums written over it
    F = paper_observable("ex01", 2**20)
    F.values  # the point-order memo is F's, built on first read, not a temporary of the profile
    for ks in (None, [2.0**j for j in range(22)]):
        _, peak = traced_peak(integrability_profile, F, ks)
        assert peak <= 1.05 * 8 * F.values.size + 64 * 1024, (ks is None, peak)
