"""Tail masses and uniform-integrability profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodia.dynamics import Observable
from ergodia.integrability import (
    average,
    default_thresholds,
    family_profile,
    integrability_profile,
    tail_mass,
)
from ergodia.systems import paper_observable
from oracles import small_set_mass


def test_average_exact_small():
    F = Observable.from_values([1.0, 2.0, 3.0, 4.0])
    assert average(F) == 2.5


def test_tail_mass_brute_force():
    vals = [3.0, -5.0, 0.5, -0.5, 10.0]
    F = Observable.from_values(vals)
    for k in (0.4, 0.5, 1.0, 4.0, 9.0, 11.0):
        brute = sum(abs(v) for v in vals if abs(v) > k) / len(vals)
        assert tail_mass(F, k) == pytest.approx(brute, abs=1e-12)


def test_tail_mass_strict_threshold():
    # values exactly at the threshold are excluded
    F = Observable.from_values([1.0, 1.0, 2.0])
    assert tail_mass(F, 1.0) == pytest.approx(2.0 / 3.0)


def test_tail_mass_rejects_nonpositive_threshold():
    F = Observable.from_values([1.0])
    with pytest.raises(ValueError):
        tail_mass(F, 0.0)


def test_small_set_mass():
    F = Observable.from_values([1.0, -2.0, 3.0, -4.0])
    assert small_set_mass(F, [1, 3]) == pytest.approx(6.0 / 4.0)
    assert small_set_mass(F, []) == 0.0
    with pytest.raises(IndexError):
        small_set_mass(F, [4])


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200), st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_profile_matches_pointwise_tail_mass(vals, kexp):
    F = Observable.from_values(vals)
    k = 1.0 + kexp * 17.0
    prof = integrability_profile(F, [k])
    assert prof.tail_masses[0] == pytest.approx(tail_mass(F, k), abs=1e-9)


def test_profile_monotone_and_vanishes():
    rng = np.random.default_rng(0)
    F = Observable.from_values(rng.normal(size=500) * 10)
    prof = integrability_profile(F)
    assert (np.diff(prof.tail_masses) <= 1e-12).all()
    assert prof.tail_masses[-1] == 0.0  # last threshold exceeds max|F|


def test_default_thresholds_cover_range():
    F = Observable.from_values([0.0, 100.0])
    ks = default_thresholds(F)
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
    F = Observable.from_values([1.0])
    with pytest.raises(ValueError):
        integrability_profile(F, [2.0, 1.0])
    with pytest.raises(ValueError):
        integrability_profile(F, [0.0, 1.0])
    with pytest.raises(ValueError):
        integrability_profile(F, [])
