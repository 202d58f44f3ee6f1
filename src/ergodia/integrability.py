"""Averages, tail masses, and uniform-integrability profiles.

The finite diagnostic for L1-style integrability of an observable F is the
tail mass (1/M) * sum_{|F(y)| > k} |F(y)|: bounded observables have tails
that vanish as the threshold k grows, while a delta spike of height M keeps
tail mass 1 at every threshold below M no matter how large M is.  A family
of observables indexed by growing M is uniformly integrable when the sup of
its tail masses still vanishes as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Observable

__all__ = [
    "IntegrabilityProfile",
    "average",
    "tail_mass",
    "integrability_profile",
    "family_profile",
]


# eq=False: == is identity; a field-wise == would take the truth value of arrays
@dataclass(frozen=True, eq=False)
class IntegrabilityProfile:
    """Tail masses of |F| over an increasing threshold grid."""

    thresholds: np.ndarray
    tail_masses: np.ndarray
    av_abs: float
    max_abs: float

    def __post_init__(self):
        for name in ("thresholds", "tail_masses"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def average(F: Observable) -> float:
    """Av(F) = (1/M) * sum F(y); numpy pairwise summation in float64."""
    return float(np.sum(F.values, dtype=np.float64) / F.values.size)


def tail_mass(F: Observable, k: float) -> float:
    """(1/M) * sum_{|F(y)| > k} |F(y)|."""
    if not k > 0:  # NaN is refused too
        raise ValueError("threshold must be positive")
    a = np.abs(F.values, dtype=np.float64)
    return float(np.sum(a[a > k]) / a.size)


def _doubling_grid(max_abs: float) -> np.ndarray:
    """Geometric grid 1, 2, 4, ..., up to 2*max|F| (captures tail decay scale)."""
    top = max(2.0 * max_abs, 1.0)
    ks = [1.0]
    while ks[-1] < top:
        ks.append(ks[-1] * 2.0)
    return np.asarray(ks)


def integrability_profile(F: Observable, ks: Sequence[float] | None = None) -> IntegrabilityProfile:
    """Full tail-mass profile from one M-sized float64 array, a = |F|.

    av_abs and max_abs are read from a in point order; then a is sorted in
    place, and the suffix sums of its values above ks[0], largest first,
    overwrite those values.  add.accumulate is sequential, so each tail has
    the same bits as the matching entry of a full reversed cumulative sum.
    """
    a = np.abs(F.values, dtype=np.float64)  # widened first: |-128| wraps in int8
    av_abs = float(np.sum(a) / a.size)
    max_abs = float(np.max(a, initial=0.0))
    ks = np.asarray(_doubling_grid(max_abs) if ks is None else ks, dtype=np.float64)
    if ks.size == 0:
        raise ValueError("threshold list is empty")
    if not (np.diff(ks) > 0).all() or not ks[0] > 0:
        raise ValueError("thresholds must be positive and strictly increasing")
    a.sort()
    pos = np.searchsorted(a, ks, side="right")
    top = a[pos[0] :][::-1]
    np.cumsum(top, out=top)
    tails = np.where(pos < a.size, a[np.minimum(pos, a.size - 1)], 0.0) / a.size
    return IntegrabilityProfile(thresholds=ks, tail_masses=tails, av_abs=av_abs, max_abs=max_abs)


def family_profile(family: Sequence[Observable], ks: Sequence[float]) -> IntegrabilityProfile:
    """Sup over an observable family of per-member tail masses.

    The family plays the role of a sequence F_n on growing spaces: it is
    uniformly integrable exactly when these sup tail masses vanish as the
    threshold grows.
    """
    if not family:
        raise ValueError("family is empty")
    profiles = [integrability_profile(F, ks) for F in family]
    return IntegrabilityProfile(
        thresholds=np.asarray(ks, dtype=np.float64),
        tail_masses=np.max([p.tail_masses for p in profiles], axis=0),
        av_abs=max(p.av_abs for p in profiles),
        max_abs=max(p.max_abs for p in profiles),
    )
