"""ergodia: finite measure-preserving dynamical systems.

Ergodic-mean phenomenology on large finite probability spaces, uniform
integrability diagnostics, stabilization detection, and constructive finite
approximation of circle rotations and Bernoulli shifts.
"""

from .dynamics import (
    FinitePermutation,
    Observable,
    OrbitIndex,
    ergodic_means_prefix,
    gamma_series,
    orbit_average,
)
from .integrability import (
    IntegrabilityProfile,
    average,
    family_profile,
    integrability_profile,
    tail_mass,
)
from .stabilization import (
    common_stabilization_segment,
    proof_terms,
    stabilization_segment,
    stratified_start_points,
    sup_discrepancy,
)
from .approximation import (
    make_transitive,
    map_mismatch_fraction,
    synthesize_permutation,
    thickening_measure_error,
    weak_star_error,
)
from .systems import (
    build_bernoulli,
    build_drift_system,
    build_rotation,
    debruijn_window_permutation,
    paper_observable,
)

__version__ = "0.1.0"
