"""jacobiflow: fixed-energy trajectories as geodesics of rescaled metrics.

The package turns natural Hamiltonian systems (and their relativistic and
time-dependent relatives) into conformally rescaled metrics whose geodesics
trace the same configuration paths, then provides the integrators and
comparators needed to verify that equivalence numerically.
"""

from .errors import (
    JacobiFlowError,
    DomainViolation,
    SingularMatrix,
    TurningPoint,
    StepFailure,
    EmptyTrajectory,
    PoleAtZeroDenominator,
)
from .metric import (
    MetricField,
    coordinate_point,
    evaluate_metric,
    invert_metric,
    metric_partials,
    inverse_metric_partials,
    christoffel,
    flat_metric,
    polar_metric,
    spherical_metric,
)
from .transforms import (
    MechanicalSystem,
    StationarySpacetime,
    ConformalMetric,
    energy_from_state,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
    weak_field_spacetime,
    nonrelativistic_limit_factor,
    jacobi_time_dependent,
    jacobi_time_dependent_approx,
    projective_factor_static,
    projective_factor_lifted,
)
from .flow import (
    FlowState,
    Trajectory,
    hamilton_rhs,
    jacobi_rhs,
    hamilton_flow,
    jacobi_flow,
    unit_momentum_hamiltonian,
    clairaut_constant,
    integrate,
    reparametrize,
    compare_paths,
    max_relative_drift,
    turning_eps,
)
from .curvature import (
    ConformalProfile,
    profile_from_potential,
    kepler_profile,
    gaussian_curvature_numeric,
    kepler_curvature,
    classify_orbit,
    kepler_eccentricity,
    classify_eccentricity,
)
from .catalog import (
    CatalogEntry,
    CATALOG,
    catalog_entry,
    schwarzschild,
    taub_nut,
    bertrand,
    bertrand_kepler,
    bertrand_hooke,
    kerr,
    spacetime_from_entry,
    generic_relativistic,
    generic_nonrelativistic,
    mechanical_system_from_entry,
    sample_points,
)
from .lift import (
    LiftedSystem,
    lift_static,
    lift_time_dependent,
    lifted_rhs,
    lifted_hamiltonian,
    mechanical_pz,
    embed_static,
    embed_time_dependent,
    lifted_energy_relation,
    sigma_momentum_identity,
    integrate_lifted,
    project,
)

__version__ = "0.1.0"
