"""Conformal rescalings that turn dynamics into geodesic flow.

Four constructions are provided: the fixed-energy rescaling of a mechanical
system, the stationary-spacetime rescaling for timelike geodesics, the exact
time-dependent rescaling fed by lifted momenta, and its non-relativistic
approximation.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation
from .metric import (
    MetricField,
    _at,
    _call,
    _check_dim,
    _inverse,
    _quadratic_form,
    _real,
    _state,
    coordinate_point,
    evaluate_metric,
)


@dataclass
class MechanicalSystem:
    """Natural-Hamiltonian data: kinetic metric, potential, mass, energy label.

    U has signature U(x), or U(x, t) when time_dependent is set.  grad_U is an
    optional analytic gradient with the same signature, read by the flows and
    by both lifts; without it complex steps take the gradient, and U must be
    complex-analytic.  E labels the energy hypersurface a scenario works on.

    U takes one point or the columns of N points as MetricField.components
    does and gives (N,) values for the columns, so a constant reads 0.0 *
    x[0]; grad_U takes one point.
    """

    g: MetricField
    U: Callable
    m: float
    E: Optional[float] = None
    grad_U: Optional[Callable] = None
    time_dependent: bool = False
    name: str = ""

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("mass must be positive")
        if not all(map(math.isfinite, (self.m, 0.0 if self.E is None else self.E))):
            raise ValueError(f"mass and energy must be finite, got m = {self.m!r}, E = {self.E!r}")

    def potential(self, x, t=None):
        """U at a validated chart point, or its (N,) values over (N, n) rows."""
        u = _call(self.U, x, t, self.time_dependent, (), "potential of system", self.name)
        return float(u) if x.ndim == 1 else np.asarray(u, dtype=float)


@dataclass
class StationarySpacetime:
    """Stationary line-element data: temporal factor and spatial metric.

    Vsq is the squared temporal factor V^2(x) (dimensionless), g the spatial
    metric.
    """

    g: MetricField
    Vsq: Callable
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("m must be positive")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not all(map(math.isfinite, (self.m, self.c))):
            raise ValueError(f"m and c must be finite, got m = {self.m!r}, c = {self.c!r}")


@dataclass
class ConformalMetric:
    """A metric of the form factor(x[, t]) * g_ij(x[, t]).

    It is valid exactly where the base chart's guard accepts the point and
    the factor is positive; a factor that raises DomainViolation reads as
    invalid there.  factor_at and valid take one real point of the base's
    dimension and refuse others with ValueError.
    """

    base: MetricField
    factor: Callable
    time_dependent: bool = False

    def factor_at(self, x, t=None):
        """The factor at the point x, which the base chart's guard does not read."""
        x = _real(x)
        _check_dim(self.base, x)
        return float(_at(self.factor, x, t, self.time_dependent))

    def valid(self, x, t=None):
        """Whether the base chart's guard accepts x and the factor is positive there."""
        x = coordinate_point(x)
        if not self.base.valid(x):
            return False
        try:
            return self.factor_at(x, t) > 0.0
        except DomainViolation:
            return False

    def metric(self, x, t=None):
        """Full rescaled matrix factor * g at a point."""
        return self.factor_at(x, t) * evaluate_metric(self.base, x, t)


def energy_from_state(sys, x, p):
    """Energy of a phase point under the natural Hamiltonian T + U, or the
    (N,) energies of (N, n) rows of states, one momentum row per point row,
    from one stacked inversion.  A complex momentum raises ValueError."""
    x, p = _state(x, p, rows=True)
    return _quadratic_form(_inverse(sys.g, x), p) / (2.0 * sys.m) + sys.potential(x)


def jacobi_nonrelativistic(sys):
    """Fixed-energy conformal rescaling of a mechanical system.

    The factor is 2m(E - U); its zero set is the turning surface where the
    rescaled metric degenerates.
    """
    if sys.E is None:
        raise ValueError("the system needs an energy label E to build the rescaling")
    m, E, U = sys.m, sys.E, sys.U

    def factor(x):
        return 2.0 * m * (E - U(x))

    return ConformalMetric(base=sys.g, factor=factor)


def jacobi_relativistic_stationary(st, Erel):
    """Conformal rescaling whose geodesics are the timelike orbits of a
    stationary spacetime at energy Erel.

    factor = (Erel^2 - m^2 c^4 V^2) / (c^2 V^2); the spacetime's spatial
    metric is the base.
    """
    if not 0 < Erel < math.inf:
        raise ValueError(f"the relativistic energy must be positive and finite, got {Erel!r}")
    m, c, Vsq = st.m, st.c, st.Vsq

    def factor(x):
        v2 = float(Vsq(x))
        if v2 <= 0.0:
            raise DomainViolation(
                f"temporal factor V^2 = {v2:.6g} is not positive at {np.asarray(x).tolist()}"
            )
        return (Erel * Erel - m * m * c**4 * v2) / (c * c * v2)

    return ConformalMetric(base=st.g, factor=factor)


def weak_field_spacetime(g, U, m, c):
    """Stationary spacetime whose temporal factor encodes a weak potential:
    V^2 = 1 + 2U/(m c^2)."""

    def Vsq(x):
        return 1.0 + 2.0 * U(x) / (m * c * c)

    return StationarySpacetime(g=g, Vsq=Vsq, m=m, c=c)


def nonrelativistic_limit_factor(st, E_nr):
    """Exact stationary rescaling evaluated at energy m c^2 + E_nr.

    For spacetimes with V^2 = 1 + 2U/(m c^2) the factor converges to
    2m(E_nr - U) as c grows, with relative error O(1/c^2).
    """
    return jacobi_relativistic_stationary(st, st.m * st.c * st.c + E_nr)


def _as_time_function(value, name):
    if callable(value):
        return value
    if not math.isfinite(value):
        raise ValueError(f"a constant {name} must be finite, got {value!r}")
    return lambda t, _v=float(value): _v


def jacobi_time_dependent(g, U, q, p_t, m, c=1.0):
    """Exact conformal factor for time-dependent systems, fed by lifted momenta.

    factor(x, t) = 2[q p_t - q^2 U(x, t) / m] - m^2 c^2, the rescaling that
    projects the lifted geodesic flow onto the constant dummy-momentum
    hypersurface p_sigma = q c.  At the massive-shell momentum
    p_t = (q/m) H + m^2 c^2 / (2q) that embed_time_dependent places, it
    equals g^ij p_i p_j of the lifted spatial momenta.  p_t may be a constant
    or a function of time (it varies along lifted flows when U depends on
    time).  m and c must be positive and finite.
    """
    if q == 0 or not np.isfinite(q):
        raise ValueError("the dummy momentum parameter q must be nonzero and finite")
    if not (0 < m < math.inf and 0 < c < math.inf):
        raise ValueError(f"m and c must be positive and finite, got m = {m!r}, c = {c!r}")
    pt_fn = _as_time_function(p_t, "p_t")

    def factor(x, t):
        return 2.0 * (q * pt_fn(t) - q * q * U(x, t) / m) - m * m * c * c

    return ConformalMetric(base=g, factor=factor, time_dependent=True)


def jacobi_time_dependent_approx(g, U, energy, q, m):
    """Non-relativistic time-dependent conformal factor 2m[E(t) - q^2 U(x, t)].

    energy is the instantaneous mechanical energy as a function of time (a
    constant is accepted and treated as a constant function).  m must be
    positive and finite, q finite.
    """
    if not (0 < m < math.inf and math.isfinite(q)):
        raise ValueError(f"m must be positive and finite and q finite, got m = {m!r}, q = {q!r}")
    e_fn = _as_time_function(energy, "energy")

    def factor(x, t):
        return 2.0 * m * (e_fn(t) - q * q * U(x, t))

    return ConformalMetric(base=g, factor=factor, time_dependent=True)
