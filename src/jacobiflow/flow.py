"""Phase-space flows: canonical equations, rescaled geodesic equations,
adaptive integration, invariant monitoring, path comparison.

The time flow and the rescaled flow describe the same configuration paths at
different pacing; the integrator here makes that testable by recording
states as columns, with each monitor evaluated once per recorded state, and
by resampling paths to a parameter-free common grid.
"""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np
from scipy.integrate import RK45

from .errors import (
    DomainViolation,
    EmptyTrajectory,
    JacobiFlowError,
    SingularMatrix,
    StepFailure,
    TurningPoint,
)
from .metric import (
    _at,
    _central_differences,
    _evaluate,
    _inverse_partials,
    coordinate_point,
    evaluate_metric,
    invert_metric,
)

# Step-underflow threshold for the adaptive integrator, as a fraction of the
# requested span.
STEP_UNDERFLOW = 1e-14

# scipy raises a smaller rtol to this floor with only a warning
RTOL_MIN = 100 * np.finfo(float).eps


def turning_eps(E):
    """Degeneracy tolerance for the conformal factor: 1e-10 * max(1, |E|)."""
    return 1e-10 * max(1.0, abs(E))


# Relative energy gap below which a stalled stepper counts as having reached
# the turning surface.  Looser than turning_eps on purpose: turning_eps makes
# an rhs refuse to evaluate, while this classifies a run whose step size has
# already collapsed, which happens while the gap is still far above 1e-10
# because the rescaled rhs grows like 1/sqrt(E - U).
STALL_GAP = 1e-6

# Arclength samples compare_paths resamples both paths to; a path recorded at
# fewer states is compared as chords.
PATH_SAMPLES = 1000


@dataclass
class FlowState:
    """A launch state at parameter 0: position, momentum."""

    x: np.ndarray
    p: np.ndarray


@dataclass
class Trajectory:
    """A recorded run as columns: strictly increasing params (N,), x and p
    (N, n), monitors mapping names to (N,) arrays, and a termination of
    'completed', 'turning_point', 'domain_violation' or 'step_failure'."""

    params: np.ndarray
    x: np.ndarray
    p: np.ndarray
    monitors: Dict[str, np.ndarray] = field(default_factory=dict)
    termination: str = "completed"

    def __post_init__(self):
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("trajectory parameter values must be strictly increasing")


def _potential_gradient(sys, x, t=None):
    if sys.grad_U is not None:
        return np.asarray(_at(sys.grad_U, x, t, sys.time_dependent), dtype=float)
    return _central_differences(lambda y: sys.potential(y, t), x)


def _kinetic_rhs(ginv, dginv, p, m):
    """Kinetic part of Hamilton's equations: x' = g^ij p_j / m and the force
    (1/2m) d_k g^ij p_i p_j, which p' subtracts along with any potential gradient."""
    return ginv @ p / m, 0.5 / m * np.einsum("kij,i,j->k", dginv, p, p)


def _hamilton_rhs(sys, x, p, t=None):
    """hamilton_rhs on an already validated chart point."""
    p = np.asarray(p, dtype=float)
    ginv = invert_metric(_evaluate(sys.g, x, t))
    dx, force = _kinetic_rhs(ginv, _inverse_partials(sys.g, x, t, ginv=ginv), p, sys.m)
    return dx, -(force + _potential_gradient(sys, x, t))


def hamilton_rhs(sys, x, p, t=None):
    """Canonical equations of the natural Hamiltonian T + U.

    dx^i/dt = g^ij p_j / m
    dp_i/dt = -[ (1/2m) (d g^jk / d x^i) p_j p_k + dU/dx^i ]
    """
    return _hamilton_rhs(sys, coordinate_point(x), p, t)


def jacobi_rhs(sys, x, p):
    """Rescaled-flow equations: the time flow repaced by ds/dt = 2m(E - U).

    Conserves the unit-momentum Hamiltonian g^ij p_i p_j / (2m(E - U)) along
    flows launched on the energy-E surface.  Raises TurningPoint where the
    pacing factor degenerates.
    """
    if sys.time_dependent or sys.g.time_dependent:
        raise ValueError("the rescaled flow is defined for autonomous systems only")
    if sys.E is None:
        raise ValueError("the system needs an energy label E for the rescaled flow")
    x = coordinate_point(x)
    gap = sys.E - sys.potential(x)
    if gap <= turning_eps(sys.E):
        raise TurningPoint(
            f"energy gap E - U = {gap:.6g} at {x.tolist()} is inside the "
            f"turning-point tolerance"
        )
    dx, dp = _hamilton_rhs(sys, x, p)
    f = 2.0 * sys.m * gap
    return dx / f, dp / f


def hamilton_flow(sys):
    """rhs closure for integrate(): the time flow of a mechanical system."""

    def rhs(param, x, p):
        return hamilton_rhs(sys, x, p, t=param)

    return rhs


def jacobi_flow(sys):
    """rhs closure for integrate(): the rescaled flow of a mechanical system,
    carrying it as .system for integrate()'s turning-point probe."""

    def rhs(param, x, p):
        return jacobi_rhs(sys, x, p)

    rhs.system = sys
    return rhs


def unit_momentum_hamiltonian(sys, x, p):
    """The rescaled-flow invariant g^ij p_i p_j / (2m(E - U)); 1 on the
    energy surface."""
    ginv = invert_metric(evaluate_metric(sys.g, x))
    gap = sys.E - sys.potential(x)
    return float(p @ ginv @ p) / (2.0 * sys.m * gap)


def clairaut_constant(sys, x, p, parameter_kind="time_t"):
    """Angular invariant of planar motion in a spherically symmetric chart.

    In the time parametrization this is m r^2 dphi/dt; in the rescaled
    parametrization it is 2m r^2 (E - U) dphi/ds.  Both are evaluated from
    the momenta p at x through the corresponding flow equations, and agree
    at corresponding points.
    """
    r = float(x[0])
    if parameter_kind == "time_t":
        dx, _ = hamilton_rhs(sys, x, p)
        return sys.m * r * r * dx[1]
    if parameter_kind == "jacobi_s":
        dx, _ = jacobi_rhs(sys, x, p)
        gap = sys.E - sys.potential(x)
        return 2.0 * sys.m * r * r * gap * dx[1]
    raise ValueError(f"unsupported parameter kind '{parameter_kind}'")


# ======================================================================
# Integration
# ======================================================================

def _record(rows, param, y):
    """Append one recorded state: its parameter, then the stepper's state y."""
    rows.append(np.concatenate([[param], y]))


def _stalled_at_turn(system, x):
    """Whether a rescaled flow whose stepper stalled at x sits at a vanishing
    energy gap, within STALL_GAP of the turning surface."""
    try:
        gap = system.E - system.potential(x)
    except JacobiFlowError:
        return False
    return gap <= STALL_GAP * max(1.0, abs(system.E))


def _trajectory(rows, n, monitor_fns, termination):
    """The recorded rows as a Trajectory, each monitor evaluated once per
    row, and a pacing column (when y carries one) under 'pacing'."""
    table = np.array(rows)
    params, x, p = table[:, 0], table[:, 1:n + 1], table[:, n + 1:2 * n + 1]
    monitors = {name: np.array([float(fn(*row)) for row in zip(params, x, p)])
                for name, fn in (monitor_fns or {}).items()}
    if table.shape[1] > 2 * n + 1:
        monitors["pacing"] = table[:, -1]
    return Trajectory(params, x, p, monitors, termination)


def integrate(rhs, initial, span, *, rtol=1e-9, atol=1e-12, monitor_fns=None,
              pacing=None, record_grid=None):
    """Integrate a flow from its launch at parameter 0 over (0, span] and
    return its trajectory.

    rhs(param, x, p) -> (dx, dp) defines the flow and may raise TurningPoint
    or DomainViolation to terminate cleanly (the partial trajectory is
    returned with the matching termination flag).  The stepper is an adaptive
    embedded Runge-Kutta pair of order 5(4), by default at rtol=1e-9,
    atol=1e-12.

    monitor_fns maps names to fn(param, x, p), evaluated after the run once
    per recorded state: the launch, then each accepted step or grid point.
    pacing, when given, is an auxiliary rate integrated alongside the state
    at full accuracy and recorded cumulatively as the monitor 'pacing' (used
    to map between parametrizations without quadrature loss).

    record_grid, when given, is a count N >= 1: states are then recorded at
    the N uniform grid points span/N, 2 span/N, .., span through the
    stepper's dense interpolant instead of at accepted steps.  Path
    comparisons need sample spacing well below the adaptive step size to
    keep piecewise-linear resampling error out of the measurement; this keeps
    the step sequence (and cost) of the adaptive run.  An rtol below RTOL_MIN
    or a record_grid that is not such a count raises ValueError before any
    step.

    Raises StepFailure (carrying the partial trajectory) if the adaptive step
    size underflows below 1e-14 * span.  One exception: the rescaled flow of
    jacobi_flow approaching its turning radius stalls the stepper while the
    energy gap is still positive (the right-hand side grows like
    1/sqrt(E - U), so the gap itself never reaches the analytic cutoff); when
    the state where the stepper stalled sits at a vanishing gap the run is
    reported as a clean 'turning_point' termination rather than a failure.
    The system for that probe is the rhs closure's .system attribute, which
    only jacobi_flow sets: the time flow has no singularity at E = U.
    """
    if span <= 0:
        raise ValueError("the integration span must be positive")
    system = getattr(rhs, "system", None)
    if not rtol >= RTOL_MIN:
        raise ValueError(f"rtol must be at least {RTOL_MIN:.3g}, got {rtol!r}")
    if record_grid is not None and not (np.isscalar(record_grid) and record_grid >= 1):
        raise ValueError(f"record_grid must be a count >= 1, got {record_grid!r}")
    grid = None if record_grid is None else np.linspace(0.0, span, int(record_grid) + 1)[1:]

    n = initial.x.size
    augmented = pacing is not None
    y0 = np.concatenate([initial.x, initial.p, [0.0]] if augmented
                        else [initial.x, initial.p])

    def fun(s, y):
        x, p = y[:n], y[n:2 * n]
        dx, dp = rhs(s, x, p)
        if augmented:
            return np.concatenate([dx, dp, [pacing(s, x, p)]])
        return np.concatenate([dx, dp])

    next_grid = 0

    stepper = RK45(fun, 0.0, y0, span, rtol=rtol, atol=atol)

    rows = []
    _record(rows, 0.0, y0)
    termination = "completed"
    while stepper.status == "running":
        try:
            stepper.step()
        except TurningPoint:
            termination = "turning_point"
            break
        except (DomainViolation, SingularMatrix):
            # a numerically degenerate metric means the chart has effectively
            # ended, same as an explicit guard refusal
            termination = "domain_violation"
            break
        failed = stepper.status == "failed"
        if failed or (stepper.status == "running" and stepper.h_abs < STEP_UNDERFLOW * span):
            if system is not None and _stalled_at_turn(system, stepper.y[:n]):
                termination = "turning_point"
                break
            raise StepFailure(
                "the adaptive integrator could not take a valid step" if failed else
                f"step size {stepper.h_abs:.3e} underflowed below {STEP_UNDERFLOW * span:.3e}",
                trajectory=_trajectory(rows, n, monitor_fns, "step_failure"))
        if grid is None:
            _record(rows, stepper.t, stepper.y)
        else:
            if next_grid < grid.size and grid[next_grid] <= stepper.t:
                sol = stepper.dense_output()
                while next_grid < grid.size and grid[next_grid] <= stepper.t:
                    _record(rows, grid[next_grid], sol(grid[next_grid]))
                    next_grid += 1

    return _trajectory(rows, n, monitor_fns, termination)


# ======================================================================
# Path comparison
# ======================================================================

def compare_paths(a, b):
    """Maximum pointwise distance between two configuration paths.

    Both paths are resampled to PATH_SAMPLES points of normalized Euclidean arc
    length (linear interpolation in chart coordinates), which removes the
    pacing difference between parametrizations from the comparison.
    """
    for traj in (a, b):
        if len(traj.params) < 2:
            raise EmptyTrajectory("need at least two states to compare paths")
    if a.x.shape[1] != b.x.shape[1]:
        raise ValueError("paths live in charts of different dimension")
    u = np.linspace(0.0, 1.0, PATH_SAMPLES)
    ra = _resample_by_arclength(a.x, u)
    rb = _resample_by_arclength(b.x, u)
    return float(np.max(np.linalg.norm(ra - rb, axis=1)))


def _resample_by_arclength(xs, u):
    seg = np.linalg.norm(np.diff(xs, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    if total == 0.0:
        return np.repeat(xs[:1], u.size, axis=0)
    frac = arc / total
    return np.column_stack([np.interp(u, frac, xs[:, j]) for j in range(xs.shape[1])])


def max_relative_drift(values):
    """Largest excursion of a monitored series relative to its initial value."""
    v = np.asarray(values, dtype=float)
    scale = max(abs(v[0]), np.finfo(float).tiny)
    return float(np.max(np.abs(v - v[0])) / scale)
