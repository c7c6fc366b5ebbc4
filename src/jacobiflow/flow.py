"""Phase-space flows: canonical equations, reparametrized geodesic equations,
adaptive and symplectic integration, invariant monitoring, path comparison.

The time flow and the rescaled flow describe the same configuration paths at
different pacing; the integrators here make that testable by recording
monitors on accepted steps and by resampling paths to a parameter-free
common grid.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy.integrate import RK45

from .errors import (
    DomainViolation,
    EmptyTrajectory,
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
    metric_partials,
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


@dataclass
class FlowState:
    """One phase-space sample: parameter value, position, momentum, monitors."""

    param: float
    x: np.ndarray
    p: np.ndarray
    monitors: Dict[str, float] = field(default_factory=dict)


@dataclass
class Trajectory:
    """An ordered run of flow states under one parametrization.

    parameter_kind is one of 'time_t', 'jacobi_s', 'arclength'; termination is
    one of 'completed', 'turning_point', 'domain_violation', 'step_failure'.
    monitor_ranges, when present, holds (min, max) of each monitor over every
    integrator step, including steps dropped by record_every decimation.
    """

    states: List[FlowState]
    parameter_kind: str = "time_t"
    termination: str = "completed"
    monitor_ranges: Optional[Dict[str, tuple]] = None

    def __post_init__(self):
        params = [s.param for s in self.states]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("trajectory parameter values must be strictly increasing")

    @property
    def params(self):
        return np.array([s.param for s in self.states])

    @property
    def positions(self):
        return np.array([s.x for s in self.states])

    @property
    def momenta(self):
        return np.array([s.p for s in self.states])

    def monitor(self, name):
        return np.array([s.monitors[name] for s in self.states])

    @property
    def final(self):
        return self.states[-1]


def _potential_gradient(sys, x, t=None):
    if sys.grad_U is not None:
        return np.asarray(_at(sys.grad_U, x, t, sys.time_dependent), dtype=float)
    return _central_differences(lambda y: sys.potential(y, t), x)


def _hamilton_rhs(sys, x, p, t=None):
    """hamilton_rhs on an already validated chart point."""
    p = np.asarray(p, dtype=float)
    ginv = invert_metric(_evaluate(sys.g, x, t))
    dx = ginv @ p / sys.m
    dginv = _inverse_partials(sys.g, x, t, ginv=ginv)
    kinetic_grad = 0.5 / sys.m * np.einsum("kij,i,j->k", dginv, p, p)
    dp = -(kinetic_grad + _potential_gradient(sys, x, t))
    return dx, dp


def hamilton_rhs(sys, x, p, t=None):
    """Canonical equations of the natural Hamiltonian T + U.

    dx^i/dt = g^ij p_j / m
    dp_i/dt = -[ (1/2m) (d g^jk / d x^i) p_j p_k + dU/dx^i ]
    """
    return _hamilton_rhs(sys, coordinate_point(x), p, t)


def _require_autonomous(sys, what):
    """Refuse a system whose potential or kinetic metric depends on time."""
    if sys.time_dependent or sys.g.time_dependent:
        raise ValueError(f"{what} is defined for autonomous systems only")


def _open_gap(sys, x):
    """E - U at x; TurningPoint inside the turning-point tolerance."""
    gap = sys.E - sys.potential(x)
    if gap <= turning_eps(sys.E):
        raise TurningPoint(
            f"energy gap E - U = {gap:.6g} at {x.tolist()} is inside the "
            f"turning-point tolerance"
        )
    return gap


def jacobi_rhs(sys, x, p):
    """Rescaled-flow equations: the time flow repaced by ds/dt = 2m(E - U).

    Conserves the unit-momentum Hamiltonian g^ij p_i p_j / (2m(E - U)) along
    flows launched on the energy-E surface.  Raises TurningPoint where the
    pacing factor degenerates.
    """
    _require_autonomous(sys, "the rescaled flow")
    if sys.E is None:
        raise ValueError("the system needs an energy label E for the rescaled flow")
    x = coordinate_point(x)
    gap = _open_gap(sys, x)
    dx, dp = _hamilton_rhs(sys, x, p)
    f = 2.0 * sys.m * gap
    return dx / f, dp / f


def hamilton_flow(sys):
    """rhs closure for integrate(): the time flow of a mechanical system."""

    def rhs(param, x, p):
        return hamilton_rhs(sys, x, p, t=param)

    rhs.system = sys
    return rhs


def jacobi_flow(sys):
    """rhs closure for integrate(): the rescaled flow of a mechanical system."""

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


def clairaut_constant(state, sys, parameter_kind="time_t"):
    """Angular invariant of planar motion in a spherically symmetric chart.

    In the time parametrization this is m r^2 dphi/dt; in the rescaled
    parametrization it is 2m r^2 (E - U) dphi/ds.  Both are evaluated from
    the state's momenta through the corresponding flow equations, and agree
    at corresponding points.
    """
    r = float(state.x[0])
    if parameter_kind == "time_t":
        dx, _ = hamilton_rhs(sys, state.x, state.p)
        return sys.m * r * r * dx[1]
    if parameter_kind == "jacobi_s":
        dx, _ = jacobi_rhs(sys, state.x, state.p)
        gap = sys.E - sys.potential(state.x)
        return 2.0 * sys.m * r * r * gap * dx[1]
    raise ValueError(f"unsupported parameter kind '{parameter_kind}'")


# ======================================================================
# Integration
# ======================================================================

def _record(states, param, x, p, monitor_fns, extra=None):
    monitors = {}
    if monitor_fns:
        for name, fn in monitor_fns.items():
            monitors[name] = float(fn(param, x, p))
    if extra:
        monitors.update(extra)
    states.append(FlowState(param=float(param), x=x.copy(), p=p.copy(), monitors=monitors))


def integrate(rhs, initial, span, *, rtol=1e-9, atol=1e-12, method="rk45",
              monitor_fns=None, parameter_kind="time_t", pacing=None,
              pacing_name="pacing", record_grid=None, step=None,
              record_every=1):
    """Integrate a flow and return its trajectory.

    rhs(param, x, p) -> (dx, dp) defines the flow and may raise TurningPoint
    or DomainViolation to terminate cleanly (the partial trajectory is
    returned with the matching termination flag).  The default method is an
    adaptive embedded Runge-Kutta pair of order 5(4) at rtol=1e-9,
    atol=1e-12; method='verlet' selects a fixed-step symplectic update for
    separable natural Hamiltonians with a constant kinetic metric (pass
    step=).  Verlet integrates the system of a hamilton_flow closure; any
    other rhs, or a metric with nonzero partials at the launch point, raises
    ValueError.

    monitor_fns maps names to fn(param, x, p) evaluated on accepted steps.
    pacing, when given, is an auxiliary rate integrated alongside the state at
    full accuracy and recorded cumulatively under pacing_name (used to map
    between parametrizations without quadrature loss).

    record_grid, when given (a count >= 1 or a strictly increasing array of
    parameter values inside (t0, t0 + span]), records states on that grid
    through the stepper's dense interpolant instead of at accepted steps.
    Path comparisons need sample spacing well below the adaptive step size to
    keep piecewise-linear resampling error out of the measurement; this keeps
    the step sequence (and cost) of the adaptive run.  An rtol below RTOL_MIN
    or a grid outside that contract raises ValueError before any step.

    Raises StepFailure (carrying the partial trajectory) if the adaptive step
    size underflows below 1e-14 * span.  One exception: a rescaled flow
    approaching its turning radius stalls the stepper while the energy gap is
    still positive (the right-hand side grows like 1/sqrt(E - U), so the gap
    itself never reaches the analytic cutoff); when the stalled state sits at
    a vanishing gap the run is reported as a clean 'turning_point'
    termination rather than a failure.  The system for that check is the
    .system attribute of the rhs closure, when it has one.
    """
    if span <= 0:
        raise ValueError("the integration span must be positive")
    system = getattr(rhs, "system", None)
    if method == "verlet":
        if getattr(rhs, "__qualname__", "") != "hamilton_flow.<locals>.rhs":
            raise ValueError("the symplectic path integrates a hamilton_flow rhs only")
        if step is None:
            raise ValueError("the symplectic path needs step=")
        return _integrate_verlet(system, initial, span, step, monitor_fns,
                                 parameter_kind, record_every)
    if method != "rk45":
        raise ValueError(f"unknown integration method '{method}'")
    if not rtol >= RTOL_MIN:
        raise ValueError(f"rtol must be at least {RTOL_MIN:.3g}, got {rtol!r}")
    t0 = float(initial.param)
    grid = record_grid
    if np.isscalar(grid):
        if not grid >= 1:
            raise ValueError(f"record_grid count must be >= 1, got {grid!r}")
        grid = np.linspace(t0, t0 + span, int(grid) + 1)[1:]
    elif grid is not None:
        grid = np.asarray(grid, dtype=float)
        if not (grid.ndim == 1 and grid.size and grid[0] > t0
                and grid[-1] <= t0 + span and np.all(np.diff(grid) > 0)):
            raise ValueError("record_grid must be strictly increasing inside (t0, t0 + span]")

    n = initial.x.size
    augmented = pacing is not None
    y0 = np.concatenate([initial.x, initial.p, [0.0]] if augmented
                        else [initial.x, initial.p])

    def fun(s, y):
        x = y[:n]
        p = y[n:2 * n]
        dx, dp = rhs(s, x, p)
        if augmented:
            return np.concatenate([dx, dp, [pacing(s, x, p)]])
        return np.concatenate([dx, dp])

    def stalled_at_turn():
        if system is None or system.E is None or not states:
            return False
        last = states[-1]
        try:
            gap = system.E - system.potential(last.x)
        except Exception:
            return False
        return gap <= STALL_GAP * max(1.0, abs(system.E))

    next_grid = 0

    stepper = RK45(fun, t0, y0, t0 + span, rtol=rtol, atol=atol)

    states = []

    def record_y(param, y):
        extra = {pacing_name: float(y[2 * n])} if augmented else None
        _record(states, param, y[:n], y[n:2 * n], monitor_fns, extra)

    record_y(t0, y0)
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
        if stepper.status == "failed":
            if stalled_at_turn():
                termination = "turning_point"
                break
            traj = Trajectory(states, parameter_kind, "step_failure")
            raise StepFailure("the adaptive integrator could not take a valid step",
                              trajectory=traj)
        if stepper.status == "running" and stepper.h_abs < STEP_UNDERFLOW * span:
            if stalled_at_turn():
                termination = "turning_point"
                break
            traj = Trajectory(states, parameter_kind, "step_failure")
            raise StepFailure(
                f"step size {stepper.h_abs:.3e} underflowed below "
                f"{STEP_UNDERFLOW * span:.3e}",
                trajectory=traj,
            )
        if grid is None:
            record_y(stepper.t, stepper.y)
        else:
            if next_grid < grid.size and grid[next_grid] <= stepper.t:
                sol = stepper.dense_output()
                while next_grid < grid.size and grid[next_grid] <= stepper.t:
                    record_y(grid[next_grid], sol(grid[next_grid]))
                    next_grid += 1

    return Trajectory(states, parameter_kind, termination)


def _integrate_verlet(system, initial, span, step, monitor_fns,
                      parameter_kind, record_every):
    """Fixed-step kick-drift-kick update for separable natural Hamiltonians.

    Needs a kinetic metric that is constant over the chart: it is evaluated
    once at the initial point, and a metric with nonzero partials there (a
    curvilinear chart such as polar coordinates) raises ValueError.  The
    potential force is re-evaluated once per step.
    The natural Hamiltonian is tracked on every step and its extremes
    reported under monitor_ranges['energy'] (the symplectic boundedness
    check); user monitor_fns are evaluated only on recorded steps.
    """
    _require_autonomous(system, "the symplectic path")
    x = initial.x.astype(float).copy()
    p = initial.p.astype(float).copy()
    t0 = float(initial.param)
    if np.any(metric_partials(system.g, x) != 0.0):
        raise ValueError("the symplectic path needs a constant kinetic metric; "
                         f"metric '{system.g.name}' varies at {x.tolist()}")
    kinv = invert_metric(evaluate_metric(system.g, x))
    identity_kinv = np.array_equal(kinv, np.eye(x.size))
    inv_m = 1.0 / system.m
    U = system.potential

    n_steps = int(round(span / step))
    if n_steps < 1:
        raise ValueError("span shorter than one step")

    states = []
    _record(states, t0, x, p, monitor_fns)

    def energy(xx, pp):
        if identity_kinv:
            kin = pp @ pp
        else:
            kin = pp @ kinv @ pp
        return 0.5 * inv_m * kin + U(xx)

    e0 = energy(x, p)
    e_lo = e_hi = e0
    force = _potential_gradient(system, x)
    half = 0.5 * step
    for i in range(1, n_steps + 1):
        p_half = p - half * force
        if identity_kinv:
            x = x + (step * inv_m) * p_half
        else:
            x = x + step * inv_m * (kinv @ p_half)
        force = _potential_gradient(system, x)
        p = p_half - half * force
        e = energy(x, p)
        if e < e_lo:
            e_lo = e
        elif e > e_hi:
            e_hi = e
        if i % record_every == 0 or i == n_steps:
            _record(states, t0 + i * step, x, p, monitor_fns)

    return Trajectory(states, parameter_kind, "completed",
                      monitor_ranges={"energy": (e_lo, e_hi)})


# ======================================================================
# Parametrization maps and path comparison
# ======================================================================

def reparametrize(traj, direction, sys):
    """Remap a trajectory between the time and rescaled parametrizations.

    The pacing is ds/dt = 2m(E - U), accumulated by trapezoid quadrature over
    the stored samples; the inverse direction divides by the same trapezoid
    average so a round trip restores the original parameter values exactly
    (up to float rounding).  The configuration path is unchanged.
    """
    if direction not in ("t_to_s", "s_to_t"):
        raise ValueError(f"unknown direction '{direction}'")
    _require_autonomous(sys, "reparametrization")
    if sys.E is None:
        raise ValueError("the system needs an energy label E to reparametrize")
    f = 2.0 * sys.m * np.array([_open_gap(sys, s.x) for s in traj.states])

    old = traj.params
    new = np.empty_like(old)
    new[0] = old[0]
    for k in range(1, old.size):
        avg = 0.5 * (f[k] + f[k - 1])
        if direction == "t_to_s":
            new[k] = new[k - 1] + avg * (old[k] - old[k - 1])
        else:
            new[k] = new[k - 1] + (old[k] - old[k - 1]) / avg

    kind = "jacobi_s" if direction == "t_to_s" else "time_t"
    states = [
        FlowState(param=float(new[k]), x=s.x.copy(), p=s.p.copy(),
                  monitors=dict(s.monitors))
        for k, s in enumerate(traj.states)
    ]
    return Trajectory(states, kind, traj.termination)


def compare_paths(a, b, samples=1000):
    """Maximum pointwise distance between two configuration paths.

    Both paths are resampled to `samples` points of normalized Euclidean arc
    length (linear interpolation in chart coordinates), which removes the
    pacing difference between parametrizations from the comparison.
    """
    for traj in (a, b):
        if len(traj.states) < 2:
            raise EmptyTrajectory("need at least two states to compare paths")
    xa = a.positions
    xb = b.positions
    if xa.shape[1] != xb.shape[1]:
        raise ValueError("paths live in charts of different dimension")
    u = np.linspace(0.0, 1.0, samples)
    ra = _resample_by_arclength(xa, u)
    rb = _resample_by_arclength(xb, u)
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
