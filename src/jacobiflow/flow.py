"""Phase-space flows: canonical equations, rescaled geodesic equations,
adaptive integration, invariants, path comparison.

The time flow and the rescaled flow describe the same configuration paths at
different pacing; the integrator here makes that testable by recording
states as columns, over which each invariant is evaluated once per run, and
by resampling paths to a parameter-free common grid.
"""

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import tableau
from .errors import DomainViolation, EmptyTrajectory, SingularMatrix, TurningPoint
from .metric import (
    _at,
    _complex_step,
    _diagonal_inverse,
    _inverse_partials,
    _kinetic_form,
    _partials,
    _points,
    coordinate_point,
)

# Step-underflow threshold for the adaptive integrator, as a fraction of the
# requested span.
STEP_UNDERFLOW = 1e-14

# Smallest rtol the stepper accepts, 100 eps: below it rounding in the stage
# sums swamps the local error estimate the step-size control reads.
RTOL_MIN = 100 * np.finfo(float).eps


# Relative energy gap E - U, scaled by max(1, |E|), at or below which the
# rescaled rhs refuses to evaluate: the conformal factor has degenerated.
TURNING_GAP = 1e-10

# Relative energy gap below which a stalled stepper counts as having reached
# the turning surface.  Looser than TURNING_GAP on purpose: TURNING_GAP makes
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
    (N, n), monitors mapping names to (N,) arrays ('pacing' from integrate,
    invariants that callers add), a termination of 'completed',
    'turning_point', 'domain_violation' or 'step_failure', the reason: the
    message of what ended the run early, '' if it completed, and the
    stepper's counts as stats: 'accepted_steps', 'rejected_steps' and
    'nfev', the right-hand side evaluations."""

    params: np.ndarray
    x: np.ndarray
    p: np.ndarray
    monitors: Dict[str, np.ndarray] = field(default_factory=dict)
    termination: str = "completed"
    reason: str = ""
    stats: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("trajectory parameter values must be strictly increasing")


def _potential_gradient(sys, x, t=None):
    """dU/dx^k at a validated chart point: the system's grad_U, or complex
    steps of U itself, as sys.potential would drop their imaginary parts."""
    if sys.grad_U is not None:
        return np.asarray(_at(sys.grad_U, x, t, sys.time_dependent), dtype=float)
    return _complex_step(lambda z: _at(sys.U, z, t, sys.time_dependent), x,
                         "potential of system", sys.name)


def _kinetic_rhs(ginv, dginv, p, m):
    """Kinetic part of Hamilton's equations: x' = g^ij p_j / m and the force
    (1/2m) d_k g^ij p_i p_j, which p' subtracts along with any potential
    gradient, for the matrices g^ij and D[k, i, j] = d g^ij / d x^k."""
    return ginv @ p / m, 0.5 / m * np.einsum("kij,i,j->k", dginv, p, p)


def _diagonal_kinetic_rhs(field, x, p, m, t=None):
    """_kinetic_rhs of a diagonal field at a validated chart point, on
    Python floats with p a list and no matrix built.  With a = 1/d the
    inverse's diagonal, d a_i / d x^k = -((a_i dd_i/dx^k) a_i), and force k
    sums its terms ((d a_i / d x^k) p_i) p_i left to right, the order of
    numpy's sum over fewer than 8 terms.  On charts of up to 5 dimensions
    the tests hold these to the matrix route's bits."""
    a = _diagonal_inverse(field, x, t)
    half = 0.5 / m
    return ([ai * pi / m for ai, pi in zip(a, p)],
            [half * functools.reduce(operator.add, [(-((ai * di) * ai) * pi) * pi
                                                    for ai, di, pi in zip(a, row, p)])
             for row in _partials(field, x, t).tolist()])


def _check_momentum(x, p):
    """Refuse a momentum whose length is not the chart point's."""
    if len(p) != x.size:
        raise ValueError(f"momentum has {len(p)} components, the chart point {x.size}")


def _hamilton_rhs(sys, x, p, t=None):
    """hamilton_rhs on an already validated chart point."""
    p = np.asarray(p, dtype=float)
    if not sys.g.diagonal:
        dx, force = _kinetic_rhs(*_inverse_partials(sys.g, x, t), p, sys.m)
        return dx, -(force + _potential_gradient(sys, x, t))
    dx, force = _diagonal_kinetic_rhs(sys.g, x, p.tolist(), sys.m, t)
    return np.array(dx), -(np.array(force) + _potential_gradient(sys, x, t))


def hamilton_rhs(sys, x, p, t=None):
    """Canonical equations of the natural Hamiltonian T + U.

    dx^i/dt = g^ij p_j / m
    dp_i/dt = -[ (1/2m) (d g^jk / d x^i) p_j p_k + dU/dx^i ]

    A momentum of another length than x raises ValueError.
    """
    x = coordinate_point(x)
    _check_momentum(x, p)
    return _hamilton_rhs(sys, x, p, t)


def jacobi_rhs(sys, x, p):
    """Rescaled-flow equations: the time flow repaced by ds/dt = 2m(E - U).

    Conserves the unit-momentum Hamiltonian g^ij p_i p_j / (2m(E - U)) along
    flows launched on the energy-E surface.  Raises TurningPoint where the
    pacing factor degenerates, and ValueError for a momentum of another
    length than x.
    """
    if sys.time_dependent or sys.g.time_dependent:
        raise ValueError("the rescaled flow is defined for autonomous systems only")
    if sys.E is None:
        raise ValueError("the system needs an energy label E for the rescaled flow")
    x = coordinate_point(x)
    _check_momentum(x, p)
    gap = sys.E - sys.potential(x)
    if gap <= TURNING_GAP * max(1.0, abs(sys.E)):
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
    energy surface.  Over (N, n) rows of states it returns the (N,) values."""
    x = _points(x)
    kinetic = _kinetic_form(sys.g, x, p)
    gap = sys.E - sys.potential(x)
    return kinetic / (2.0 * sys.m * gap)


def clairaut_constant(sys, x, p, parameter_kind="time_t"):
    """Angular invariant of planar motion in a spherically symmetric chart.

    "time_t" returns m r^2 dphi/dt and "jacobi_s" returns 2m r^2 (E - U)
    dphi/ds, each from the momenta p at x through its flow's equations.  On
    a chart with g_phiphi = r^2 the first is p_phi and the second p_phi / m:
    the two agree only at m = 1.
    """
    x = coordinate_point(x)
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
# Stepper
# ======================================================================

# Step-size control: the asymptotic factor is damped by SAFETY and clamped
# to [MIN_FACTOR, MAX_FACTOR].
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


class DOP853:
    """Adaptive explicit Runge-Kutta pair of order 8 for y' = fun(t, y),
    stepping forward from t0 to t_bound.

    The Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I,
    Sec. II.10; coefficients in tableau.py) advances the eighth-order
    solution.  It controls the step with the fifth-order error estimate,
    damped by the third-order one as e5^2 / sqrt(e5^2 + 0.01 e3^2), in the
    RMS norm scaled by atol + rtol |y|.  The dense output is the
    seventh-order interpolant, which evaluates three more stages.  The
    step-size rule and the initial step are those of Sec. II.4, for an
    error of order 8.  Every operation follows scipy.integrate.DOP853 in the
    same order, so both take the same steps and return the same bits; the
    tests hold it to that.

    step() advances by one accepted step and sets status to 'finished' at
    t_bound, or to 'failed' when the step size falls below 10 ulp of t.
    nfev counts calls of fun: n_stages per attempted step, three per
    dense_output() call, plus two at construction; accepted and rejected
    count the steps.
    """

    n_stages = tableau.N_STAGES
    # (s, A[s, :s], C[s]) of the step's stages after the first, and of the
    # dense output's extra stages
    STAGES = [(s, tableau.A[s, :s], tableau.C[s]) for s in range(1, n_stages)]
    EXTRA_STAGES = [(s, tableau.A[s, :s], tableau.C[s])
                    for s in range(n_stages + 1, tableau.N_STAGES_EXTENDED)]
    B, E3, E5, D = tableau.B, tableau.E3, tableau.E5, tableau.D
    # the step scales as error^(-1/8) for an error estimate of order 7
    ERROR_EXPONENT = -1 / 8

    def __init__(self, fun, t0, y0, t_bound, *, rtol, atol):
        y0 = np.asarray(y0, dtype=float)
        if not np.isfinite(y0).all():
            raise ValueError(f"the initial state must be finite, got {y0.tolist()}")
        self._fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.t_old = self.y_old = None
        self.status = "running"
        self.nfev = self.accepted = self.rejected = 0
        self.f = self._rhs(t0, y0)
        self.h_abs = self._initial_step()
        # the step's stages and the derivative at its end, then the dense
        # output's three extra stages
        self.K_extended = np.empty((tableau.N_STAGES_EXTENDED, y0.size))
        self.K = self.K_extended[:self.n_stages + 1]

    def _rhs(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=float)

    def _initial_step(self):
        """A first step size from the launch derivative and one trial Euler
        step, no longer than the interval."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self._rhs(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -self.ERROR_EXPONENT
        return min(100 * h0, h1, interval)

    def _stages(self, stages, t, y, h):
        """Evaluate the given (s, A[s, :s], C[s]) stages of the step of size h
        from (t, y) into K_extended, each from the rows before it."""
        K = self.K_extended
        for s, a, c in stages:
            dy = np.dot(K[:s].T, a) * h
            K[s] = self._rhs(t + c * h, y + dy)

    def _rk_step(self, t, y, h):
        """The stages of one step of size h into K; returns the eighth-order
        y at t + h and its derivative, which is also the next step's first stage."""
        K = self.K
        K[0] = self.f
        self._stages(self.STAGES, t, y, h)
        y_new = y + h * np.dot(K[:-1].T, self.B)
        f_new = self._rhs(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def _error_norm(self, h, scale):
        """The scaled RMS error of the step of size h whose stages K holds.
        The squared norms are squares of square roots, as scipy's
        np.linalg.norm(e) ** 2, on Python floats, which are faster here."""
        e5 = np.dot(self.K.T, self.E5) / scale
        e3 = np.dot(self.K.T, self.E3) / scale
        e5_sq, e3_sq = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
        if e5_sq == 0 and e3_sq == 0:
            return 0.0
        return abs(h) * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * len(scale))

    def step(self):
        """Take one accepted step, shrinking and retrying a rejected one.
        Returns None, or why the stepper failed."""
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return "the step size fell below 10 ulp of t"
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = self._rk_step(t, y, h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.ERROR_EXPONENT)
            rejected = True
            self.rejected += 1
        factor = (MAX_FACTOR if error_norm == 0
                  else min(MAX_FACTOR, SAFETY * error_norm ** self.ERROR_EXPONENT))
        if rejected:
            factor = min(1, factor)
        self.accepted += 1
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.h_abs = h_abs * factor
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self):
        """The seventh-order interpolant of the last accepted step, as a
        callable of t: a scalar t gives the state, a 1-D array of m values
        an (m, n) array with one state per row.  Building it evaluates fun
        at the three extra stages.  The interpolant is evaluated elementwise,
        so each row has the bits of its scalar call."""
        K, t_old, y_old = self.K_extended, self.t_old, self.y_old
        h = self.t - t_old
        self._stages(self.EXTRA_STAGES, t_old, y_old, h)
        F = np.empty((len(self.D) + 3, y_old.size))
        f_old, delta_y = K[0], self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(self.D, K)

        def sol(t):
            x = ((np.asarray(t) - t_old) / h)[..., None]
            y = np.zeros(x.shape[:-1] + y_old.shape)
            for i, f in enumerate(F[::-1]):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            return y + y_old

        return sol


RK45 = DOP853  # the name integrate steps with, patched by perfbench's tracer (ROADMAP item 11)


# ======================================================================
# Integration
# ======================================================================

def _record(rows, params, Y):
    """Append one block of recorded states: k parameters, each in front of
    its row of the stepper's states Y, (k, len(y)), or one state y when k = 1."""
    block = np.empty((len(params), Y.shape[-1] + 1))
    block[:, 0], block[:, 1:] = params, Y
    rows.append(block)


class _StateNotFinite(Exception):
    """An rhs refused a stage state that had left the floats: the run ends as
    a step failure."""


def _stalled_at_turn(system, x):
    """The energy gap E - U at x when a rescaled flow whose stepper stalled
    there sits within STALL_GAP of the turning surface, otherwise None.  x is
    the last accepted state, where the rhs has just evaluated U."""
    gap = system.E - system.potential(x)
    return gap if gap <= STALL_GAP * max(1.0, abs(system.E)) else None


def integrate(rhs, initial, span, *, rtol=1e-9, atol=1e-12, pacing=None, record_grid=None):
    """Integrate a flow from its launch at parameter 0 over (0, span] and
    return its trajectory, up to where the run ended.

    rhs(param, x, p) -> (dx, dp) defines the flow and may raise TurningPoint
    or DomainViolation (or SingularMatrix, a numerically degenerate metric)
    to end the run.  The stepper is DOP853, the adaptive Dormand-Prince
    pair of order 8(5,3), by default at rtol=1e-9, atol=1e-12.  The
    trajectory's stats count its accepted and rejected steps and its rhs
    evaluations, nfev.

    The invariants take the recorded rows directly: energy_from_state(sys,
    traj.x, traj.p) costs one stacked inversion per run.  pacing, when
    given, is an auxiliary rate integrated alongside the state at full
    accuracy and recorded cumulatively as the monitor 'pacing' (used to map
    between parametrizations without quadrature loss).

    record_grid, when given, is a whole number N >= 1, not a bool: states
    are then recorded at the N uniform grid points span/N, 2 span/N, ..,
    span instead of at accepted steps, through the stepper's seventh-order
    dense interpolant, built once per step that reaches grid points (three
    more rhs evaluations) and evaluated once for all of that step's points,
    which are recorded as one block.  Path comparisons need sample spacing
    well below the adaptive step size to keep piecewise-linear resampling
    error out of the measurement; this keeps the step sequence of the
    adaptive run.  A span that is not
    positive and finite, an rtol below RTOL_MIN, an atol below 0 or not
    finite, a launch state that is not finite, a launch momentum of another
    length than its position or a record_grid that is not such a count
    raises ValueError before any step.

    A run that started returns how it ended as its termination and the
    message of what ended it early as its reason: 'turning_point' or
    'domain_violation' from the rhs errors above (at the launch they still
    raise: that run never started), with the s of the step they
    interrupted appended; 'step_failure' from a step size below 1e-14 * span
    or a stepper that cannot take a valid step, whose own message is then
    the reason, with the s and the chart point x where the step size
    collapsed appended.  A ValueError that the rhs (or pacing) raises at a
    stage state that is not finite, one that overflowed, also ends the run
    as 'step_failure', its reason naming the stage's s; this includes the
    stepper's initial-step probe.  At a finite state the ValueError
    propagates.  One exception:
    the rescaled flow of jacobi_flow approaching its turning radius stalls
    the stepper while the energy gap is still positive (the right-hand side
    grows like 1/sqrt(E - U), so the gap itself never reaches the analytic
    cutoff); when the state where the stepper stalled sits at a vanishing
    gap the run ends as 'turning_point', with a reason that names the stall
    and its gap.  The system for that probe is the rhs closure's .system
    attribute, which only jacobi_flow sets: the time flow has no
    singularity at E = U.
    """
    if not 0 < span < np.inf:
        raise ValueError(f"the integration span must be positive and finite, got {span!r}")
    system = getattr(rhs, "system", None)
    if not rtol >= RTOL_MIN:
        raise ValueError(f"rtol must be at least {RTOL_MIN:.3g}, got {rtol!r}")
    if not 0 <= atol < np.inf:
        raise ValueError(f"atol must be finite and at least 0, got {atol!r}")
    if record_grid is not None and not (
            isinstance(record_grid, numbers.Real) and not isinstance(record_grid, bool)
            and record_grid >= 1 and float(record_grid).is_integer()):
        raise ValueError(f"record_grid must be a count >= 1, got {record_grid!r}")
    grid = None if record_grid is None else np.linspace(0.0, span, int(record_grid) + 1)[1:]

    n = initial.x.size
    _check_momentum(initial.x, initial.p)
    augmented = pacing is not None
    y0 = np.concatenate([initial.x, initial.p, [0.0]] if augmented
                        else [initial.x, initial.p])

    def fun(s, y):
        x, p = y[:n], y[n:2 * n]
        try:
            dx, dp = rhs(s, x, p)
            dy = np.empty(y.size)
            dy[:n], dy[n:2 * n] = dx, dp
            if augmented:
                dy[-1] = pacing(s, x, p)
        except ValueError as exc:
            # classified once raised, so that no call pays for a check
            if np.isfinite(y).all():
                raise
            raise _StateNotFinite(f"the stage state at s = {float(s)!r} is not finite "
                                  f"({exc})") from exc
        return dy

    next_grid = 0
    rows = []
    _record(rows, [0.0], y0)
    termination, reason = "completed", ""
    try:
        stepper = RK45(fun, 0.0, y0, span, rtol=rtol, atol=atol)
    except _StateNotFinite as exc:
        # the launch passed the rhs, so its initial-step probe, the second call, failed
        stepper = None
        termination, reason = "step_failure", f"{exc}, in the initial-step probe"
    while stepper is not None and stepper.status == "running":
        start = stepper.t
        try:
            failure = stepper.step()
            if stepper.status == "running" and stepper.h_abs < STEP_UNDERFLOW * span:
                failure = (f"step size {stepper.h_abs:.3e} underflowed below "
                           f"{STEP_UNDERFLOW * span:.3e}")
            if failure is None and grid is None:
                _record(rows, [stepper.t], stepper.y)
            elif failure is None:
                # the grid points this step reached, through one interpolant
                # call, recorded as one block; the rhs may refuse the
                # interpolant's extra stages as it may refuse a step's
                end = np.searchsorted(grid, stepper.t, side="right")
                if end > next_grid:
                    points = grid[next_grid:end]
                    _record(rows, points, stepper.dense_output()(points))
                    next_grid = end
        except (TurningPoint, DomainViolation, SingularMatrix, _StateNotFinite) as exc:
            # a numerically degenerate metric means the chart has effectively
            # ended, same as an explicit guard refusal
            termination = ("turning_point" if isinstance(exc, TurningPoint)
                           else "step_failure" if isinstance(exc, _StateNotFinite)
                           else "domain_violation")
            reason = f"{exc}, in the step from s = {float(start)!r}"
            break
        if failure is not None:
            failure += f" at s = {float(stepper.t)!r}, x = {stepper.y[:n].tolist()}"
            gap = None if system is None else _stalled_at_turn(system, stepper.y[:n])
            if gap is None:
                termination, reason = "step_failure", failure
            else:
                termination = "turning_point"
                reason = (f"the stepper stalled at E - U = {gap:.6g}, within "
                          f"{STALL_GAP:g} of the turning surface: {failure}")
            break

    table = np.concatenate(rows)
    stats = ({"accepted_steps": 0, "rejected_steps": 0, "nfev": 2} if stepper is None else
             {"accepted_steps": stepper.accepted, "rejected_steps": stepper.rejected,
              "nfev": stepper.nfev})
    return Trajectory(table[:, 0], table[:, 1:n + 1], table[:, n + 1:2 * n + 1],
                      {"pacing": table[:, -1]} if augmented else {}, termination, reason, stats)


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
    """Largest excursion of a monitored series relative to its initial value,
    or the absolute excursion when the series starts at 0."""
    v = np.asarray(values, dtype=float)
    excursion = float(np.max(np.abs(v - v[0])))
    return excursion / abs(v[0]) if v[0] != 0.0 else excursion
