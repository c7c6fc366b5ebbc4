"""Extended-metric embeddings of a mechanical system (g, U, m):

* a static (n+1)-dimensional lift of an autonomous system appending one
  dummy coordinate z with metric block 1/(kappa V), V the system's
  potential; geodesics at the right constant p_z reproduce the mechanical
  flow in the potential V,
* a time-dependent (n+2)-dimensional lift appending physical time t and a
  dummy coordinate sigma, with line element c^2 V^2 dt^2 + 2c dt dsigma
  - g_ij dx^i dx^j where V^2 = 2U/(m c^2); the cyclic sigma supplies the
  conserved momentum that parametrizes the family of conformal factors for
  non-autonomous systems.

The geodesic equations are driven by the closed-form inverse components, so
the static lift stays integrable across V = 0 where the forward metric
entry 1/(kappa V) blows up (the flow itself only ever needs kappa V).  Their
partials are closed-form too: the base block follows d(g^-1) = -g^-1 (dg)
g^-1, the potential entry takes the flows' potential gradient, and the t
derivatives of U and g are complex steps in t.  One hook gives the inverse
components and their partials together, so each rhs call inverts the base
metric once.  The printed energy relation of the time-dependent lift is the
mass shell 2mc^2 H - m^2 c^4 of the flow Hamiltonian H, so a lifted run reads
its residual off H, from the one stacked inversion of its recorded rows.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import FlowState, Trajectory, _kinetic_rhs, _potential_gradient, integrate
from .metric import (
    MetricField,
    _check_point,
    _complex_step,
    _components,
    _evaluate,
    _inverse,
    _inverse_partials,
    _matrix,
    _quadratic_form,
    _shape,
    _state,
    _valid,
)
from .transforms import MechanicalSystem, energy_from_state

STATIC_KIND = "static_z_lift"
TIMEDEP_KIND = "timedep_sigma_lift"


@dataclass(frozen=True)
class LiftedSystem:
    """A mechanical system embedded in an extended metric.

    extended is the (n+1)- or (n+2)-dimensional metric with the dummy
    directions appended after the coordinates of sys.g (static: x1..xn, z;
    time-dependent: x1..xn, t, sigma).  inverse holds its closed-form,
    exactly symmetric inverse components, also over the columns of N points
    from one stacked inversion of sys.g, and their partials; its layout of
    G^AB is the only one, which the invariants contract whole.  For the flow,
    _inverse_partials(xe) gives G^AB and its partials D[C, A, B] = d G^AB /
    d xe^C at one validated point from one inversion of sys.g, the contract
    of metric._inverse_partials; the inverse field's partials read it too.
    """

    sys: MechanicalSystem
    kind: str
    c: float
    extended: MetricField
    inverse: MetricField
    _inverse_partials: Callable
    kappa: float = 2.0


def lift_static(sys, kappa=2.0):
    """Static lift of an autonomous system: extended metric diag(g_ij,
    1/(kappa V)) over (x, z), with V the system's potential.

    kappa fixes the normalization freedom of the dummy block: kappa = 2
    gives the metric entry (2V)^-1 with mechanical reduction at p_z =
    sqrt(m); kappa = 1 gives the flow Hamiltonian (1/2m)(g^ij p_i p_j +
    V p_z^2) with reduction at p_z = sqrt(2m).  Either way the geodesic flow
    at p_z = sqrt(2m/kappa) projects onto the mechanical flow of mass m in
    the potential V.
    """
    if sys.time_dependent or sys.g.time_dependent:
        raise ValueError("the static lift is defined for autonomous systems only")
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    g, n, kappa = sys.g, sys.g.dim, float(kappa)

    def inv_guard(xe):
        return _valid(g, xe[:n].T)

    def ext_guard(xe):
        return inv_guard(xe) & (sys.potential(xe[:n].T) > 0.0)

    def ext_components(xe):
        x = xe[:n].T
        G = np.zeros((n + 1, n + 1) + xe.shape[1:])
        G[:n, :n] = _evaluate(g, x).T  # points last, as g_ij is symmetric
        G[n, n] = 1.0 / (kappa * sys.potential(x))
        return G

    def inverse_from(xe, ginv):
        Gi = np.zeros((n + 1, n + 1) + xe.shape[1:])
        Gi[:n, :n], Gi[n, n] = ginv.T, kappa * sys.potential(xe[:n].T)
        return Gi

    def inverse_partials(xe):
        x = xe[:n]
        ginv, dginv = _inverse_partials(g, x)
        D = np.zeros((n + 1, n + 1, n + 1))
        D[:n, :n, :n] = dginv
        D[:n, n, n] = kappa * _potential_gradient(sys, x)
        return inverse_from(xe, ginv), D

    extended = MetricField(dim=n + 1, components=ext_components,
                           guard=ext_guard, name="static_lift")
    inverse = MetricField(dim=n + 1, partials=lambda xe: inverse_partials(xe)[1],
                          components=lambda xe: inverse_from(xe, _inverse(g, xe[:n].T)),
                          guard=inv_guard, name="static_lift_inverse")
    return LiftedSystem(sys=sys, kind=STATIC_KIND, c=1.0, extended=extended, inverse=inverse,
                        _inverse_partials=inverse_partials, kappa=kappa)


def lift_time_dependent(sys, *, c=1.0):
    """Time-dependent lift over (x, t, sigma) honoring the printed signature
    c^2 V^2 dt^2 + 2c dt dsigma - g_ij dx^i dx^j with V^2 = 2U/(m c^2).

    U is the system's (possibly non-autonomous) potential; its metric g may
    itself be time-dependent.  The lift carries no gauge one-form.
    """
    if not 0 < c < np.inf:
        raise ValueError(f"c must be positive and finite, got {c!r}")
    g, n, m, c = sys.g, sys.g.dim, sys.m, float(c)

    def ext_guard(xe):
        return _valid(g, xe[:n].T)

    def ext_components(xe):
        x, t = xe[:n].T, xe[n]
        G = np.zeros((n + 2, n + 2) + xe.shape[1:])
        G[:n, :n] = -_evaluate(g, x, t).T  # points last, as g_ij is symmetric
        G[n, n] = 2.0 * sys.potential(x, t) / m
        G[n, n + 1] = G[n + 1, n] = c
        return G

    def inverse_from(xe, ginv):
        Gi = np.zeros((n + 2, n + 2) + xe.shape[1:])
        Gi[:n, :n] = -ginv.T
        Gi[n, n + 1] = Gi[n + 1, n] = 1.0 / c
        Gi[n + 1, n + 1] = -2.0 * sys.potential(xe[:n].T, xe[n]) / (m * c * c)
        return Gi

    def inverse_partials(xe):
        x, t = xe[:n], xe[n]
        ginv, dginv = _inverse_partials(g, x, t)
        D = np.zeros((n + 2, n + 2, n + 2))
        D[:n, :n, :n] = -dginv
        if g.time_dependent:
            dgdt = _complex_step(g.components, x, t, True, _shape(g),
                                 "components of metric", g.name, in_t=True)
            D[n, :n, :n] = ginv @ _matrix(g, dgdt) @ ginv
        D[:n, n + 1, n + 1] = -2.0 * _potential_gradient(sys, x, t) / (m * c * c)
        if sys.time_dependent:
            dUdt = _complex_step(sys.U, x, t, True, (), "potential of system", sys.name,
                                 in_t=True)
            D[n, n + 1, n + 1] = -2.0 * dUdt / (m * c * c)
        return inverse_from(xe, ginv), D

    extended = MetricField(dim=n + 2, components=ext_components,
                           guard=ext_guard, name="timedep_lift")
    inverse = MetricField(dim=n + 2, partials=lambda xe: inverse_partials(xe)[1],
                          components=lambda xe: inverse_from(xe, _inverse(g, xe[:n].T, xe[n])),
                          guard=ext_guard, name="timedep_lift_inverse")
    return LiftedSystem(sys=sys, kind=TIMEDEP_KIND, c=c, extended=extended, inverse=inverse,
                        _inverse_partials=inverse_partials)


def lifted_rhs(lifted):
    """Geodesic equations of the extended metric in Hamiltonian form,
    evaluated through the closed-form inverse components and their partials
    at one inversion of the base metric per call, on states hamilton_rhs takes."""

    def rhs(param, x, p):
        x, p = _state(x, p)
        _check_point(lifted.inverse, x)
        dx, force = _kinetic_rhs(*lifted._inverse_partials(x), p, lifted.sys.m)
        return dx, -force

    return rhs


def lifted_hamiltonian(lifted, x, p):
    """Flow Hamiltonian (1/2m) G^AB p_A p_B of the extended metric, or its (N,)
    values over rows of states as energy_from_state takes, from one stacked inversion."""
    x, p = _state(x, p, rows=True)
    return _quadratic_form(_components(lifted.inverse, x), p) / (2.0 * lifted.sys.m)


def mechanical_pz(lifted):
    """Dummy momentum at which the static lift reduces to the mechanical
    system: sqrt(2m/kappa)."""
    if lifted.kind != STATIC_KIND:
        raise ValueError("p_z normalization applies to the static lift")
    return float(np.sqrt(2.0 * lifted.sys.m / lifted.kappa))


def embed_static(lifted, x0, p0):
    """Initial lifted state over a mechanical phase point at time 0 and z = 0,
    with p_z pinned to the mechanical normalization; hamilton_rhs's refusals apply."""
    x0, p0 = _state(x0, p0)
    xe = np.concatenate([x0, [0.0]])
    pe = np.concatenate([p0, [mechanical_pz(lifted)]])
    return FlowState(x=xe, p=pe)


def embed_time_dependent(lifted, x0, p0, q, shell="massive"):
    """Initial lifted state over a mechanical phase point at t = sigma = 0.

    The dummy momentum is p_sigma = qc with q positive and finite (physical
    time advances at dt/dlambda = q/m), and the spatial momenta carry the
    -q/m rescaling that the printed signature induces.  p_t is placed on the
    massive shell G^AB p_A p_B = m^2 c^2 (shell='massive', the surface of
    the printed energy relation) or the null shell (shell='null', where the
    flow Hamiltonian vanishes).  The phase point is refused as in embed_static.
    """
    if not 0 < q < np.inf:
        raise ValueError(f"q must be positive and finite, got {q!r}")
    if shell not in ("massive", "null"):
        raise ValueError("shell must be 'massive' or 'null'")
    if lifted.kind != TIMEDEP_KIND:
        raise ValueError("embedding over (t, sigma) needs the time-dependent lift")
    x0, p0 = _state(x0, p0)
    m, c = lifted.sys.m, lifted.c
    p_t = (q / m) * energy_from_state(lifted.sys, x0, p0)
    if shell == "massive":
        p_t += m * m * c * c / (2.0 * q)
    xe = np.concatenate([x0, [0.0, 0.0]])
    pe = np.concatenate([-(q / m) * p0, [p_t, q * c]])
    return FlowState(x=xe, p=pe)


def lifted_energy_relation(lifted, x, p):
    """Residual of the printed energy relation on the time-dependent lift:

        2c p_t p_sigma - (c^2 g^ij p_i p_j + c^2 V^2 p_sigma^2 + m^2 c^4).

    Zero along massive-shell flows; this is the hypersurface on which the
    exact time-dependent conformal factor projects.  It equals c^2 G^AB p_A
    p_B - m^2 c^4 = 2mc^2 H - m^2 c^4, the mass shell of the flow Hamiltonian
    H, and is evaluated so.  Over (N, n + 2) rows of states it returns the
    (N,) residuals, from one stacked inversion.
    """
    if lifted.kind != TIMEDEP_KIND:
        raise ValueError("the energy relation lives on the time-dependent lift")
    return _mass_shell(lifted, lifted_hamiltonian(lifted, x, p))


def _mass_shell(lifted, H):
    """2mc^2 H - m^2 c^4: the energy-relation residual at flow Hamiltonian H."""
    m, c = lifted.sys.m, lifted.c
    return 2.0 * m * c * c * H - m * m * c ** 4


def sigma_momentum_identity(H_mech, p_t, q, m, c):
    """Dummy momentum reconstructed from the mechanical energy and p_t on a
    null-shell flow: p_sigma = (q^2 c / m) H / p_t (equal to qc when p_t =
    (q/m)H).  Printed treatments quote this relation as -mcH/p_t under their
    own sign conventions; the form here is the one the implemented signature
    actually conserves.  Arrays of values give the identity at each state.
    """
    if np.any(np.equal(p_t, 0)):
        raise ValueError("p_t must be nonzero on the null shell")
    return (q * q * c / m) * H_mech / p_t


def integrate_lifted(lifted, initial, span, *, rtol=1e-9, atol=1e-12,
                     record_grid=None):
    """Integrate the lifted geodesic flow; the flow Hamiltonian, the dummy
    momentum and, on the time-dependent lift, the energy-relation residual
    are then evaluated over the recorded arrays as the run's monitors."""
    traj = integrate(lifted_rhs(lifted), initial, span, rtol=rtol, atol=atol,
                     record_grid=record_grid)
    H = traj.monitors["extended_energy"] = lifted_hamiltonian(lifted, traj.x, traj.p)
    traj.monitors["p_dummy"] = traj.p[:, -1].copy()
    if lifted.kind == TIMEDEP_KIND:
        traj.monitors["shell_residual"] = _mass_shell(lifted, H)
    return traj


def project(traj, lifted):
    """Drop the dummy coordinate(s) and undo the momentum rescaling.

    Static lift: positions and momenta pass through unchanged (the flow
    parameter already is mechanical time).  Time-dependent lift: the
    physical time coordinate becomes the parameter and the spatial momenta
    are mapped back through p_mech = -(m/q) p, with q read off the conserved
    dummy momentum.  The monitors, the ending and the stepper's stats are
    the lifted run's.
    """
    n = lifted.sys.g.dim
    if lifted.kind == STATIC_KIND:
        params, p = traj.params, traj.p[:, :n]
    else:
        q = traj.p[:, n + 1] / lifted.c
        params, p = traj.x[:, n], -(lifted.sys.m / q)[:, None] * traj.p[:, :n]
    return Trajectory(params, traj.x[:, :n], p, dict(traj.monitors), traj.termination,
                      traj.reason, dict(traj.stats))
