"""Extended-metric embeddings of mechanical systems.

Two constructions are provided:

* a static (n+1)-dimensional lift appending one dummy coordinate z with
  metric block 1/(kappa V); geodesics at the right constant p_z reproduce
  the mechanical flow in the potential V,
* a time-dependent (n+2)-dimensional lift appending physical time t and a
  dummy coordinate sigma, with line element c^2 V^2 dt^2 + 2c dt dsigma
  - g_ij dx^i dx^j where V^2 = 2U/(m c^2); the cyclic sigma supplies the
  conserved momentum that parametrizes the family of conformal factors for
  non-autonomous systems.

The geodesic equations are driven by the closed-form inverse components, so
the static lift stays integrable across V = 0 where the forward metric
entry 1/(kappa V) blows up (the flow itself only ever needs kappa V).  Their
partials are closed-form too: the base block follows d(g^-1) = -g^-1 (dg)
g^-1 with dg from the base metric's partials, and the potential entry takes
central differences of the scalar potential, so each evaluation inverts the
base metric once.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import FlowState, Trajectory, integrate
from .metric import (
    MetricField,
    _central_differences,
    _evaluate,
    _inverse_partials,
    _partials,
    _stencil_point,
    coordinate_point,
    evaluate_metric,
    invert_metric,
)

STATIC_KIND = "static_z_lift"
TIMEDEP_KIND = "timedep_sigma_lift"


@dataclass(frozen=True)
class LiftedSystem:
    """A mechanical system embedded in an extended metric.

    base is the n-dimensional kinetic metric; extended the (n+1)- or
    (n+2)-dimensional metric with the dummy directions appended after the
    base coordinates (static: x1..xn, z; time-dependent: x1..xn, t, sigma).
    inverse holds the closed-form inverse components of the extended metric
    and is what the flow equations evaluate.
    """

    base: MetricField
    U_or_V: Callable
    kind: str
    m: float
    c: float
    extended: MetricField
    inverse: MetricField
    kappa: float = 2.0


def lift_static(g, V, m, kappa=2.0):
    """Static lift: extended metric diag(g_ij, 1/(kappa V)) over (x, z).

    kappa fixes the normalization freedom of the dummy block: kappa = 2
    gives the metric entry (2V)^-1 with mechanical reduction at p_z =
    sqrt(m); kappa = 1 gives the flow Hamiltonian (1/2m)(g^ij p_i p_j +
    V p_z^2) with reduction at p_z = sqrt(2m).  Either way the geodesic flow
    at p_z = sqrt(2m/kappa) projects onto the mechanical flow of mass m in
    the potential V.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    n = g.dim

    def inv_guard(xe):
        return g.guard is None or g.guard(xe[:n])

    def ext_guard(xe):
        return inv_guard(xe) and V(xe[:n]) > 0.0

    def ext_components(xe):
        x = xe[:n]
        G = np.zeros((n + 1, n + 1))
        G[:n, :n] = _evaluate(g, x)
        G[n, n] = 1.0 / (kappa * V(x))
        return G

    def inv_components(xe):
        x = xe[:n]
        Gi = np.zeros((n + 1, n + 1))
        Gi[:n, :n] = invert_metric(_evaluate(g, x))
        Gi[n, n] = kappa * V(x)
        return Gi

    def inv_partials(xe):
        x = xe[:n]
        D = np.zeros((n + 1, n + 1, n + 1))
        D[:n, :n, :n] = _inverse_partials(g, x)
        D[:n, n, n] = kappa * _central_differences(
            lambda y: V(_stencil_point(g, y)), x)
        return D

    extended = MetricField(dim=n + 1, components=ext_components,
                           guard=ext_guard, name="static_lift")
    inverse = MetricField(dim=n + 1, components=inv_components,
                          partials=inv_partials, guard=inv_guard,
                          name="static_lift_inverse")
    return LiftedSystem(base=g, U_or_V=V, kind=STATIC_KIND, m=float(m), c=1.0,
                        extended=extended, inverse=inverse, kappa=float(kappa))


def lift_time_dependent(g, U, gauge=None, /, m=1.0, c=1.0):
    """Time-dependent lift over (x, t, sigma) honoring the printed signature
    c^2 V^2 dt^2 + 2c dt dsigma - g_ij dx^i dx^j with V^2 = 2U/(m c^2).

    U(x, t) is the (possibly non-autonomous) potential; g may itself be
    time-dependent.  The lift carries no gauge one-form: the third positional
    slot is kept for existing calls that pass None there, and anything else
    raises ValueError.
    """
    if gauge is not None:
        raise ValueError("the time-dependent lift carries no gauge one-form")
    if m <= 0:
        raise ValueError("m must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    n = g.dim
    m = float(m)
    c = float(c)

    def base_at(x, t):
        return _evaluate(g, x, t)

    def ext_guard(xe):
        return g.guard is None or g.guard(xe[:n])

    def ext_components(xe):
        x, t = xe[:n], xe[n]
        G = np.zeros((n + 2, n + 2))
        G[:n, :n] = -base_at(x, t)
        G[n, n] = 2.0 * U(x, t) / m
        G[n, n + 1] = G[n + 1, n] = c
        return G

    def inv_components(xe):
        x, t = xe[:n], xe[n]
        Gi = np.zeros((n + 2, n + 2))
        Gi[:n, :n] = -invert_metric(base_at(x, t))
        Gi[n, n + 1] = Gi[n + 1, n] = 1.0 / c
        Gi[n + 1, n + 1] = -2.0 * U(x, t) / (m * c * c)
        return Gi

    def inv_partials(xe):
        x, t = xe[:n], xe[n]
        D = np.zeros((n + 2, n + 2, n + 2))
        ginv = invert_metric(base_at(x, t))
        D[:n, :n, :n] = -_inverse_partials(g, x, t, ginv=ginv)
        if g.time_dependent:
            dgdt = _central_differences(
                lambda s: base_at(x, s[0]), xe[n:n + 1])[0]
            D[n, :n, :n] = ginv @ dgdt @ ginv
        dU = _central_differences(
            lambda y: U(_stencil_point(g, y[:n]), y[n]), xe[:n + 1])
        D[:n + 1, n + 1, n + 1] = -2.0 * dU / (m * c * c)
        return D

    extended = MetricField(dim=n + 2, components=ext_components,
                           guard=ext_guard, name="timedep_lift")
    inverse = MetricField(dim=n + 2, components=inv_components,
                          partials=inv_partials, guard=ext_guard,
                          name="timedep_lift_inverse")
    return LiftedSystem(base=g, U_or_V=U, kind=TIMEDEP_KIND, m=m, c=c,
                        extended=extended, inverse=inverse)


def lifted_rhs(lifted):
    """Geodesic equations of the extended metric in Hamiltonian form,
    evaluated through the closed-form inverse components."""
    inv = lifted.inverse
    m = lifted.m

    def rhs(param, x, p):
        x = coordinate_point(x)
        p = np.asarray(p, dtype=float)
        Ginv = _evaluate(inv, x)
        dx = Ginv @ p / m
        dG = _partials(inv, x)
        dp = -0.5 / m * np.einsum("kij,i,j->k", dG, p, p)
        return dx, dp

    return rhs


def lifted_hamiltonian(lifted, x, p):
    """Flow Hamiltonian (1/2m) G^AB p_A p_B of the extended metric."""
    Ginv = evaluate_metric(lifted.inverse, x)
    p = np.asarray(p, dtype=float)
    return float(p @ Ginv @ p) / (2.0 * lifted.m)


def mechanical_pz(lifted):
    """Dummy momentum at which the static lift reduces to the mechanical
    system: sqrt(2m/kappa)."""
    if lifted.kind != STATIC_KIND:
        raise ValueError("p_z normalization applies to the static lift")
    return float(np.sqrt(2.0 * lifted.m / lifted.kappa))


def embed_static(lifted, x0, p0, z0=0.0):
    """Initial lifted state over a mechanical phase point at time 0, with p_z
    pinned to the mechanical normalization."""
    x0 = coordinate_point(x0)
    p0 = np.asarray(p0, dtype=float)
    xe = np.concatenate([x0, [z0]])
    pe = np.concatenate([p0, [mechanical_pz(lifted)]])
    return FlowState(param=0.0, x=xe, p=pe)


def embed_time_dependent(lifted, x0, p0, q, shell="massive"):
    """Initial lifted state over a mechanical phase point at t = sigma = 0.

    The dummy momentum is p_sigma = qc with q > 0 (physical time advances
    at dt/dlambda = q/m), and the spatial momenta carry the -q/m rescaling
    that the printed signature induces.  p_t is placed on the massive shell
    G^AB p_A p_B = m^2 c^2 (shell='massive', the surface of the printed
    energy relation) or the null shell (shell='null', where the flow
    Hamiltonian vanishes).
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q!r}")
    if shell not in ("massive", "null"):
        raise ValueError("shell must be 'massive' or 'null'")
    if lifted.kind != TIMEDEP_KIND:
        raise ValueError("embedding over (t, sigma) needs the time-dependent lift")
    x0 = coordinate_point(x0)
    p0 = np.asarray(p0, dtype=float)
    m, c = lifted.m, lifted.c
    g0 = evaluate_metric(lifted.base, x0, 0.0)
    H0 = float(p0 @ invert_metric(g0) @ p0) / (2.0 * m) + lifted.U_or_V(x0, 0.0)
    p_t = (q / m) * H0
    if shell == "massive":
        p_t += m * m * c * c / (2.0 * q)
    xe = np.concatenate([x0, [0.0, 0.0]])
    pe = np.concatenate([-(q / m) * p0, [p_t, q * c]])
    return FlowState(param=0.0, x=xe, p=pe)


def lifted_energy_relation(lifted, state):
    """Residual of the printed energy relation on the time-dependent lift:

        2c p_t p_sigma - (c^2 g^ij p_i p_j + c^2 V^2 p_sigma^2 + m^2 c^4).

    Zero along massive-shell flows; this is the hypersurface on which the
    exact time-dependent conformal factor projects.
    """
    if lifted.kind != TIMEDEP_KIND:
        raise ValueError("the energy relation lives on the time-dependent lift")
    m, c = lifted.m, lifted.c
    n = lifted.base.dim
    x, t = state.x[:n], state.x[n]
    pi = state.p[:n]
    p_t, p_sigma = state.p[n], state.p[n + 1]
    ginv = invert_metric(evaluate_metric(lifted.base, x, t))
    Vsq = 2.0 * lifted.U_or_V(x, t) / (m * c * c)
    lhs = 2.0 * c * p_t * p_sigma
    rhs = (c * c * float(pi @ ginv @ pi) + c * c * Vsq * p_sigma ** 2
           + m ** 2 * c ** 4)
    return float(lhs - rhs)


def sigma_momentum_identity(H_mech, p_t, q, m, c):
    """Dummy momentum reconstructed from the mechanical energy and p_t on a
    null-shell flow: p_sigma = (q^2 c / m) H / p_t (equal to qc when p_t =
    (q/m)H).  Printed treatments quote this relation as -mcH/p_t under their
    own sign conventions; the form here is the one the implemented signature
    actually conserves.
    """
    if p_t == 0:
        raise ValueError("p_t must be nonzero on the null shell")
    return (q * q * c / m) * H_mech / p_t


def integrate_lifted(lifted, initial, span, *, rtol=1e-9, atol=1e-12,
                     record_grid=None):
    """Integrate the lifted geodesic flow, always monitoring the flow
    Hamiltonian and the dummy momentum (plus the energy-relation residual on
    the time-dependent lift)."""
    fns = {
        "extended_energy": lambda s, x, p: lifted_hamiltonian(lifted, x, p),
        "p_dummy": lambda s, x, p: p[-1],
    }
    if lifted.kind == TIMEDEP_KIND:
        fns["shell_residual"] = lambda s, x, p: lifted_energy_relation(
            lifted, FlowState(param=s, x=x, p=p))
    return integrate(lifted_rhs(lifted), initial, span, rtol=rtol, atol=atol,
                     monitor_fns=fns, parameter_kind="time_t",
                     record_grid=record_grid)


def project(traj, lifted):
    """Drop the dummy coordinate(s) and undo the momentum rescaling.

    Static lift: positions and momenta pass through unchanged (the flow
    parameter already is mechanical time).  Time-dependent lift: the
    physical time coordinate becomes the parameter and the spatial momenta
    are mapped back through p_mech = -(m/q) p, with q read off the conserved
    dummy momentum.
    """
    n = lifted.base.dim
    states = []
    if lifted.kind == STATIC_KIND:
        for s in traj.states:
            states.append(FlowState(param=s.param, x=s.x[:n].copy(),
                                    p=s.p[:n].copy(), monitors=dict(s.monitors)))
        return Trajectory(states, "time_t", traj.termination)
    for s in traj.states:
        q = s.p[n + 1] / lifted.c
        states.append(FlowState(param=float(s.x[n]), x=s.x[:n].copy(),
                                p=-(lifted.m / q) * s.p[:n],
                                monitors=dict(s.monitors)))
    return Trajectory(states, "time_t", traj.termination)
