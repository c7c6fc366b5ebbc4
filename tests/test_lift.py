"""Extended-space embeddings: the static dummy direction and the time axis pair."""

import numpy as np
import pytest

from jacobiflow import (
    DomainViolation,
    FlowState,
    MechanicalSystem,
    MetricField,
    compare_paths,
    embed_static,
    embed_time_dependent,
    evaluate_metric,
    flat_metric,
    hamilton_flow,
    integrate,
    integrate_lifted,
    lift_static,
    lift_time_dependent,
    lifted_energy_relation,
    lifted_hamiltonian,
    lifted_rhs,
    mechanical_pz,
    metric_partials,
    polar_metric,
    project,
    sigma_momentum_identity,
)

HARMONIC_V = lambda x: 0.5 * x[0] ** 2
DRIVEN_U = lambda x, t: 0.5 * (1.0 + 0.1 * np.sin(t)) * x[0] ** 2
DRIVEN_SPAN = 20.0 * np.pi  # ten characteristic times of the drive


def driven_lift():
    return lift_time_dependent(flat_metric(1), DRIVEN_U, m=1.0, c=1.0)


# ---------------------------------------------------------------------------
# static lift structure


def test_static_extended_metric_blocks():
    lift = lift_static(flat_metric(1), HARMONIC_V, m=1.0)
    g = evaluate_metric(lift.extended, np.array([1.0, 0.0]))
    # base block unchanged; dummy entry 1/(2V) with V(1) = 1/2
    np.testing.assert_allclose(g, np.diag([1.0, 1.0]), rtol=0, atol=1e-15)
    ginv = evaluate_metric(lift.inverse, np.array([1.0, 0.0]))
    np.testing.assert_allclose(ginv, np.diag([1.0, 1.0]), rtol=0, atol=1e-15)


def test_static_lift_guards_nonpositive_profile():
    lift = lift_static(flat_metric(1), HARMONIC_V, m=1.0)
    with pytest.raises(DomainViolation):
        evaluate_metric(lift.extended, np.array([0.0, 0.0]))  # V = 0
    # the flow's inverse field stays regular across the zero of V
    ginv = evaluate_metric(lift.inverse, np.array([0.0, 0.0]))
    np.testing.assert_allclose(ginv, np.diag([1.0, 0.0]), rtol=0, atol=1e-15)


def test_static_lift_ignores_dummy_coordinate():
    lift = lift_static(flat_metric(1), HARMONIC_V, m=1.0)
    a = evaluate_metric(lift.extended, np.array([0.7, 0.0]))
    b = evaluate_metric(lift.extended, np.array([0.7, 123.0]))
    np.testing.assert_array_equal(a, b)


def test_static_lift_validation():
    with pytest.raises(ValueError):
        lift_static(flat_metric(1), HARMONIC_V, m=0.0)
    with pytest.raises(ValueError):
        lift_static(flat_metric(1), HARMONIC_V, m=1.0, kappa=0.0)


def test_dummy_momentum_normalization():
    # sqrt(2m/kappa): both published normalizations of the dummy entry
    assert mechanical_pz(lift_static(flat_metric(1), HARMONIC_V, m=1.0)) == 1.0
    assert mechanical_pz(
        lift_static(flat_metric(1), HARMONIC_V, m=1.0, kappa=1.0)
    ) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert mechanical_pz(
        lift_static(flat_metric(1), HARMONIC_V, m=4.0)
    ) == pytest.approx(2.0, rel=1e-15)


def test_lifted_hamiltonian_reduces_to_mechanical():
    # at the dummy-momentum normalization the flow Hamiltonian equals
    # kinetic + V for either kappa convention
    for kappa in (1.0, 2.0):
        lift = lift_static(flat_metric(1), HARMONIC_V, m=1.0, kappa=kappa)
        x = np.array([0.7, 0.3])
        p = np.array([0.4, mechanical_pz(lift)])
        want = 0.4 ** 2 / 2.0 + HARMONIC_V(x[:1])
        assert lifted_hamiltonian(lift, x, p) == pytest.approx(want, abs=1e-14)


def test_mechanical_pz_rejects_time_dependent_lift():
    with pytest.raises(ValueError):
        mechanical_pz(driven_lift())


# ---------------------------------------------------------------------------
# static lift dynamics


def test_static_oscillator_projects_to_cosine():
    lift = lift_static(flat_metric(1), HARMONIC_V, m=1.0)
    start = embed_static(lift, np.array([1.0]), np.array([0.0]))
    np.testing.assert_array_equal(start.p, np.array([0.0, 1.0]))
    traj = integrate_lifted(lift, start, 20.0)
    assert traj.termination == "completed"
    proj = project(traj, lift)
    worst = max(abs(s.x[0] - np.cos(s.param)) for s in proj.states)
    assert worst < 1e-6
    # projection passes positions and momenta through unchanged
    np.testing.assert_array_equal(proj.positions[:, 0], traj.positions[:, 0])


def test_static_dummy_momentum_conserved_bitwise():
    lift = lift_static(flat_metric(1), HARMONIC_V, m=1.0)
    start = embed_static(lift, np.array([0.3]), np.array([0.9]))
    traj = integrate_lifted(lift, start, 15.0)
    pz = traj.monitor("p_dummy")
    assert np.all(pz == pz[0])
    ee = traj.monitor("extended_energy")
    assert np.max(np.abs(ee - ee[0])) < 1e-7


def test_constant_profile_gives_free_extended_motion():
    # V = 1/2 makes the dummy entry 1 and the whole extended metric flat
    lift = lift_static(flat_metric(1), lambda x: 0.5, m=1.0)
    start = embed_static(lift, np.array([0.0]), np.array([0.7]), z0=1.0)
    traj = integrate_lifted(lift, start, 5.0)
    for s in traj.states:
        np.testing.assert_allclose(
            s.x, start.x + start.p * s.param, rtol=0, atol=1e-10
        )


# ---------------------------------------------------------------------------
# time-dependent lift structure


def test_timedep_metric_blocks():
    lift = driven_lift()
    x = np.array([1.0, np.pi / 2, 0.0])  # (x, t, sigma)
    G = evaluate_metric(lift.extended, x)
    # base block enters negated; the t-t entry carries the doubled potential
    assert G[0, 0] == -1.0
    assert G[1, 1] == pytest.approx(2.0 * DRIVEN_U(x[:1], x[1]), rel=1e-15)
    assert G[1, 2] == 1.0 and G[2, 1] == 1.0
    assert G[2, 2] == 0.0
    Ginv = evaluate_metric(lift.inverse, x)
    assert Ginv[0, 0] == -1.0
    assert Ginv[1, 2] == 1.0
    assert Ginv[2, 2] == pytest.approx(-2.0 * DRIVEN_U(x[:1], x[1]), rel=1e-15)
    assert Ginv[1, 1] == 0.0


def test_timedep_embedding_massive_shell():
    lift = driven_lift()
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    # (x, t, sigma) with momenta (-q/m p, (q/m)H + m^2c^2/2q, qc)
    np.testing.assert_array_equal(start.x, np.array([1.0, 0.0, 0.0]))
    H0 = 0.5  # kinetic 0 + U(1, 0)
    assert start.p[1] == pytest.approx(H0 + 0.5, abs=1e-15)
    assert start.p[2] == 1.0
    assert abs(lifted_energy_relation(lift, start)) < 1e-12


def test_timedep_embedding_validation():
    lift = driven_lift()
    with pytest.raises(ValueError):
        embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=0.0)
    with pytest.raises(ValueError):
        embed_time_dependent(
            lift, np.array([1.0]), np.array([0.0]), q=1.0, shell="timelike"
        )
    static = lift_static(flat_metric(1), HARMONIC_V, m=1.0)
    with pytest.raises(ValueError):
        embed_time_dependent(static, np.array([1.0]), np.array([0.0]), q=1.0)
    with pytest.raises(ValueError):
        lifted_energy_relation(static, embed_static(static, np.array([1.0]), np.array([0.0])))


# ---------------------------------------------------------------------------
# time-dependent lift dynamics


def test_driven_oscillator_conservation_census():
    # the sigma momentum never moves (its equation of motion is exactly zero),
    # the flow Hamiltonian holds to integration accuracy, and the time
    # momentum visibly drifts because the potential genuinely depends on time
    lift = driven_lift()
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    traj = integrate_lifted(lift, start, DRIVEN_SPAN)
    ps = traj.monitor("p_dummy")
    assert np.all(ps == ps[0])
    assert np.max(np.abs(traj.monitor("shell_residual"))) < 1e-7
    ee = traj.monitor("extended_energy")
    assert np.max(np.abs(ee - ee[0])) < 1e-7
    pt = np.array([s.p[1] for s in traj.states])
    assert np.max(np.abs(pt - pt[0])) > 1e-3


def test_undriven_lift_also_conserves_time_momentum():
    # freezing the drive restores the extra conserved quantity
    U_static = lambda x, t: 0.5 * x[0] ** 2
    lift = lift_time_dependent(flat_metric(1), U_static, m=1.0, c=1.0)
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    traj = integrate_lifted(lift, start, 20.0)
    pt = np.array([s.p[1] for s in traj.states])
    assert np.max(np.abs(pt - pt[0])) < 1e-8
    ps = traj.monitor("p_dummy")
    assert np.all(ps == ps[0])


def test_projection_matches_direct_integration():
    lift = driven_lift()
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    lifted_traj = integrate_lifted(lift, start, DRIVEN_SPAN, record_grid=12000)
    proj = project(lifted_traj, lift)
    direct = MechanicalSystem(
        g=flat_metric(1),
        U=DRIVEN_U,
        m=1.0,
        time_dependent=True,
        grad_U=lambda x, t: np.array([(1.0 + 0.1 * np.sin(t)) * x[0]]),
        name="driven",
    )
    direct_traj = integrate(
        hamilton_flow(direct),
        FlowState(0.0, np.array([1.0]), np.array([0.0])),
        DRIVEN_SPAN,
        record_grid=12000,
    )
    assert compare_paths(proj, direct_traj) < 1e-5
    # the projected parameter is physical time read off the lifted state
    assert proj.states[-1].param == pytest.approx(DRIVEN_SPAN, abs=1e-8)


def test_null_shell_flow_is_null():
    lift = driven_lift()
    start = embed_time_dependent(
        lift, np.array([1.0]), np.array([0.0]), q=1.0, shell="null"
    )
    assert abs(lifted_hamiltonian(lift, start.x, start.p)) < 1e-15
    traj = integrate_lifted(lift, start, DRIVEN_SPAN)
    assert np.max(np.abs(traj.monitor("extended_energy"))) < 1e-8
    # the sigma momentum satisfies its closed-form expression in H and p_t
    worst = 0.0
    for s in traj.states:
        q = s.p[2] / lift.c
        p_mech = -(lift.m / q) * s.p[:1]
        H = float(p_mech @ p_mech) / (2.0 * lift.m) + DRIVEN_U(s.x[:1], s.x[1])
        got = sigma_momentum_identity(H, s.p[1], q, lift.m, lift.c)
        worst = max(worst, abs(got - s.p[2]))
    assert worst < 1e-8


def test_sigma_momentum_identity_validation():
    with pytest.raises(ValueError):
        sigma_momentum_identity(0.5, 0.0, 1.0, 1.0, 1.0)


def test_lifted_rhs_sigma_equation_is_exactly_zero():
    lift = driven_lift()
    rhs = lifted_rhs(lift)
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = np.array([rng.normal(), rng.uniform(0, 10), rng.normal()])
        p = np.array([rng.normal(), rng.normal(), rng.uniform(0.5, 2.0)])
        _, dp = rhs(0.0, x, p)
        assert dp[2] == 0.0


# ---------------------------------------------------------------------------
# closed-form partials of the inverse fields


def breathing_metric():
    """A non-diagonal, time-dependent 2-d base with finite-difference partials."""

    def components(x, t):
        off = 0.1 * np.sin(x[1] + t)
        return np.array([[1.0 + 0.2 * x[0] ** 2 * (1.0 + 0.3 * np.cos(t)), off],
                         [off, 2.0 + 0.5 * np.sin(t) * x[1] ** 2]])

    return MetricField(dim=2, components=components, time_dependent=True,
                       name="breathing")


def inverse_partials_against_fd(lift, point):
    # the same inverse components without the partials hook take the
    # finite-difference route of metric_partials
    fd_field = MetricField(dim=lift.inverse.dim, components=lift.inverse.components,
                           guard=lift.inverse.guard)
    closed = metric_partials(lift.inverse, point)
    numeric = metric_partials(fd_field, point)
    assert closed.shape == (lift.inverse.dim,) * 3
    assert np.max(np.abs(closed)) > 0.1
    np.testing.assert_allclose(closed, numeric, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("base, x", [
    (flat_metric(1), [0.7]),
    (flat_metric(2), [0.7, -1.3]),
    (polar_metric(), [1.4, 0.6]),
])
@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_static_inverse_partials_match_fd(base, x, kappa):
    V = lambda y: 0.5 * float(y @ y) + 0.3 * y[0] + 1.0
    lift = lift_static(base, V, m=1.3, kappa=kappa)
    inverse_partials_against_fd(lift, np.array(x + [0.4]))


@pytest.mark.parametrize("base, x", [
    (flat_metric(1), [0.7]),
    (flat_metric(2), [0.7, -1.3]),
    (polar_metric(), [1.4, 0.6]),
    (breathing_metric(), [0.8, 0.5]),
])
def test_timedep_inverse_partials_match_fd(base, x):
    U = lambda y, t: 0.5 * (1.0 + 0.3 * np.sin(2.0 * t)) * float(y @ y) + 0.2 * y[0] * t
    lift = lift_time_dependent(base, U, m=1.3, c=1.7)
    inverse_partials_against_fd(lift, np.array(x + [0.9, -0.2]))


def test_lift_inverse_partials_refuse_stencil_off_chart():
    # analytic half-line chart: x = 1e-7 is on it, the potential's stencil
    # point x - 1e-6 is not
    half_line = MetricField(dim=1, components=lambda x: np.eye(1),
                            partials=lambda x: np.zeros((1, 1, 1)),
                            guard=lambda x: x[0] > 0.0, name="half_line")
    static = lift_static(half_line, lambda y: 1.0 + y[0], m=1.0)
    timedep = lift_time_dependent(half_line, lambda y, t: 1.0 + y[0] * t)
    for lift in (static, timedep):
        n = lift.inverse.dim
        x = np.array([1e-7] + [0.5] * (n - 1))
        with pytest.raises(DomainViolation, match="stencil"):
            lifted_rhs(lift)(0.0, x, np.ones(n))


def test_timedep_lift_takes_no_gauge_one_form():
    gauge = lambda x, t: np.array([0.1])
    with pytest.raises(ValueError, match="gauge"):
        lift_time_dependent(flat_metric(1), DRIVEN_U, gauge)
    with pytest.raises(TypeError):
        lift_time_dependent(flat_metric(1), DRIVEN_U, A=gauge)
