"""Extended-space embeddings: the static dummy direction and the time axis pair."""

import numpy as np
import pytest

import jacobiflow.lift as lift_module
import jacobiflow.metric as metric_module
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

HARMONIC_V = lambda x: 0.5 * (x[0] * x[0])
DRIVEN_U = lambda x, t: 0.5 * (1.0 + 0.1 * np.sin(t)) * (x[0] * x[0])
DRIVEN_SPAN = 20.0 * np.pi  # ten characteristic times of the drive


def harmonic(m=1.0):
    return MechanicalSystem(g=flat_metric(1), U=HARMONIC_V, m=m, name="harmonic")


def driven():
    return MechanicalSystem(g=flat_metric(1), U=DRIVEN_U, m=1.0, time_dependent=True,
                            grad_U=lambda x, t: np.array([(1.0 + 0.1 * np.sin(t)) * x[0]]),
                            name="driven")


def driven_lift():
    return lift_time_dependent(driven(), c=1.0)


# ---------------------------------------------------------------------------
# static lift structure


def test_static_extended_metric_blocks():
    lift = lift_static(harmonic())
    g = evaluate_metric(lift.extended, np.array([1.0, 0.0]))
    # base block unchanged; dummy entry 1/(2V) with V(1) = 1/2
    np.testing.assert_allclose(g, np.diag([1.0, 1.0]), rtol=0, atol=1e-15)
    ginv = evaluate_metric(lift.inverse, np.array([1.0, 0.0]))
    np.testing.assert_allclose(ginv, np.diag([1.0, 1.0]), rtol=0, atol=1e-15)


def test_static_lift_guards_nonpositive_profile():
    lift = lift_static(harmonic())
    with pytest.raises(DomainViolation):
        evaluate_metric(lift.extended, np.array([0.0, 0.0]))  # V = 0
    # the flow's inverse field stays regular across the zero of V
    ginv = evaluate_metric(lift.inverse, np.array([0.0, 0.0]))
    np.testing.assert_allclose(ginv, np.diag([1.0, 0.0]), rtol=0, atol=1e-15)


def test_static_lift_ignores_dummy_coordinate():
    lift = lift_static(harmonic())
    a = evaluate_metric(lift.extended, np.array([0.7, 0.0]))
    b = evaluate_metric(lift.extended, np.array([0.7, 123.0]))
    np.testing.assert_array_equal(a, b)


def test_static_lift_validation():
    with pytest.raises(ValueError, match="kappa"):
        lift_static(harmonic(), kappa=0.0)
    with pytest.raises(ValueError, match="autonomous"):
        lift_static(driven())
    # the mass refusal the lifts rely on lives in the system itself
    with pytest.raises(ValueError, match="mass"):
        MechanicalSystem(g=flat_metric(1), U=HARMONIC_V, m=0.0)


def test_dummy_momentum_normalization():
    # sqrt(2m/kappa): both published normalizations of the dummy entry
    assert mechanical_pz(lift_static(harmonic())) == 1.0
    assert mechanical_pz(lift_static(harmonic(), kappa=1.0)) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert mechanical_pz(lift_static(harmonic(m=4.0))) == pytest.approx(2.0, rel=1e-15)


def test_lifted_hamiltonian_reduces_to_mechanical():
    # at the dummy-momentum normalization the flow Hamiltonian equals
    # kinetic + V for either kappa convention
    for kappa in (1.0, 2.0):
        lift = lift_static(harmonic(), kappa=kappa)
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
    lift = lift_static(harmonic())
    start = embed_static(lift, np.array([1.0]), np.array([0.0]))
    np.testing.assert_array_equal(start.p, np.array([0.0, 1.0]))
    traj = integrate_lifted(lift, start, 20.0)
    assert traj.termination == "completed"
    proj = project(traj, lift)
    worst = max(abs(x[0] - np.cos(t)) for t, x in zip(proj.params, proj.x))
    assert worst < 1e-6
    # projection passes positions and momenta through unchanged
    np.testing.assert_array_equal(proj.x[:, 0], traj.x[:, 0])


def test_static_dummy_momentum_conserved_bitwise():
    lift = lift_static(harmonic())
    start = embed_static(lift, np.array([0.3]), np.array([0.9]))
    traj = integrate_lifted(lift, start, 15.0)
    pz = traj.monitors["p_dummy"]
    assert np.all(pz == pz[0])
    ee = traj.monitors["extended_energy"]
    assert np.max(np.abs(ee - ee[0])) < 1e-7


def test_constant_profile_gives_free_extended_motion():
    # V = 1/2 makes the dummy entry 1 and the whole extended metric flat
    lift = lift_static(MechanicalSystem(g=flat_metric(1), U=lambda x: 0.5 + 0.0 * x[0], m=1.0))
    start = embed_static(lift, np.array([0.0]), np.array([0.7]))
    traj = integrate_lifted(lift, start, 5.0)
    for t, x in zip(traj.params, traj.x):
        np.testing.assert_allclose(
            x, start.x + start.p * t, rtol=0, atol=1e-10
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
    assert abs(lifted_energy_relation(lift, start.x, start.p)) < 1e-12


def test_timedep_embedding_validation():
    lift = driven_lift()
    with pytest.raises(ValueError):
        embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=0.0)
    with pytest.raises(ValueError):
        embed_time_dependent(
            lift, np.array([1.0]), np.array([0.0]), q=1.0, shell="timelike"
        )
    static = lift_static(harmonic())
    with pytest.raises(ValueError):
        embed_time_dependent(static, np.array([1.0]), np.array([0.0]), q=1.0)
    with pytest.raises(ValueError):
        start = embed_static(static, np.array([1.0]), np.array([0.0]))
        lifted_energy_relation(static, start.x, start.p)


# ---------------------------------------------------------------------------
# time-dependent lift dynamics


def test_driven_oscillator_conservation_census():
    # the sigma momentum never moves (its equation of motion is exactly zero),
    # the flow Hamiltonian holds to integration accuracy, and the time
    # momentum visibly drifts because the potential genuinely depends on time
    lift = driven_lift()
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    traj = integrate_lifted(lift, start, DRIVEN_SPAN)
    ps = traj.monitors["p_dummy"]
    assert np.all(ps == ps[0])
    assert np.max(np.abs(traj.monitors["shell_residual"])) < 1e-7
    ee = traj.monitors["extended_energy"]
    assert np.max(np.abs(ee - ee[0])) < 1e-7
    pt = traj.p[:, 1]
    assert np.max(np.abs(pt - pt[0])) > 1e-3


def test_undriven_lift_also_conserves_time_momentum():
    # freezing the drive restores the extra conserved quantity
    lift = lift_time_dependent(harmonic(), c=1.0)
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    traj = integrate_lifted(lift, start, 20.0)
    pt = traj.p[:, 1]
    assert np.max(np.abs(pt - pt[0])) < 1e-8
    ps = traj.monitors["p_dummy"]
    assert np.all(ps == ps[0])


def test_projection_matches_direct_integration():
    lift = driven_lift()
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.0]), q=1.0)
    lifted_traj = integrate_lifted(lift, start, DRIVEN_SPAN, record_grid=12000)
    proj = project(lifted_traj, lift)
    direct_traj = integrate(
        hamilton_flow(lift.sys),
        FlowState(np.array([1.0]), np.array([0.0])),
        DRIVEN_SPAN,
        record_grid=12000,
    )
    assert compare_paths(proj, direct_traj) < 1e-5
    # the projected parameter is physical time read off the lifted state
    assert proj.params[-1] == pytest.approx(DRIVEN_SPAN, abs=1e-8)


def test_null_shell_flow_is_null():
    lift = driven_lift()
    start = embed_time_dependent(
        lift, np.array([1.0]), np.array([0.0]), q=1.0, shell="null"
    )
    assert abs(lifted_hamiltonian(lift, start.x, start.p)) < 1e-15
    traj = integrate_lifted(lift, start, DRIVEN_SPAN)
    assert np.max(np.abs(traj.monitors["extended_energy"])) < 1e-8
    # the sigma momentum satisfies its closed-form expression in H and p_t
    m = lift.sys.m
    q = traj.p[:, 2] / lift.c
    p_mech = -(m / q) * traj.p[:, 0]
    U = np.array([DRIVEN_U(x[:1], x[1]) for x in traj.x])
    H = p_mech * p_mech / (2.0 * m) + U
    got = sigma_momentum_identity(H, traj.p[:, 1], q, m, lift.c)
    assert np.max(np.abs(got - traj.p[:, 2])) < 1e-8


def test_batched_lift_invariants_equal_their_per_state_values():
    # each row of a batched invariant, and of the monitor column it fills,
    # has the bits of its single-state call, on both lifts
    static = lift_static(MechanicalSystem(g=polar_metric(), U=lambda x: 1.0 + 0.5 * (x[0] * x[0]),
                                          m=1.0))
    timedep = driven_lift()
    # the CLI's driven oscillator at one launch whose rows once rounded apart
    # from their states (a non-contiguous stack of G^AB)
    cli_driven = lift_time_dependent(MechanicalSystem(
        g=flat_metric(1), m=1.0, time_dependent=True,
        U=lambda x, t: 0.5 * (1.0 + 0.10865214102827102 * np.sin(t)) * (x * x).sum(axis=0)))
    runs = [
        (static, embed_static(static, np.array([1.0, 0.0]), np.array([0.2, 0.8])), 3.0,
         (lifted_hamiltonian,)),
        (timedep, embed_time_dependent(timedep, np.array([1.0]), np.array([0.3]), q=1.0), 3.0,
         (lifted_hamiltonian, lifted_energy_relation)),
        (cli_driven, embed_time_dependent(cli_driven, np.array([1.164403846067402]),
                                          np.array([-0.028880012506914854]),
                                          q=1.4166047594093016), 1.0588698012178588,
         (lifted_hamiltonian, lifted_energy_relation)),
    ]
    for lift, start, span, invariants in runs:
        traj = integrate_lifted(lift, start, span, record_grid=1000)
        assert len(traj.params) == 1001
        for invariant in invariants:
            rows = invariant(lift, traj.x, traj.p)
            assert rows.shape == traj.params.shape
            each = [invariant(lift, x, p) for x, p in zip(traj.x, traj.p)]
            assert rows.tolist() == each, (lift.kind, invariant.__name__)
        assert traj.monitors["extended_energy"].tolist() == lifted_hamiltonian(
            lift, traj.x, traj.p).tolist()
        assert traj.monitors["p_dummy"].tolist() == traj.p[:, -1].tolist()


def test_sigma_momentum_identity_refuses_a_vanishing_p_t_among_states():
    with pytest.raises(ValueError, match="p_t"):
        sigma_momentum_identity(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1.0, 1.0, 1.0)


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
    """A non-diagonal, time-dependent 2-d base with complex-step partials."""

    def components(x, t):
        off = 0.1 * np.sin(x[1] + t)
        return np.array([[1.0 + 0.2 * x[0] ** 2 * (1.0 + 0.3 * np.cos(t)), off],
                         [off, 2.0 + 0.5 * np.sin(t) * x[1] ** 2]])

    return MetricField(dim=2, components=components, time_dependent=True,
                       name="breathing")


def inverse_partials_against_fd(lift, point):
    # central differences of the inverse components, h = 1e-6 max(1, |x|),
    # taken here: the components run through the real-valued inversion of
    # the base metric, so the package's complex-step fallback cannot
    # differentiate them
    closed = metric_partials(lift.inverse, point)
    h = 1e-6 * np.maximum(1.0, np.abs(point))
    numeric = np.array([(evaluate_metric(lift.inverse, point + step)
                         - evaluate_metric(lift.inverse, point - step)) / (2.0 * step[k])
                        for k, step in enumerate(np.diag(h))])
    assert closed.shape == (lift.inverse.dim,) * 3
    assert np.max(np.abs(closed)) > 0.1
    np.testing.assert_allclose(closed, numeric, rtol=1e-6, atol=1e-12)
    # the flow's G^AB and D are the field's components and partials, bit for bit
    G, D = lift._inverse_partials(point)
    assert (G == evaluate_metric(lift.inverse, point)).all()
    assert (D == closed).all()


def static_V(y):
    return 0.5 * (y * y).sum(axis=0) + 0.3 * y[0] + 1.0


def static_grad_V(y):
    return y + 0.3 * np.eye(y.size)[0]


# the last input is the same system with an analytic grad_U, whose entry
# partials the lift must take as they are
@pytest.mark.parametrize("base, x, grad_U", [
    (flat_metric(1), [0.7], None),
    (flat_metric(2), [0.7, -1.3], None),
    (polar_metric(), [1.4, 0.6], None),
    (polar_metric(), [1.4, 0.6], static_grad_V),
], ids=["base0-x0", "base1-x1", "base2-x2", "base2-x2-grad_U"])
@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_static_inverse_partials_match_fd(base, x, grad_U, kappa):
    lift = lift_static(MechanicalSystem(g=base, U=static_V, m=1.3, grad_U=grad_U), kappa=kappa)
    point = np.array(x + [0.4])
    inverse_partials_against_fd(lift, point)
    if grad_U is not None:
        n = base.dim
        D = metric_partials(lift.inverse, point)
        assert (D[:n, n, n] == kappa * grad_U(point[:n])).all()


def timedep_U(y, t):
    return 0.5 * (1.0 + 0.3 * np.sin(2.0 * t)) * (y * y).sum(axis=0) + 0.2 * y[0] * t


def timedep_grad_U(y, t):
    return (1.0 + 0.3 * np.sin(2.0 * t)) * y + 0.2 * t * np.eye(y.size)[0]


@pytest.mark.parametrize("base, x, grad_U", [
    (flat_metric(1), [0.7], None),
    (flat_metric(2), [0.7, -1.3], None),
    (polar_metric(), [1.4, 0.6], None),
    (breathing_metric(), [0.8, 0.5], None),
    (breathing_metric(), [0.8, 0.5], timedep_grad_U),
], ids=["base0-x0", "base1-x1", "base2-x2", "base3-x3", "base3-x3-grad_U"])
def test_timedep_inverse_partials_match_fd(base, x, grad_U):
    sys = MechanicalSystem(g=base, U=timedep_U, m=1.3, grad_U=grad_U, time_dependent=True)
    lift = lift_time_dependent(sys, c=1.7)
    point = np.array(x + [0.9, -0.2])
    inverse_partials_against_fd(lift, point)
    if grad_U is not None:
        n = base.dim
        D = metric_partials(lift.inverse, point)
        assert (D[:n, n + 1, n + 1] == -2.0 * grad_U(point[:n], point[n]) / (1.3 * 1.7 * 1.7)).all()


def test_forced_oscillator_time_partial_is_exact():
    # the command line's forced oscillator U = (1 + amp sin t) lam |x|^2 / 2:
    # the lift's potential entry takes dU/dt = amp cos t lam |x|^2 / 2 from a
    # complex step in t, to rounding
    amp, lam, m, c = 0.2, 1.3, 1.1, 1.4
    sys = MechanicalSystem(
        g=flat_metric(2),
        U=lambda x, t: 0.5 * (1.0 + amp * np.sin(t)) * lam * (x * x).sum(axis=0), m=m,
        time_dependent=True, grad_U=lambda x, t: (1.0 + amp * np.sin(t)) * lam * x)
    lift = lift_time_dependent(sys, c=c)
    for t in (0.0, 0.9, 2.5, -40.0):
        xe = np.array([0.8, -1.3, t, 0.4])
        dUdt = 0.5 * amp * np.cos(t) * lam * (0.8 * 0.8 + 1.3 * 1.3)
        D = metric_partials(lift.inverse, xe)
        assert D[2, 3, 3] == pytest.approx(-2.0 * dUdt / (m * c * c), rel=1e-14, abs=0.0), t


def test_lift_inverse_partials_refuse_stencil_off_chart():
    # analytic half-line chart: at x = 1e-7 a central-difference stencil
    # would read the potential at x - 1e-6, off the chart; the complex steps
    # in x and t stay on it and give the closed-form geodesic equations
    half_line = MetricField(dim=1, components=lambda x: np.eye(1),
                            partials=lambda x: np.zeros((1, 1, 1)),
                            guard=lambda x: x[0] > 0.0, name="half_line")
    static = lift_static(MechanicalSystem(g=half_line, U=lambda y: 1.0 + y[0], m=1.0))
    timedep = lift_time_dependent(MechanicalSystem(g=half_line, U=lambda y, t: 1.0 + y[0] * t,
                                                   m=1.0, time_dependent=True))
    y, t = 1e-7, 0.5
    # static, kappa = 2: G^AB = diag(1, 2U) and d_y G^zz = 2
    expected_static = ([1.0, 2.0 * (1.0 + y)], [-1.0, 0.0])
    # G^AB over (y, t, sigma) at c = 1: d_y G^ss = -2t and d_t G^ss = -2y
    expected_timedep = ([-1.0, 1.0, 1.0 - 2.0 * (1.0 + y * t)], [t, y, 0.0])
    for lift, (dx_exact, dp_exact) in ((static, expected_static), (timedep, expected_timedep)):
        n = lift.inverse.dim
        x = np.array([y] + [t] * (n - 1))
        dx, dp = lifted_rhs(lift)(0.0, x, np.ones(n))
        np.testing.assert_allclose(dx, dx_exact, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(dp, dp_exact, rtol=1e-14, atol=1e-16)


def test_each_lifted_rhs_call_inverts_the_base_metric_once(monkeypatch):
    # G^AB and its partials come from one inversion of the base metric,
    # counted at every binding of metric._inverse
    calls = []
    inverse = metric_module._inverse

    def counted(field, x, t=None):
        calls.append(field.name)
        return inverse(field, x, t)

    for module in (metric_module, lift_module):
        monkeypatch.setattr(module, "_inverse", counted)
    static = lift_static(MechanicalSystem(g=polar_metric(), U=static_V, m=1.3))
    timedep = lift_time_dependent(
        MechanicalSystem(g=breathing_metric(), U=timedep_U, m=1.3, time_dependent=True), c=1.7)
    for lift, x in ((static, [1.4, 0.6, 0.4]), (timedep, [0.8, 0.5, 0.9, -0.2])):
        rhs = lifted_rhs(lift)
        calls.clear()
        rhs(0.0, np.array(x), np.ones(len(x)))
        assert calls == [lift.sys.g.name], lift.kind


def test_timedep_lift_run_inverts_its_rows_once_and_reads_the_shell_off_h(monkeypatch):
    # the energy relation is the mass shell 2mc^2 H - m^2 c^4 of the flow
    # Hamiltonian, so the run's monitors need one stacked inversion of its rows
    stacked = []
    invert = metric_module.invert_metric

    def counted(g):
        if np.ndim(g) == 3:
            stacked.append(len(g))
        return invert(g)

    monkeypatch.setattr(metric_module, "invert_metric", counted)
    m, c = 1.7, 1.9
    lift = lift_time_dependent(MechanicalSystem(g=flat_metric(1), U=DRIVEN_U, m=m,
                                                time_dependent=True), c=c)
    start = embed_time_dependent(lift, np.array([1.0]), np.array([0.3]), q=1.2)
    traj = integrate_lifted(lift, start, 3.0, record_grid=400)
    assert stacked == [401]
    residual = traj.monitors["shell_residual"]
    assert residual.tolist() == lifted_energy_relation(lift, traj.x, traj.p).tolist()
    ee = traj.monitors["extended_energy"]
    assert residual.tolist() == (2.0 * m * c * c * ee - m * m * c ** 4).tolist()
    assert np.max(np.abs(residual)) < 1e-6


def test_timedep_lift_takes_no_gauge_one_form():
    gauge = lambda x, t: np.array([0.1])
    with pytest.raises(TypeError):
        lift_time_dependent(driven(), gauge)
    with pytest.raises(TypeError):
        lift_time_dependent(driven(), A=gauge)
