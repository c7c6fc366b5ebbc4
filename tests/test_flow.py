"""Flow integration: canonical equations, rescaled geodesic form, invariants, comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiflow import (
    EmptyTrajectory,
    FlowState,
    MechanicalSystem,
    MetricField,
    StepFailure,
    Trajectory,
    TurningPoint,
    clairaut_constant,
    compare_paths,
    energy_from_state,
    flat_metric,
    hamilton_flow,
    hamilton_rhs,
    integrate,
    jacobi_flow,
    jacobi_rhs,
    lift_static,
    lifted_rhs,
    max_relative_drift,
    polar_metric,
    reparametrize,
    unit_momentum_hamiltonian,
)

T_ORBIT = 2.0 * np.pi


def kepler(E=-0.5, m=1.0, k=1.0):
    return MechanicalSystem(
        g=polar_metric(),
        U=lambda x: -k / x[0],
        m=m,
        E=E,
        grad_U=lambda x: np.array([k / x[0] ** 2, 0.0]),
        name="kepler",
    )


def free_particle(dim=2, m=1.0, E=0.5):
    return MechanicalSystem(
        g=flat_metric(dim),
        U=lambda x: 0.0,
        m=m,
        E=E,
        grad_U=lambda x: np.zeros(dim),
        name="free",
    )


def perihelion_state():
    # E = -0.5 ellipse, eccentricity 0.5, launched at closest approach
    return FlowState(0.0, np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75)]))


# ---------------------------------------------------------------------------
# right-hand sides


def test_free_particle_straight_line():
    sys = free_particle(m=2.0)
    st = FlowState(0.0, np.array([1.0, -1.0]), np.array([0.4, 0.2]))
    traj = integrate(hamilton_flow(sys), st, 3.0)
    for s in traj.states:
        np.testing.assert_allclose(s.x, st.x + st.p / 2.0 * s.param, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(s.p, st.p)


def test_hamilton_rhs_circular_orbit_balance():
    # r=1, p_phi=1: centrifugal and gravitational pulls cancel
    dx, dp = hamilton_rhs(kepler(), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert dp[0] == pytest.approx(0.0, abs=1e-15)
    assert dx[1] == pytest.approx(1.0, abs=1e-15)
    assert dx[0] == 0.0


def test_jacobi_rhs_free_particle_form():
    # with m=1 the rescaled velocity is p / (2E) and momentum is constant
    sys = free_particle(E=0.5)
    dx, dp = jacobi_rhs(sys, np.array([0.0, 0.0]), np.array([0.3, 0.1]))
    np.testing.assert_allclose(dx, np.array([0.3, 0.1]) / (2.0 * 0.5), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(dp, np.zeros(2))


def test_jacobi_rhs_requires_energy_label():
    sys = MechanicalSystem(g=flat_metric(2), U=lambda x: 0.0, m=1.0)
    with pytest.raises(ValueError):
        jacobi_rhs(sys, np.zeros(2), np.ones(2))


def test_jacobi_rhs_raises_at_turning_radius():
    sys = kepler()
    # E - U = 0 at r = 2
    with pytest.raises(TurningPoint):
        jacobi_rhs(sys, np.array([2.0, 0.0]), np.array([0.0, 0.1]))


def test_jacobi_rhs_rejects_time_dependent_systems():
    sys = MechanicalSystem(
        g=flat_metric(1), U=lambda x, t: 0.0, m=1.0, E=0.5, time_dependent=True
    )
    with pytest.raises(ValueError):
        jacobi_rhs(sys, np.zeros(1), np.ones(1))


def growing_metric_system():
    # kinetic metric g = 1 + t on a line, static potential
    g = MetricField(dim=1, components=lambda x, t: np.array([[1.0 + t]]),
                    partials=lambda x, t: np.zeros((1, 1, 1)),
                    time_dependent=True, name="growing")
    return MechanicalSystem(g=g, U=lambda x: 0.0, m=1.0, E=0.5,
                            grad_U=lambda x: np.zeros(1))


def test_hamilton_flow_passes_time_to_a_time_dependent_metric():
    # dx/dt = g^-1 p / m = 1 / (1 + 3) at t = 3, also with a static potential
    sys = growing_metric_system()
    assert hamilton_flow(sys)(3.0, [0.0], [1.0])[0] == 0.25
    assert hamilton_rhs(sys, [0.0], [1.0], t=3.0)[0] == 0.25


TIME_DEPENDENT = {
    "potential": lambda: MechanicalSystem(
        g=flat_metric(1), U=lambda x, t: 0.0, m=1.0, E=0.5,
        grad_U=lambda x, t: np.zeros(1), time_dependent=True),
    "metric": growing_metric_system,
}
AUTONOMOUS_ONLY = {
    "jacobi_rhs": lambda sys: jacobi_rhs(sys, np.zeros(1), np.ones(1)),
    "verlet": lambda sys: integrate(
        hamilton_flow(sys), FlowState(0.0, np.zeros(1), np.ones(1)), 1.0,
        method="verlet", step=0.1),
    "reparametrize": lambda sys: reparametrize(Trajectory([
        FlowState(0.0, np.zeros(1), np.ones(1)),
        FlowState(1.0, np.ones(1), np.ones(1))]), "t_to_s", sys),
}


@pytest.mark.parametrize("call", sorted(AUTONOMOUS_ONLY))
@pytest.mark.parametrize("depends", sorted(TIME_DEPENDENT))
def test_autonomous_only_paths_refuse_time_dependence(depends, call):
    with pytest.raises(ValueError, match="autonomous"):
        AUTONOMOUS_ONLY[call](TIME_DEPENDENT[depends]())


# ---------------------------------------------------------------------------
# conservation along flows


def test_orbit_closes_in_phase_space():
    sys = kepler()
    st = perihelion_state()
    final = integrate(hamilton_flow(sys), st, T_ORBIT).final
    assert abs(final.x[0] - st.x[0]) < 1e-6
    assert abs(final.x[1] - st.x[1] - 2.0 * np.pi) < 1e-6
    assert np.max(np.abs(final.p - st.p)) < 1e-6


def test_energy_drift_ten_periods():
    # At tight tolerances the drift sits well under 1e-9 over ten periods.
    # At the default rtol=1e-9 the accumulated global error is measurably
    # larger (7.6e-9 on this orbit; local tolerance is not global accuracy),
    # so that level is pinned as a regression band rather than asserted at
    # the tight figure.
    sys = kepler()
    st = perihelion_state()
    mon = {"energy": lambda t, x, p: energy_from_state(sys, x, p)}
    e_tight = integrate(
        hamilton_flow(sys), st, 10 * T_ORBIT, monitor_fns=mon, rtol=1e-11, atol=1e-13
    ).monitor("energy")
    assert max_relative_drift(e_tight) < 1e-9
    e_default = integrate(hamilton_flow(sys), st, 10 * T_ORBIT, monitor_fns=mon).monitor("energy")
    assert max_relative_drift(e_default) < 5e-8


def test_unit_momentum_stays_one():
    sys = kepler()
    st = perihelion_state()
    mon = {"htilde": lambda s, x, p: unit_momentum_hamiltonian(sys, x, p)}
    traj = integrate(
        jacobi_flow(sys),
        st,
        10 * T_ORBIT,
        monitor_fns=mon,
        parameter_kind="jacobi_s",
        rtol=1e-11,
        atol=1e-13,
    )
    h = traj.monitor("htilde")
    assert abs(h[0] - 1.0) < 1e-14
    assert np.max(np.abs(h - 1.0)) < 1e-8


def test_clairaut_constant_matches_momentum_and_never_drifts():
    sys = kepler()
    st = perihelion_state()
    R0 = clairaut_constant(st, sys, "time_t")
    assert R0 == st.p[1]

    mon_t = {"R": lambda t, x, p: clairaut_constant(FlowState(t, x, p), sys, "time_t")}
    Rt = integrate(hamilton_flow(sys), st, 10 * T_ORBIT, monitor_fns=mon_t).monitor("R")
    assert np.max(np.abs(Rt - Rt[0])) < 1e-12

    mon_s = {"R": lambda s, x, p: clairaut_constant(FlowState(s, x, p), sys, "jacobi_s")}
    Rs = integrate(
        jacobi_flow(sys), st, 10 * T_ORBIT, monitor_fns=mon_s, parameter_kind="jacobi_s"
    ).monitor("R")
    assert np.max(np.abs(Rs - Rs[0])) < 1e-12

    # with m=1 both parametrizations report the same invariant value
    assert abs(Rt[0] - Rs[0]) < 1e-10


def test_clairaut_mass_scaling():
    # in the rescaled parametrization the invariant carries a 1/m relative to p_phi
    sys = kepler(E=-0.25, m=2.0)
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.2]))
    assert clairaut_constant(st, sys, "time_t") == pytest.approx(1.2, abs=1e-15)
    assert clairaut_constant(st, sys, "jacobi_s") == pytest.approx(0.6, abs=1e-15)


# ---------------------------------------------------------------------------
# termination semantics


def test_turning_point_terminates_cleanly():
    sys = kepler()
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate(jacobi_flow(sys), st, 10.0, parameter_kind="jacobi_s")
    assert traj.termination == "turning_point"
    # the radial turning point of this launch is r = 2
    assert traj.final.x[0] == pytest.approx(2.0, abs=1e-6)
    assert np.all(np.isfinite(traj.positions))


def test_hamilton_flow_crosses_turning_radius():
    sys = kepler()
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate(hamilton_flow(sys), st, 3.0)
    assert traj.termination == "completed"
    assert traj.final.p[0] < 0.0  # bounced back inward


def test_domain_violation_terminates_cleanly():
    gfield = MetricField(dim=1, components=lambda x: np.eye(1), guard=lambda x: x[0] < 2.0)
    sys = MechanicalSystem(g=gfield, U=lambda x: 0.0, m=1.0, grad_U=lambda x: np.zeros(1))
    traj = integrate(hamilton_flow(sys), FlowState(0.0, np.zeros(1), np.ones(1)), 5.0)
    assert traj.termination == "domain_violation"
    assert traj.final.x[0] < 2.0


def test_step_failure_carries_partial_trajectory():
    def blowup(t, x, p):
        return np.array([x[0] ** 2]), np.array([0.0])

    with pytest.raises(StepFailure) as info:
        integrate(blowup, FlowState(0.0, np.ones(1), np.zeros(1)), 2.0)
    partial = info.value.trajectory
    assert isinstance(partial, Trajectory)
    assert partial.termination == "step_failure"
    assert len(partial.states) > 10
    assert partial.final.x[0] > 1.0


def test_integrate_rejects_bad_arguments():
    sys = free_particle()
    st = FlowState(0.0, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        integrate(hamilton_flow(sys), st, -1.0)
    with pytest.raises(ValueError):
        integrate(hamilton_flow(sys), st, 1.0, method="rk99")
    with pytest.raises(ValueError):
        integrate(hamilton_flow(sys), st, 1.0, method="verlet")  # no system/step


@pytest.mark.parametrize("kwargs, message", [
    ({"rtol": 1e-14}, "rtol"),  # below scipy's 100 eps floor
    ({"rtol": 0.0}, "rtol"),
    ({"rtol": -1.0}, "rtol"),
    ({"record_grid": 0}, "count"),
    ({"record_grid": -3}, "count"),
    ({"record_grid": [0.5, 0.25]}, "increasing"),
    ({"record_grid": [0.5, 1.5]}, "increasing"),  # past the span
    ({"record_grid": [0.0, 0.5]}, "increasing"),  # the launch is recorded anyway
    ({"record_grid": []}, "increasing"),
], ids=["rtol-small", "rtol-zero", "rtol-negative", "count-zero", "count-negative",
        "grid-unordered", "grid-past-span", "grid-at-launch", "grid-empty"])
def test_integrate_refuses_off_contract_input_before_stepping(kwargs, message):
    calls = []

    def rhs(t, x, p):
        calls.append(t)
        return p, np.zeros_like(p)

    st = FlowState(0.0, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match=message):
        integrate(rhs, st, 1.0, **kwargs)
    assert calls == []


def test_record_grid_array_is_recorded_as_given():
    st = FlowState(0.0, np.zeros(2), np.ones(2))
    grid = [0.25, 0.5, 1.0]
    traj = integrate(hamilton_flow(free_particle()), st, 1.0, record_grid=grid)
    np.testing.assert_array_equal(traj.params, [0.0] + grid)


# ---------------------------------------------------------------------------
# recording, monitors, pacing


def test_monitor_values_recorded_per_state():
    sys = kepler()
    st = perihelion_state()
    traj = integrate(
        hamilton_flow(sys),
        st,
        1.0,
        monitor_fns={"r": lambda t, x, p: x[0]},
    )
    r = traj.monitor("r")
    assert r.shape == traj.params.shape
    np.testing.assert_array_equal(r, traj.positions[:, 0])


def test_pacing_channel_accumulates():
    # pacing rate 2m(E - U) integrated along the time flow gives the rescaled
    # parameter; for the circular orbit it equals elapsed time exactly
    sys = kepler()
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pace = lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x))
    traj = integrate(hamilton_flow(sys), st, 2.0, pacing=pace, pacing_name="s_of_t")
    s = traj.monitor("s_of_t")
    np.testing.assert_allclose(s, traj.params, rtol=0, atol=1e-9)


def test_record_grid_controls_sampling():
    sys = free_particle()
    st = FlowState(0.0, np.zeros(2), np.ones(2))
    traj = integrate(hamilton_flow(sys), st, 1.0, record_grid=64)
    # initial state plus the 64 requested grid points
    assert len(traj.states) == 65
    np.testing.assert_allclose(np.diff(traj.params), 1.0 / 64.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# reparametrization


def test_reparametrize_free_particle_linear():
    sys = free_particle(E=0.5, m=1.0)
    st = FlowState(0.0, np.zeros(2), np.array([1.0, 0.0]))
    tt = integrate(hamilton_flow(sys), st, 3.0)
    ss = reparametrize(tt, "t_to_s", sys)
    assert ss.parameter_kind == "jacobi_s"
    np.testing.assert_array_equal(ss.params, 2.0 * sys.m * sys.E * tt.params)


def test_reparametrize_circular_orbit_identity():
    # circular Kepler at r=1 with E=-0.5: the gap is 1/2, so 2m(E-U) = 1 and s = t
    sys = kepler()
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    tt = integrate(hamilton_flow(sys), st, 4.0)
    ss = reparametrize(tt, "t_to_s", sys)
    np.testing.assert_array_equal(ss.params, tt.params)


def test_reparametrize_roundtrip_is_exact():
    # the inverse uses the same trapezoid factors, so the round trip is exact
    # up to one multiply/divide rounding per interval (well under the 1e-9
    # contract; unit factors round-trip bitwise, see the circular-orbit test)
    sys = kepler()
    tt = integrate(hamilton_flow(sys), perihelion_state(), T_ORBIT)
    back = reparametrize(reparametrize(tt, "t_to_s", sys), "s_to_t", sys)
    np.testing.assert_allclose(back.params, tt.params, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(back.positions, tt.positions)


def test_reparametrize_refuses_turning_gap():
    sys = kepler()
    states = [
        FlowState(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        FlowState(0.1, np.array([2.0, 0.0]), np.array([0.0, 0.0])),  # gap = 0 here
    ]
    traj = Trajectory(states, "time_t", "completed")
    with pytest.raises(TurningPoint):
        reparametrize(traj, "t_to_s", sys)


def test_reparametrize_direction_validation():
    sys = kepler()
    tt = integrate(hamilton_flow(sys), perihelion_state(), 1.0)
    with pytest.raises(ValueError):
        reparametrize(tt, "sideways", sys)


# ---------------------------------------------------------------------------
# path comparison


def test_compare_paths_identical_zero():
    sys = kepler()
    traj = integrate(hamilton_flow(sys), perihelion_state(), T_ORBIT)
    assert compare_paths(traj, traj) == 0.0


def test_compare_paths_detects_perturbed_energy():
    # nudging the launch momentum (energy -0.5 -> -0.49) produces a different
    # ellipse; the deviation must be visible, not at interpolation noise level
    sys_a = kepler()
    sys_b = kepler(E=-0.49)
    st_a = perihelion_state()
    st_b = FlowState(0.0, np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.755)]))
    ta = integrate(hamilton_flow(sys_a), st_a, T_ORBIT, record_grid=2000)
    tb = integrate(hamilton_flow(sys_b), st_b, T_ORBIT, record_grid=2000)
    assert compare_paths(ta, tb) > 1e-3


def test_compare_paths_validation():
    sys = kepler()
    traj = integrate(hamilton_flow(sys), perihelion_state(), 1.0)
    single = Trajectory([traj.states[0]], "time_t", "completed")
    with pytest.raises(EmptyTrajectory):
        compare_paths(single, traj)
    other = integrate(
        hamilton_flow(free_particle(dim=3)), FlowState(0.0, np.zeros(3), np.ones(3)), 1.0
    )
    with pytest.raises(ValueError):
        compare_paths(traj, other)


# ---------------------------------------------------------------------------
# symplectic path


def test_verlet_energy_band_no_secular_growth():
    # fixed-step leapfrog on the Cartesian Kepler problem: the energy error
    # oscillates in a bounded band; a hundredfold longer run must not widen it
    kep = MechanicalSystem(
        g=flat_metric(2),
        U=lambda x: -1.0 / np.hypot(x[0], x[1]),
        m=1.0,
        E=-0.5,
        grad_U=lambda x: np.array([x[0], x[1]]) / np.hypot(x[0], x[1]) ** 3,
        name="kepler-cartesian",
    )
    st = FlowState(0.0, np.array([0.5, 0.0]), np.array([0.0, np.sqrt(3.0)]))
    step = T_ORBIT / 500
    short = integrate(
        hamilton_flow(kep), st, 10 * T_ORBIT, method="verlet", step=step
    )
    long = integrate(
        hamilton_flow(kep),
        st,
        1000 * T_ORBIT,
        method="verlet",
        step=step,
        record_every=100,
    )
    lo_s, hi_s = short.monitor_ranges["energy"]
    lo_l, hi_l = long.monitor_ranges["energy"]
    width_short = hi_s - lo_s
    width_long = hi_l - lo_l
    assert width_short < 1e-3
    assert width_long / width_short < 1.5


def test_verlet_refuses_curvilinear_kinetic_metric():
    # polar Kepler has d g_phiphi / dr = 2r != 0 at the launch point; the
    # constant-metric update used to return r < 0 here with 'completed'
    kep = kepler()
    with pytest.raises(ValueError, match="constant kinetic metric"):
        integrate(
            hamilton_flow(kep), perihelion_state(), 1.0, method="verlet",
            step=1e-3,
        )
    rk = integrate(hamilton_flow(kep), perihelion_state(), 1.0)
    assert 0.9 < rk.final.x[0] < 1.0


def oscillator():
    return MechanicalSystem(g=flat_metric(2), U=lambda x: 0.5 * float(x @ x), m=1.0,
                            E=1.0, grad_U=lambda x: x, name="oscillator")


def test_verlet_integrates_the_system_of_its_hamilton_flow():
    # the circular orbit of U = |x|^2 / 2 through (1, 0) is (cos t, sin t)
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    traj = integrate(hamilton_flow(oscillator()), st, 1.0, method="verlet", step=1e-3)
    np.testing.assert_allclose(traj.final.x, [np.cos(1.0), np.sin(1.0)], rtol=0, atol=1e-6)


@pytest.mark.parametrize("make_rhs", [
    jacobi_flow,
    lambda sys: lifted_rhs(lift_static(sys.g, lambda x: 1.0, m=sys.m)),
    lambda sys: lambda s, x, p: (p, -x),
], ids=["jacobi_flow", "lifted_rhs", "bare-function"])
def test_verlet_refuses_an_rhs_that_is_not_a_hamilton_flow(make_rhs):
    recorded = []
    st = FlowState(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="hamilton_flow"):
        integrate(make_rhs(oscillator()), st, 1.0, method="verlet", step=1e-3,
                  monitor_fns={"seen": lambda *args: recorded.append(args) or 0.0})
    assert recorded == []


@settings(max_examples=10, deadline=None)
@given(E=st.floats(-0.8, -0.2), e=st.floats(0.1, 0.7), share=st.floats(0.1, 0.9))
def test_kepler_time_flow_is_reversible(E, e, share):
    # forward for T, flip the momenta, forward for T again: back at the
    # launch with flipped momenta (E, e ranges of the benchmark's orbits;
    # the largest miss on a 5 x 5 x 3 grid over this box is 4.9e-8)
    a = 1.0 / (2.0 * abs(E))
    start = FlowState(0.0, np.array([a * (1.0 - e), 0.0]),
                      np.array([0.0, np.sqrt(a * (1.0 - e * e))]))
    T = share * 2.0 * np.pi * a ** 1.5
    there = integrate(hamilton_flow(kepler(E=E)), start, T).final
    back = integrate(hamilton_flow(kepler(E=E)), FlowState(0.0, there.x, -there.p), T).final
    np.testing.assert_allclose(back.x, start.x, rtol=0, atol=5e-7)
    np.testing.assert_allclose(back.p, -start.p, rtol=0, atol=5e-7)


def test_max_relative_drift_helper():
    assert max_relative_drift(np.array([2.0, 2.0, 2.0])) == 0.0
    assert max_relative_drift(np.array([2.0, 2.2])) == pytest.approx(0.1, abs=1e-15)
