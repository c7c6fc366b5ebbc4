"""Flow integration: canonical equations, rescaled geodesic form, invariants, comparison."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiflow import (
    EmptyTrajectory,
    FlowState,
    MechanicalSystem,
    MetricField,
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
    kerr,
    max_relative_drift,
    mechanical_system_from_entry,
    polar_metric,
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
    return FlowState(np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75)]))


# ---------------------------------------------------------------------------
# right-hand sides


def test_free_particle_straight_line():
    sys = free_particle(m=2.0)
    st = FlowState(np.array([1.0, -1.0]), np.array([0.4, 0.2]))
    traj = integrate(hamilton_flow(sys), st, 3.0)
    for t, x, p in zip(traj.params, traj.x, traj.p):
        np.testing.assert_allclose(x, st.x + st.p / 2.0 * t, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(p, st.p)


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


# the Euclidean plane as a field that is not declared diagonal: the rhs's matrix route
MATRIX_PLANE = MechanicalSystem(
    g=MetricField(dim=2, components=lambda x: np.eye(2), partials=lambda x: np.zeros((2, 2, 2))),
    U=lambda x: 0.0 * x[0], m=1.0, grad_U=lambda x: np.zeros(2))


@pytest.mark.parametrize("p", [[0.5], [0.5, 0.0, 3.0]], ids=["short", "long"])
@pytest.mark.parametrize("rhs", [
    lambda x, p: hamilton_rhs(kepler(), x, p),
    lambda x, p: jacobi_rhs(kepler(), x, p),
    lambda x, p: hamilton_rhs(MATRIX_PLANE, x, p),
], ids=["hamilton-diagonal", "jacobi-diagonal", "hamilton-matrix"])
def test_rhs_refuses_a_momentum_of_another_length(rhs, p):
    # a diagonal chart once zipped the two and truncated to the shorter
    with pytest.raises(ValueError, match=f"momentum has {len(p)} components, the chart point 2"):
        rhs(np.array([1.0, 0.0]), p)


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
    traj = integrate(hamilton_flow(sys), st, T_ORBIT)
    assert abs(traj.x[-1][0] - st.x[0]) < 1e-6
    assert abs(traj.x[-1][1] - st.x[1] - 2.0 * np.pi) < 1e-6
    assert np.max(np.abs(traj.p[-1] - st.p)) < 1e-6


def test_energy_drift_ten_periods():
    # At tight tolerances the drift sits well under 1e-9 over ten periods.
    # At the default rtol=1e-9 the accumulated global error is measurably
    # larger (7.6e-9 on this orbit; local tolerance is not global accuracy),
    # so that level is pinned as a regression band rather than asserted at
    # the tight figure.
    sys = kepler()
    st = perihelion_state()
    tight = integrate(hamilton_flow(sys), st, 10 * T_ORBIT, rtol=1e-11, atol=1e-13)
    assert max_relative_drift(energy_from_state(sys, tight.x, tight.p)) < 1e-9
    default = integrate(hamilton_flow(sys), st, 10 * T_ORBIT)
    assert max_relative_drift(energy_from_state(sys, default.x, default.p)) < 5e-8


def test_unit_momentum_stays_one():
    sys = kepler()
    st = perihelion_state()
    traj = integrate(jacobi_flow(sys), st, 10 * T_ORBIT, rtol=1e-11, atol=1e-13)
    h = unit_momentum_hamiltonian(sys, traj.x, traj.p)
    assert abs(h[0] - 1.0) < 1e-14
    assert np.max(np.abs(h - 1.0)) < 1e-8


def test_clairaut_constant_matches_momentum_and_never_drifts():
    sys = kepler()
    st = perihelion_state()
    R0 = clairaut_constant(sys, st.x, st.p, "time_t")
    assert R0 == st.p[1]

    timed = integrate(hamilton_flow(sys), st, 10 * T_ORBIT)
    Rt = np.array([clairaut_constant(sys, x, p, "time_t") for x, p in zip(timed.x, timed.p)])
    assert np.max(np.abs(Rt - Rt[0])) < 1e-12

    rescaled = integrate(jacobi_flow(sys), st, 10 * T_ORBIT)
    Rs = np.array([clairaut_constant(sys, x, p, "jacobi_s")
                   for x, p in zip(rescaled.x, rescaled.p)])
    assert np.max(np.abs(Rs - Rs[0])) < 1e-12

    # with m=1 both parametrizations report the same invariant value
    assert abs(Rt[0] - Rs[0]) < 1e-10


def test_clairaut_mass_scaling():
    # in the rescaled parametrization the invariant carries a 1/m relative to p_phi
    sys = kepler(E=-0.25, m=2.0)
    st = FlowState(np.array([1.0, 0.0]), np.array([0.0, 1.2]))
    assert clairaut_constant(sys, st.x, st.p, "time_t") == pytest.approx(1.2, abs=1e-15)
    assert clairaut_constant(sys, st.x, st.p, "jacobi_s") == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(ValueError, match="unsupported parameter kind 'proper_tau'"):
        clairaut_constant(sys, st.x, st.p, "proper_tau")


# ---------------------------------------------------------------------------
# termination semantics


def test_turning_point_terminates_cleanly():
    sys = kepler()
    st = FlowState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate(jacobi_flow(sys), st, 10.0)
    assert traj.termination == "turning_point"
    assert traj.reason.startswith("the stepper stalled at E - U = ")
    # the radial turning point of this launch is r = 2
    assert traj.x[-1][0] == pytest.approx(2.0, abs=1e-6)
    assert np.all(np.isfinite(traj.x))


def test_turning_point_is_probed_where_the_stepper_stalled():
    # on a record grid the last recorded row lies well before the stall; the
    # probe must read the stalled state, as it does without a grid
    st = FlowState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate(jacobi_flow(kepler()), st, 10.0, record_grid=1000)
    assert traj.termination == "turning_point"
    assert traj.x[-1][0] < 2.0


def test_hamilton_flow_crosses_turning_radius():
    sys = kepler()
    st = FlowState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate(hamilton_flow(sys), st, 3.0)
    assert traj.termination == "completed"
    assert traj.reason == ""
    assert traj.p[-1][0] < 0.0  # bounced back inward


def test_domain_violation_terminates_cleanly():
    gfield = MetricField(dim=1, components=lambda x: np.eye(1) + 0.0 * x[0],
                         guard=lambda x: x[0] < 2.0)
    sys = MechanicalSystem(g=gfield, U=lambda x: 0.0, m=1.0, grad_U=lambda x: np.zeros(1))
    traj = integrate(hamilton_flow(sys), FlowState(np.zeros(1), np.ones(1)), 5.0)
    assert traj.termination == "domain_violation"
    assert traj.x[-1][0] < 2.0
    # the last recorded state is where the interrupted step began
    assert traj.reason.endswith(f", in the step from s = {float(traj.params[-1])!r}")


def test_turning_point_from_the_rhs_names_the_step_it_interrupted():
    def wall(t, x, p):
        if x[0] > 1.0:
            raise TurningPoint(f"wall reached at {x.tolist()}")
        return np.ones(1), np.zeros(1)

    traj = integrate(wall, FlowState(np.zeros(1), np.zeros(1)), 5.0)
    assert traj.termination == "turning_point"
    assert traj.reason.startswith("wall reached at [")
    assert traj.reason.endswith(f", in the step from s = {float(traj.params[-1])!r}")


def test_step_failure_carries_partial_trajectory():
    def blowup(t, x, p):
        return np.array([x[0] ** 2]), np.array([0.0])

    partial = integrate(blowup, FlowState(np.ones(1), np.zeros(1)), 2.0)
    assert isinstance(partial, Trajectory)
    assert partial.termination == "step_failure"
    assert "underflowed" in partial.reason
    assert len(partial.params) > 10
    # the reason names where the step size collapsed: the end of the accepted
    # step after the last recorded state
    where = re.search(r" at s = (\S+), x = \[(\S+)\]$", partial.reason)
    assert float(where[1]) > partial.params[-1]
    assert float(where[2]) > partial.x[-1][0]
    assert partial.x[-1][0] > 1.0


def test_step_failure_reason_is_the_steppers_own_message():
    # every stage after the launch is NaN, so each trial step is rejected
    # until the step size falls below the stepper's floor
    def nan_after_launch(t, x, p):
        return np.array([np.nan if t > 0 else 1.0]), np.array([0.0])

    partial = integrate(nan_after_launch, FlowState(np.zeros(1), np.zeros(1)), 1.0)
    assert partial.termination == "step_failure"
    assert partial.reason == "the step size fell below 10 ulp of t at s = 0.0, x = [0.0]"
    assert len(partial.params) == 1


def test_stats_count_the_steps_and_rhs_evaluations():
    # the launch costs two evaluations (its derivative and the initial-step
    # probe), every attempted step twelve, and every step that reaches grid
    # points three more for its interpolant; a grid leaves the steps alone
    steps = integrate(hamilton_flow(kepler()), perihelion_state(), T_ORBIT)
    grid = integrate(hamilton_flow(kepler()), perihelion_state(), T_ORBIT, record_grid=200)
    accepted, rejected = steps.stats["accepted_steps"], steps.stats["rejected_steps"]
    assert accepted == len(steps.params) - 1 and rejected > 0
    assert steps.stats["nfev"] == 2 + 12 * (accepted + rejected)
    ends = np.searchsorted(grid.params[1:], steps.params, side="right")
    interpolated = np.count_nonzero(np.diff(ends))
    assert 0 < interpolated <= accepted
    assert grid.stats == {"accepted_steps": accepted, "rejected_steps": rejected,
                          "nfev": steps.stats["nfev"] + 3 * interpolated}

    def nan_after_launch(t, x, p):
        return np.array([np.nan if t > 0 else 1.0]), np.array([0.0])

    failed = integrate(nan_after_launch, FlowState(np.zeros(1), np.zeros(1)), 1.0).stats
    assert failed["accepted_steps"] == 0
    assert failed["nfev"] == 2 + 12 * failed["rejected_steps"]


def test_kepler_launch_with_a_long_momentum_is_refused_before_stepping():
    launch = FlowState(np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75), 3.0]))
    with pytest.raises(ValueError, match="momentum has 3 components, the chart point 2"):
        integrate(hamilton_flow(kepler()), launch, 0.5)


# a stage state of 1e307 + h * 1e307 overflows, which numpy reports as a RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_stage_state_that_leaves_the_floats_ends_the_run_as_a_step_failure():
    partial = integrate(hamilton_flow(free_particle()),
                        FlowState(np.zeros(2), np.array([1e307, 0.0])), 1e300)
    assert partial.termination == "step_failure"
    assert re.fullmatch(r"the stage state at s = \S+ is not finite \(chart coordinates must "
                        r"be finite\), in the step from s = 0\.0", partial.reason)
    assert partial.params.tolist() == [0.0] and partial.p.tolist() == [[1e307, 0.0]]
    # the launch derivative 1e10 / 1e-300 is already infinite, so the state
    # of the stepper's initial-step probe is not finite either
    probe = integrate(hamilton_flow(free_particle(m=1e-300)),
                      FlowState(np.zeros(2), np.array([1e10, 0.0])), 1.0)
    assert probe.termination == "step_failure"
    assert probe.reason.endswith("is not finite (chart coordinates must be finite), "
                                 "in the initial-step probe")
    assert probe.stats == {"accepted_steps": 0, "rejected_steps": 0, "nfev": 2}
    assert probe.params.tolist() == [0.0]


def test_a_value_error_at_a_finite_stage_state_propagates():
    def refuses_later(t, x, p):
        if t > 0.1:
            raise ValueError("refused at a finite state")
        return p, np.zeros_like(p)

    with pytest.raises(ValueError, match="refused at a finite state"):
        integrate(refuses_later, FlowState(np.zeros(1), np.ones(1)), 1.0)


def test_step_failure_partial_trajectory_carries_every_monitor_column():
    def blowup(t, x, p):
        return np.array([x[0] ** 2]), np.array([0.0])

    partial = integrate(blowup, FlowState(np.ones(1), np.zeros(1)), 2.0,
                        pacing=lambda t, x, p: 1.0)
    assert partial.termination == "step_failure"
    assert list(partial.monitors) == ["pacing"]
    assert partial.monitors["pacing"].shape == partial.params.shape
    np.testing.assert_allclose(partial.monitors["pacing"], partial.params, rtol=1e-12)


def test_integrate_rejects_bad_arguments():
    sys = free_particle()
    st = FlowState(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        integrate(hamilton_flow(sys), st, -1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"rtol": 1e-14}, "rtol"),  # below the stepper's 100 eps floor
    ({"rtol": 0.0}, "rtol"),
    ({"rtol": -1.0}, "rtol"),
    ({"atol": -1.0}, "atol"),
    ({"atol": np.nan}, "atol"),
    ({"atol": np.inf}, "atol"),
    ({"initial": FlowState(np.array([0.0, np.nan]), np.ones(2))}, "finite"),
    ({"initial": FlowState(np.zeros(2), np.array([1.0, np.inf]))}, "finite"),
    ({"record_grid": 0}, "count"),
    ({"record_grid": -3}, "count"),
    ({"record_grid": [0.25, 0.5, 1.0]}, "count"),  # a grid is a count, not an array
    ({"record_grid": 2.5}, "count"),
    ({"record_grid": True}, "count"),
    ({"record_grid": np.inf}, "count"),
    ({"span": np.nan}, "span"),  # never reached as a stepper bound
    ({"span": np.inf}, "span"),
    ({"span": 0.0}, "span"),
    # one slot of the stepper's derivative stayed uninitialized: at the
    # Kepler launch below such a run did not end in 10 s
    ({"initial": FlowState(np.zeros(2), np.ones(3))}, "momentum has 3 components, the chart point 2"),
    ({"initial": FlowState(np.zeros(2), np.ones(1))}, "momentum has 1 components, the chart point 2"),
], ids=["rtol-small", "rtol-zero", "rtol-negative", "atol-negative", "atol-nan", "atol-inf",
        "x-nan", "p-inf", "count-zero", "count-negative", "grid-array", "count-fraction",
        "count-bool", "count-inf", "span-nan", "span-inf", "span-zero", "p-long", "p-short"])
def test_integrate_refuses_off_contract_input_before_stepping(kwargs, message):
    calls = []

    def rhs(t, x, p):
        calls.append(t)
        return p, np.zeros_like(p)

    args = {"initial": FlowState(np.zeros(2), np.ones(2)), "span": 1.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        integrate(rhs, **args)
    assert calls == []


# ---------------------------------------------------------------------------
# recording, monitors, pacing


def test_batched_invariants_equal_their_per_state_values():
    # each row of a batched invariant has the bits of its single-state call,
    # on the polar Kepler chart and on Kerr's 3-d catalog chart
    kerr_sys = mechanical_system_from_entry(kerr(M=1.0, a=0.6, m=1.0), E=-0.2475)
    runs = [
        (kepler(), jacobi_flow(kepler()), perihelion_state(), 3.0),
        (kerr_sys, hamilton_flow(kerr_sys),
         FlowState(np.array([6.0, 1.4, 0.0]), np.array([0.0, 0.1, 2.5])), 2.0),
    ]
    for sys, rhs, start, span in runs:
        traj = integrate(rhs, start, span, record_grid=40)
        assert len(traj.params) == 41
        for invariant in (energy_from_state, unit_momentum_hamiltonian):
            rows = invariant(sys, traj.x, traj.p)
            assert rows.shape == traj.params.shape
            each = [invariant(sys, x, p) for x, p in zip(traj.x, traj.p)]
            assert rows.tolist() == each, (sys.name, invariant.__name__)


@pytest.mark.parametrize("params", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                         ids=["repeated", "decreasing"])
def test_trajectory_refuses_parameters_that_do_not_increase(params):
    n = len(params)
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array(params), np.zeros((n, 2)), np.zeros((n, 2)))


def test_pacing_channel_accumulates():
    # pacing rate 2m(E - U) integrated along the time flow gives the rescaled
    # parameter; for the circular orbit it equals elapsed time exactly
    sys = kepler()
    st = FlowState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pace = lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x))
    traj = integrate(hamilton_flow(sys), st, 2.0, pacing=pace)
    s = traj.monitors["pacing"]
    np.testing.assert_allclose(s, traj.params, rtol=0, atol=1e-9)


def test_record_grid_controls_sampling():
    sys = free_particle()
    st = FlowState(np.zeros(2), np.ones(2))
    traj = integrate(hamilton_flow(sys), st, 1.0, record_grid=64)
    # initial state plus the 64 requested grid points
    assert len(traj.params) == 65
    np.testing.assert_allclose(np.diff(traj.params), 1.0 / 64.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# path comparison


def test_compare_paths_identical_zero():
    sys = kepler()
    traj = integrate(hamilton_flow(sys), perihelion_state(), T_ORBIT)
    assert compare_paths(traj, traj) == 0.0
    # a path that never moves resamples to its one point
    still = Trajectory(np.arange(3.0), np.tile([1.0, 0.5], (3, 1)), np.zeros((3, 2)))
    line = Trajectory(np.arange(2.0), np.array([[1.0, 0.5], [4.0, 4.5]]), np.zeros((2, 2)))
    assert compare_paths(still, still) == 0.0
    assert compare_paths(still, line) == 5.0


def test_compare_paths_detects_perturbed_energy():
    # nudging the launch momentum (energy -0.5 -> -0.49) produces a different
    # ellipse; the deviation must be visible, not at interpolation noise level
    sys_a = kepler()
    sys_b = kepler(E=-0.49)
    st_a = perihelion_state()
    st_b = FlowState(np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.755)]))
    ta = integrate(hamilton_flow(sys_a), st_a, T_ORBIT, record_grid=2000)
    tb = integrate(hamilton_flow(sys_b), st_b, T_ORBIT, record_grid=2000)
    assert compare_paths(ta, tb) > 1e-3


def test_compare_paths_validation():
    sys = kepler()
    traj = integrate(hamilton_flow(sys), perihelion_state(), 1.0)
    single = Trajectory(traj.params[:1], traj.x[:1], traj.p[:1], {}, "completed")
    with pytest.raises(EmptyTrajectory):
        compare_paths(single, traj)
    other = integrate(
        hamilton_flow(free_particle(dim=3)), FlowState(np.zeros(3), np.ones(3)), 1.0
    )
    with pytest.raises(ValueError):
        compare_paths(traj, other)


# E, e and the share of a period span the benchmark's Kepler orbits
ORBITS = dict(E=st.floats(-0.8, -0.2), e=st.floats(0.1, 0.7), share=st.floats(0.1, 0.9))


def kepler_launch(E, e, share):
    """Perihelion launch of the eccentricity-e orbit at energy E (k = m = 1),
    and the given share of its period."""
    a = 1.0 / (2.0 * abs(E))
    start = FlowState(np.array([a * (1.0 - e), 0.0]),
                      np.array([0.0, np.sqrt(a * (1.0 - e * e))]))
    return start, share * 2.0 * np.pi * a ** 1.5


@settings(max_examples=10, deadline=None)
@given(**ORBITS)
def test_kepler_time_flow_is_reversible(E, e, share):
    # forward for T, flip the momenta, forward for T again: back at the
    # launch with flipped momenta (the largest miss on a 5 x 5 x 3 grid over
    # this box is 4.9e-8)
    start, T = kepler_launch(E, e, share)
    there = integrate(hamilton_flow(kepler(E=E)), start, T)
    back = integrate(hamilton_flow(kepler(E=E)), FlowState(there.x[-1], -there.p[-1]), T)
    np.testing.assert_allclose(back.x[-1], start.x, rtol=0, atol=5e-7)
    np.testing.assert_allclose(back.p[-1], -start.p, rtol=0, atol=5e-7)


def cartesian_kepler(k=1.0):
    return MechanicalSystem(
        g=flat_metric(2), U=lambda x: -k / np.hypot(x[0], x[1]), m=1.0,
        grad_U=lambda x: k * x / np.hypot(x[0], x[1]) ** 3, name="kepler-cartesian")


@settings(max_examples=10, deadline=None)
@given(**ORBITS)
def test_kepler_path_is_the_same_on_polar_and_cartesian_charts(E, e, share):
    # the polar end state mapped to Cartesian coordinates and momenta lands on
    # the Cartesian run (the largest miss on a 4 x 4 x 3 grid over this box
    # is 7.5e-8)
    start, T = kepler_launch(E, e, share)
    polar = integrate(hamilton_flow(kepler(E=E)), start, T)
    r0, p_phi0 = start.x[0], start.p[1]
    cartesian = integrate(hamilton_flow(cartesian_kepler()),
                          FlowState(start.x, np.array([0.0, p_phi0 / r0])), T)
    (r, phi), (p_r, p_phi) = polar.x[-1], polar.p[-1]
    c, s = np.cos(phi), np.sin(phi)
    np.testing.assert_allclose(cartesian.x[-1], [r * c, r * s], rtol=0, atol=1e-6)
    np.testing.assert_allclose(cartesian.p[-1], [p_r * c - p_phi / r * s, p_r * s + p_phi / r * c],
                               rtol=0, atol=1e-6)


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(0.4, 2.7), **ORBITS)
def test_kepler_scaling_maps_orbits_onto_orbits(lam, E, e, share):
    # r -> lam r, t -> lam^(3/2) t, E -> E / lam take a Kepler orbit to another
    # one, with p_r -> lam^(-1/2) p_r and p_phi -> lam^(1/2) p_phi (the largest
    # miss on a 4 x 4 x 3 grid over this box at lam = 0.4 and 2.7 is 4.4e-11)
    start, T = kepler_launch(E, e, share)
    base = integrate(hamilton_flow(kepler(E=E)), start, T)
    scaled_start = FlowState(np.array([lam * start.x[0], 0.0]),
                             np.array([0.0, np.sqrt(lam) * start.p[1]]))
    scaled = integrate(hamilton_flow(kepler(E=E / lam)), scaled_start, lam ** 1.5 * T)
    (x_r, x_phi), (p_r, p_phi) = scaled.x[-1], scaled.p[-1]
    np.testing.assert_allclose([x_r / lam, x_phi], base.x[-1], rtol=0, atol=1e-8)
    np.testing.assert_allclose([p_r * np.sqrt(lam), p_phi / np.sqrt(lam)],
                               base.p[-1], rtol=0, atol=1e-8)


def test_max_relative_drift_helper():
    assert max_relative_drift(np.array([2.0, 2.0, 2.0])) == 0.0
    assert max_relative_drift(np.array([2.0, 2.2])) == pytest.approx(0.1, abs=1e-15)
    # a series that starts at 0 has no scale: its drift is the absolute excursion
    assert max_relative_drift(np.array([0.0, 1e-12, -3e-12])) == 3e-12
