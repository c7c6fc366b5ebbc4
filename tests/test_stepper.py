"""The owned Dormand-Prince 8(5,3) stepper against scipy's DOP853, its dense
output over arrays of parameters and the record grid built on it, and the
import path it keeps free of scipy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jacobiflow
from jacobiflow import flow
from jacobiflow.cli import main

scipy_integrate = pytest.importorskip("scipy.integrate")

# bertrand_kepler at k = m = 1, launched at r = 3 on the equator with
# p_r = 0.1 and the circular p_phi = sqrt(3)
BERTRAND_E = 0.5 * 0.1 ** 2 + 3.0 / 18.0 - 1.0 / 3.0
OWN_STEPPER = flow.DOP853


def spy_on_steppers(monkeypatch):
    """The list that collects (fun, t0, y0, t_bound, tolerances) of every
    stepper constructed from now on."""
    seen = []

    class Spy(OWN_STEPPER):
        def __init__(self, fun, t0, y0, t_bound, **tol):
            seen.append((fun, t0, np.array(y0), t_bound, tol))
            super().__init__(fun, t0, y0, t_bound, **tol)

    monkeypatch.setattr(flow, "RK45", Spy)
    return seen


def stepper_inputs(monkeypatch, argv, out):
    """(fun, t0, y0, t_bound, tolerances) of every stepper the CLI run argv
    constructs; the run itself must complete."""
    seen = spy_on_steppers(monkeypatch)
    assert main([*argv, "--out", str(out)]) == 0
    return seen


RUNS = pytest.mark.parametrize("argv, runs", [
    (["orbit", "--system", "kepler", "--E", "-0.5"], 1),
    (["lift", "--kind", "timedep", "--amp", "0.3", "--span", "3", "--record", "1000"], 2),
    (["orbit", "--system", "bertrand_kepler", "--k", "1", "--m", "1", "--flow", "jacobi",
      "--E", repr(BERTRAND_E), "--initial", "3,1.5707963267948966,0,0.1,0,1.7320508075688772",
      "--span", "8"], 1),
], ids=["kepler-orbit", "timedep-lift", "catalog-jacobi-orbit"])


@RUNS
def test_stepper_matches_scipy_bit_for_bit(tmp_path, monkeypatch, capsys, argv, runs):
    inputs = stepper_inputs(monkeypatch, argv, tmp_path)
    assert len(inputs) == runs
    for fun, t0, y0, t_bound, tol in inputs:
        ours = OWN_STEPPER(fun, t0, y0, t_bound, **tol)
        ref = scipy_integrate.DOP853(fun, t0, y0, t_bound, **tol)
        assert ours.h_abs == ref.h_abs and ours.nfev == ref.nfev
        steps = 0
        while ref.status == "running":
            ours.step()
            ref.step()
            steps += 1
            assert ours.status == ref.status and ours.nfev == ref.nfev
            assert ours.t == ref.t and np.array_equal(ours.y, ref.y)
            assert ours.h_abs == ref.h_abs
            sol, ref_sol = ours.dense_output(), ref.dense_output()
            for frac in (0.125, 0.5, 0.875):
                t = ref.t_old + frac * (ref.t - ref.t_old)
                assert np.array_equal(sol(t), ref_sol(t))
        assert ref.status == "finished" and steps > 10


@RUNS
def test_dense_output_of_an_array_is_the_scalar_calls_stacked(tmp_path, monkeypatch, argv, runs):
    for fun, t0, y0, t_bound, tol in stepper_inputs(monkeypatch, argv, tmp_path):
        ours = OWN_STEPPER(fun, t0, y0, t_bound, **tol)
        ref = scipy_integrate.DOP853(fun, t0, y0, t_bound, **tol)
        steps = 0
        while ours.status == "running":
            ours.step()
            ref.step()
            steps += 1
            # one to seven points inside the step, its two ends included
            fracs = np.linspace(0.0, 1.0, 1 + steps % 7)
            ts = ours.t_old + fracs * (ours.t - ours.t_old)
            sol, ref_sol = ours.dense_output(), ref.dense_output()
            states = sol(ts)
            assert states.shape == (ts.size, y0.size)
            assert np.array_equal(states, np.stack([sol(t) for t in ts]))
            for t, state in zip(ts, states):
                assert np.array_equal(state, ref_sol(t))
        assert steps > 10


def per_state_rows(stepper, grid):
    """The rows integrate records, built one state at a time: the launch, then
    each accepted step's state, or with a grid each grid point a step reached
    through its own interpolant call, up to a step the rhs refused as a
    turning point; and how many grid points each step reached."""
    rows, per_step, i = [[0.0, *stepper.y]], [], 0
    while stepper.status == "running":
        try:
            stepper.step()
        except jacobiflow.TurningPoint:
            break
        if grid is None:
            rows.append([stepper.t, *stepper.y])
            continue
        sol, first = stepper.dense_output(), i
        while i < grid.size and grid[i] <= stepper.t:
            rows.append([grid[i], *sol(grid[i])])
            i += 1
        per_step.append(i - first)
    return np.array(rows), per_step


KEPLER = jacobiflow.MechanicalSystem(
    g=jacobiflow.polar_metric(), U=lambda x: -1.0 / x[0], m=1.0, E=-0.5,
    grad_U=lambda x: np.array([1.0 / x[0] ** 2, 0.0]))
# the e = 0.5 ellipse from perihelion: short steps near perihelion hold no
# grid point, long ones near aphelion several
ELLIPSE = flow.FlowState(np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75)]))
# the radial launch whose rescaled flow reaches its turning radius r = 2 at
# s = 0.5708, in the middle of a grid over s in (0, 1]
RADIAL = flow.FlowState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


# (flow, launch, span, record_grid, termination): the ellipse over one period
# on a grid, the radial launch ending mid-grid, the ellipse over four periods
# at accepted steps
RECORD_RUNS = [
    (flow.hamilton_flow, ELLIPSE, 2.0 * np.pi, 200, "completed"),
    (flow.jacobi_flow, RADIAL, 1.0, 200, "turning_point"),
    (flow.hamilton_flow, ELLIPSE, 8.0 * np.pi, None, "completed"),
]


def test_record_grid_rows_equal_a_per_point_loop(monkeypatch):
    seen = spy_on_steppers(monkeypatch)
    for flow_of, launch, span, count, termination in RECORD_RUNS:
        traj = flow.integrate(flow_of(KEPLER), launch, span, record_grid=count)

        (fun, t0, y0, t_bound, tol), = seen
        seen.clear()
        stepper = OWN_STEPPER(fun, t0, y0, t_bound, **tol)
        grid = None if count is None else np.linspace(0.0, span, count + 1)[1:]
        rows, per_step = per_state_rows(stepper, grid)
        assert traj.termination == termination
        assert np.array_equal(np.column_stack([traj.params, traj.x, traj.p]), rows)
        if termination == "completed":
            assert stepper.t == span and traj.params[-1] == span
        if count is None:
            assert len(rows) > 100
        elif termination == "completed":
            assert 0 in per_step and max(per_step) > 1
            assert np.array_equal(traj.params, np.concatenate([[0.0], grid]))
        else:
            assert 0.5 < traj.params[-1] < 0.6 and len(rows) == 115


def test_an_interpolant_stage_the_rhs_refuses_ends_the_run(monkeypatch):
    # the interpolant evaluates three more stages, which the rhs may refuse
    # as it may refuse a step's: the run ends in that step, with the grid
    # points of the steps before it
    refusing, starts = [], []
    time_flow = flow.hamilton_flow(KEPLER)

    def rhs(s, x, p):
        if refusing:
            raise jacobiflow.DomainViolation("refused")
        return time_flow(s, x, p)

    class RefusesTheThirdInterpolant(OWN_STEPPER):
        def dense_output(self):
            starts.append(self.t_old)
            if len(starts) == 3:
                refusing.append(True)
            return super().dense_output()

    full = flow.integrate(time_flow, ELLIPSE, 2.0 * np.pi, record_grid=200)
    monkeypatch.setattr(flow, "RK45", RefusesTheThirdInterpolant)
    traj = flow.integrate(rhs, ELLIPSE, 2.0 * np.pi, record_grid=200)
    assert traj.termination == "domain_violation"
    assert traj.reason == f"refused, in the step from s = {float(starts[-1])!r}"
    rows = len(traj.params)
    assert 1 < rows < len(full.params) and traj.params[-1] <= starts[-1] < full.params[rows]
    assert np.array_equal(traj.x, full.x[:rows]) and np.array_equal(traj.p, full.p[:rows])


def test_importing_the_cli_loads_no_scipy():
    src = Path(jacobiflow.__file__).resolve().parent.parent
    probe = ("import sys, jacobiflow.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
