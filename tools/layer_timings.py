"""Per-layer cost of the flow's hot path, in microseconds per call.

    python3 tools/layer_timings.py

Prints one JSON line: for each layer, the best of 7 timeit repeats divided
by the calls per repeat, to four significant digits.  The right-hand sides
are those the CLI builds: Kepler on the polar chart (k = m = 1, E = -0.5)
and Schwarzschild's mechanical view (M = m = 1, E = 0), both with analytic
partials, and the static and time-dependent lifts of the 1-d oscillator of
`lift`.  Recording is per state, in blocks of 8 states and their final
concatenation, and the stepper is per accepted step of DOP853 on the
harmonic oscillator y'' = -y.  The monitors are per row of one call over
1000 recorded states: Kepler's energy and the static lift's flow
Hamiltonian.  metric._state.point is the state check of every entry that
takes (x, p), on Kepler's point, and metric._state.per_row the same check
per row of one call over Kepler's 1000 rows.  The curvature is per point of
the CLI's scan (Kepler profile, k = 1, E = -0.5, at r = 1.2), and CSV
writing is per row of one write_csv call of 1000 rows of 7 values into
os.devnull, so that no file system's state enters the figure.
metric.partials.fallback is one complex-step _partials call on Kerr's
spatial chart (M = 1, a = 0.6) without its analytic partials, at r = 10,
theta = 1.  transforms.factor_at.classical is the Jacobi factor of that
Kepler system at r = 1.3, and transforms.factor_at.relativistic the
stationary factor of Schwarzschild's spacetime (M = m = 1) at E_rel = 1.1,
at r = 10 on the equator.  transforms.factor_at.per_row.classical and
.relativistic are the same two factors per row of one call over 30 000
radii (r from 0.5 to 1.9 and from 3 to 30, on the equator), the call the
CLI's transform scan makes per grid.  curvature.scan.per_row is per row of
the CLI's curvature scan over 30 000 radii of that Kepler profile (r from
0.5 to 1.9), without writing the CSV.  One entry is a count, not a time:
kepler.nfev_per_step, the right-hand-side evaluations per accepted step of
Kepler's time flow over one period of the e = 0.5 ellipse on a 1000-point
record grid, read from the run's Trajectory.stats.
Compare times only when taken on the same machine in one session.
"""

import dataclasses
import json
import os
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jacobiflow import FlowState, flow, lift  # noqa: E402
from jacobiflow.catalog import (  # noqa: E402
    catalog_entry, mechanical_system_from_entry, spacetime_from_entry)
from jacobiflow.cli import _curvature_scan, radial_points, write_csv  # noqa: E402
from jacobiflow.curvature import gaussian_curvature_numeric, kepler_profile  # noqa: E402
from jacobiflow.metric import (  # noqa: E402
    _inverse, _partials, _state, flat_metric, invert_metric, polar_metric)
from jacobiflow.transforms import (  # noqa: E402
    MechanicalSystem, energy_from_state, jacobi_nonrelativistic, jacobi_relativistic_stationary)

REPEATS = 7
BLOCK = 8
ROWS = 1000
RADII = 30000


def layer_timings(number=2000):
    """{layer: µs per call}, each the best of REPEATS runs of number calls,
    and Kepler's rhs evaluations per accepted step."""
    kepler = MechanicalSystem(g=polar_metric(), U=lambda x: -1.0 / x[0], m=1.0, E=-0.5,
                              grad_U=lambda x: np.array([1.0 / x[0] ** 2, 0.0]))
    schwarzschild = mechanical_system_from_entry(catalog_entry("schwarzschild", M=1.0, m=1.0),
                                                 E=0.0)
    static_lift = lift.lift_static(MechanicalSystem(
        g=flat_metric(1), U=lambda x: 0.5 * (x * x).sum(axis=0), m=1.0, grad_U=lambda x: x))
    static = lift.lifted_rhs(static_lift)
    timedep = lift.lifted_rhs(lift.lift_time_dependent(MechanicalSystem(
        g=flat_metric(1), U=lambda x, t: 0.5 * (1.0 + 0.3 * np.sin(t)) * (x * x).sum(axis=0),
        m=1.0, time_dependent=True, grad_U=lambda x, t: (1.0 + 0.3 * np.sin(t)) * x)))
    xk, pk = np.array([1.2, 0.4]), np.array([0.3, 0.9])
    xs, ps = np.array([10.0, np.pi / 2, 0.0]), np.array([0.1, 0.0, 3.5])
    kerr_chart = dataclasses.replace(catalog_entry("kerr", M=1.0, a=0.6, m=1.0).spatial,
                                     partials=None)
    xr = np.array([10.0, 1.0, 0.0])
    classical = jacobi_nonrelativistic(kepler)
    relativistic = jacobi_relativistic_stationary(
        spacetime_from_entry(catalog_entry("schwarzschild", M=1.0, m=1.0)), 1.1)
    xf = np.array([1.3, 0.0])
    xl, pl = np.array([0.5, 0.0]), np.array([0.2, 1.0])
    xt, pt = np.array([0.5, 0.7, 0.0]), np.array([-0.2, 1.1, 1.0])
    rng = np.random.default_rng(0)
    XK = np.column_stack([rng.uniform(0.5, 1.5, ROWS), rng.uniform(0.0, 6.0, ROWS)])
    XL = np.column_stack([rng.uniform(-1.0, 1.0, ROWS), np.zeros(ROWS)])
    PK, PL = rng.normal(size=(ROWS, 2)), rng.normal(size=(ROWS, 2))
    table = rng.normal(size=(ROWS, 7)).tolist()
    bound = kepler_profile(1.0, -0.5)
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    states = np.random.default_rng(0).normal(size=(BLOCK, 5))
    params = np.arange(1.0, BLOCK + 1.0)

    def record():
        rows = []
        for _ in range(number):
            flow._record(rows, params, states)
        np.concatenate(rows)

    stepper = flow.DOP853(lambda t, y: np.array([y[1], -y[0]]), 0.0, np.array([1.0, 0.0]),
                          np.inf, rtol=1e-9, atol=1e-12)
    calls = {
        "kepler.hamilton_rhs": lambda: flow.hamilton_rhs(kepler, xk, pk),
        "kepler.jacobi_rhs": lambda: flow.jacobi_rhs(kepler, xk, pk),
        "schwarzschild.hamilton_rhs": lambda: flow.hamilton_rhs(schwarzschild, xs, ps),
        "schwarzschild.jacobi_rhs": lambda: flow.jacobi_rhs(schwarzschild, xs, ps),
        "static.lifted_rhs": lambda: static(0.0, xl, pl),
        "timedep.lifted_rhs": lambda: timedep(0.0, xt, pt),
        "metric._inverse.polar": lambda: _inverse(kepler.g, xk),
        "metric._state.point": lambda: _state(xk, pk),
        "metric.invert_metric.2x2": lambda: invert_metric(g),
        "metric.partials.fallback": lambda: _partials(kerr_chart, xr),
        "transforms.factor_at.classical": lambda: classical.factor_at(xf),
        "transforms.factor_at.relativistic": lambda: relativistic.factor_at(xs),
        "flow.stepper.per_step": stepper.step,
        "curvature.per_point": lambda: gaussian_curvature_numeric(bound, 1.2),
    }
    us = {name: min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number * 1e6
          for name, fn in calls.items()}
    us["flow.record.per_state"] = (min(timeit.repeat(record, number=1, repeat=REPEATS))
                                   / (number * BLOCK) * 1e6)
    calls = max(1, number // 200)
    per_row = {
        "monitors.energy_from_state.per_row": lambda: energy_from_state(kepler, XK, PK),
        "metric._state.per_row": lambda: _state(XK, PK, rows=True),
        "monitors.lifted_hamiltonian.per_row":
            lambda: lift.lifted_hamiltonian(static_lift, XL, PL),
        "cli.write_csv.per_row": lambda: write_csv(os.devnull, ["c"] * 7, table),
    }
    for name, fn in per_row.items():
        us[name] = min(timeit.repeat(fn, number=calls, repeat=REPEATS)) / (calls * ROWS) * 1e6
    grids = {
        "transforms.factor_at.per_row.classical":
            (classical, radial_points(2, np.linspace(0.5, 1.9, RADII))),
        "transforms.factor_at.per_row.relativistic":
            (relativistic, radial_points(3, np.linspace(3.0, 30.0, RADII))),
    }
    for name, (conf, points) in grids.items():
        us[name] = min(timeit.repeat(lambda: conf.factor_at(points), number=1,
                                     repeat=REPEATS)) / RADII * 1e6
    radii = np.linspace(0.5, 1.9, RADII)
    us["curvature.scan.per_row"] = min(timeit.repeat(
        lambda: _curvature_scan(1.0, -0.5, radii), number=1, repeat=REPEATS)) / RADII * 1e6
    ellipse = FlowState(np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75)]))
    stats = flow.integrate(flow.hamilton_flow(kepler), ellipse, 2.0 * np.pi,
                           record_grid=1000).stats
    us["kepler.nfev_per_step"] = stats["nfev"] / stats["accepted_steps"]
    # four significant digits: a per-row figure can be a nanosecond
    return {name: float(f"{value:.4g}") for name, value in us.items()}


if __name__ == "__main__":
    print(json.dumps(layer_timings()))
