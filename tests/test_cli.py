"""Command-line front end: scenarios, outputs, exit codes, determinism."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from jacobiflow import (DomainViolation, Trajectory, TurningPoint, cli,
                        gaussian_curvature_numeric, integrate, kepler_profile)
from jacobiflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(err):
    """The refusal on stderr without the accepted keys or choices it lists
    after '(one of:', so a match names the entry that was refused."""
    return err.split("(one of:")[0]


def test_catalog_lists_all_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("schwarzschild", "taub_nut", "bertrand_kepler", "bertrand_hooke", "kerr"):
        assert name in out
    assert "requires" in out


def test_catalog_single_entry(capsys):
    code, out, _ = run(capsys, "catalog", "--system", "kerr")
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    assert "M, a, m" in out


def test_orbit_writes_trajectory_and_summary(tmp_path, capsys):
    code, out, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5",
        "--record", "64", "--out", str(tmp_path),
    )
    assert code == 0
    csv_path = tmp_path / "orbit.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "param,x1,x2,p1,p2,energy"
    assert len(lines) == 66  # header + initial + 64 grid points
    # floats are written round-trip exact
    first = [float(v) for v in lines[1].split(",")]
    assert first[:5] == [0.0, 0.5, 0.0, 0.0, np.sqrt(0.75)]
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "completed"
    assert summary["drifts"]["energy"] < 1e-7
    assert summary["drifts"]["angular_momentum"] == 0.0
    assert summary["stats"]["nfev"] > 12 * summary["stats"]["accepted_steps"] > 0
    assert summary["tool"] == "jacobi-flow"
    assert "numpy" in summary and "version" in summary and "scipy" not in summary


def test_orbit_rerun_is_byte_identical(tmp_path, capsys):
    args = ("orbit", "--system", "kepler", "--E", "-0.5", "--record", "32")
    run(capsys, *args, "--out", str(tmp_path / "a"))
    run(capsys, *args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/orbit.csv").read_bytes() == (tmp_path / "b/orbit.csv").read_bytes()
    assert (
        (tmp_path / "a/orbit_summary.json").read_bytes()
        == (tmp_path / "b/orbit_summary.json").read_bytes()
    )


def test_orbit_jacobi_flow_reports_unit_momentum(tmp_path, capsys):
    code, _, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5", "--flow", "jacobi",
        "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["drifts"]["unit_momentum"] < 1e-7
    header = (tmp_path / "orbit.csv").read_text().splitlines()[0]
    assert header == "param,x1,x2,p1,p2,energy,unit_momentum"


@pytest.mark.parametrize("system", [
    ["kepler", "--E", "-0.2"],
    ["oscillator", "--E", "2", "--lam", "0.5"],
], ids=["kepler", "oscillator"])
def test_orbit_jacobi_flow_default_span_is_one_period(tmp_path, capsys, system):
    # s advances at 2m(E - U), not at unit rate, so one turn needs the period
    # scaled by that pacing's mean over the orbit
    code, _, _ = run(capsys, "orbit", "--system", *system, "--flow", "jacobi",
                     "--out", str(tmp_path))
    assert code == 0
    phi = float((tmp_path / "orbit.csv").read_text().splitlines()[-1].split(",")[2])
    assert abs(phi - 2.0 * np.pi) < 1e-6


@pytest.mark.parametrize("record", [[], ["--record", "1000"]], ids=["steps", "record-grid"])
def test_orbit_turning_point_exits_three(tmp_path, capsys, record):
    code, _, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5", "--flow", "jacobi",
        "--initial", "1,0,1,0", "--span", "10", "--out", str(tmp_path), *record,
    )
    assert code == 3
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "turning_point"
    assert summary["reason"].startswith("the stepper stalled at E - U = ")
    # and where the step size collapsed
    assert re.search(r" at s = \S+, x = \[\S+, \S+\]$", summary["reason"])


def test_orbit_chart_degeneration_exits_three(tmp_path, capsys):
    # a radial plunge reaches the coordinate singularity: clean exit, partial file
    code, _, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5",
        "--initial", "0.02,0,0,0", "--span", "5", "--out", str(tmp_path),
    )
    assert code == 3
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "domain_violation"
    assert summary["states"] > 1
    # the polar metric's conditioning guard trips before r reaches 0, and
    # says where
    assert summary["reason"].startswith("matrix is too ill-conditioned to invert")
    assert re.search(r" at \[\S+, \S+\] on metric 'polar', in the step from s = \S+$",
                     summary["reason"])


def test_kerr_plunge_ends_at_the_horizon(tmp_path, capsys):
    # a plunge reaches Delta = 0 at r+ = M + sqrt(M^2 - a^2) = 1.8, where
    # the conditioning guard refuses the diagonal g_rr = rho^2 / Delta and
    # the energy has held to the end
    code, _, _ = run(
        capsys, "orbit", "--system", "kerr", "--M", "1", "--a", "0.6", "--m", "1",
        "--E", "-0.2475", "--initial", "6,1.5707963267948966,0,0,0.1,2.5", "--span", "30",
        "--out", str(tmp_path),
    )
    assert code == 3
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "domain_violation"
    assert summary["reason"].startswith("matrix is too ill-conditioned to invert")
    assert "on metric 'kerr_spatial'" in summary["reason"]
    last = np.loadtxt(tmp_path / "orbit.csv", delimiter=",", skiprows=1)[-1]
    assert abs(last[1] - 1.8) < 1e-6
    assert summary["drifts"]["energy"] < 1e-3


def test_step_failure_exits_four(tmp_path, capsys, monkeypatch):
    def failing_integrate(*args, **kwargs):
        return Trajectory(np.array([0.0]), np.array([[0.5, 0.0]]), np.array([[0.0, 1.0]]),
                          {"energy": np.array([-0.5])}, "step_failure", "stalled")

    monkeypatch.setattr("jacobiflow.cli.integrate", failing_integrate)
    code, _, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5", "--out", str(tmp_path)
    )
    assert code == 4
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "step_failure"
    assert "stalled" in summary["reason"]


def test_compare_prints_small_deviation(tmp_path, capsys):
    code, out, _ = run(
        capsys, "compare", "--system", "kepler", "--E", "-0.5", "--out", str(tmp_path)
    )
    assert code == 0
    assert "max path deviation" in out
    deviation = float(out.strip().rsplit(" ", 1)[1])
    assert deviation < 1e-6
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    assert summary["deviation"] == deviation
    # each flow's steps and right-hand-side evaluations
    assert sorted(summary["stats"]) == ["rescaled", "time"]
    for stats in summary["stats"].values():
        assert sorted(stats) == ["accepted_steps", "nfev", "rejected_steps"]
        assert stats["nfev"] > 12 * stats["accepted_steps"] > 0


def test_compare_reports_how_its_flows_ended(tmp_path, capsys):
    # a radial launch: the time flow reaches the chart's r = 0 edge, the
    # rescaled flow its turning radius
    code, _, _ = run(
        capsys, "compare", "--system", "kepler", "--E", "-0.5", "--initial", "1,0,1,0",
        "--span", "10", "--out", str(tmp_path),
    )
    assert code == 3
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    assert summary["termination"] == "domain_violation"
    # paths of different extent give no deviation; each flow says how it ended
    assert summary["flows"] == {"time": "domain_violation", "rescaled": "turning_point"}
    assert summary["deviation"] is None
    # the reason is the time flow's: the polar metric's conditioning guard near r = 0
    assert summary["reason"].startswith("matrix is too ill-conditioned to invert")
    assert re.search(r" at \[\S+, \S+\] on metric 'polar', in the step from s = \S+$",
                     summary["reason"])
    assert (tmp_path / "compare.csv").read_text().splitlines()[1].startswith("nan,10,")


def test_lift_reports_how_its_direct_run_ended(tmp_path, capsys, monkeypatch):
    # cli.integrate runs only the direct flow; the lifted flow goes through lift.py
    def direct_ends_early(*args, **kwargs):
        return dataclasses.replace(integrate(*args, **kwargs), termination="domain_violation")

    monkeypatch.setattr(cli, "integrate", direct_ends_early)
    code, _, _ = run(capsys, "lift", "--span", "2", "--record", "1000", "--out", str(tmp_path))
    assert code == 3
    summary = json.loads((tmp_path / "lift_summary.json").read_text())
    assert summary["termination"] == "domain_violation"
    assert summary["flows"] == {"lifted": "completed", "direct": "domain_violation"}
    assert summary["projection_deviation"] is None


def test_curvature_scan_columns_and_values(tmp_path, capsys):
    code, _, _ = run(
        capsys, "curvature", "--k", "1", "--E", "-0.5",
        "--r-min", "0.5", "--r-max", "5", "--samples", "100", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "curvature.csv").read_text().splitlines()
    assert lines[0] == "r,K_numeric,K_closed,rel_err"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # E=-0.5 keeps only the part of the grid left of the r=2 boundary
    assert len(rows) == 33
    for r, kn, kc, err in rows:
        assert err < 1e-6
        assert abs(kc - (0.5 / (2.0 * (1.0 - 0.5 * r) ** 3))) < 1e-12
    summary = json.loads((tmp_path / "curvature_summary.json").read_text())
    assert summary["classification"] == "ellipse"
    assert summary["skipped_out_of_domain"] == 67


def count_stencils(monkeypatch):
    """The radii of every gaussian_curvature_numeric call the CLI makes."""
    radii = []

    def counted(profile, r, _stencil=cli.gaussian_curvature_numeric):
        radii.append(r)
        return _stencil(profile, r)

    monkeypatch.setattr(cli, "gaussian_curvature_numeric", counted)
    return radii


@pytest.mark.parametrize("E, grid, rows, skipped", [
    (-0.5, (0.5, 3.0, 500), 299, 201),
    (0.0, (0.001, 3.0, 100), 99, 1),
], ids=["ellipse", "parabola"])
def test_curvature_scan_rows_equal_their_per_point_rows(tmp_path, capsys, monkeypatch, E, grid,
                                                        rows, skipped):
    # one stencil per radius in one pass, and each row, the largest error and
    # the skip count as the per-point scan wrote them
    called = count_stencils(monkeypatch)
    lo, hi, samples = grid
    code, _, _ = run(capsys, "curvature", "--E", str(E), "--r-min", str(lo), "--r-max", str(hi),
                     "--samples", str(samples), "--out", str(tmp_path))
    assert code == 0
    radii = np.linspace(lo, hi, samples).tolist()
    assert called == radii
    profile, expected = kepler_profile(1.0, E), []
    for r in radii:
        try:
            kn = gaussian_curvature_numeric(profile, r)
        except TurningPoint:
            continue
        kc = -1.0 * E / (2.0 * (r * E + 1.0) ** 3)
        expected.append([r, kn, kc, abs(kn - kc) / max(1.0, abs(kc))])
    lines = (tmp_path / "curvature.csv").read_text().splitlines()
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == expected
    assert len(expected) == rows
    summary = json.loads((tmp_path / "curvature_summary.json").read_text())
    assert summary["rows"] == rows and summary["skipped_out_of_domain"] == skipped
    assert summary["max_rel_err"] == max(row[3] for row in expected)


def test_curvature_with_no_radius_on_the_chart_exits_two(tmp_path, capsys, monkeypatch):
    called = count_stencils(monkeypatch)
    code, _, err = run(capsys, "curvature", "--E", "-0.5", "--r-min", "2.5", "--r-max", "3",
                       "--samples", "20", "--out", str(tmp_path))
    assert code == 2
    assert "no radius from 2.5 to 3 lies inside the chart" in err
    assert len(called) == 20
    assert list(tmp_path.iterdir()) == []


def test_transform_grid_values(tmp_path, capsys):
    code, _, _ = run(
        capsys, "transform", "--system", "kepler", "--E", "-0.5",
        "--grid-min", "0.5", "--grid-max", "1.9", "--samples", "15",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "transform.csv").read_text().splitlines()
    assert lines[0] == "r,factor"
    r0, f0 = (float(v) for v in lines[1].split(","))
    assert r0 == 0.5
    assert f0 == pytest.approx(2.0 * (-0.5 + 2.0), rel=1e-15)


def test_transform_skips_radii_the_chart_guard_refuses(tmp_path, capsys):
    # the classical factor 2m(E + mM/r) is positive at r <= 2M too, where the
    # chart ends; those rows were once written and counted as on the chart
    code, _, _ = run(
        capsys, "transform", "--system", "schwarzschild", "--M", "1", "--m", "1", "--E", "-0.1",
        "--grid-min", "0.5", "--grid-max", "3", "--samples", "6", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "transform.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [2.5, 3.0]
    summary = json.loads((tmp_path / "transform_summary.json").read_text())
    assert summary["rows"] == 2 and summary["skipped_out_of_domain"] == 4


@pytest.mark.parametrize("argv, grid, rows, skipped", [
    (["--system", "kerr", "--M", "1", "--a", "0.9", "--m", "1", "--E-rel", "1.1"],
     (1.5, 3.0, 16), 10, 6),
    (["--system", "kepler", "--c", "3", "--E-rel", "1.0"], (0.05, 1.0, 8), 6, 2),
], ids=["kerr-ergoregion", "weak-field-kepler"])
def test_transform_replays_a_refused_grid_point_by_point(tmp_path, capsys, monkeypatch, argv,
                                                         grid, rows, skipped):
    # V^2 <= 0 at some radii on the chart: the one factor call over the grid
    # is refused, and the per-point scan writes every other radius, as the
    # scan wrote them before the factor took rows
    built = []

    def record(*args, _build=cli.jacobi_relativistic_stationary):
        built.append(_build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "jacobi_relativistic_stationary", record)
    lo, hi, samples = grid
    code, _, _ = run(capsys, "transform", "--form", "relativistic", *argv, "--grid-min", str(lo),
                     "--grid-max", str(hi), "--samples", str(samples), "--out", str(tmp_path))
    assert code == 0
    conf, expected = built[0], ["r,factor"]
    radii = np.linspace(lo, hi, samples)
    for r, x in zip(radii, cli.radial_points(conf.base.dim, radii)):
        try:
            if conf.base.valid(x):
                expected.append("%.17g,%.17g" % (r, conf.factor_at(x)))
        except DomainViolation:
            pass
    assert (tmp_path / "transform.csv").read_text().splitlines() == expected
    assert len(expected) == 1 + rows
    summary = json.loads((tmp_path / "transform_summary.json").read_text())
    assert summary["rows"] == rows and summary["skipped_out_of_domain"] == skipped


def test_transform_with_no_radius_where_the_factor_is_defined_exits_two(tmp_path, capsys):
    # Kerr's base chart takes r = 0.5, inside the inner horizon, where V^2 < 0;
    # every other radius lies between the horizons
    code, _, err = run(capsys, "transform", "--form", "relativistic", "--system", "kerr",
                       "--M", "1", "--a", "0.9", "--m", "1", "--E-rel", "1.1", "--grid-min", "0.5",
                       "--grid-max", "1.4", "--samples", "16", "--out", str(tmp_path))
    assert code == 2
    assert "no radius from 0.5 to 1.4 lies inside the chart" in err
    assert list(tmp_path.iterdir()) == []


# the state 1e307 + h * 1e307 overflows, which numpy reports as a RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_orbit_whose_state_leaves_the_floats_exits_four(tmp_path, capsys):
    code, _, _ = run(capsys, "orbit", "--system", "free", "--E", "0", "--initial", "0,0,1e307,0",
                     "--span", "1e300", "--out", str(tmp_path))
    assert code == 4

    def refuse(constant):
        raise ValueError(f"the summary holds {constant}, which strict JSON refuses")

    # the drift of an energy that overflowed to inf is unmeasured: null, not NaN
    summary = json.loads((tmp_path / "orbit_summary.json").read_text(), parse_constant=refuse)
    assert summary["drifts"]["energy"] is None
    # the free particle's Cartesian p_y is no angular momentum, so none is reported
    assert sorted(summary["drifts"]) == ["energy"]
    assert summary["termination"] == "step_failure" and summary["states"] == 1
    assert "is not finite" in summary["reason"] and "in the step from s = 0.0" in summary["reason"]
    assert len((tmp_path / "orbit.csv").read_text().splitlines()) == 2


def test_lift_static_runs_and_projects(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lift", "--kind", "static", "--span", "10", "--record", "2000",
        "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "lift_summary.json").read_text())
    assert summary["kind"] == "static"
    assert sorted(summary["stats"]) == ["direct", "lifted"]
    assert summary["drifts"]["dummy_momentum"] == 0.0
    assert summary["projection_deviation"] < 1e-5


def test_lift_timedep_reports_shell_residual(tmp_path, capsys):
    code, _, _ = run(
        capsys, "lift", "--kind", "timedep", "--q", "1", "--span", "10",
        "--record", "2000", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "lift_summary.json").read_text())
    assert summary["drifts"]["dummy_momentum"] == 0.0
    assert summary["drifts"]["shell_residual"] < 1e-7
    assert summary["projection_deviation"] < 1e-5


def test_validation_failures_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "orbit", "--system", "kepler")
    assert code == 2 and "'E'" in err
    code, _, err = run(capsys, "orbit", "--system", "nosuch", "--E", "1")
    assert code == 2 and "unknown system" in err
    code, _, err = run(capsys, "orbit", "--scenario", str(tmp_path / "missing.json"))
    assert code == 2 and "not found" in err
    code, _, err = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5", "--initial", "1,0,0"
    )
    assert code == 2 and "even-length" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "orbit", "--scenario", str(bad))
    assert code == 2 and "JSON" in err


def test_nonfinite_parameters_exit_two(tmp_path, capsys):
    code, _, err = run(
        capsys, "orbit", "--system", "kepler", "--E", "nan",
        "--initial", "0.5,0,0,1.7", "--span", "1", "--out", str(tmp_path),
    )
    assert code == 2 and "params.E" in err and "finite" in err
    assert not (tmp_path / "orbit_summary.json").exists()
    code, _, err = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5",
        "--initial", "0.5,0,0,inf", "--out", str(tmp_path),
    )
    assert code == 2 and "integration.initial.p[1]" in err
    scenario = tmp_path / "nonfinite.json"
    scenario.write_text(json.dumps({"params": {"k": float("inf")}}))
    code, _, err = run(capsys, "curvature", "--E", "-0.5", "--scenario", str(scenario),
                       "--out", str(tmp_path))
    assert code == 2 and "params.k" in refused(err)
    # one non-finite sweep value rejects the whole sweep before any leg runs
    scenario.write_text(json.dumps({
        "task": "curvature",
        "params": {"k": 1.0, "E": [-0.5, float("nan")]},
        "output": {"dir": str(tmp_path), "prefix": "sw"},
    }))
    code, _, err = run(capsys, "curvature", "--scenario", str(scenario))
    assert code == 2 and "params.E" in refused(err)
    assert not list(tmp_path.glob("sw_*"))


def test_scenario_file_overrides_flags(tmp_path, capsys):
    scenario = tmp_path / "scan.json"
    scenario.write_text(json.dumps({
        "task": "curvature",
        "params": {"k": 1.0, "E": 0.1},
        "samples": 40,
        "output": {"dir": str(tmp_path), "prefix": "scan"},
    }))
    code, _, _ = run(
        capsys, "curvature", "--scenario", str(scenario), "--E", "-0.9",
        "--samples", "7",
    )
    assert code == 0
    summary = json.loads((tmp_path / "scan_summary.json").read_text())
    assert summary["params"]["E"] == 0.1  # the file's value, not the flag's
    assert summary["classification"] == "hyperbola"
    assert summary["rows"] == 40


def test_sweep_fans_out_in_index_order(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({
        "task": "curvature",
        "params": {"k": 1.0, "E": [-0.5, 0.1, 0.5]},
        "samples": 30,
        "output": {"dir": str(tmp_path), "prefix": "sw"},
    }))
    code, out, _ = run(capsys, "curvature", "--scenario", str(scenario))
    assert code == 0
    for i in range(3):
        assert (tmp_path / f"sw_{i:03d}.csv").exists()
        assert (tmp_path / f"sw_{i:03d}_summary.json").exists()
    index_lines = [line for line in out.splitlines() if line.startswith("[")]
    assert [line[:5] for line in index_lines] == ["[000]", "[001]", "[002]"]
    s1 = json.loads((tmp_path / "sw_001_summary.json").read_text())
    assert s1["params"]["E"] == 0.1


def test_sweep_rejects_two_list_parameters(tmp_path, capsys):
    scenario = tmp_path / "sweep2.json"
    scenario.write_text(json.dumps({
        "task": "curvature",
        "params": {"k": [1.0, 2.0], "E": [-0.5, 0.1]},
        "output": {"dir": str(tmp_path)},
    }))
    code, _, err = run(capsys, "curvature", "--scenario", str(scenario))
    assert code == 2
    assert "one parameter" in err


@pytest.mark.parametrize("argv, message", [
    (["orbit", "--system", "schwarzschild", "--M", "-1", "--m", "1", "--E", "-0.1",
      "--initial", "10,1.5707963267948966,0,0,0,3"], "M must be nonnegative"),
    (["transform", "--form", "relativistic", "--system", "kerr", "--M", "1",
      "--a", "0.5", "--m", "-1", "--E-rel", "0.9"], "m must be positive"),
], ids=["orbit-schwarzschild", "transform-kerr"])
def test_catalog_constructor_refusal_is_a_validation_error(tmp_path, capsys, argv, message):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


KEPLER = ["orbit", "--system", "kepler", "--E", "-0.5", "--span", "1"]


@pytest.mark.parametrize("argv", [
    ["orbit", "--system", "free", "--m", "-1", "--E", "0.5", "--initial", "0,0,1,0",
     "--span", "1"],
    ["lift", "--m", "-1"],
    ["lift", "--kind", "static", "--kappa", "-1"],
    ["lift", "--kind", "timedep", "--c", "-1"],
    ["lift", "--kind", "timedep", "--q", "-1"],
    ["lift", "--kind", "timedep", "--amp", "1"],
    ["lift", "--kind", "timedep", "--amp", "-1.5"],
    ["lift", "--span", "-1"],
    KEPLER + ["--initial", "1,0,0,0,1,0"],
    KEPLER + ["--record", "-3"],
    KEPLER + ["--atol", "-1"],
    KEPLER + ["--initial", "a,b,c,d"],
    KEPLER + ["--initial=-1,0,0,1"],
    ["orbit", "--system", "kepler", "--E", "-1", "--flow", "jacobi",
     "--initial", "1,0,0,0", "--span", "1"],
    ["lift", "--span", "0"],
    ["lift", "--record", "0"],
    ["compare", "--system", "kepler", "--E", "-0.5", "--record", "0"],
    ["orbit", "--system", "schwarzschild", "--M", "1", "--m", "1", "--E", "-0.04",
     "--initial", "12,1.5707963267948966,0,0,0,3.5", "--span", "5", "--c", "5"],
    ["curvature", "--system", "schwarzschild", "--M", "1", "--E", "-0.1"],
    ["lift", "--system", "kepler", "--E", "-0.5"],
    ["curvature", "--system", "schwarzschild", "--E", "-0.1"],
    KEPLER + ["--M", "7"],
    ["orbit", "--system", "kerr", "--M", "1", "--a", "0.5", "--m", "1", "--G", "1",
     "--E", "-0.1", "--initial", "12,1.5707963267948966,0,0,0,3.5", "--span", "1"],
    ["orbit", "--system", "schwarzschild", "--M", "1", "--m", "1", "--k", "3", "--E", "-0.1",
     "--span", "1"],
    ["transform", "--system", "kepler", "--E", "-0.5", "--E-rel", "3"],
    ["lift", "--kind", "timedep", "--kappa", "3"],
    ["lift", "--kind", "static", "--amp", "0.3"],
    ["orbit", "--system", "kepler", "--E", "abc"],
    ["orbit", "--system", "kepler", "--E", "-0.5", "--flow", "rescaled"],
    KEPLER + ["--no-such-flag"],
    ["orbit"],
    ["curvature", "--E", "-0.5", "--span", "7"],
    ["catalog", "--E", "1"],
    ["curvature", "--E", "-0.5", "--m", "5"],
    ["transform", "--form", "relativistic", "--system", "kepler", "--E", "-0.5", "--E-rel", "1"],
    ["curvature", "--E", "-0.5", "--prefix", ""],
    ["curvature", "--k", "-1", "--E", "-0.5"],
    ["curvature", "--k", "0", "--E", "-0.5"],
    ["curvature", "--k", "1", "--E", "-0.5", "--r-min", "2.5", "--r-max", "5", "--samples", "20"],
    ["transform", "--form", "relativistic", "--system", "schwarzschild", "--M", "3", "--m", "1",
     "--E-rel", "0.9", "--grid-min", "0.5", "--grid-max", "5", "--samples", "20"],
    ["orbit", "--system", "kepler", "--k", "-1", "--E", "-0.5", "--span", "1"],
    ["orbit", "--system", "oscillator", "--lam", "-1", "--E", "0.5", "--span", "1"],
    ["orbit", "--system", "free", "--E", "0.5", "--span", "1"],
    ["orbit", "--system", "free", "--E", "0.5", "--initial", "0,0,1,0"],
    ["curvature", "--E", "-0.5", "--r-min", "2", "--r-max", "1"],
    ["catalog", "--system", "nosuch"],
], ids=["free-mass", "lift-mass", "lift-kappa", "lift-c", "lift-q", "timedep-lift-amp-one",
        "timedep-lift-amp-below-minus-one", "lift-span",
        "initial-3d", "record-negative", "atol-negative", "initial-text", "initial-off-chart",
        "jacobi-at-turning-point", "lift-span-zero", "lift-record-zero",
        "compare-record-zero", "schwarzschild-orbit-unread-c", "curvature-unread-system",
        "lift-unread-system", "curvature-catalog-system", "kepler-unread-M", "kerr-G",
        "schwarzschild-unread-k", "classical-transform-unread-E-rel",
        "timedep-lift-unread-kappa", "static-lift-unread-amp", "text-number", "flow-choice",
        "unknown-flag", "no-system", "curvature-span", "catalog-E", "curvature-m",
        "relativistic-transform-unread-E", "empty-prefix",
        "curvature-k-negative", "curvature-k-zero", "curvature-no-radius-on-chart",
        "transform-no-radius-on-chart", "kepler-k-negative", "oscillator-lam-negative",
        "free-no-default-launch", "free-no-default-span", "curvature-r-max-below-r-min",
        "catalog-unknown-system"])
def test_refused_input_exits_two_without_output(tmp_path, capsys, argv):
    # catalog writes nothing and takes no --out
    out = [] if argv[0] == "catalog" else ["--out", str(tmp_path)]
    code, _, err = run(capsys, *argv, *out)
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


CURVATURE = ["curvature", "--E", "-0.5"]
ORBIT = ["orbit", "--system", "kepler", "--E", "-0.5", "--span", "1"]


@pytest.mark.parametrize("argv, scenario, entry", [
    (CURVATURE, [1, 2], "JSON object"),
    (CURVATURE, {"params": 5}, "params"),
    (ORBIT, {"integration": [1e-9]}, "integration"),
    (CURVATURE, {"output": "out"}, "output"),
    (CURVATURE, {"grid": 5}, "grid"),
    (CURVATURE, {"params": {"E": "abc"}}, "params.E"),
    (CURVATURE, {"params": {"k": None}}, "params.k"),
    (CURVATURE, {"params": {"E": True}}, "params.E"),
    (CURVATURE, {"params": {"E": []}}, "params.E"),
    (CURVATURE, {"params": {"k": 10 ** 400}}, "params.k"),
    (CURVATURE, {"samples": None}, "samples"),
    (CURVATURE, {"grid": {"r_min": "0.5"}}, "grid.r_min"),
    (ORBIT, {"integration": {"span": None}}, "integration.span"),
    (ORBIT, {"integration": {"initial": [0.5, 0, 0, 1.7]}}, "integration.initial"),
    (["lift"], {"kind": "Static"}, "kind 'Static'"),
    (ORBIT, {"flow": "rescaled"}, "flow 'rescaled'"),
    (["transform", "--system", "kepler", "--E", "-0.5", "--E-rel", "1"],
     {"form": "relativistc"}, "form 'relativistc'"),
    (CURVATURE, {"sample": 7, "grid": {"rmin": 1.0}}, "key sample "),
    (CURVATURE, {"grid": {"rmin": 1.0}}, "grid.rmin"),
    (CURVATURE, {"params": {"EE": -0.5}}, "params.EE"),
    (ORBIT, {"integration": {"rtoll": 1e-9}}, "integration.rtoll"),
    (CURVATURE, {"output": {"directory": "out"}}, "output.directory"),
    (ORBIT, {"task": "compare"}, "task 'compare'"),
    (CURVATURE, {"flow": "jacobi"}, "key flow "),
    (CURVATURE, {"params": {"m": 5.0}}, "params.m"),
    (["lift"], {"system": "kepler"}, "key system "),
    (CURVATURE, {"system": "kepler"}, "key system "),
    (CURVATURE, {"output": {"prefix": ""}}, "output.prefix"),
    (ORBIT, {"integration": {"record": 50.9}}, "integration.record"),
    (CURVATURE, {"samples": 100.5}, "samples"),
], ids=["not-an-object", "params", "integration", "output", "grid", "text-number",
        "null-number", "bool-number", "empty-sweep", "int-past-float", "null-samples", "text-grid",
        "null-span", "initial-list", "kind-choice", "flow-choice", "form-choice",
        "unknown-key", "unknown-grid-key", "unknown-param", "unknown-integration-key",
        "unknown-output-key", "other-task", "unread-flow", "unread-param", "lift-system",
        "curvature-system",
        "empty-prefix", "fractional-record", "fractional-samples"])
def test_scenario_file_keeps_the_flag_contract(tmp_path, capsys, argv, scenario, entry):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--scenario", str(path), "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert entry in refused(err) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["orbit", "--flow", "jacobi", "--span", "1"],
    ["compare", "--span", "1"],
], ids=["orbit-jacobi", "compare"])
def test_rescaled_flow_refuses_off_shell_launch(tmp_path, capsys, argv):
    # H(x0, p0) = 0.5 * 0.5**2 / 0.5**2 - 1 / 0.5 = -1.5, while E = -0.5
    code, _, err = run(capsys, *argv, "--system", "kepler", "--E", "-0.5",
                       "--initial", "0.5,0,0,0.5", "--out", str(tmp_path))
    assert code == 2 and "off the energy surface" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_legs_match_solo_runs_byte_for_byte(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({"params": {"E": [-0.5, -0.7]}}))
    code, _, _ = run(capsys, "compare", "--scenario", str(scenario), "--system", "kepler",
                     "--record", "1000", "--prefix", "c", "--out", str(tmp_path / "sweep"))
    assert code == 0
    for i, E in enumerate(["-0.5", "-0.7"]):
        code, _, _ = run(capsys, "compare", "--system", "kepler", "--E", E,
                         "--record", "1000", "--prefix", f"c_{i:03d}",
                         "--out", str(tmp_path / "solo"))
        assert code == 0
    names = sorted(path.name for path in (tmp_path / "sweep").iterdir())
    assert names == ["c_000.csv", "c_000_summary.json", "c_001.csv", "c_001_summary.json"]
    for name in names:
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "solo" / name).read_bytes()


def test_relativistic_transform_needs_no_equivalent_potential(tmp_path, capsys):
    # taub_nut has a spacetime but no Newtonian potential U
    code, _, _ = run(capsys, "transform", "--form", "relativistic", "--system", "taub_nut",
                     "--M", "1", "--m", "1", "--E-rel", "0.5", "--samples", "50",
                     "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "transform_summary.json").read_text())
    assert summary["rows"] > 0
    assert summary["rows"] + summary["skipped_out_of_domain"] == 50


@pytest.mark.parametrize("q", ["-1", "0"])
def test_timedep_lift_refuses_nonpositive_q_before_integrating(tmp_path, capsys, monkeypatch, q):
    # physical time advances at dt/dlambda = q/m, so q < 0 would run it backwards
    def integrate_lifted(*args, **kwargs):
        raise AssertionError("the lift was integrated")

    monkeypatch.setattr(cli, "integrate_lifted", integrate_lifted)
    code, _, err = run(capsys, "lift", "--kind", "timedep", "--q", q, "--out", str(tmp_path))
    assert code == 2 and err.startswith("error: q must be positive")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["static", "timedep"])
@pytest.mark.parametrize("lam", ["-1", "0"])
def test_lift_refuses_nonpositive_lam_before_integrating(tmp_path, capsys, monkeypatch,
                                                         kind, lam):
    # the static lift's metric entry 1/(kappa V) needs V = lam |x|^2 / 2 > 0
    def integrate_lifted(*args, **kwargs):
        raise AssertionError("the lift was integrated")

    monkeypatch.setattr(cli, "integrate_lifted", integrate_lifted)
    code, _, err = run(capsys, "lift", "--kind", kind, "--lam", lam, "--out", str(tmp_path))
    assert code == 2 and err == f"error: lam must be positive, got {float(lam)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("record", ["1", "999"])
def test_compare_refuses_fewer_states_than_its_samples(tmp_path, capsys, monkeypatch, record):
    # compare_paths resamples to 1000 points; fewer states compare chords
    def integrate(*args, **kwargs):
        raise AssertionError("a flow was integrated")

    monkeypatch.setattr(cli, "integrate", integrate)
    code, _, err = run(capsys, "compare", "--system", "kepler", "--E", "-0.5",
                       "--record", record, "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: record must be at least 1000 to compare paths, got {record}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("system", [["schwarzschild", "--M", "1"], ["kepler"]],
                         ids=["schwarzschild", "kepler"])
def test_relativistic_transform_refuses_nonpositive_c(tmp_path, capsys, system):
    code, _, err = run(capsys, "transform", "--form", "relativistic", "--system", *system,
                       "--m", "1", "--c", "0", "--E-rel", "1", "--out", str(tmp_path))
    assert code == 2 and err == "error: c must be positive\n"
    assert list(tmp_path.iterdir()) == []


def test_compare_step_failure_exits_four_with_partial_output(tmp_path, capsys, monkeypatch):
    # both flows fail after one step; compare writes what a clean early end writes
    def failing_integrate(*args, **kwargs):
        return Trajectory(np.array([0.0, 0.1]), np.array([[0.5, 0.0], [0.5, 0.1]]),
                          np.array([[0.0, 1.0], [0.0, 1.0]]),
                          {"pacing": np.array([0.0, 0.2])}, "step_failure", "stalled")

    monkeypatch.setattr(cli, "integrate", failing_integrate)
    code, _, err = run(capsys, "compare", "--system", "kepler", "--E", "-0.5",
                       "--out", str(tmp_path))
    assert code == 4 and err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["compare.csv", "compare_summary.json"]
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    assert summary["termination"] == "step_failure"
    assert summary["flows"] == {"time": "step_failure", "rescaled": "step_failure"}
    assert summary["deviation"] is None
    assert "stalled" in summary["reason"]
    assert (tmp_path / "compare.csv").read_text().splitlines()[1].startswith("nan,")


def test_compare_time_flow_ending_before_its_first_grid_point_exits_three(tmp_path, capsys):
    # an inward radial launch on the energy shell at r = 0.001 reaches the
    # chart's edge long before the first of 8000 grid points: the time flow
    # records only its launch and the rescaled flow has no span to run
    code, _, err = run(capsys, "compare", "--system", "kepler", "--E", "-0.5",
                       f"--initial=0.001,0,{-1999.0 ** 0.5!r},0", "--out", str(tmp_path))
    assert code == 3 and err == ""
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    assert summary["termination"] == "domain_violation"
    assert summary["flows"] == {"time": "domain_violation"}
    assert summary["deviation"] is None and summary["span_s"] == 0.0
    assert (tmp_path / "compare.csv").read_text().splitlines()[1].startswith("nan,")


def test_only_integrating_tasks_record_tolerances(tmp_path, capsys):
    for argv in (["transform", "--system", "kepler", "--E", "-0.5"],
                 ["curvature", "--E", "-0.5"],
                 ["orbit", "--system", "kepler", "--E", "-0.5", "--span", "1"]):
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text())
        integrates = argv[0] == "orbit"
        assert ("rtol" in summary, "atol" in summary) == (integrates, integrates), argv


def test_oscillator_orbit_runs_from_its_default_launch_and_span(tmp_path, capsys):
    code, _, _ = run(capsys, "orbit", "--system", "oscillator", "--E", "1",
                     "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "completed"
    assert summary["span"] == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert summary["drifts"]["energy"] < 1e-7


def readme_command_line():
    """The jacobi-flow lines and the scenario JSON of the README's command-line section."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = section.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    commands = [line.split()[1:] for line in blocks[0].splitlines()
                if line.startswith("jacobi-flow ")]
    scenario = next(block for block in blocks if block.startswith("json"))[len("json"):]
    return commands, json.loads(scenario)


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    commands, scenario = readme_command_line()
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    code, _, err = run(capsys, "curvature", "--scenario", "scenario.json")
    assert code == 0, err
