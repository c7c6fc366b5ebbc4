"""Command-line front end: scenarios, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from jacobiflow import FlowState, StepFailure, Trajectory, cli
from jacobiflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert summary["tool"] == "jacobi-flow"
    assert "numpy" in summary and "scipy" in summary and "version" in summary


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


def test_orbit_turning_point_exits_three(tmp_path, capsys):
    code, _, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5", "--flow", "jacobi",
        "--initial", "1,0,1,0", "--span", "10", "--out", str(tmp_path),
    )
    assert code == 3
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "turning_point"


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


def test_step_failure_exits_four(tmp_path, capsys, monkeypatch):
    def failing_integrate(*args, **kwargs):
        states = [FlowState(0.0, np.array([0.5, 0.0]), np.array([0.0, 1.0]),
                            {"energy": -0.5})]
        raise StepFailure("stalled", trajectory=Trajectory(states, "time_t", "step_failure"))

    monkeypatch.setattr("jacobiflow.cli.integrate", failing_integrate)
    code, _, _ = run(
        capsys, "orbit", "--system", "kepler", "--E", "-0.5", "--out", str(tmp_path)
    )
    assert code == 4
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["termination"] == "step_failure"
    assert "stalled" in summary["failure"]


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


def test_curvature_scan_columns_and_values(tmp_path, capsys):
    code, _, _ = run(
        capsys, "curvature", "--system", "kepler", "--k", "1", "--E", "-0.5",
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


def test_lift_static_runs_and_projects(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lift", "--kind", "static", "--span", "10", "--record", "2000",
        "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "lift_summary.json").read_text())
    assert summary["kind"] == "static"
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
    assert code == 2 and "params.k" in err
    # one non-finite sweep value rejects the whole sweep before any leg runs
    scenario.write_text(json.dumps({
        "task": "curvature", "system": "kepler",
        "params": {"k": 1.0, "E": [-0.5, float("nan")]},
        "output": {"dir": str(tmp_path), "prefix": "sw"},
    }))
    code, _, err = run(capsys, "curvature", "--scenario", str(scenario))
    assert code == 2 and "params.E" in err
    assert not list(tmp_path.glob("sw_*"))


def test_scenario_file_overrides_flags(tmp_path, capsys):
    scenario = tmp_path / "scan.json"
    scenario.write_text(json.dumps({
        "task": "curvature",
        "system": "kepler",
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
        "system": "kepler",
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
        "system": "kepler",
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
    ["lift", "--span", "-1"],
    KEPLER + ["--initial", "1,0,0,0,1,0"],
    KEPLER + ["--record", "-3"],
    KEPLER + ["--initial", "a,b,c,d"],
    KEPLER + ["--initial=-1,0,0,1"],
    ["orbit", "--system", "kepler", "--E", "-1", "--flow", "jacobi",
     "--initial", "1,0,0,0", "--span", "1"],
], ids=["free-mass", "lift-mass", "lift-kappa", "lift-c", "lift-q", "lift-span",
        "initial-3d", "record-negative", "initial-text", "initial-off-chart",
        "jacobi-at-turning-point"])
def test_refused_input_exits_two_without_output(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("system", [["schwarzschild", "--M", "1"], ["kepler"]],
                         ids=["schwarzschild", "kepler"])
def test_relativistic_transform_refuses_nonpositive_c(tmp_path, capsys, system):
    code, _, err = run(capsys, "transform", "--form", "relativistic", "--system", *system,
                       "--m", "1", "--c", "0", "--E-rel", "1", "--out", str(tmp_path))
    assert code == 2 and err == "error: c must be positive\n"
    assert list(tmp_path.iterdir()) == []
