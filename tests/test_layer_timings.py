"""The per-layer timing script runs and reports every layer it names."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_timings.py"


def test_layer_timings_reports_a_time_for_every_layer():
    spec = importlib.util.spec_from_file_location("layer_timings", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    us = tool.layer_timings(number=3)
    assert sorted(us) == sorted([
        "kepler.hamilton_rhs", "kepler.jacobi_rhs", "schwarzschild.hamilton_rhs",
        "schwarzschild.jacobi_rhs", "static.lifted_rhs", "timedep.lifted_rhs",
        "metric._inverse.polar", "metric.invert_metric.2x2", "flow.stepper.per_step",
        "flow.record.per_state", "monitors.energy_from_state.per_row",
        "monitors.lifted_hamiltonian.per_row", "kepler.nfev_per_step",
        "curvature.per_point", "cli.write_csv.per_row", "metric.partials.fallback",
        "metric._state.point", "metric._state.per_row", "transforms.factor_at.classical",
        "transforms.factor_at.relativistic", "transforms.factor_at.per_row.classical",
        "transforms.factor_at.per_row.relativistic", "curvature.scan.per_row"])
    assert all(value > 0 for value in us.values())
