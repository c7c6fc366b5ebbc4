"""Output checks for one leg, at the acceptance suite's tolerances.

Each check reads the files a leg wrote and returns the list of problems it
found (empty when the leg passes) together with the accuracy figures the
leg reports.  The expected values are recomputed here from closed forms,
not through the package.
"""

import csv
import json
from pathlib import Path

import numpy as np

from plan import (
    COMPARE_TOL,
    CURVATURE_TOL,
    DRIFT_TOL,
    FACTOR_RTOL,
    STATIC_LIFT_TOL,
    TIMEDEP_LIFT_TOL,
)

# drifts the summaries report that measure conservation
DRIFT_KEYS = ("energy", "unit_momentum", "extended_energy", "shell_residual",
              "dummy_momentum")


def read_rows(path):
    """The data rows of a CSV file, as floats (the header is skipped)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(v) for v in row] for row in reader]


def leg_files(out_dir, tid, leg):
    stem = f"{tid}{leg['suffix']}"
    return Path(out_dir) / f"{stem}.csv", Path(out_dir) / f"{stem}_summary.json"


def check_leg(out_dir, tid, leg):
    """Check one leg's outputs.

    Returns (problems, accuracy) where accuracy maps 'path_dev', 'drift',
    'curv_err' and 'gate_ratio' (largest error over its tolerance) to the
    values this leg measured.
    """
    csv_path, summary_path = leg_files(out_dir, tid, leg)
    if not csv_path.exists() or not summary_path.exists():
        return [f"missing output {csv_path.name} or {summary_path.name}"], {}
    summary = json.loads(summary_path.read_text())
    rows = read_rows(csv_path)
    problems = []
    if summary.get("termination") != "completed":
        problems.append(f"termination {summary.get('termination')!r}")
    accuracy = {}
    drifts = [v for k, v in summary.get("drifts", {}).items() if k in DRIFT_KEYS]
    if drifts:
        accuracy["drift"] = max(drifts)
    check = CHECKS[leg["check"]]
    problems += check(summary, rows, leg["expect"], accuracy)
    return problems, accuracy


def gate(problems, accuracy, name, value, tol):
    if not (value < tol):
        problems.append(f"{name} {value!r} is not below {tol:g}")
    accuracy["gate_ratio"] = max(accuracy.get("gate_ratio", 0.0), value / tol)


def check_compare(summary, rows, expect, accuracy):
    problems = []
    deviation = summary["deviation"]
    if len(rows) != 1 or rows[0][0] != deviation:
        problems.append("compare csv does not carry the summary deviation")
    accuracy["path_dev"] = deviation
    gate(problems, accuracy, "path deviation", deviation, COMPARE_TOL)
    return problems


def check_states(summary, rows, expect):
    problems = []
    if summary["states"] != expect["states"] or len(rows) != expect["states"]:
        problems.append(f"{len(rows)} states written, {expect['states']} expected")
    return problems


def check_orbit(summary, rows, expect, accuracy):
    problems = check_states(summary, rows, expect)
    drifts = summary.get("drifts", {})
    gated = ("energy", "unit_momentum") if expect["flow"] == "jacobi" else ("energy",)
    for key in gated:
        if key in drifts:
            gate(problems, accuracy, f"{key} drift", drifts[key], DRIFT_TOL)
        else:
            problems.append(f"orbit summary reports no {key} drift")
    return problems


def check_lift(summary, rows, expect, accuracy):
    problems = check_states(summary, rows, expect)
    deviation = summary["projection_deviation"]
    accuracy["path_dev"] = deviation
    tol = STATIC_LIFT_TOL if expect["kind"] == "static" else TIMEDEP_LIFT_TOL
    gate(problems, accuracy, "projection deviation", deviation, tol)
    return problems


def kepler_curvature(k, E, r):
    return -k * E / (2.0 * (r * E + k) ** 3)


def check_grid(summary, rows, expect):
    """Every point of the requested radial grid was evaluated and written:
    none skipped, and the r column is the grid the CLI was asked for."""
    problems = []
    samples = expect["samples"]
    if summary["rows"] != samples or len(rows) != samples:
        problems.append(f"{len(rows)} rows written, summary says {summary['rows']}, "
                        f"{samples} requested")
    if summary.get("skipped_out_of_domain") != 0:
        problems.append(f"{summary.get('skipped_out_of_domain')} grid points skipped")
    grid = np.linspace(expect["r_min"], expect["r_max"], samples)
    if len(rows) == samples and any(row[0] != r for row, r in zip(rows, grid)):
        problems.append("r column is not the requested grid")
    return problems


def check_curvature(summary, rows, expect, accuracy):
    E, k = expect["E"], expect["k"]
    problems = check_grid(summary, rows, expect)
    expected_class = "ellipse" if E < 0 else "hyperbola" if E > 0 else "parabola"
    if summary["classification"] != expected_class:
        problems.append(f"classified {summary['classification']!r}, "
                        f"expected {expected_class!r}")
    for r, _, closed, _ in rows:
        want = kepler_curvature(k, E, r)
        if abs(closed - want) > FACTOR_RTOL * max(abs(want), 1e-300):
            problems.append(f"closed-form curvature at r={r!r} reads {closed!r}")
            break
    worst = summary["max_rel_err"]
    if worst is None:
        problems.append("no curvature rows")
        return problems
    accuracy["curv_err"] = worst
    if E != 0.0:
        gate(problems, accuracy, "curvature max_rel_err", worst, CURVATURE_TOL)
    return problems


def expected_factor(expect, r):
    """Closed-form rescaling factor at radius r on the equator, and the size
    of the terms it is formed from (the scale its rounding error has)."""
    form = expect["form"]
    m = expect["m"]
    if form == "kepler":
        E, k = expect["E"], expect["k"]
        return 2.0 * m * (E + k / r), 2.0 * m * (abs(E) + k / r)
    if form == "oscillator":
        E, lam = expect["E"], expect["lam"]
        U = 0.5 * lam * r * r
        return 2.0 * m * (E - U), 2.0 * m * (abs(E) + U)
    E_rel, M = expect["E_rel"], expect["M"]
    # Schwarzschild (E^2 - m^2 w) / w with w = 1 - 2M/r, and Kerr on the
    # equator E^2 rho^2 / (rho^2 - 2Mr) - m^2 with rho^2 = r^2 (G = c = 1)
    w = 1.0 - 2.0 * M / r
    if form == "schwarzschild":
        return (E_rel * E_rel - m * m * w) / w, (E_rel * E_rel + m * m * w) / w
    big = E_rel * E_rel * r * r / (r * r - 2.0 * M * r)
    return big - m * m, big + m * m


def check_transform(summary, rows, expect, accuracy):
    problems = check_grid(summary, rows, expect)
    worst = 0.0
    for r, factor in rows:
        want, scale = expected_factor(expect, r)
        worst = max(worst, abs(factor - want) / scale)
    gate(problems, accuracy, "factor relative error", worst, FACTOR_RTOL)
    return problems


CHECKS = {
    "compare": check_compare,
    "orbit": check_orbit,
    "lift": check_lift,
    "curvature": check_curvature,
    "transform": check_transform,
}
