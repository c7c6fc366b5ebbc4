"""Scenario-driven command line front end.

Subcommands: transform (factor on a radial grid), orbit (integrate one flow),
compare (time flow vs rescaled flow), curvature (radial scan), lift (extended
flow plus projection check), catalog (list entries).  A scenario file is a
JSON object with keys task, system, params, integration, output; values given
there override the corresponding flags.  Exactly one parameter may be
list-valued, in which case the runs fan out across a thread pool and output
files gain a zero-padded index suffix.

Exit codes: 0 success, 2 validation error, 3 clean numerical termination
(turning point or chart violation, reported in the summary metadata), 4 step
failure.  All numeric output is written with 17 significant digits and LF
line endings, so a rerun of the same scenario is byte-identical.
"""

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .catalog import CATALOG, catalog_entry, mechanical_system_from_entry, spacetime_from_entry
from .curvature import classify_orbit, gaussian_curvature_numeric, kepler_curvature, kepler_profile
from .errors import DomainViolation, JacobiFlowError, StepFailure, TurningPoint
from .flow import (
    FlowState,
    compare_paths,
    hamilton_flow,
    integrate,
    jacobi_flow,
    max_relative_drift,
    unit_momentum_hamiltonian,
)
from .lift import (
    embed_static,
    embed_time_dependent,
    integrate_lifted,
    lift_static,
    lift_time_dependent,
    project,
)
from .metric import flat_metric, polar_metric
from .transforms import (
    MechanicalSystem,
    energy_from_state,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
    weak_field_spacetime,
)

TASKS = ("transform", "orbit", "compare", "curvature", "lift", "catalog")
INLINE_SYSTEMS = ("kepler", "oscillator", "free")
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TERMINATED = 3
EXIT_STEP_FAILURE = 4


class ValidationError(Exception):
    pass


def fmt(value):
    """One float, 17 significant digits, '.' decimal separator."""
    return "%.17g" % float(value)


# ----------------------------------------------------------------------
# scenario assembly


PARAM_FLAGS = ("E", "E_rel", "q", "M", "a", "k", "m", "c", "lam", "G", "amp", "kappa")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jacobi-flow",
        description="transform mechanical systems to rescaled geodesic form, "
                    "integrate both pictures, and check their invariants",
    )
    blurbs = {
        "transform": "evaluate a rescaling factor on a radial grid",
        "orbit": "integrate one flow and track its invariants",
        "compare": "run the time flow and the rescaled flow, report path deviation",
        "curvature": "radial curvature scan with orbit classification",
        "lift": "integrate an extended lift and check the projection",
        "catalog": "list the built-in spacetime families",
    }
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=blurbs[task], description=blurbs[task])
        p.add_argument("--scenario", help="JSON scenario file; entries override flags")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", help="output file prefix (default: task name)")
        p.add_argument("--rtol", type=float, default=1e-9,
                       help="relative integration tolerance (default 1e-9)")
        p.add_argument("--atol", type=float, default=1e-12,
                       help="absolute integration tolerance (default 1e-12)")
        p.add_argument("--seed", type=int, help="reserved; recorded but unused")
        p.add_argument("--system", help="catalog name or one of: " + ", ".join(INLINE_SYSTEMS))
        for name in PARAM_FLAGS:
            p.add_argument("--" + name.replace("_", "-"), type=float, dest=name,
                           help=f"system parameter {name}")
        p.add_argument("--span", type=float,
                       help="integration span (default: one characteristic period)")
        p.add_argument("--initial", help="flat list 'x1,..,xn,p1,..,pn'")
        p.add_argument("--record", type=int, help="dense output samples (0: accepted steps)")
        if task == "orbit":
            p.add_argument("--flow", choices=("hamilton", "jacobi"), default="hamilton",
                           help="which generator to integrate (default hamilton)")
        if task == "transform":
            p.add_argument("--form", choices=("classical", "relativistic"), default="classical",
                           help="which rescaling to evaluate (default classical)")
            p.add_argument("--grid-min", type=float, dest="grid_min",
                           help="first radius of the grid")
            p.add_argument("--grid-max", type=float, dest="grid_max",
                           help="last radius of the grid")
            p.add_argument("--samples", type=int, default=100,
                           help="grid size (default 100)")
        if task == "curvature":
            p.add_argument("--r-min", type=float, dest="r_min", default=0.5,
                           help="first radius of the scan (default 0.5)")
            p.add_argument("--r-max", type=float, dest="r_max", default=5.0,
                           help="last radius of the scan (default 5.0)")
            p.add_argument("--samples", type=int, default=100,
                           help="scan size (default 100)")
        if task == "lift":
            p.add_argument("--kind", choices=("static", "timedep"), default="static",
                           help="which lift to run (default static)")
    return parser


def scenario_from_args(args):
    """Merge flags and (optionally) a scenario file; the file wins."""
    params = {name: getattr(args, name) for name in PARAM_FLAGS
              if getattr(args, name, None) is not None}
    scn = {
        "task": args.task,
        "system": args.system,
        "params": params,
        "integration": {"rtol": args.rtol, "atol": args.atol},
        "output": {"dir": args.out, "prefix": args.prefix or args.task},
    }
    if getattr(args, "span", None) is not None:
        scn["integration"]["span"] = args.span
    if getattr(args, "record", None) is not None:
        scn["integration"]["record"] = args.record
    if getattr(args, "initial", None):
        flat = [float(v) for v in args.initial.split(",")]
        if len(flat) % 2:
            raise ValidationError("initial needs an even-length flat list of x then p")
        half = len(flat) // 2
        scn["integration"]["initial"] = {"x": flat[:half], "p": flat[half:]}
    for extra in ("flow", "form", "kind", "samples"):
        if getattr(args, extra, None) is not None:
            scn[extra] = getattr(args, extra)
    for bound in ("grid_min", "grid_max", "r_min", "r_max"):
        if getattr(args, bound, None) is not None:
            scn.setdefault("grid", {})[bound] = getattr(args, bound)
    if args.seed is not None:
        scn["seed"] = args.seed
    if args.scenario:
        path = Path(args.scenario)
        if not path.exists():
            raise ValidationError(f"scenario file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file is not valid JSON: {exc}") from exc
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(scn.get(key), dict):
                scn[key].update(value)
            else:
                scn[key] = value
    return scn


def reject_nonfinite(value, where=""):
    """Raise ValidationError on a NaN or infinite number anywhere in plain
    scenario data (flags and scenario-file values alike)."""
    if isinstance(value, dict):
        for key, item in value.items():
            reject_nonfinite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            reject_nonfinite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value!r}")


def require(scn, field, where="params"):
    box = scn.get(where) or {}
    if field not in box or box[field] is None:
        raise ValidationError(f"missing required parameter '{field}' for "
                              f"task '{scn['task']}'")
    return box[field]


# ----------------------------------------------------------------------
# system construction


def build_mechanical(scn, need_energy=True):
    """MechanicalSystem from the scenario's system name and params."""
    name = scn.get("system")
    if not name:
        raise ValidationError("missing required field 'system'")
    params = scn.get("params", {})
    E = params.get("E")
    if need_energy and E is None:
        raise ValidationError(f"missing required parameter 'E' for system '{name}'")
    if name == "kepler":
        k = params.get("k", 1.0)
        m = params.get("m", 1.0)
        if k <= 0 or m <= 0:
            raise ValidationError("kepler needs k > 0 and m > 0")
        return MechanicalSystem(
            g=polar_metric(), U=lambda x: -k / x[0], m=m, E=E,
            grad_U=lambda x: np.array([k / x[0] ** 2, 0.0]), name="kepler")
    if name == "oscillator":
        lam = params.get("lam", 1.0)
        m = params.get("m", 1.0)
        if lam <= 0 or m <= 0:
            raise ValidationError("oscillator needs lam > 0 and m > 0")
        return MechanicalSystem(
            g=polar_metric(), U=lambda x: 0.5 * lam * x[0] ** 2, m=m, E=E,
            grad_U=lambda x: np.array([lam * x[0], 0.0]), name="oscillator")
    if name == "free":
        m = params.get("m", 1.0)
        return MechanicalSystem(
            g=flat_metric(2), U=lambda x: 0.0, m=m, E=E,
            grad_U=lambda x: np.zeros(2), name="free")
    if name in CATALOG:
        _, required, optional, _ = CATALOG[name]
        entry_params = {p: params[p] for p in required + optional if p in params}
        missing = [p for p in required if p not in entry_params]
        if missing:
            raise ValidationError(f"system '{name}' needs parameters: "
                                  + ", ".join(missing))
        entry = catalog_entry(name, **entry_params)
        try:
            return mechanical_system_from_entry(entry, E=E)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    raise ValidationError(f"unknown system '{name}' (inline: "
                          + ", ".join(INLINE_SYSTEMS)
                          + "; catalog: " + ", ".join(sorted(CATALOG)) + ")")


def default_initial(scn, sys):
    """A launch state consistent with the requested energy, where one is known."""
    integration = scn.get("integration", {})
    init = integration.get("initial")
    if init:
        x = np.asarray(init["x"], dtype=float)
        p = np.asarray(init["p"], dtype=float)
        if x.shape != p.shape:
            raise ValidationError("initial x and p must have the same length")
        return FlowState(0.0, x, p)
    params = scn.get("params", {})
    E = params.get("E")
    if sys.name == "kepler" and E is not None and E < 0:
        # perihelion of the eccentricity-1/2 orbit at this energy
        k = params.get("k", 1.0)
        a = k / (2.0 * abs(E))
        r_p = 0.5 * a
        p_phi = np.sqrt(sys.m * k * a * 0.75)
        return FlowState(0.0, np.array([r_p, 0.0]), np.array([0.0, p_phi]))
    if sys.name == "oscillator" and E is not None and E > 0:
        lam = params.get("lam", 1.0)
        r_c = np.sqrt(E / lam)
        p_phi = np.sqrt(sys.m * lam) * r_c * r_c
        return FlowState(0.0, np.array([r_c, 0.0]), np.array([0.0, p_phi]))
    raise ValidationError("this system/energy has no default launch state; "
                          "pass integration.initial (or --initial)")


def default_span(scn, sys):
    integration = scn.get("integration", {})
    if integration.get("span") is not None:
        span = float(integration["span"])
        if span <= 0:
            raise ValidationError("span must be positive")
        return span
    params = scn.get("params", {})
    E = params.get("E")
    if sys.name == "kepler" and E is not None and E < 0:
        k = params.get("k", 1.0)
        a = k / (2.0 * abs(E))
        return 2.0 * np.pi * a ** 1.5 * np.sqrt(sys.m / k)
    if sys.name == "oscillator":
        lam = params.get("lam", 1.0)
        return 2.0 * np.pi * np.sqrt(sys.m / lam)
    raise ValidationError("no default span for this system; pass "
                          "integration.span (or --span)")


# ----------------------------------------------------------------------
# output


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_trajectory_csv(path, traj):
    n = traj.states[0].x.size
    monitor_names = list(traj.states[0].monitors)
    header = (["param"] + [f"x{i+1}" for i in range(n)]
              + [f"p{i+1}" for i in range(n)] + monitor_names)
    rows = []
    for s in traj.states:
        rows.append([s.param, *s.x, *s.p] + [s.monitors[k] for k in monitor_names])
    write_csv(path, header, rows)


def write_summary(path, scn, extra):
    summary = {
        "tool": "jacobi-flow",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "task": scn["task"],
        "system": scn.get("system"),
        "params": scn.get("params", {}),
        "rtol": scn["integration"]["rtol"],
        "atol": scn["integration"]["atol"],
    }
    if scn.get("seed") is not None:
        summary["seed"] = scn["seed"]
    summary.update(extra)
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                          newline="\n")


def out_paths(scn, suffix=""):
    out_dir = Path(scn["output"].get("dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = scn["output"].get("prefix") or scn["task"]
    return (out_dir / f"{prefix}{suffix}.csv",
            out_dir / f"{prefix}{suffix}_summary.json")


def exit_code_for(termination):
    if termination == "completed":
        return EXIT_OK
    if termination in ("turning_point", "domain_violation"):
        return EXIT_TERMINATED
    return EXIT_STEP_FAILURE


# ----------------------------------------------------------------------
# tasks


def radial_point(sys, r):
    """Chart point at radius r (equator and zero azimuth on 3-d charts)."""
    if sys.g.dim == 2:
        return np.array([r, 0.0])
    return np.array([r, np.pi / 2, 0.0])


def run_transform(scn, suffix=""):
    form = scn.get("form", "classical")
    params = scn.get("params", {})
    grid = scn.get("grid", {})
    lo = grid.get("grid_min", 0.5)
    hi = grid.get("grid_max", 5.0)
    samples = int(scn.get("samples", 100))
    if not (hi > lo > 0) or samples < 2:
        raise ValidationError("transform needs 0 < grid_min < grid_max and samples >= 2")
    if form == "classical":
        sys = build_mechanical(scn)
        conf = jacobi_nonrelativistic(sys)
        factor = lambda x: conf.factor_at(x)
        sys_for_chart = sys
    else:
        E_rel = require(scn, "E_rel")
        name = scn.get("system")
        if name in CATALOG:
            sys_for_chart = build_mechanical(scn, need_energy=False)
            _, required, optional, _ = CATALOG[name]
            entry = catalog_entry(name, **{p: params[p] for p in required + optional
                                           if p in params})
            st = spacetime_from_entry(entry)
        else:
            sys_for_chart = build_mechanical(scn, need_energy=False)
            st = weak_field_spacetime(sys_for_chart.g, sys_for_chart.U,
                                      m=sys_for_chart.m, c=params.get("c", 1.0))
        try:
            conf = jacobi_relativistic_stationary(st, E_rel)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        factor = lambda x: conf.factor_at(x)
    rows = []
    skipped = 0
    for r in np.linspace(lo, hi, samples):
        x = radial_point(sys_for_chart, r)
        try:
            rows.append([r, factor(x)])
        except (TurningPoint, DomainViolation):
            skipped += 1
    csv_path, summary_path = out_paths(scn, suffix)
    write_csv(csv_path, ["r", "factor"], rows)
    write_summary(summary_path, scn, {
        "form": form,
        "rows": len(rows),
        "skipped_out_of_domain": skipped,
        "termination": "completed",
    })
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


def run_orbit(scn, suffix=""):
    sys = build_mechanical(scn)
    start = default_initial(scn, sys)
    span = default_span(scn, sys)
    integration = scn["integration"]
    flow_kind = scn.get("flow", "hamilton")
    record = integration.get("record")
    grid = int(record) if record else None
    monitors = {"energy": lambda t, x, p: energy_from_state(sys, x, p)}
    if flow_kind == "jacobi":
        monitors["unit_momentum"] = lambda s, x, p: unit_momentum_hamiltonian(sys, x, p)
        rhs = jacobi_flow(sys)
        kind = "jacobi_s"
    else:
        rhs = hamilton_flow(sys)
        kind = "time_t"
    partial = None
    try:
        traj = integrate(rhs, start, span, rtol=integration["rtol"],
                         atol=integration["atol"], monitor_fns=monitors,
                         parameter_kind=kind, record_grid=grid)
    except StepFailure as exc:
        traj = exc.trajectory
        partial = str(exc)
    drifts = {}
    if traj.states:
        drifts["energy"] = float(np.max(np.abs(
            traj.monitor("energy") - traj.monitor("energy")[0])))
        if flow_kind == "jacobi":
            drifts["unit_momentum"] = float(np.max(np.abs(
                traj.monitor("unit_momentum") - 1.0)))
        if sys.g.dim == 2:
            p_phi = traj.momenta[:, 1]
            drifts["angular_momentum"] = float(np.max(np.abs(p_phi - p_phi[0])))
    csv_path, summary_path = out_paths(scn, suffix)
    write_trajectory_csv(csv_path, traj)
    extra = {
        "flow": flow_kind,
        "span": span,
        "termination": traj.termination,
        "states": len(traj.states),
        "drifts": drifts,
    }
    if partial:
        extra["failure"] = partial
    write_summary(summary_path, scn, extra)
    print(f"wrote {csv_path} ({len(traj.states)} states, {traj.termination})")
    return exit_code_for(traj.termination)


def run_compare(scn, suffix=""):
    sys = build_mechanical(scn)
    start = default_initial(scn, sys)
    span = default_span(scn, sys)
    integration = scn["integration"]
    record = int(integration.get("record") or 8000)
    pace = lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x))
    traj_t = integrate(hamilton_flow(sys), start, span, rtol=integration["rtol"],
                       atol=integration["atol"], pacing=pace, pacing_name="s_of_t",
                       record_grid=record)
    s_max = traj_t.monitor("s_of_t")[-1]
    traj_s = integrate(jacobi_flow(sys), start, s_max, rtol=integration["rtol"],
                       atol=integration["atol"], parameter_kind="jacobi_s",
                       record_grid=record)
    deviation = compare_paths(traj_t, traj_s)
    csv_path, summary_path = out_paths(scn, suffix)
    write_csv(csv_path, ["deviation", "span_t", "span_s"], [[deviation, span, s_max]])
    write_summary(summary_path, scn, {
        "termination": "completed",
        "deviation": deviation,
        "span_t": span,
        "span_s": float(s_max),
        "resample_points": record,
    })
    print(f"max path deviation: {fmt(deviation)}")
    return EXIT_OK


def run_curvature(scn, suffix=""):
    params = scn.get("params", {})
    k = params.get("k", 1.0)
    E = require(scn, "E")
    grid = scn.get("grid", {})
    lo = grid.get("r_min", 0.5)
    hi = grid.get("r_max", 5.0)
    samples = int(scn.get("samples", 100))
    if not (hi > lo > 0) or samples < 2:
        raise ValidationError("curvature needs 0 < r_min < r_max and samples >= 2")
    profile = kepler_profile(k, E)
    rows = []
    skipped = 0
    for r in np.linspace(lo, hi, samples):
        try:
            kn = gaussian_curvature_numeric(profile, r)
            kc = kepler_curvature(k, E, r)
        except (TurningPoint, DomainViolation, JacobiFlowError):
            skipped += 1
            continue
        rows.append([r, kn, kc, abs(kn - kc) / max(1.0, abs(kc))])
    csv_path, summary_path = out_paths(scn, suffix)
    write_csv(csv_path, ["r", "K_numeric", "K_closed", "rel_err"], rows)
    worst = max((row[3] for row in rows), default=None)
    write_summary(summary_path, scn, {
        "termination": "completed",
        "classification": classify_orbit(E),
        "rows": len(rows),
        "skipped_out_of_domain": skipped,
        "max_rel_err": worst,
    })
    print(f"wrote {csv_path} ({len(rows)} rows, {skipped} outside the chart)")
    return EXIT_OK


def run_lift(scn, suffix=""):
    kind = scn.get("kind", "static")
    params = scn.get("params", {})
    integration = scn["integration"]
    m = params.get("m", 1.0)
    init = integration.get("initial") or {"x": [1.0], "p": [0.0]}
    x0 = np.asarray(init["x"], dtype=float)
    p0 = np.asarray(init["p"], dtype=float)
    if x0.shape != p0.shape:
        raise ValidationError("initial x and p must have the same length")
    dim = x0.size
    span = integration.get("span") or 20.0
    record = int(integration.get("record") or 8000)
    lam = params.get("lam", 1.0)
    if kind == "static":
        V = lambda x: 0.5 * lam * float(x @ x)
        lifted = lift_static(flat_metric(dim), V, m=m, kappa=params.get("kappa", 2.0))
        start = embed_static(lifted, x0, p0)
        traj = integrate_lifted(lifted, start, span, rtol=integration["rtol"],
                                atol=integration["atol"], record_grid=record)
        proj = project(traj, lifted)
        direct_sys = MechanicalSystem(
            g=flat_metric(dim), U=lambda x: 0.5 * lam * float(x @ x), m=m,
            grad_U=lambda x: lam * x, name="oscillator-cartesian")
    else:
        q = params.get("q", 1.0)
        amp = params.get("amp", 0.1)
        U = lambda x, t: 0.5 * (1.0 + amp * np.sin(t)) * lam * float(x @ x)
        lifted = lift_time_dependent(flat_metric(dim), U, m=m, c=params.get("c", 1.0))
        try:
            start = embed_time_dependent(lifted, x0, p0, q=q)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        traj = integrate_lifted(lifted, start, span, rtol=integration["rtol"],
                                atol=integration["atol"], record_grid=record)
        proj = project(traj, lifted)
        direct_sys = MechanicalSystem(
            g=flat_metric(dim), U=U, m=m, time_dependent=True,
            grad_U=lambda x, t: (1.0 + amp * np.sin(t)) * lam * x,
            name="driven-oscillator")
    direct = integrate(hamilton_flow(direct_sys), FlowState(0.0, x0, p0),
                       proj.params[-1] - proj.params[0],
                       rtol=integration["rtol"], atol=integration["atol"],
                       record_grid=record)
    deviation = compare_paths(proj, direct)
    pz = traj.monitor("p_dummy")
    drifts = {
        "dummy_momentum": float(np.max(np.abs(pz - pz[0]))),
        "extended_energy": float(max_relative_drift(traj.monitor("extended_energy"))
                                 if traj.monitor("extended_energy")[0] != 0.0
                                 else np.max(np.abs(traj.monitor("extended_energy")))),
    }
    if kind == "timedep":
        drifts["shell_residual"] = float(np.max(np.abs(traj.monitor("shell_residual"))))
    csv_path, summary_path = out_paths(scn, suffix)
    write_trajectory_csv(csv_path, proj)
    write_summary(summary_path, scn, {
        "kind": kind,
        "termination": traj.termination,
        "projection_deviation": deviation,
        "drifts": drifts,
        "states": len(traj.states),
    })
    print(f"wrote {csv_path}; projection deviation {fmt(deviation)}")
    return exit_code_for(traj.termination)


def run_catalog(scn, suffix=""):
    wanted = scn.get("system")
    names = [wanted] if wanted else sorted(CATALOG)
    if wanted and wanted not in CATALOG:
        raise ValidationError(f"unknown catalog entry '{wanted}'")
    for name in names:
        _, required, optional, description = CATALOG[name]
        opts = f" [optional: {', '.join(optional)}]" if optional else ""
        print(f"{name}: requires {', '.join(required)}{opts} - {description}")
    return EXIT_OK


RUNNERS = {
    "transform": run_transform,
    "orbit": run_orbit,
    "compare": run_compare,
    "curvature": run_curvature,
    "lift": run_lift,
    "catalog": run_catalog,
}


# ----------------------------------------------------------------------
# sweep fan-out and entry point


def expand_sweep(scn):
    """Split one list-valued parameter into per-index scenarios."""
    params = scn.get("params", {})
    swept = [name for name, value in params.items() if isinstance(value, (list, tuple))]
    if not swept:
        return None
    if len(swept) > 1:
        raise ValidationError("only one parameter may be list-valued, got: "
                              + ", ".join(sorted(swept)))
    name = swept[0]
    items = []
    for value in params[name]:
        item = json.loads(json.dumps(scn))  # deep copy of plain data
        item["params"][name] = float(value)
        items.append(item)
    return name, items


def run_scenario(scn):
    task = scn.get("task")
    if task not in TASKS:
        raise ValidationError(f"unknown task '{task}' (one of: {', '.join(TASKS)})")
    runner = RUNNERS[task]
    sweep = expand_sweep(scn)
    # after expansion, so sweep values that float() turns non-finite count too
    for item in [scn] if sweep is None else sweep[1]:
        reject_nonfinite(item)
    if sweep is None:
        return runner(scn)
    name, items = sweep
    codes = []
    with ThreadPoolExecutor(max_workers=min(8, len(items))) as pool:
        futures = [pool.submit(runner, item, f"_{i:03d}")
                   for i, item in enumerate(items)]
        for i, future in enumerate(futures):
            # a failing leg must not silence the report for the others
            try:
                code = future.result()
            except ValidationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = EXIT_VALIDATION
            except StepFailure as exc:
                print(f"step failure: {exc}", file=sys.stderr)
                code = EXIT_STEP_FAILURE
            codes.append(code)
            print(f"[{i:03d}] {name}={items[i]['params'][name]!r} -> exit {code}")
    return max(codes)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scn = scenario_from_args(args)
        return run_scenario(scn)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StepFailure as exc:
        print(f"step failure: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE


if __name__ == "__main__":
    sys.exit(main())
