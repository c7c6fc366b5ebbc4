"""Scenario-driven command line front end.

Subcommands: transform (factor on a radial grid), orbit (integrate one flow),
compare (time flow vs rescaled flow), curvature (radial scan), lift (extended
flow plus projection check), catalog (list entries).  A scenario file is a
JSON object with keys task, system, params, integration, output; values given
there override the corresponding flags.  Exactly one parameter may be
list-valued; its values then run one by one in list order, through the same
code as a single run, and output files gain a zero-padded index suffix.

Exit codes: 0 success, 2 refused input (any ValueError, or a launch outside
the chart or at a turning point; one 'error:' line on stderr), 3 clean
numerical termination (turning point or chart violation, reported in the
summary metadata), 4 step failure; a sweep exits with its largest leg code.
All numeric output is written with 17 significant digits and LF line
endings, so a rerun of the same scenario is byte-identical.
"""

import argparse
import json
import math
import sys
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
            raise ValueError("initial needs an even-length flat list of x then p")
        half = len(flat) // 2
        scn["integration"]["initial"] = {"x": flat[:half], "p": flat[half:]}
    for extra in ("flow", "form", "kind", "samples"):
        if getattr(args, extra, None) is not None:
            scn[extra] = getattr(args, extra)
    for bound in ("grid_min", "grid_max", "r_min", "r_max"):
        if getattr(args, bound, None) is not None:
            scn.setdefault("grid", {})[bound] = getattr(args, bound)
    if args.scenario:
        path = Path(args.scenario)
        if not path.exists():
            raise ValueError(f"scenario file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario file is not valid JSON: {exc}") from exc
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(scn.get(key), dict):
                scn[key].update(value)
            else:
                scn[key] = value
    return scn


def reject_nonfinite(value, where=""):
    """Raise ValueError on a NaN or infinite number anywhere in plain
    scenario data (flags and scenario-file values alike)."""
    if isinstance(value, dict):
        for key, item in value.items():
            reject_nonfinite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            reject_nonfinite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value!r}")


def require(scn, field, where="params"):
    box = scn.get(where) or {}
    if field not in box or box[field] is None:
        raise ValueError(f"missing required parameter '{field}' for "
                         f"task '{scn['task']}'")
    return box[field]


# ----------------------------------------------------------------------
# system construction


def build_catalog_entry(scn):
    """The catalog entry named by the scenario, built from the params its
    family takes; a missing or refused parameter raises ValueError."""
    name = scn["system"]
    params = scn.get("params", {})
    _, required, optional, _ = CATALOG[name]
    return catalog_entry(name, **{p: params[p] for p in required + optional
                                  if p in params})


def build_mechanical(scn, need_energy=True):
    """MechanicalSystem from the scenario's system name and params."""
    name = scn.get("system")
    if not name:
        raise ValueError("missing required field 'system'")
    params = scn.get("params", {})
    E = require(scn, "E") if need_energy else params.get("E")
    if name == "kepler":
        k = params.get("k", 1.0)
        m = params.get("m", 1.0)
        if k <= 0 or m <= 0:
            raise ValueError("kepler needs k > 0 and m > 0")
        return MechanicalSystem(
            g=polar_metric(), U=lambda x: -k / x[0], m=m, E=E,
            grad_U=lambda x: np.array([k / x[0] ** 2, 0.0]), name="kepler")
    if name == "oscillator":
        lam = params.get("lam", 1.0)
        m = params.get("m", 1.0)
        if lam <= 0 or m <= 0:
            raise ValueError("oscillator needs lam > 0 and m > 0")
        return MechanicalSystem(
            g=polar_metric(), U=lambda x: 0.5 * lam * x[0] ** 2, m=m, E=E,
            grad_U=lambda x: np.array([lam * x[0], 0.0]), name="oscillator")
    if name == "free":
        m = params.get("m", 1.0)
        return MechanicalSystem(
            g=flat_metric(2), U=lambda x: 0.0, m=m, E=E,
            grad_U=lambda x: np.zeros(2), name="free")
    if name in CATALOG:
        return mechanical_system_from_entry(build_catalog_entry(scn), E=E)
    raise ValueError(f"unknown system '{name}' (inline: "
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
            raise ValueError("initial x and p must have the same length")
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
    raise ValueError("this system/energy has no default launch state; "
                     "pass integration.initial (or --initial)")


# Largest |H(x0, p0) - E| / max(1, |E|) a rescaled-flow launch may have: off
# the energy surface that flow is not the time flow repaced.  Closed-form
# launches land within about 1e-15; the limit is the default rtol.
SHELL_TOL = 1e-9


def _require_on_shell(sys, start):
    """Refuse a rescaled-flow launch off the energy-E surface."""
    gap = energy_from_state(sys, start.x, start.p) - sys.E
    if not abs(gap) <= SHELL_TOL * max(1.0, abs(sys.E)):
        raise ValueError(f"the launch is off the energy surface: "
                         f"H(x0, p0) - E = {gap:.6g}")


def default_span(scn, sys):
    integration = scn.get("integration", {})
    if integration.get("span") is not None:
        return float(integration["span"])
    params = scn.get("params", {})
    E = params.get("E")
    if sys.name == "kepler" and E is not None and E < 0:
        k = params.get("k", 1.0)
        a = k / (2.0 * abs(E))
        return 2.0 * np.pi * a ** 1.5 * np.sqrt(sys.m / k)
    if sys.name == "oscillator":
        lam = params.get("lam", 1.0)
        return 2.0 * np.pi * np.sqrt(sys.m / lam)
    raise ValueError("no default span for this system; pass "
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
    summary.update(extra)
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                          newline="\n")


def out_paths(scn):
    out_dir = Path(scn["output"].get("dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = scn["output"].get("prefix") or scn["task"]
    return out_dir / f"{prefix}.csv", out_dir / f"{prefix}_summary.json"


def exit_code_for(termination):
    if termination == "completed":
        return EXIT_OK
    if termination in ("turning_point", "domain_violation"):
        return EXIT_TERMINATED
    return EXIT_STEP_FAILURE


# ----------------------------------------------------------------------
# tasks


def radial_grid(scn, lo_key, hi_key):
    """The scenario's radii: samples >= 2 points from lo to hi, 0 < lo < hi."""
    grid = scn.get("grid", {})
    lo, hi = grid.get(lo_key, 0.5), grid.get(hi_key, 5.0)
    samples = int(scn.get("samples", 100))
    if not (hi > lo > 0) or samples < 2:
        raise ValueError(f"{scn['task']} needs 0 < {lo_key} < {hi_key} "
                         "and samples >= 2")
    return np.linspace(lo, hi, samples)


def radial_point(dim, r):
    """Chart point at radius r (equator and zero azimuth on 3-d charts)."""
    if dim == 2:
        return np.array([r, 0.0])
    return np.array([r, np.pi / 2, 0.0])


def run_transform(scn):
    form = scn.get("form", "classical")
    params = scn.get("params", {})
    radii = radial_grid(scn, "grid_min", "grid_max")
    if form == "classical":
        sys = build_mechanical(scn)
        conf = jacobi_nonrelativistic(sys)
    else:
        E_rel = require(scn, "E_rel")
        if scn["system"] in CATALOG:
            st = spacetime_from_entry(build_catalog_entry(scn))
        else:
            sys = build_mechanical(scn, need_energy=False)
            st = weak_field_spacetime(sys.g, sys.U, m=sys.m, c=params.get("c", 1.0))
        conf = jacobi_relativistic_stationary(st, E_rel)
    rows = []
    skipped = 0
    for r in radii:
        x = radial_point(conf.base.dim, r)
        try:
            rows.append([r, conf.factor_at(x)])
        except (TurningPoint, DomainViolation):
            skipped += 1
    csv_path, summary_path = out_paths(scn)
    write_csv(csv_path, ["r", "factor"], rows)
    write_summary(summary_path, scn, {
        "form": form,
        "rows": len(rows),
        "skipped_out_of_domain": skipped,
        "termination": "completed",
    })
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


def run_orbit(scn):
    sys = build_mechanical(scn)
    start = default_initial(scn, sys)
    span = default_span(scn, sys)
    integration = scn["integration"]
    flow_kind = scn.get("flow", "hamilton")
    record = integration.get("record")
    grid = int(record) if record else None
    monitors = {"energy": lambda t, x, p: energy_from_state(sys, x, p)}
    if flow_kind == "jacobi":
        _require_on_shell(sys, start)
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
    csv_path, summary_path = out_paths(scn)
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


def run_compare(scn):
    sys = build_mechanical(scn)
    start = default_initial(scn, sys)
    _require_on_shell(sys, start)
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
    csv_path, summary_path = out_paths(scn)
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


def run_curvature(scn):
    params = scn.get("params", {})
    k = params.get("k", 1.0)
    E = require(scn, "E")
    radii = radial_grid(scn, "r_min", "r_max")
    profile = kepler_profile(k, E)
    rows = []
    skipped = 0
    for r in radii:
        try:
            kn = gaussian_curvature_numeric(profile, r)
            kc = kepler_curvature(k, E, r)
        except JacobiFlowError:
            skipped += 1
            continue
        rows.append([r, kn, kc, abs(kn - kc) / max(1.0, abs(kc))])
    csv_path, summary_path = out_paths(scn)
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


def run_lift(scn):
    kind = scn.get("kind", "static")
    params = scn.get("params", {})
    integration = scn["integration"]
    m = params.get("m", 1.0)
    init = integration.get("initial") or {"x": [1.0], "p": [0.0]}
    x0 = np.asarray(init["x"], dtype=float)
    p0 = np.asarray(init["p"], dtype=float)
    if x0.shape != p0.shape:
        raise ValueError("initial x and p must have the same length")
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
        direct_sys = MechanicalSystem(g=flat_metric(dim), U=V, m=m,
                                      grad_U=lambda x: lam * x, name="oscillator-cartesian")
    else:
        q = params.get("q", 1.0)
        amp = params.get("amp", 0.1)
        U = lambda x, t: 0.5 * (1.0 + amp * np.sin(t)) * lam * float(x @ x)
        lifted = lift_time_dependent(flat_metric(dim), U, m=m, c=params.get("c", 1.0))
        start = embed_time_dependent(lifted, x0, p0, q=q)
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
    csv_path, summary_path = out_paths(scn)
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


def run_catalog(scn):
    wanted = scn.get("system")
    names = [wanted] if wanted else sorted(CATALOG)
    if wanted and wanted not in CATALOG:
        raise ValueError(f"unknown catalog entry '{wanted}'")
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
# sweeps and entry point


def expand_sweep(scn):
    """Split one list-valued parameter into per-index scenarios, each
    writing under its output prefix plus a zero-padded index."""
    params = scn.get("params", {})
    swept = [name for name, value in params.items() if isinstance(value, (list, tuple))]
    if not swept:
        return None
    if len(swept) > 1:
        raise ValueError("only one parameter may be list-valued, got: "
                         + ", ".join(sorted(swept)))
    name = swept[0]
    prefix = scn["output"].get("prefix") or scn["task"]
    items = []
    for i, value in enumerate(params[name]):
        item = json.loads(json.dumps(scn))  # deep copy of plain data
        item["params"][name] = float(value)
        item["output"]["prefix"] = f"{prefix}_{i:03d}"
        items.append(item)
    return name, items


def run_scenario(scn):
    task = scn.get("task")
    if task not in TASKS:
        raise ValueError(f"unknown task '{task}' (one of: {', '.join(TASKS)})")
    runner = RUNNERS[task]
    sweep = expand_sweep(scn)
    # after expansion, so sweep values that float() turns non-finite count too
    for item in [scn] if sweep is None else sweep[1]:
        reject_nonfinite(item)
    if sweep is None:
        return runner(scn)
    name, items = sweep
    codes = []
    for i, item in enumerate(items):
        # a failing leg must not silence the report for the others
        codes.append(_exit_code(runner, item))
        print(f"[{i:03d}] {name}={item['params'][name]!r} -> exit {codes[-1]}")
    return max(codes)


def _exit_code(run, *args):
    """run(*args), with what escapes it as an exit code and one stderr line.
    A JacobiFlowError here is a launch outside the chart or at a turning
    point: once a run has started, integrate() reports those as its
    termination."""
    try:
        return run(*args)
    except StepFailure as exc:
        print(f"step failure: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE
    except (ValueError, JacobiFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None):
    args = build_parser().parse_args(argv)
    # run_scenario is looked up at call time, so a wrapper on it sees every run
    return _exit_code(lambda: run_scenario(scenario_from_args(args)))


if __name__ == "__main__":
    sys.exit(main())
