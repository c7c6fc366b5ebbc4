"""Scenario-driven command line front end.

Subcommands: transform (factor on a radial grid), orbit (integrate one flow),
compare (time flow vs rescaled flow), curvature (Kepler radial scan), lift
(extended flow plus projection check), catalog (list entries).  build_parser
states the contract once: each subcommand takes only the flags its run reads
(the tolerances only where it integrates: orbit, compare, lift), each flag's
dest names the scenario entry it sets ('params.E', 'grid.r_min') and each
default is given there.  A scenario file is a JSON object holding only the
entries of its subcommand's flags (and a task, which must be that
subcommand); its values override the flags and must take the shapes and
choices the flags take.  Exactly one parameter may be list-valued; its
values then run one by one in list order, through the same code as a single
run, and output files gain a zero-padded index suffix.

Exit codes: 0 success, 2 refused input (a parser refusal, a parameter the
system or lift does not read, any other ValueError, a launch off the chart
or at a turning point, or a scan with no radius on the chart; one 'error:'
line on stderr), 3 clean numerical termination (turning point or chart
violation), 4 step failure; on 3 and 4 the run writes its partial results,
with the termination and its reason in the summary; a sweep exits with its
largest leg code.
All numeric output is written with 17 significant digits and LF line
endings, so a rerun of the same scenario is byte-identical.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import CATALOG, catalog_entry, mechanical_system_from_entry, spacetime_from_entry
from .curvature import classify_orbit, gaussian_curvature_numeric, kepler_curvature, kepler_profile
from .errors import JacobiFlowError
from .flow import (
    PATH_SAMPLES,
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

TASKS = {
    "transform": "evaluate a rescaling factor on a radial grid",
    "orbit": "integrate one flow and track its invariants",
    "compare": "run the time flow and the rescaled flow, report path deviation",
    "curvature": "radial curvature scan with orbit classification",
    "lift": "integrate an extended lift and check the projection",
    "catalog": "list the built-in spacetime families",
}
PARAM_FLAGS = ("E", "E_rel", "q", "M", "a", "k", "m", "c", "lam", "amp", "kappa")
# the parameters each inline system and each lift reads
INLINE_SYSTEMS = {"kepler": ("k", "m"), "oscillator": ("lam", "m"), "free": ("m",)}
LIFT_KINDS = {"static": ("m", "lam", "kappa"), "timedep": ("m", "lam", "amp", "q", "c")}
# the parser's choices, which scenario files keep to as well; each default is the first
CHOICES = {"flow": ("hamilton", "jacobi"), "form": ("classical", "relativistic"),
           "kind": tuple(LIFT_KINDS)}
_SYSTEMS = {p for _, req, opt, _ in CATALOG.values() for p in req + opt}.union(
    *INLINE_SYSTEMS.values())
# the parameter flags of each subcommand: those its systems or lifts read, and its
# own (E; for transform also E_rel and the c of the relativistic weak field).  The
# mechanical view of orbit and compare reads no c: no entry builds its chart or U from c
TASK_PARAMS = {"transform": _SYSTEMS | {"E", "E_rel", "c"}, "orbit": _SYSTEMS - {"c"} | {"E"},
               "compare": _SYSTEMS - {"c"} | {"E"}, "curvature": {"k", "E"},
               "lift": set().union(*LIFT_KINDS.values()), "catalog": set()}
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TERMINATED = 3
EXIT_STEP_FAILURE = 4


def fmt(value):
    """One float, 17 significant digits, '.' decimal separator."""
    return "%.17g" % float(value)


# ----------------------------------------------------------------------
# scenario assembly


# read for an absent parameter; the summary still reports params as given
PARAM_DEFAULTS = {"k": 1.0, "m": 1.0, "lam": 1.0, "q": 1.0, "amp": 0.1, "c": 1.0, "kappa": 2.0}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals raise ValueError, so that they leave
    main through the one exit path of every refused input."""

    def error(self, message):
        raise ValueError(message)


def _initial(text):
    """The --initial flag 'x1,..,xn,p1,..,pn' as integration.initial."""
    try:
        x, p = np.split(np.array(text.split(","), dtype=float), 2)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "initial needs an even-length flat list of numbers, x then p") from None
    return {"x": x.tolist(), "p": p.tolist()}


@functools.cache
def build_parser():
    """The whole command-line contract: each subcommand takes the flags its
    run reads, and each flag's dest names the scenario entry it sets.  Built
    once per process, on first use; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="jacobi-flow",
        description="transform mechanical systems to rescaled geodesic form, "
                    "integrate both pictures, and check their invariants",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task, blurb in TASKS.items():
        flag = sub.add_parser(task, help=blurb, description=blurb).add_argument
        flag("--scenario", help="JSON scenario file; entries override flags")
        if task not in ("lift", "curvature"):
            flag("--system", help="the one entry to list (default: all)" if task == "catalog"
                 else "catalog name or one of: " + ", ".join(INLINE_SYSTEMS))
        if task == "catalog":
            continue
        flag("--out", dest="output.dir", default=".",
             help="output directory (default %(default)s)")
        flag("--prefix", dest="output.prefix", default=task,
             help="output file prefix (default %(default)s)")
        for name in PARAM_FLAGS:
            if name in TASK_PARAMS[task]:
                flag("--" + name.replace("_", "-"), type=float, dest="params." + name,
                     help=f"system parameter {name}")
        if task in ("orbit", "compare", "lift"):
            flag("--rtol", dest="integration.rtol", type=float, default=1e-9,
                 help="relative integration tolerance (default %(default)s)")
            flag("--atol", dest="integration.atol", type=float, default=1e-12,
                 help="absolute integration tolerance (default %(default)s)")
            flag("--span", dest="integration.span", type=float,
                 default=20.0 if task == "lift" else None, help="integration span" + (
                     " (default %(default)s)" if task == "lift" else " (default: one period)"))
            flag("--initial", dest="integration.initial", type=_initial,
                 help="flat list 'x1,..,xn,p1,..,pn'")
            flag("--record", dest="integration.record", type=int,
                 default=None if task == "orbit" else 8000, help="dense output samples" + (
                     " (0 or absent: the accepted steps)" if task == "orbit"
                     else " (default %(default)s)"))
        choice = {"orbit": "flow", "transform": "form", "lift": "kind"}.get(task)
        if choice:
            flag("--" + choice, choices=CHOICES[choice], default=CHOICES[choice][0],
                 help=f"the {choice} to run (default %(default)s)")
        if task in ("transform", "curvature"):
            bounds = ("grid_min", "grid_max") if task == "transform" else ("r_min", "r_max")
            for bound, default in zip(bounds, (0.5, 5.0)):
                flag("--" + bound.replace("_", "-"), dest="grid." + bound, type=float,
                     default=default, help="first or last radius (default %(default)s)")
            flag("--samples", type=int, default=100, help="grid size (default %(default)s)")
    return parser


def scenario_from_args(args):
    """The scenario the flags set, each at the entry its dest names, with a
    scenario file's entries over them; the file may hold only those entries."""
    given = dict(vars(args))
    path = given.pop("scenario")
    scn = {}
    for dest, value in given.items():
        box, _, key = dest.rpartition(".")
        entries = scn.setdefault(box, {}) if box else scn
        if value is not None:
            entries[key] = value
    if path:
        path = Path(path)
        if not path.exists():
            raise ValueError(f"scenario file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario file is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValueError("a scenario file must hold a JSON object")
        for key, value in overrides.items():
            box = isinstance(scn.get(key), dict)  # params, grid, integration, output
            if box and not isinstance(value, dict):
                raise ValueError(f"{key} must be an object, got {value!r}")
            for entry in [f"{key}.{name}" for name in value] if box else [key]:
                if entry not in given:
                    raise ValueError(f"unknown scenario key {entry} "
                                     f"(one of: {', '.join(sorted(given))})")
            scn[key] = {**scn[key], **value} if box else value
    _check_scenario(scn, given["task"])
    return scn


def _check_scenario(scn, task):
    """Refuse a task other than the subcommand's, entries of another shape
    than the flags give, counts that are not whole numbers, and values off
    their choices."""
    if scn["task"] != task:
        raise ValueError(f"the scenario is for task {scn['task']!r}, not {task!r}")
    init = scn.get("integration", {}).get("initial") or {"x": [], "p": []}
    if not (isinstance(init, dict) and all(isinstance(init.get(c), list) for c in "xp")
            and len(init["x"]) == len(init["p"])):
        raise ValueError(f"integration.initial must hold lists x and p of one length: {init!r}")
    numbers = [(f"integration.initial.{c}[{i}]", v) for c in "xp" for i, v in enumerate(init[c])]
    numbers += [("samples", scn["samples"])] if "samples" in scn else []
    for box in ("params", "grid", "integration"):
        for key, value in scn.get(box, {}).items():
            if box == "params" and isinstance(value, list) and value:  # a sweep
                numbers += [(f"params.{key}[{i}]", v) for i, v in enumerate(value)]
            elif (box, key) != ("integration", "initial"):
                numbers.append((f"{box}.{key}", value))
    for where, value in numbers:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int past any float
            raise ValueError(f"{where} must be finite, got {value!r}")
    counts = {"integration.record": scn.get("integration", {}).get("record"),
              "samples": scn.get("samples")}
    for where, value in counts.items():
        if value is not None and not float(value).is_integer():
            raise ValueError(f"{where} must be a whole number, got {value!r}")
    names = {f"output.{key}": value for key, value in scn.get("output", {}).items()}
    for where, value in {**names, "system": scn.get("system") or ""}.items():
        if not isinstance(value, str) or where == "output.prefix" and not value:
            raise ValueError(f"{where} must be a non-empty string, got {value!r}")
    for key, choices in CHOICES.items():
        if key in scn and scn[key] not in choices:
            raise ValueError(f"unknown {key} {scn[key]!r} (one of: {', '.join(choices)})")


def require(scn, field):
    if scn["params"].get(field) is None:
        raise ValueError(f"missing required parameter '{field}' for task '{scn['task']}'")
    return scn["params"][field]


def _param(scn, name):
    """The scenario's value of a parameter with a default, or the default."""
    return scn["params"].get(name, PARAM_DEFAULTS[name])


def _refuse_unread(scn, reads, what):
    """Refuse the scenario parameters outside reads, those that `what` reads."""
    unread = [name for name in scn["params"] if name not in reads]
    if unread:
        raise ValueError(f"{what} does not take: {', '.join(unread)}")


# ----------------------------------------------------------------------
# system construction


def build_catalog_entry(scn, own):
    """The catalog entry named by the scenario, built from every parameter
    but the task's own ones; a missing or refused parameter raises ValueError."""
    return catalog_entry(scn["system"], **{name: value for name, value in scn["params"].items()
                                           if name not in own})


def build_mechanical(scn, own=("E",)):
    """MechanicalSystem from the scenario's system name and params.  own names
    the parameters the task reads itself, E (the energy label) among them
    unless the task has none; the system must read every other one."""
    name = scn.get("system")
    if not name:
        raise ValueError("missing required field 'system'")
    E = require(scn, "E") if "E" in own else None
    if name in CATALOG:
        # the mechanical view reads the entry's spatial chart and U; no entry builds those from c
        _refuse_unread(scn, set(scn["params"]) - {"c"}, f"the mechanical view of '{name}'")
        return mechanical_system_from_entry(build_catalog_entry(scn, own), E=E)
    if name not in INLINE_SYSTEMS:
        raise ValueError(f"unknown system '{name}' (inline: {', '.join(INLINE_SYSTEMS)}; "
                         f"catalog: {', '.join(sorted(CATALOG))})")
    _refuse_unread(scn, own + INLINE_SYSTEMS[name], f"system '{name}'")
    m = _param(scn, "m")
    if name == "kepler":
        k = _param(scn, "k")
        if k <= 0 or m <= 0:
            raise ValueError("kepler needs k > 0 and m > 0")
        return MechanicalSystem(
            g=polar_metric(), U=lambda x: -k / x[0], m=m, E=E,
            grad_U=lambda x: np.array([k / x[0] ** 2, 0.0]), name="kepler")
    if name == "oscillator":
        lam = _param(scn, "lam")
        if lam <= 0 or m <= 0:
            raise ValueError("oscillator needs lam > 0 and m > 0")
        return MechanicalSystem(
            g=polar_metric(), U=lambda x: 0.5 * lam * (x[0] * x[0]), m=m, E=E,
            grad_U=lambda x: np.array([lam * x[0], 0.0]), name="oscillator")
    return MechanicalSystem(
        g=flat_metric(2), U=lambda x: 0.0 * x[0], m=m, E=E,
        grad_U=lambda x: np.zeros(2), name="free")


def _given_launch(scn):
    """The scenario's integration.initial as a launch state at 0, or None."""
    init = scn["integration"].get("initial")
    if not init:
        return None
    return FlowState(np.asarray(init["x"], dtype=float), np.asarray(init["p"], dtype=float))


def default_initial(scn, sys):
    """A launch state consistent with the requested energy, where one is known."""
    start = _given_launch(scn)
    if start is not None:
        return start
    E = scn["params"].get("E")
    if sys.name == "kepler" and E is not None and E < 0:
        # perihelion of the eccentricity-1/2 orbit at this energy
        k = _param(scn, "k")
        a = k / (2.0 * abs(E))
        r_p = 0.5 * a
        p_phi = np.sqrt(sys.m * k * a * 0.75)
        return FlowState(np.array([r_p, 0.0]), np.array([0.0, p_phi]))
    if sys.name == "oscillator" and E is not None and E > 0:
        lam = _param(scn, "lam")
        r_c = np.sqrt(E / lam)
        p_phi = np.sqrt(sys.m * lam) * r_c * r_c
        return FlowState(np.array([r_c, 0.0]), np.array([0.0, p_phi]))
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


def default_span(scn, sys, rescaled=False):
    """The scenario's span, or one period of the orbit: in time, or, for the
    rescaled flow, in s, which advances at the pacing 2m(E - U).  By the
    virial theorem that pacing averages 2m|E| over a Kepler period and mE
    over an isotropic oscillator's."""
    if scn["integration"].get("span") is not None:
        return float(scn["integration"]["span"])
    E = scn["params"].get("E")
    if sys.name == "kepler" and E is not None and E < 0:
        k = _param(scn, "k")
        a = k / (2.0 * abs(E))
        period = 2.0 * np.pi * a ** 1.5 * np.sqrt(sys.m / k)
        pacing = 2.0 * sys.m * abs(E)
    elif sys.name == "oscillator":
        period = 2.0 * np.pi * np.sqrt(sys.m / _param(scn, "lam"))
        pacing = sys.m * E
    else:
        raise ValueError("no default span for this system; pass "
                         "integration.span (or --span)")
    return period * pacing if rescaled else period


# ----------------------------------------------------------------------
# output


def write_csv(path, header, rows):
    """The header, then each row's values as fmt writes them: one format per
    row, each line written as it is made, so no row string outlives its write."""
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        out.writelines(row_fmt % tuple(row) for row in rows)


def _trajectory_table(traj):
    """CSV header and rows of a trajectory: param, x, p, then its monitors."""
    n = traj.x.shape[1]
    header = (["param"] + [f"x{i+1}" for i in range(n)]
              + [f"p{i+1}" for i in range(n)] + list(traj.monitors))
    return header, np.column_stack([traj.params, traj.x, traj.p, *traj.monitors.values()]).tolist()


def write_summary(path, scn, extra):
    summary = {
        "tool": "jacobi-flow",
        "version": __version__,
        "numpy": np.__version__,
        "task": scn["task"],
        "system": scn.get("system"),
        "params": scn["params"],
    }
    if "integration" in scn:  # the tolerances of a task that integrates
        summary.update(rtol=scn["integration"]["rtol"], atol=scn["integration"]["atol"])
    summary.update(extra)
    # strict JSON: a number that is not finite, such as an overflowed drift, reads null
    summary = json.loads(json.dumps(summary), parse_constant=lambda constant: None)
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          newline="\n")


def _write_outputs(scn, header, rows, extra):
    """Write <prefix>.csv and <prefix>_summary.json; returns the CSV path."""
    out_dir = Path(scn["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = scn["output"]["prefix"]
    csv_path = out_dir / f"{prefix}.csv"
    write_csv(csv_path, header, rows)
    write_summary(out_dir / f"{prefix}_summary.json", scn, extra)
    return csv_path


def _flows_outcome(flows):
    """The path deviation and summary entries of a task of several runs
    (flows: name -> trajectory, in run order).  When every run completed:
    compare_paths of the two runs and termination 'completed'.
    Otherwise no deviation, since paths of different extent measure nothing,
    the first unfinished run's termination and reason, and each run's
    termination under 'flows'."""
    early = next((t for t in flows.values() if t.termination != "completed"), None)
    if early is None:
        return compare_paths(*flows.values()), {"termination": "completed"}
    return None, {"termination": early.termination, "reason": early.reason,
                  "flows": {name: t.termination for name, t in flows.items()}}


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
    lo, hi = scn["grid"][lo_key], scn["grid"][hi_key]
    samples = int(scn["samples"])
    if not (hi > lo > 0) or samples < 2:
        raise ValueError(f"{scn['task']} needs 0 < {lo_key} < {hi_key} "
                         "and samples >= 2")
    return np.linspace(lo, hi, samples)


def radial_points(dim, radii):
    """(N, dim) chart points at the radii (equator and zero azimuth on 3-d charts)."""
    points = np.zeros((len(radii), dim))
    points[:, 0] = radii
    if dim == 3:
        points[:, 1] = np.pi / 2
    return points


def _radial_scan(radii, row_at, on_chart=None, rows_at=None):
    """Rows row_at(i) for the indices i of the radii that on_chart flags (every
    one when None) and how many radii gave no row, off the flags or refused
    off the chart by row_at raising JacobiFlowError; ValueError if none did.
    rows_at(indices), when given, makes the rows of all the indices in one
    call; if it raises JacobiFlowError, row_at replays them one by one."""
    indices = range(len(radii)) if on_chart is None else np.flatnonzero(on_chart)
    rows = None
    if rows_at is not None and len(indices):
        try:
            rows = rows_at(indices)
        except JacobiFlowError:
            pass
    if rows is None:
        rows = []
        for i in indices:
            try:
                rows.append(row_at(i))
            except JacobiFlowError:
                pass
    if not rows:
        raise _none_on_chart(radii)
    return rows, len(radii) - len(rows)


def _none_on_chart(radii):
    """The refusal of a radial scan that wrote no row."""
    return ValueError(f"no radius from {radii[0]:g} to {radii[-1]:g} lies inside the chart")


def run_transform(scn):
    form = scn["form"]
    radii = radial_grid(scn, "grid_min", "grid_max")
    if form == "classical":
        sys = build_mechanical(scn)
        conf = jacobi_nonrelativistic(sys)
    else:
        E_rel = require(scn, "E_rel")
        if scn.get("system") in CATALOG:
            st = spacetime_from_entry(build_catalog_entry(scn, own=("E_rel",)))
        else:
            sys = build_mechanical(scn, own=("E_rel", "c"))
            st = weak_field_spacetime(sys.g, sys.U, m=sys.m, c=_param(scn, "c"))
        conf = jacobi_relativistic_stationary(st, E_rel)
    # the base chart's guard, which factor_at does not read, asked once over
    # every point, then the factor once over the points it accepts
    points = radial_points(conf.base.dim, radii)
    rows, skipped = _radial_scan(
        radii, lambda i: [radii[i], conf.factor_at(points[i])], conf.base.valid(points),
        lambda i: np.column_stack([radii[i], conf.factor_at(points[i])]).tolist())
    csv_path = _write_outputs(scn, ["r", "factor"], rows, {
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
    flow_kind = scn["flow"]
    span = default_span(scn, sys, rescaled=flow_kind == "jacobi")
    integration = scn["integration"]
    record = integration.get("record")
    grid = int(record) if record else None
    if flow_kind == "jacobi":
        _require_on_shell(sys, start)
        rhs = jacobi_flow(sys)
    else:
        rhs = hamilton_flow(sys)
    traj = integrate(rhs, start, span, rtol=integration["rtol"],
                     atol=integration["atol"], record_grid=grid)
    energy = traj.monitors["energy"] = energy_from_state(sys, traj.x, traj.p)
    drifts = {"energy": float(np.max(np.abs(energy - energy[0])))}
    if flow_kind == "jacobi":
        unit = traj.monitors["unit_momentum"] = unit_momentum_hamiltonian(sys, traj.x, traj.p)
        drifts["unit_momentum"] = float(np.max(np.abs(unit - 1.0)))
    if sys.g.name == "polar":  # x2 is the cyclic angle phi only on the polar chart
        p_phi = traj.p[:, 1]
        drifts["angular_momentum"] = float(np.max(np.abs(p_phi - p_phi[0])))
    extra = {
        "flow": flow_kind,
        "span": span,
        "termination": traj.termination,
        "states": len(traj.params),
        "drifts": drifts,
        "stats": traj.stats,
    }
    if traj.termination != "completed":
        extra["reason"] = traj.reason
    csv_path = _write_outputs(scn, *_trajectory_table(traj), extra)
    print(f"wrote {csv_path} ({len(traj.params)} states, {traj.termination})")
    return exit_code_for(traj.termination)


def run_compare(scn):
    sys = build_mechanical(scn)
    start = default_initial(scn, sys)
    _require_on_shell(sys, start)
    span = default_span(scn, sys)
    integration = scn["integration"]
    record = int(integration["record"])
    if record < PATH_SAMPLES:
        # compare_paths resamples to PATH_SAMPLES points: fewer states would
        # compare chords, not paths
        raise ValueError(f"record must be at least {PATH_SAMPLES} to compare paths, "
                         f"got {record}")
    pace = lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x))
    traj_t = integrate(hamilton_flow(sys), start, span, rtol=integration["rtol"],
                       atol=integration["atol"], pacing=pace, record_grid=record)
    flows = {"time": traj_t}
    s_max = traj_t.monitors["pacing"][-1]
    if len(traj_t.params) > 1:  # the time flow may end before its first grid point
        flows["rescaled"] = integrate(jacobi_flow(sys), start, s_max, rtol=integration["rtol"],
                                      atol=integration["atol"], record_grid=record)
    deviation, extra = _flows_outcome(flows)
    measured = np.nan if deviation is None else deviation
    _write_outputs(scn, ["deviation", "span_t", "span_s"], [[measured, span, s_max]], {
        "deviation": deviation,
        "span_t": span,
        "span_s": float(s_max),
        "resample_points": record,
        "stats": {name: traj.stats for name, traj in flows.items()},
        **extra,
    })
    print(f"max path deviation: {fmt(measured)}")
    return exit_code_for(extra["termination"])


def _curvature_scan(k, E, radii):
    """The rows [r, K_numeric, K_closed, rel_err] of the radii whose stencil
    stays on the chart of the Kepler profile, how many radii gave no row (their
    stencil raised JacobiFlowError), and the largest rel_err; ValueError if
    none gave one.  One pass calls gaussian_curvature_numeric once per radius
    into a column; the closed form and the errors are arrays over the kept radii."""
    profile = kepler_profile(k, E)
    numeric = np.empty(len(radii))
    kept = np.ones(len(radii), bool)
    for i, r in enumerate(radii.tolist()):
        try:
            numeric[i] = gaussian_curvature_numeric(profile, r)
        except JacobiFlowError:
            kept[i] = False
    if not kept.any():
        raise _none_on_chart(radii)
    r, kn = radii[kept], numeric[kept]
    kc = kepler_curvature(k, E, r)
    err = np.abs(kn - kc) / np.maximum(1.0, np.abs(kc))
    return np.column_stack([r, kn, kc, err]).tolist(), len(radii) - len(r), float(err.max())


def run_curvature(scn):
    k = _param(scn, "k")
    if not k > 0:
        raise ValueError(f"curvature needs k > 0, got {k!r}")
    E = require(scn, "E")
    rows, skipped, worst = _curvature_scan(k, E, radial_grid(scn, "r_min", "r_max"))
    csv_path = _write_outputs(scn, ["r", "K_numeric", "K_closed", "rel_err"], rows, {
        "termination": "completed",
        "classification": classify_orbit(E),
        "rows": len(rows),
        "skipped_out_of_domain": skipped,
        "max_rel_err": worst,
    })
    print(f"wrote {csv_path} ({len(rows)} rows, {skipped} outside the chart)")
    return EXIT_OK


def run_lift(scn):
    kind = scn["kind"]
    _refuse_unread(scn, LIFT_KINDS[kind], f"the {kind} lift")
    integration = scn["integration"]
    m = _param(scn, "m")
    launch = _given_launch(scn) or FlowState(np.array([1.0]), np.array([0.0]))
    x0, p0, dim = launch.x, launch.p, launch.x.size
    span = integration["span"]
    record = int(integration["record"])
    lam = _param(scn, "lam")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    if kind == "static":
        sys = MechanicalSystem(g=flat_metric(dim), U=lambda x: 0.5 * lam * (x * x).sum(axis=0),
                               m=m, grad_U=lambda x: lam * x)
        lifted = lift_static(sys, kappa=_param(scn, "kappa"))
        start = embed_static(lifted, x0, p0)
    else:
        amp = _param(scn, "amp")
        if not abs(amp) < 1:  # the drive 1 + amp sin t must stay positive, as lam must
            raise ValueError(f"amp must lie strictly between -1 and 1, got {amp!r}")
        sys = MechanicalSystem(
            g=flat_metric(dim),
            U=lambda x, t: 0.5 * (1.0 + amp * np.sin(t)) * lam * (x * x).sum(axis=0), m=m,
            time_dependent=True, grad_U=lambda x, t: (1.0 + amp * np.sin(t)) * lam * x)
        lifted = lift_time_dependent(sys, c=_param(scn, "c"))
        start = embed_time_dependent(lifted, x0, p0, q=_param(scn, "q"))
    traj = integrate_lifted(lifted, start, span, rtol=integration["rtol"],
                            atol=integration["atol"], record_grid=record)
    proj = project(traj, lifted)
    direct = integrate(hamilton_flow(sys), launch,
                       proj.params[-1] - proj.params[0],
                       rtol=integration["rtol"], atol=integration["atol"],
                       record_grid=record)
    deviation, extra = _flows_outcome({"lifted": proj, "direct": direct})
    pz, ee = traj.monitors["p_dummy"], traj.monitors["extended_energy"]
    drifts = {
        "dummy_momentum": float(np.max(np.abs(pz - pz[0]))),
        "extended_energy": max_relative_drift(ee),
    }
    if kind == "timedep":
        drifts["shell_residual"] = float(np.max(np.abs(traj.monitors["shell_residual"])))
    csv_path = _write_outputs(scn, *_trajectory_table(proj), {
        "kind": kind,
        "projection_deviation": deviation,
        "drifts": drifts,
        "states": len(traj.params),
        "stats": {"lifted": traj.stats, "direct": direct.stats},
        **extra,
    })
    print(f"wrote {csv_path}; projection deviation "
          f"{fmt(np.nan if deviation is None else deviation)}")
    return exit_code_for(extra["termination"])


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
    prefix = scn["output"]["prefix"]
    items = []
    for i, value in enumerate(params[name]):
        item = json.loads(json.dumps(scn))  # deep copy of plain data
        item["params"][name] = float(value)
        item["output"]["prefix"] = f"{prefix}_{i:03d}"
        items.append(item)
    return name, items


def run_scenario(scn):
    runner = RUNNERS[scn["task"]]
    sweep = expand_sweep(scn)
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
    except (ValueError, JacobiFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None):
    # run_scenario is looked up at call time, so a wrapper on it sees every run
    return _exit_code(lambda: run_scenario(scenario_from_args(build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
