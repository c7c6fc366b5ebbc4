"""Span arithmetic and the per-layer metrics derived from it.

Self time of a span is its busy (CPU) time minus that of its children on
the same thread.  A sweep leg runs on a pool thread while the span that
started it waits; the leg's busy time is its own, so it is not taken off
the waiting span.
"""

import numpy as np

# runners of the CLI: one call is one leg
RUNNER_PREFIX = "cli.run_"
SWEEP_SPAN = "cli.run_scenario"
ROOT_SPAN = "task"
WRITE_SPANS = ("cli.write_csv", "cli.write_trajectory_csv", "cli.write_summary",
               "cli.fmt")
LAYERS = ("metric", "flow", "transforms", "curvature", "catalog", "lift", "cli")


def self_times(ids, parents, threads, busy):
    """Self time of every span, in the units of busy.

    ids must be sorted; parents holds the parent's id or -1.
    """
    ids, parents, threads = map(np.asarray, (ids, parents, threads))
    busy = np.asarray(busy, dtype=float)
    child = np.nonzero(parents >= 0)[0]
    owner = np.searchsorted(ids, parents[child])
    local = threads[child] == threads[owner]
    cover = np.bincount(owner[local], weights=busy[child[local]], minlength=ids.size)
    return busy - cover


def summarize(spans, names):
    """Per-name calls, inclusive and self busy seconds, plus the leg count
    and the sweep busy/wall seconds, from the arrays Tracer.spans() returns."""
    ids, parents, codes = spans["ids"], spans["parents"], spans["names"]
    busy = spans["cpu"].astype(float)
    own = self_times(ids, parents, spans["threads"], busy)
    wall = (spans["ends"] - spans["starts"]).astype(float)
    n = len(names)
    calls = np.bincount(codes, minlength=n)
    incl = np.bincount(codes, weights=busy, minlength=n)
    selft = np.bincount(codes, weights=own, minlength=n)
    stats = {name: {"calls": int(calls[i]), "incl_s": incl[i] * 1e-9,
                    "self_s": selft[i] * 1e-9}
             for i, name in enumerate(names) if calls[i]}
    # sweeps: run_scenario spans with two or more runner children
    runner = np.isin(codes, [i for i, name in enumerate(names)
                             if name.startswith(RUNNER_PREFIX) and name != SWEEP_SPAN])
    owner = np.searchsorted(ids, parents[runner & (parents >= 0)])
    legs_under = np.bincount(owner, minlength=ids.size)
    busy_under = np.bincount(owner, weights=busy[runner & (parents >= 0)],
                             minlength=ids.size)
    sweeps = legs_under >= 2
    legs = spans["legs"]
    return {
        "stats": stats,
        "legs": int(np.unique(legs[legs >= 0]).size),
        "sweep_busy_s": float(busy_under[sweeps].sum()) * 1e-9,
        "sweep_wall_s": float(wall[sweeps].sum()) * 1e-9,
    }


def layer_metrics(summary, counts, accuracy, overhead):
    """Every per-layer metric, as {name: (value, unit)}."""
    stats = summary["stats"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def incl(*names):
        return sum(stats.get(n, {}).get("incl_s", 0.0) for n in names)

    def own(*names):
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    def per(total_s, n, scale=1e6):
        return total_s * scale / n if n else 0.0

    def us_per_call(name):
        return per(incl(name), calls(name))

    layer_self = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    for name, st in stats.items():
        if name == ROOT_SPAN:
            continue
        total += st["self_s"]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st["self_s"]

    def share(layer):
        return layer_self[layer] / total if total else 0.0

    rhs_calls = sum(st["calls"] for name, st in stats.items() if name.endswith(".rhs"))
    accepted = counts.get("flow.steps_accepted", 0)
    states = calls("flow.record")
    m = {}
    for fn in ("coordinate_point", "evaluate_metric", "invert_metric", "metric_partials"):
        m[f"metric.{fn}.calls"] = (calls(f"metric.{fn}"), "count")
    m["metric.evaluate_metric.self_s"] = (own("metric.evaluate_metric"), "s")
    m["metric.invert_metric.us_per_call"] = (us_per_call("metric.invert_metric"), "us")
    m["metric.invert_metric.self_s"] = (own("metric.invert_metric"), "s")
    m["metric.metric_partials.self_s"] = (own("metric.metric_partials"), "s")
    m["metric.inverse_metric_partials.self_s"] = (own("metric.inverse_metric_partials"), "s")
    m["metric.share"] = (share("metric"), "ratio")

    m["flow.rhs.calls"] = (rhs_calls, "count")
    m["flow.hamilton_rhs.us_per_call"] = (us_per_call("flow.hamilton_rhs"), "us")
    m["flow.jacobi_rhs.us_per_call"] = (us_per_call("flow.jacobi_rhs"), "us")
    m["flow.steps_accepted"] = (accepted, "count")
    m["flow.steps_rejected"] = (counts.get("flow.steps_rejected", 0), "count")
    m["flow.nfev_per_step"] = (per(rhs_calls, accepted, 1.0), "count")
    m["flow.stepper.us_per_step"] = (per(own("flow.stepper.step"), accepted), "us")
    m["flow.record.states"] = (states, "count")
    m["flow.record.us_per_state"] = (per(incl(
        "flow.record", "flow.record.dense_eval", "flow.stepper.dense_output"),
        states), "us")
    m["flow.compare_paths.self_s"] = (own("flow.compare_paths"), "s")
    m["flow.share"] = (share("flow"), "ratio")

    for fn in ("factor_at", "energy_from_state"):
        m[f"transforms.{fn}.calls"] = (calls(f"transforms.{fn}"), "count")
        m[f"transforms.{fn}.us_per_call"] = (us_per_call(f"transforms.{fn}"), "us")
    m["transforms.share"] = (share("transforms"), "ratio")

    m["curvature.gaussian_curvature_numeric.calls"] = (
        calls("curvature.gaussian_curvature_numeric"), "count")
    m["curvature.gaussian_curvature_numeric.us_per_call"] = (
        us_per_call("curvature.gaussian_curvature_numeric"), "us")
    m["curvature.share"] = (share("curvature"), "ratio")

    m["catalog.components.calls"] = (calls("catalog.components"), "count")
    m["catalog.components.us_per_call"] = (us_per_call("catalog.components"), "us")
    m["catalog.share"] = (share("catalog"), "ratio")

    m["lift.lifted_rhs.calls"] = (calls("lift.lifted_rhs.rhs"), "count")
    m["lift.lifted_rhs.us_per_call"] = (us_per_call("lift.lifted_rhs.rhs"), "us")
    m["lift.monitors.us_per_state"] = (per(
        incl("lift.lifted_hamiltonian", "lift.lifted_energy_relation"),
        calls("lift.lifted_hamiltonian")), "us")
    m["lift.project.self_s"] = (own("lift.project"), "s")
    m["lift.share"] = (share("lift"), "ratio")

    m["cli.legs"] = (summary["legs"], "count")
    m["cli.sweep.speedup"] = (summary["sweep_busy_s"] / summary["sweep_wall_s"]
                              if summary["sweep_wall_s"] else 0.0, "ratio")
    m["cli.write.self_s"] = (own(*WRITE_SPANS), "s")
    m["cli.write.bytes"] = (counts.get("cli.write.bytes", 0), "bytes")
    m["cli.share"] = (share("cli"), "ratio")

    m["check.path_dev_max"] = (accuracy.get("path_dev", 0.0), "chart")
    m["check.drift_max"] = (accuracy.get("drift", 0.0), "1")
    m["check.curv_err_max"] = (accuracy.get("curv_err", 0.0), "1")
    m["check.gate_ratio_max"] = (accuracy.get("gate_ratio", 0.0), "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    return m
