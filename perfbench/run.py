"""Benchmark of the jacobi-flow pipeline.

    python3 perfbench/run.py --workload kepler_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
workload's tasks are generated from the seed (perfbench/plan.py) and run in a
fresh worker process through ``jacobiflow.cli.main`` (perfbench/worker.py).
Every leg's outputs are checked (perfbench/checks.py) and hashed; repeated
rounds and the traced round must reproduce the first round byte for byte.

--trace 0 prints the end-to-end metrics; --trace 1 also runs a second, traced
worker on the same seed and prints the per-layer metrics.  --workload all
runs the three workloads in turn.  The last line of output is one JSON
object; the exit code is 0 only when every leg passed every check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from checks import check_leg, leg_files
from layers import layer_metrics
from plan import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# fresh processes that time the import; one more runs first to warm caches
SETUP_PROBES = 5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def task_seconds(rounds):
    """Each task's median time across the rounds.  A shared machine slows
    single tasks for seconds at a time; a per-task median drops those.
    Their sum is the round's wall time, `wall_s`."""
    return [statistics.median(times) for times in zip(*rounds)]


def group_shares(tasks, seconds):
    """Each task group's share of the round's wall time."""
    shares = {}
    for task, time in zip(tasks, seconds):
        shares[task["group"]] = shares.get(task["group"], 0.0) + time / sum(seconds)
    return shares


def cpu_ticks():
    """The machine's total and stolen CPU ticks so far, from /proc/stat;
    None where the file is not there."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(value) for value in fields[:8]]
    return sum(ticks), ticks[7] if len(ticks) == 8 else 0


def steal_share(before, after):
    """The share of the machine's CPU time the host took between two
    cpu_ticks() readings: a run with a large share ran on a slowed machine."""
    if before is None or after is None or after[0] == before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def run_worker(src, *args, timeout):
    cmd = [sys.executable, str(WORKER), "--src", str(src), *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def setup_seconds(src):
    times = [float(run_worker(src, "--probe", timeout=120))
             for _ in range(SETUP_PROBES + 1)]
    return statistics.median(times[1:])


def run_rounds(src, run_dir, name, seconds, trace=False, spans=None):
    result = run_dir / f"{name}.json"
    args = ["--plan", run_dir / "plan.json", "--out", run_dir / name,
            "--seconds", seconds, "--result", result]
    if trace:
        args += ["--trace", "--spans", spans]
    run_worker(src, *args, timeout=seconds + 150)
    return json.loads(result.read_text())


def write_plan(tasks, run_dir):
    """Scenario files go next to the plan; argv then points at them."""
    run_dir.mkdir(parents=True)
    for task in tasks:
        if task["scenario"] is not None:
            path = run_dir / f"{task['id']}_scenario.json"
            path.write_text(json.dumps(task["scenario"]))
            task["argv"] = task["argv"][:1] + ["--scenario", str(path)] + task["argv"][1:]
    (run_dir / "plan.json").write_text(json.dumps(tasks))


def check_legs(tasks, untraced, out_dir, traced=None):
    """Problems per leg and the run's accuracy maxima."""
    unstable = set(untraced["mismatched"])
    if traced is not None:
        theirs = traced["hashes"]
        ours = untraced["hashes"]
        unstable |= {name for name in set(ours) | set(theirs)
                     if ours.get(name) != theirs.get(name)}
    report, accuracy = [], {}
    for task, code in zip(tasks, untraced["codes"]):
        for leg in task["legs"]:
            stem = f"{task['id']}{leg['suffix']}"
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                problems, acc = check_leg(out_dir, task["id"], leg)
                for key, value in acc.items():
                    accuracy[key] = max(accuracy.get(key, 0.0), value)
            if {path.name for path in leg_files(out_dir, task["id"], leg)} & unstable:
                problems.append("outputs differ between runs of one seed")
            report.append((stem, problems))
    return report, accuracy


def run_workload(workload, seed, seconds, trace, root):
    src = root / "src"
    tasks = make_plan(workload, seed)
    run_dir = root / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        write_plan(tasks, run_dir)
        setup_s = setup_seconds(src)
        ticks = cpu_ticks()
        untraced = run_rounds(src, run_dir, "untraced", seconds)
        steal = steal_share(ticks, cpu_ticks())
        traced = None
        if trace:
            spans = root / ".bench_out" / f"{workload}.spans.npz"
            traced = run_rounds(src, run_dir, "traced", seconds, trace=True,
                                spans=spans)
        legs, accuracy = check_legs(tasks, untraced, run_dir / "untraced" / "r0",
                                    traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for _, problems in legs if problems)
    per_task = task_seconds(untraced["rounds"])
    wall_s = sum(per_task)
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    lines = [f"# {workload} seed={seed}: {len(tasks)} tasks, {len(legs)} legs; "
             "rounds " + " ".join(f"{sum(r):.4f}" for r in untraced["rounds"]) + " s"]
    lines.append("share of wall_s: " + ", ".join(
        f"{group} {share:.3f}" for group, share in group_shares(tasks, per_task).items()))
    if steal is not None:
        lines.append(f"host_steal = {steal:.4f} ratio (machine CPU time taken by "
                     "the host during the untraced rounds)")
    for stem, problems in legs:
        for problem in problems:
            lines.append(f"FAIL {stem}: {problem}")
    lines.append(f"fail_frac = {failed / len(legs):.6g} ratio ({failed}/{len(legs)} legs)")
    for key, unit in (("path_dev", "chart"), ("drift", "1"), ("curv_err", "1"),
                      ("gate_ratio", "ratio")):
        if key in accuracy:
            lines.append(f"{key}_max = {accuracy[key]:.6g} {unit}")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    if trace:
        overhead = sum(traced["rounds"][0]) / wall_s
        per_layer = layer_metrics(traced["trace"], traced["counts"], accuracy, overhead)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer.items()}
        for name, value in end_to_end.items():
            lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, entry in metrics.items():
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": len(legs), "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jacobiflow" / "cli.py").is_file():
        print(f"error: no jacobiflow sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, lines = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), root)
        print("\n".join(lines), flush=True)
        results[workload] = result
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": entry for w, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
