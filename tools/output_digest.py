"""Digest of everything the benchmark plans make the CLI write.

    python3 tools/output_digest.py --src DIR [--seeds 1,7]

For each seed and each workload of ``perfbench/plan.py``, every task of the
plan runs once through ``jacobiflow.cli.main``, imported from DIR (the
directory that holds the ``jacobiflow`` package), in a temporary directory,
by the benchmark's own helpers: ``write_plan`` of ``perfbench/run.py`` writes
the scenario files into a plan directory outside the hashed tree, and
``import_cli`` and ``run_round`` of ``perfbench/worker.py`` import the CLI
and run the tasks.
The tool prints one ``sha256  relative/path`` line per file written, in
sorted path order, then the number of files, one sha256 over all of them
(relative paths and bytes, in the same order) and the exit codes, then the
line count of DIR/jacobiflow/*.py (as ``wc -l`` counts it), the source size
the ROADMAP tracks.

The plans only hold runs that complete, so the tool also runs a fixed
handful of launches that end early (EARLY_ENDINGS: a turning point, the
chart's r = 0 edge, a time flow that ends before its first grid point, a
Kerr plunge that ends at the horizon, a free particle whose state overflows)
and prints their hashes and exit codes after the plans', outside the plans'
file count and total sha256.

Run it on two checkouts, each with its own ``--src``: equal output means the
CLI writes the same bytes and exits the same way on every planned task, and
a diff of the two outputs names the files that differ.  Two seeds take about
12 s on a 2-core machine.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from plan import WORKLOADS, make_plan  # noqa: E402
from run import write_plan  # noqa: E402
from worker import import_cli, run_round  # noqa: E402


def early_task(name, *argv):
    """A run of argv that writes under the output prefix name."""
    return {"id": name, "scenario": None, "argv": [*argv, "--prefix", name]}


# Runs that end before their span; none of them depends on a plan seed.
KEPLER = ("--system", "kepler", "--E", "-0.5")
EARLY_ENDINGS = [
    early_task("radial_compare", "compare", *KEPLER, "--initial", "1,0,1,0", "--span", "10"),
    early_task("turning_orbit", "orbit", *KEPLER, "--flow", "jacobi",
               "--initial", "1,0,1,0", "--span", "10"),
    early_task("chart_edge_orbit", "orbit", *KEPLER, "--initial", "0.02,0,0,0", "--span", "5"),
    # on the energy shell, H = 1999/2 - 1000 = -0.5; r = 0 comes before the first grid point
    early_task("launch_only_compare", "compare", *KEPLER,
               f"--initial=0.001,0,{-1999.0 ** 0.5!r},0"),
    # r falls to the horizon r+ = 1.8, where g_rr = rho^2 / Delta is refused
    early_task("kerr_plunge_orbit", "orbit", "--system", "kerr", "--M", "1", "--a", "0.6",
               "--m", "1", "--E", "-0.2475",
               "--initial", "6,1.5707963267948966,0,0,0.1,2.5", "--span", "30"),
    # a stage state past 1e307 leaves the floats in the first step
    early_task("overflow_orbit", "orbit", "--system", "free", "--E", "0",
               "--initial", "0,0,1e307,0", "--span", "1e300"),
]


def run_tasks(main, tasks, out, plans):
    """Run every task once with its outputs under out and its plan files
    under plans, which must not exist yet; the exit codes."""
    write_plan(tasks, plans)
    with contextlib.redirect_stderr(io.StringIO()):
        return run_round(main, tasks, out)[1]


def digest(directory):
    """({relative path: sha256 of its bytes}, sha256 over relative paths and
    bytes) of a tree, both in sorted path order."""
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    sha, each = hashlib.sha256(), {}
    for path in files:
        name, data = path.relative_to(directory).as_posix(), path.read_bytes()
        each[name] = hashlib.sha256(data).hexdigest()
        sha.update(name.encode() + b"\0")
        sha.update(data + b"\0")
    return each, sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the jacobiflow package to run")
    parser.add_argument("--seeds", default="1,7",
                        help="comma-separated plan seeds (default 1,7)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    cli, _ = import_cli(args.src)

    with tempfile.TemporaryDirectory() as tmp:
        outputs, plans = Path(tmp) / "out", Path(tmp) / "plans"
        codes = {}
        for seed in seeds:
            for workload in WORKLOADS:
                name = f"{workload}_{seed}"
                codes[f"{workload}:{seed}"] = run_tasks(cli.main, make_plan(workload, seed),
                                                        outputs / name, plans / name)
        early = Path(tmp) / "early_endings"
        early_codes = run_tasks(cli.main, EARLY_ENDINGS, early, plans / "early_endings")
        each, sha = digest(outputs)
        early_each, _ = digest(early)
    for name, file_sha in each.items():
        print(f"{file_sha}  {name}")
    print(f"files: {len(each)}")
    print(f"sha256: {sha}")
    for key, task_codes in codes.items():
        print(f"exit codes {key}: {task_codes}")
    for name, file_sha in early_each.items():
        print(f"{file_sha}  early_endings/{name}")
    print(f"exit codes early_endings: {early_codes}")
    lines = sum(path.read_bytes().count(b"\n") for path in Path(args.src).glob("jacobiflow/*.py"))
    print(f"source lines: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
