"""One workload process: import the CLI, run the plan's tasks in rounds.

    python3 perfbench/worker.py --src SRC --probe
    python3 perfbench/worker.py --src SRC --plan PLAN --out DIR --seconds S \\
        --result RESULT [--trace --spans SPANS]

--probe only times ``import jacobiflow.cli`` and prints the seconds.

Otherwise the tasks run in a closed loop: one ``jacobiflow.cli.main`` call
at a time, the next after the previous returns, each one timed.  One round
is the whole task list; rounds repeat until the next one would end after
--seconds (at least two untraced, exactly one traced).  Every round writes into its own
directory; the files are hashed after the round, the first round's are kept
for the output checks and the others removed.  With --trace the tracer is
installed before the first task; the round's spans are summarized into
the result and written whole to --spans (numpy .npz).
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def import_cli(src):
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import jacobiflow.cli
    setup_s = time.perf_counter() - start
    package = Path(jacobiflow.cli.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        raise SystemExit(f"imported jacobiflow from {package}, not from {src}")
    return jacobiflow.cli, setup_s


def file_hashes(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())}


def run_round(main, tasks, out):
    """Run every task once; returns (seconds per task, exit codes)."""
    out.mkdir(parents=True)
    argvs = [task["argv"] + ["--out", str(out)] for task in tasks]
    codes, times = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            start = time.perf_counter()
            try:
                codes.append(main(argv))
            except Exception as exc:  # a crash fails the task's legs, not the run
                codes.append(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start)
    return times, codes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    cli, setup_s = import_cli(args.src)
    if args.probe:
        print(repr(setup_s))
        return 0

    tasks = json.loads(Path(args.plan).read_text())
    out = Path(args.out)
    tracer = None
    main_fn = cli.main
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install([m for name, m in sorted(sys.modules.items())
                        if name == "jacobiflow" or name.startswith("jacobiflow.")])
        main_fn = tracer.wrap(cli.main, "task")

    rounds, codes, mismatched, hashes = [], None, [], None
    started = time.perf_counter()
    while True:
        round_dir = out / f"r{len(rounds)}"
        times, round_codes = run_round(main_fn, tasks, round_dir)
        round_hashes = file_hashes(round_dir)
        if hashes is None:
            codes, hashes = round_codes, round_hashes
        else:
            shutil.rmtree(round_dir)
            if round_hashes != hashes:
                mismatched += [name for name in set(hashes) | set(round_hashes)
                               if hashes.get(name) != round_hashes.get(name)]
        rounds.append(times)
        elapsed = time.perf_counter() - started
        if tracer is not None or (len(rounds) >= 2 and elapsed + sum(times) > args.seconds):
            break

    result = {
        "rounds": rounds,
        "codes": codes,
        "hashes": hashes,
        "mismatched": sorted(set(mismatched)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import numpy as np
        from layers import summarize
        spans = tracer.spans()
        result["trace"] = summarize(spans, tracer.names)
        np.savez(args.spans, span_names=np.array(tracer.names), **spans)
        result["counts"] = tracer.counts()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
