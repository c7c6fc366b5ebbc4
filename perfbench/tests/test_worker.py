"""A small plan through the worker, untraced and traced."""

import json
import subprocess
import sys

from conftest import BENCH, ROOT
from plan import initial_flag, kepler_launch, leg, task

x, p = kepler_launch(-0.5, 0.3)
TASKS = [
    task("t00", "sweep", ["orbit", "--prefix", "t00"],
         [leg("orbit", f"_{i:03d}", flow="hamilton", states=51) for i in range(2)],
         scenario={"task": "orbit", "system": "kepler",
                   "params": {"E": [-0.5, -0.6]},
                   "integration": {"record": 50}}),
    task("t01", "orbit", ["orbit", "--system", "kepler", "--E", "-0.5", "--flow", "jacobi",
                 "--span", "1.0", "--record", "50", "--prefix", "t01"]
         + initial_flag(x + p), [leg("orbit", flow="jacobi", states=51)]),
    task("t02", "lift", ["lift", "--kind", "static", "--span", "0.5", "--record", "50",
                 "--prefix", "t02"], [leg("lift", kind="static", states=51)]),
    task("t03", "grid", ["curvature", "--E", "0.3", "--samples", "200", "--prefix", "t03"],
         [leg("curvature", E=0.3, k=1.0, r_min=0.5, r_max=5.0, samples=200)]),
    task("t04", "catalog", ["orbit", "--system", "bertrand_hooke", "--lam", "1.0", "--m", "1.0",
                 "--E", "0.68", "--span", "0.5", "--record", "50", "--prefix", "t04",
                 "--initial", "1.0,1.5707963267948966,0.0,0.0,0.0,0.6"],
         [leg("orbit", flow="hamilton", states=51)]),
]


def run_worker(tmp_path, name, *extra):
    result = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--src", str(ROOT / "src"),
         "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path / name),
         "--seconds", "0", "--result", str(result), *extra],
        check=True, timeout=300)
    return json.loads(result.read_text())


def test_traced_and_untraced_runs_write_identical_outputs(tmp_path):
    from run import check_legs, write_plan
    tasks = json.loads(json.dumps(TASKS))
    write_plan(tasks, tmp_path / "plan")
    (tmp_path / "plan.json").write_text((tmp_path / "plan" / "plan.json").read_text())

    untraced = run_worker(tmp_path, "untraced")
    traced = run_worker(tmp_path, "traced", "--trace", "--spans",
                        str(tmp_path / "spans.npz"))
    assert len(untraced["rounds"]) == 2 and len(traced["rounds"]) == 1
    assert untraced["codes"] == [0] * len(TASKS) == traced["codes"]
    assert untraced["mismatched"] == []
    assert traced["hashes"] == untraced["hashes"]
    legs, _ = check_legs(tasks, untraced, tmp_path / "untraced" / "r0", traced)
    assert [problems for _, problems in legs] == [[]] * 6

    stats = traced["trace"]["stats"]
    for name in ("metric.invert_metric", "flow.hamilton_rhs", "flow.jacobi_rhs",
                 "lift.lifted_rhs.rhs", "catalog.components", "flow.record",
                 "transforms.energy_from_state", "cli.write_csv"):
        assert stats[name]["calls"] > 0, name
    assert stats["curvature.gaussian_curvature_numeric"]["calls"] == 200
    assert traced["counts"]["flow.steps_accepted"] > 0
    assert traced["trace"]["legs"] == 6
    assert traced["trace"]["sweep_wall_s"] > 0
