"""The generator: deterministic per seed, and every launch on its shell."""

import json

import pytest

from jacobiflow.cli import (
    build_mechanical,
    build_parser,
    default_initial,
    expand_sweep,
    scenario_from_args,
)
from jacobiflow.transforms import energy_from_state
from plan import WORKLOADS, make_plan


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_deterministic_per_seed_and_differs_across_seeds(workload):
    assert make_plan(workload, 7) == make_plan(workload, 7)
    assert make_plan(workload, 7) != make_plan(workload, 8)


def scenarios(task, tmp_path):
    """The scenario dicts the CLI builds for a task, one per leg."""
    argv = list(task["argv"])
    if task["scenario"] is not None:
        path = tmp_path / f"{task['id']}.json"
        path.write_text(json.dumps(task["scenario"]))
        argv = argv[:1] + ["--scenario", str(path)] + argv[1:]
    scn = scenario_from_args(build_parser().parse_args(argv))
    sweep = expand_sweep(scn)
    return [scn] if sweep is None else sweep[1]


@pytest.mark.parametrize("workload", ["kepler_sweep", "fd_charts"])
@pytest.mark.parametrize("seed", [1, 2, 3, 11])
def test_every_launch_lies_on_its_energy_shell(workload, seed, tmp_path):
    checked = 0
    for task in make_plan(workload, seed):
        if task["argv"][0] not in ("compare", "orbit"):
            continue
        for scn in scenarios(task, tmp_path):
            sys = build_mechanical(scn)
            start = default_initial(scn, sys)
            E = scn["params"]["E"]
            H = energy_from_state(sys, start.x, start.p)
            assert abs(H - E) <= 1e-12 * max(1.0, abs(E)), (task["id"], H, E)
            checked += 1
    assert checked >= 5
