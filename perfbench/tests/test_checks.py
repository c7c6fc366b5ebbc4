"""The output gates flag what they are meant to flag."""

import json

import numpy as np

from checks import check_leg, expected_factor
from plan import leg
from run import check_legs


def write_leg(out, stem, header, rows, summary):
    lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
    (out / f"{stem}.csv").write_text("\n".join(lines) + "\n")
    (out / f"{stem}_summary.json").write_text(
        json.dumps({"termination": "completed", **summary}))


def test_transform_rows_must_match_the_closed_form(tmp_path):
    spec = transform_leg()
    rows = transform_rows(spec)
    write_leg(tmp_path, "t00", ["r", "factor"], rows, GRID_SUMMARY)
    assert check_leg(tmp_path, "t00", spec)[0] == []

    rows[1][1] *= 1.0 + 1e-10
    write_leg(tmp_path, "t00", ["r", "factor"], rows, GRID_SUMMARY)
    problems, accuracy = check_leg(tmp_path, "t00", spec)
    assert problems and accuracy["gate_ratio"] > 1.0


GRID_SUMMARY = {"rows": 5, "skipped_out_of_domain": 0}


def transform_leg():
    return leg("transform", form="schwarzschild", E_rel=1.1, M=1.0, m=1.0,
               r_min=2.5, r_max=10.0, samples=5)


def transform_rows(spec):
    return [[r, expected_factor(spec["expect"], r)[0]]
            for r in np.linspace(2.5, 10.0, 5).tolist()]


def test_a_grid_must_cover_every_requested_point(tmp_path):
    spec = transform_leg()
    rows = transform_rows(spec)
    # a skipped point, a dropped row, a shifted grid
    cases = [(rows, {"rows": 5, "skipped_out_of_domain": 1}),
             (rows[:4], {"rows": 4, "skipped_out_of_domain": 0}),
             ([[r * 1.01, expected_factor(spec["expect"], r * 1.01)[0]]
               for r, _ in rows], GRID_SUMMARY)]
    for case_rows, summary in cases:
        write_leg(tmp_path, "t00", ["r", "factor"], case_rows, summary)
        assert check_leg(tmp_path, "t00", spec)[0] != [], summary


def test_orbit_drifts_are_gated(tmp_path):
    rows = [[0.0, 1.0, 0.0, 0.0, 1.0, -0.5]]
    for flow, drifts, passes in (
            ("hamilton", {"energy": 9e-8}, True),
            ("hamilton", {"energy": 2e-7}, False),
            ("jacobi", {"energy": 1e-9, "unit_momentum": 3e-7}, False),
            ("jacobi", {"energy": 1e-9}, False)):
        write_leg(tmp_path, "t00", ["param", "x1", "x2", "p1", "p2", "energy"], rows,
                  {"states": 1, "drifts": drifts})
        problems, _ = check_leg(tmp_path, "t00", leg("orbit", flow=flow, states=1))
        assert (problems == []) is passes, (flow, drifts)


def test_compare_deviation_is_gated(tmp_path):
    for deviation, passes in ((9e-7, True), (2e-6, False)):
        write_leg(tmp_path, "t00", ["deviation", "span_t", "span_s"],
                  [[deviation, 1.0, 1.0]], {"deviation": deviation})
        problems, accuracy = check_leg(tmp_path, "t00", leg("compare"))
        assert (problems == []) is passes
        assert accuracy["path_dev"] == deviation


def test_exit_codes_and_unstable_outputs_fail_their_legs(tmp_path):
    write_leg(tmp_path, "t00", ["deviation", "span_t", "span_s"],
              [[1e-8, 1.0, 1.0]], {"deviation": 1e-8})
    tasks = [{"id": "t00", "legs": [leg("compare")]},
             {"id": "t01", "legs": [leg("compare", "_000"), leg("compare", "_001")]}]
    hashes = {"t00.csv": "a", "t00_summary.json": "b"}
    untraced = {"codes": [0, 3], "mismatched": [], "hashes": hashes}
    legs, _ = check_legs(tasks, untraced, tmp_path)
    assert [stem for stem, problems in legs if problems] == ["t01_000", "t01_001"]

    traced = {"hashes": {**hashes, "t00.csv": "c"}}
    legs, _ = check_legs(tasks, untraced, tmp_path, traced)
    assert legs[0] == ("t00", ["outputs differ between runs of one seed"])
