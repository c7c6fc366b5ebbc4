"""Span arithmetic, the tracer's bookkeeping, and the printed metric set."""

import json
import sys
import threading
from pathlib import Path

import numpy as np

from layers import layer_metrics, self_times, summarize
from tracer import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_of_a_synthetic_nested_call():
    # root(100) -> a(30), b(50) -> c(20); leg(70) runs on another thread
    # under root and is not taken off root's busy time
    ids = [0, 1, 2, 3, 4]
    parents = [-1, 0, 0, 2, 0]
    threads = [0, 0, 0, 0, 1]
    busy = [100.0, 30.0, 50.0, 20.0, 70.0]
    assert self_times(ids, parents, threads, busy).tolist() == [20.0, 30.0, 30.0, 20.0, 70.0]


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "metric.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "flow.outer", leg=True)

    def work():
        for i in range(200):
            assert outer(i) == 2 * (i + 1)

    threads = [threading.Thread(target=work) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)

    spans = tracer.spans()
    assert np.unique(spans["ids"]).size == spans["ids"].size
    names = np.array(tracer.names)[spans["names"]]
    assert (names == "metric.inner").sum() == (names == "flow.outer").sum() == 600
    # every inner span's parent is an outer span on its own thread and leg
    position = {sid: i for i, sid in enumerate(spans["ids"])}
    for i in np.nonzero(names == "metric.inner")[0]:
        parent = position[spans["parents"][i]]
        assert names[parent] == "flow.outer"
        assert spans["threads"][parent] == spans["threads"][i]
        assert spans["legs"][parent] == spans["legs"][i]
    summary = summarize(spans, tracer.names)
    assert summary["legs"] == 600
    stats = summary["stats"]
    assert stats["flow.outer"]["self_s"] <= stats["flow.outer"]["incl_s"]
    assert abs(stats["flow.outer"]["incl_s"] - stats["flow.outer"]["self_s"]
               - stats["metric.inner"]["incl_s"]) < 1e-12


def test_wrapped_rhs_keeps_its_system_attribute():
    def rhs(param, x, p):
        return x, p

    rhs.system = object()
    assert Tracer().wrap(rhs, "flow.rhs").system is rhs.system


def test_every_named_metric_is_reported_with_its_unit():
    summary = {"stats": {}, "legs": 0, "sweep_busy_s": 0.0, "sweep_wall_s": 0.0}
    metrics = layer_metrics(summary, {}, {}, 1.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}

    from run import END_TO_END_UNITS
    assert END_TO_END_UNITS == {
        entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
