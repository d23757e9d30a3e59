"""Tests of the benchmark itself: span arithmetic, thread separation, the
tail-percentile rule, and exact repeat of counts across traced runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import gscnet  # noqa: E402
from gscnet import graph, model  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.spans import Tracer, layer_metrics, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):            # 0 .. 10
        clock.now = 1.0
        with tracer.span("mid"):          # 1 .. 7
            clock.now = 2.0
            with tracer.span("leaf"):     # 2 .. 5
                clock.now = 5.0
            clock.now = 7.0
        clock.now = 8.0
        with tracer.span("leaf"):         # 8 .. 9
            clock.now = 9.0
        clock.now = 10.0
    by_name = {}
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(selfs[id(s)])
    assert by_name["outer"] == [10.0 - 6.0 - 1.0]
    assert by_name["mid"] == [6.0 - 3.0]
    assert sorted(by_name["leaf"]) == [1.0, 3.0]
    # Self times partition the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_spans_from_two_threads_do_not_nest_into_each_other():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def worker(tag):
        with tracer.span(f"run.{tag}"):
            barrier.wait()                # both runs are open at once
            with tracer.span(f"apply.{tag}"):
                barrier.wait()

    threads = [threading.Thread(target=worker, args=(t,)) for t in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    spans = {s.name: s for s in tracer.spans}
    assert set(spans) == {"run.a", "run.b", "apply.a", "apply.b"}
    for tag in "ab":
        assert spans[f"run.{tag}"].parent is None
        assert spans[f"apply.{tag}"].parent is spans[f"run.{tag}"]
        assert spans[f"apply.{tag}"].thread == spans[f"run.{tag}"].thread
    assert spans["run.a"].thread != spans["run.b"].thread


@pytest.mark.parametrize("n, ok", [(99, False), (100, True), (250, True)])
def test_p90_needs_ten_samples_beyond_it(n, ok):
    assert (run.beyond(n, 0.9) >= 10) is ok
    values = list(range(1, n + 1))
    p90 = run.quantile(values, 0.9)
    assert sum(v > p90 for v in values) == run.beyond(n, 0.9)
    assert run.MIN_SAMPLES == 100 and run.beyond(run.MIN_SAMPLES, 0.9) == 10


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_repetition_pools_enough_epoch_times(name):
    w = WORKLOADS[name]
    pooled = len(w.run_seeds(0)) * (w.epochs - run.WARMUP)
    assert pooled >= run.MIN_SAMPLES


def test_install_restores_every_import_site():
    before = (graph.shifted_apply, model.shifted_apply, gscnet.shifted_apply)
    with Tracer().install():
        assert model.shifted_apply is not before[1]
        assert gscnet.shifted_apply is model.shifted_apply
    assert (graph.shifted_apply, model.shifted_apply,
            gscnet.shifted_apply) == before


def _tiny(**kw):
    base = dict(name="tiny", arch="GSCNet", k1=2, k2=1, epochs=6,
                dataset={"kind": "csbm", "regime": "homophily", "n": 200},
                min_acc=0.0)
    base.update(kw)
    return Workload(**base)


@pytest.mark.parametrize("workload", [
    _tiny(),
    _tiny(arch="BernNet", k1=3, k2=0),
    _tiny(fanout_seeds=2, threads=2),
    _tiny(dataset={"kind": "files", "regime": "homophily", "n": 60, "d": 5,
                   "expected_degree": 3.0}),
], ids=["gsc", "bern", "fanout", "files"])
def test_counts_repeat_exactly_across_traced_runs(workload, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "load_reference",
                        lambda: {"tolerance": 0.0, "test_acc": {}})
    first = run.run(workload, seed=3, seconds=0.0, trace=True)
    second = run.run(workload, seed=3, seconds=0.0, trace=True)
    for out in (first, second):
        assert out["result"]["correct"]
        assert set(out["result"]["metrics"]) == set(run.LAYER_UNITS)
    m1, m2 = (o["result"]["metrics"] for o in (first, second))
    for name in ("graph.apply_calls", "graph.nnz_d", "basis.build_calls",
                 "train.epochs"):
        assert m1[name]["value"] == m2[name]["value"]
    runs = len(workload.run_seeds(3))
    assert m1["train.epochs"]["value"] == runs * workload.epochs
    if workload.arch == "BernNet":
        assert m1["basis.build_calls"]["value"] == 0
        assert m1["basis.build_self_s"]["value"] == 0
    else:
        # Forward and backward each build one cache per training epoch; eval
        # builds one per epoch too.
        assert m1["basis.build_calls"]["value"] == 3 * runs * workload.epochs


def test_layer_metrics_of_a_serial_rep():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.phase = "rep"
    with tracer.span("bench.rep"):
        with tracer.span("train.run"):
            with tracer.span("graph.apply", work=40):
                clock.now = 2.0
            clock.now = 3.0
        clock.now = 4.0
    m = layer_metrics(tracer.spans, reps=1, setups=1, workers=2)
    assert m["graph.apply_calls"] == 1
    assert m["graph.apply_s"] == 2.0
    assert m["graph.ns_per_nnz_d"] == pytest.approx(2.0e9 / 40)
    # Without a fan-out span the serial rep is the wall, with one worker.
    assert m["experiments.fanout_efficiency"] == pytest.approx(3.0 / 4.0)


def test_every_workload_has_a_reference_for_both_recorded_seeds():
    ref = run.load_reference()
    for name, w in WORKLOADS.items():
        seeds = ref["test_acc"][name]
        assert len(seeds) == 2
        for accs in seeds.values():
            assert len(accs) == len(w.run_seeds(0))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_the_runner():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.LAYER_UNITS


def test_interaction_map_covers_every_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "interactions.json"),
              encoding="utf-8") as f:
        table = json.load(f)
    table.pop("about")
    assert set(table) == set(run.LAYER_UNITS)
    for row in table.values():
        for move in row["moves"]:
            assert move["metric"] in run.END_TO_END_UNITS
            assert move["workload"] in WORKLOADS
        assert set(row["still"]) <= set(WORKLOADS)
