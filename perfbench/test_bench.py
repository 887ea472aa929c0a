"""Tiny-scale self-test of the benchmark: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import tracer as tracing  # noqa: E402

LAYER_SELF = [f"{layer}.self_s" for layer in tracing.LAYERS]


@pytest.fixture(scope="module")
def everything():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.3", "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_every_metric_emitted_with_unit(everything):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert everything["correct"] and everything["failed"] == 0
    assert everything["attempted"] > 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = everything["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"], metric["name"]
            assert isinstance(got["value"], (int, float)), metric["name"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.UNITS


def test_self_times_add_up_to_traced_wall(everything):
    m = everything["metrics"]
    for workload in ("scenario_indoor_dense", "sweep_outdoor_5x2", "links_dump"):
        value = lambda name: m[f"{workload}/{name}"]["value"]  # noqa: E731
        total = sum(value(name) for name in LAYER_SELF) + value("trace.unattributed_s")
        assert math.isclose(total, value("trace.wall_s"), rel_tol=1e-9), workload
        assert value("trace.unattributed_s") >= 0


def test_exact_counts_at_tiny_scale(everything):
    m = everything["metrics"]
    stations = 1 * 2 * 57  # one drop of 2 stations per sector
    for workload, runs in (("scenario_indoor_dense", 1), ("sweep_outdoor_5x2", 10),
                           ("links_dump", 1)):
        value = lambda name: m[f"{workload}/{name}"]["value"]  # noqa: E731
        assert value("deployment.drop_mobiles.calls") == runs
        assert value("deployment.wrap_displacements.pairs") == runs * stations * 19
        assert value("metrics.geometry_metric.elements") == runs * stations * 57
        assert value("metrics.empirical_cdf.samples") == runs * 2 * stations
        assert value("propagation.pathloss_useful_ratio") == 0.5
    assert m["sweep_outdoor_5x2/propagation.o2i_loss.self_s"]["value"] == 0.0
    assert m["scenario_indoor_dense/propagation.o2i_loss.self_s"]["value"] > 0.0


def test_exits_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "links_dump",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_removed_function_reads_absent(monkeypatch):
    from mmwsim import deployment, engine

    monkeypatch.delattr(deployment, "in_footprint")
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    monkeypatch.undo()  # the sampler needs it back, unwrapped
    try:
        cfg = engine.ScenarioConfig(f_c_ghz=60.0, n_drops=1, ms_per_sector=1)
        with tracer.span(tracing.ROOT):
            engine.run_scenario(cfg)
        metrics = tracing.layer_metrics(tracer, tracer.spans, tracer.take_counts())
    finally:
        undo()
    for name in ("deployment.in_footprint.self_s", "deployment.in_footprint.points",
                 "deployment.sample_acceptance"):
        assert name not in metrics
    assert metrics["deployment.drop_mobiles.calls"] == 1
    total = sum(metrics[name] for name in LAYER_SELF) + metrics["trace.unattributed_s"]
    assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9)


def test_tracer_is_thread_safe():
    tracer = tracing.Tracer()
    threads, per_thread = 4, 2000  # more threads than cores
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(per_thread):
                with tracer.span("engine.outer"):
                    with tracer.span("deployment.inner"):
                        tracer.add_counts({"n": 1})

        with tracer.span(tracing.ROOT) as root:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)

    assert tracer.take_counts()["n"] == threads * per_thread
    spans = {s.id: s for s in tracer.spans}
    assert len(spans) == 2 * threads * per_thread + 1
    for s in spans.values():
        if s.name == "deployment.inner":
            parent = spans[s.parent]
            assert parent.name == "engine.outer" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
        elif s.name == "engine.outer":
            assert s.parent == root.id  # adopted across threads
    share = tracing.own_time(tracer.spans)
    assert math.isclose(sum(share.values()), root.end - root.start, rel_tol=1e-9)
