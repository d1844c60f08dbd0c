"""Tests of the benchmark itself: tracing wrappers, outputs and metric names.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

TINY = bench.Workload(
    "tiny toy run for tests",
    {"preset": "toy", "iterations": 4, "eval_scenes": 2, "assignment_scenes": 1},
)


def namespace_snapshot() -> dict:
    return {
        (module.__name__, attr): value
        for module in package_modules()
        for attr, value in vars(module).items()
    }


def changed(before: dict, after: dict) -> list:
    return [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]


@pytest.fixture
def state(tmp_path):
    return bench.RunState(bench.make_config(TINY, 5), tmp_path)


def traced_job(state) -> Tracer:
    with Tracer() as t:
        state.job()
    return t


def test_traced_run_restores_every_attribute(state):
    from stylemem import encoder, harness

    before = namespace_snapshot()
    with Tracer() as t:
        assert encoder.read is not before[("stylemem.encoder", "read")]
        assert harness.read_global is not before[("stylemem.harness", "read_global")]
        assert harness.compute_losses is not before[("stylemem.harness", "compute_losses")]
        assert encoder.compute_losses is harness.compute_losses
        state.job()
    assert changed(before, namespace_snapshot()) == []
    assert t.missing == []
    assert state.tally.failed == 0, state.tally.errors
    names = {span.name for span in t.spans}
    assert set(tracer.SPAN_FUNCTIONS) - names == {"objectives.triplet_loss"}


def test_restores_attributes_when_a_traced_call_raises(state, monkeypatch):
    before = namespace_snapshot()
    monkeypatch.setattr(state, "cfg", None)
    with pytest.raises(AttributeError):
        with Tracer():
            bench.train(state.cfg, state.out)
    assert changed(before, namespace_snapshot()) == []


def test_untraced_run_patches_nothing(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run entered the tracer")

    monkeypatch.setattr(Tracer, "__enter__", refuse)
    before = namespace_snapshot()
    state, metrics, _ = bench.run_untraced(TINY, 5, 0.0, tmp_path, import_s=0.0)
    assert changed(before, namespace_snapshot()) == []
    assert state.tally.failed == 0, state.tally.errors
    assert set(metrics) == set(bench.END_TO_END_UNITS)


def test_self_times_sum_to_root_wall(state):
    t = traced_job(state)
    own = t.self_times()
    roots = [i for i, span in enumerate(t.spans) if span.parent is None]
    assert [t.spans[i].name for i in roots] == ["harness.run_training", "harness.evaluate"]
    for root in roots:
        subtree = {root}
        for i, span in enumerate(t.spans):  # parents precede children
            if span.parent in subtree:
                subtree.add(i)
        assert sum(own[i] for i in subtree) == t.spans[root].duration
    assert all(value >= 0 for value in own)


def test_spans_carry_their_unit(state):
    t = traced_job(state)
    steps = [span for span in t.spans if span.name == "encoder.train_step"]
    assert [span.unit for span in steps] == [("iter", i) for i in range(4)]
    saves = [span for span in t.spans if span.name == "memory.save_bank"]
    assert [span.unit for span in saves] == [None]
    scene_units = {
        span.unit
        for span in t.spans
        if span.name == "encoder.compute_losses" and span.unit and span.unit[0] == "scene"
    }
    assert scene_units == {("scene", 0), ("scene", 1)}


def test_calls_per_unit_repeat_across_traced_runs(state):
    first = traced_job(state).unit_counts()
    assert first == traced_job(state).unit_counts()
    assert first[(("iter", 0), "encoder.train_step")] == 1


def test_layer_metrics_cover_the_declared_names(state):
    tracers = [traced_job(state), traced_job(state)]
    metrics = bench.layer_metrics(tracers, state.cfg, state.out, overhead=1.0)
    assert list(metrics) == list(bench.PER_LAYER_UNITS)
    assert metrics["encoder.train_step.samples"] == 8
    assert metrics["numerics.adam_step.calls_per_iter"] == 8.0


def test_a_wrong_output_is_counted_as_a_failure(state, monkeypatch):
    state.job()
    assert state.tally.failed == 0
    real = bench.harness.evaluate

    def perturbed(*args, **kwargs):
        row = real(*args, **kwargs)
        row.purity = min(row.purity + 0.5, 1.0) if row.purity < 0.5 else row.purity - 0.5
        return row

    monkeypatch.setattr(bench.harness, "evaluate", perturbed)
    state.eval_once()
    assert (state.tally.attempted, state.tally.failed) == (3, 1)
    assert "differs from the final evaluation" in state.tally.errors[0]


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: workload.why for name, workload in bench.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER_UNITS


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
