"""Workloads, output checks and metrics of the stylemem benchmark.

Every workload runs the user's two commands on one configuration: training
(``run_training``, which writes the artifacts and ends with a final
evaluation) and then the ``stylemem eval`` path (``load_bank`` /
``load_encoders`` on the written artifacts, then ``evaluate`` over the
held-out scenes with the ``assignments.csv`` export). The workloads differ
in shapes, ablation arm, and which of the two calls is timed; see
``README.md`` for why each exists.

The loop is closed: one caller, and each call waits for the previous one.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stylemem import encoder, harness, memory
from tracer import SPAN_FUNCTIONS, Tracer

SETUP_REPS = 5
MIN_TIMED_CALLS = 3
MIN_TRACED_JOBS = 2
ARTIFACTS = (
    "resolved_config.json",
    "metrics.csv",
    "bank.json",
    "encoders.json",
    "final_eval.json",
    "assignments.csv",
)
HELD_OUT_CSV = "heldout_assignments.csv"


@dataclass(frozen=True)
class Workload:
    why: str
    overrides: dict
    # True: training builds the artifacts during set-up and only the
    # held-out evaluate is timed. False: both calls are timed.
    train_in_setup: bool = False


WORKLOADS = {
    "toy-train": Workload(
        "toy preset, class-aware + contrastive: overhead-bound per-class loop",
        {"preset": "toy", "iterations": 200, "eval_scenes": 20},
    ),
    "toy-single-triplet": Workload(
        "toy shapes, pooled single memory + triplet: bypasses the per-class loop",
        {
            "preset": "toy",
            "iterations": 200,
            "eval_scenes": 20,
            "memory_mode": "single",
            "loss_variant": "triplet",
        },
    ),
    "full-train": Workload(
        "full preset training: BLAS-sized matmuls, Adam on 256x64 weights",
        {"preset": "full", "iterations": 50, "eval_scenes": 10, "assignment_scenes": 1},
    ),
    "full-eval": Workload(
        "full preset held-out eval with the CSV export: read-only, serializer-heavy",
        {"preset": "full", "iterations": 10, "eval_scenes": 20},
        train_in_setup=True,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_iter_per_s": "1/cpu_s",
    "eval_scene_per_s": "1/cpu_s",
    "peak_rss_mb": "MB",
}

_CALL_METRICS = (
    "memory.read",
    "memory.read_backward",
    "memory.update",
    "memory.read_global",
    "numerics.cosine_matrix",
    "numerics.adam_step",
)
_LAYERS = ("numerics", "memory", "objectives", "encoder", "synthdata", "harness")

# name -> unit, in print order; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    **{f"{n}.{m}": u for n in _CALL_METRICS for m, u in (("calls_per_iter", "calls/iter"), ("us", "us"))},
    "memory.save_bank.ms": "ms",
    "memory.save_bank.bytes": "bytes",
    "objectives.contrastive_loss.calls_per_iter": "calls/iter",
    "objectives.triplet_loss.calls_per_iter": "calls/iter",
    "objectives.item_loss.us": "us",
    "encoder.train_step.ms_p50": "ms",
    "encoder.train_step.ms_p99": "ms",
    "encoder.train_step.samples": "count",
    "encoder.compute_losses.self_ms": "ms",
    "encoder.forward.us": "us",
    "encoder.backward.us": "us",
    "encoder.save_encoders.ms": "ms",
    "encoder.save_encoders.bytes": "bytes",
    "synthdata.generate_scene_pair.ms": "ms",
    "harness.run_training.self_ms_per_iter": "ms",
    "harness.evaluate.self_s": "s",
    "harness.evaluate.assignments_bytes": "bytes",
    "serialize.fmt_float.calls": "count",
    "serialize.resolved_config.bytes": "bytes",
    "serialize.metrics_csv.bytes": "bytes",
    "serialize.final_eval.bytes": "bytes",
    **{f"layer.{layer}.self_ms": "ms" for layer in _LAYERS},
    "trace.overhead": "ratio",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Tally:
    """Calls attempted and failed; a call fails if it raises or a check fails."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, what: str, fn, *args):
        """Call ``fn``; on failure record it and return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure of the program is counted, never fatal
            self.failed += 1
            if len(self.errors) < 5:
                detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                self.errors.append(f"{what}: {detail}")
            return None


# --- configuration and the two calls ---


def make_config(workload: Workload, seed: int):
    """Resolve and validate the workload's config with ``seed`` as its seed."""
    return harness.config_from_dict(harness.resolve_config({**workload.overrides, "seed": seed}))


def _finite(values, what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what} has non-finite values")


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _check_assignments(path: Path, cfg) -> None:
    rows = _read_rows(path)
    expected = cfg.assignment_scenes * 2 * cfg.scene.height * cfg.scene.width
    if len(rows) - 1 != expected:
        raise CheckFailed(f"{path.name} has {len(rows) - 1} rows, expected {expected}")
    width = 6 + cfg.channels
    if any(len(row) != width for row in rows):
        raise CheckFailed(f"{path.name} rows must have {width} fields")
    _finite((float(v) for row in rows[1:] for v in row[5:]), path.name)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class Trained:
    """Outputs of one checked training call."""

    final_eval: object
    bank: object
    encoders: object
    digest: str


class Stopwatch:
    """Wall and CPU time of a region.

    CPU time is this process's: BLAS runs on the calling thread and nothing
    else runs in the process, so it is the work's own time, and time that
    other tenants of a shared machine take from it does not count.
    """

    reference = -1  # index in RunState.references of the loop run just before

    def __enter__(self) -> "Stopwatch":
        self.wall = -time.perf_counter()
        self.cpu = -time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += time.perf_counter()
        self.cpu += time.process_time()


def train(cfg, out: Path) -> tuple[Stopwatch, Stopwatch, Trained]:
    """Time one ``run_training`` call and the reload of its bank and
    encoders, then check everything it wrote."""
    with Stopwatch() as train_time:
        result = harness.run_training(cfg, out)
    with Stopwatch() as load_time:
        bank = memory.load_bank(out / "bank.json")
        encoders = encoder.load_encoders(out / "encoders.json")

    rows = _read_rows(out / "metrics.csv")
    if ",".join(rows[0]) != harness.METRICS_HEADER:
        raise CheckFailed("metrics.csv header differs")
    if len(rows) - 1 != cfg.iterations:
        raise CheckFailed(f"metrics.csv has {len(rows) - 1} rows, expected {cfg.iterations}")
    if [int(row[0]) for row in rows[1:]] != list(range(cfg.iterations)):
        raise CheckFailed("metrics.csv iteration column is not 0..T-1")
    _finite((float(v) for row in rows[1:] for v in row[1:]), "metrics.csv")

    final = json.loads((out / "final_eval.json").read_text())
    _finite((float(v) for v in final.values()), "final_eval.json")
    if final != dataclasses.asdict(result.final_eval):
        raise CheckFailed("final_eval.json differs from the returned final evaluation")
    if not 0.0 <= result.final_eval.purity <= 1.0:
        raise CheckFailed(f"purity {result.final_eval.purity} outside [0, 1]")

    for got, want in zip(
        (bank.keys, bank.values_x, bank.values_y),
        (result.bank.keys, result.bank.values_x, result.bank.values_y),
    ):
        if not np.array_equal(got, want):
            raise CheckFailed("bank.json does not reload to the trained bank")
    for got, want in zip(encoders.all(), result.encoders.all()):
        if not (np.array_equal(got.weight, want.weight) and np.array_equal(got.bias, want.bias)):
            raise CheckFailed("encoders.json does not reload to the trained encoders")
    _check_assignments(out / "assignments.csv", cfg)
    trained = Trained(result.final_eval, bank, encoders, digest(out / a for a in ARTIFACTS))
    return train_time, load_time, trained


def evaluate(cfg, trained: Trained, out: Path) -> Stopwatch:
    """Time one held-out ``evaluate`` on the reloaded artifacts, then check it.

    The held-out scenes are the final evaluation's scenes, so the row and
    the export must equal what training wrote, bit for bit.
    """
    path = out / HELD_OUT_CSV
    with Stopwatch() as eval_time:
        row = harness.evaluate(
            trained.bank, trained.encoders, cfg, cfg.eval_scenes, assignments_path=path
        )
    _finite(dataclasses.asdict(row).values(), "evaluate row")
    if row != trained.final_eval:
        raise CheckFailed("held-out evaluate differs from the final evaluation of training")
    if path.read_bytes() != (out / "assignments.csv").read_bytes():
        raise CheckFailed(f"{HELD_OUT_CSV} differs from the training export")
    return eval_time


# --- machine speed ---


# CPU seconds of one ``reference_loop`` on the reference box (2-core Xeon VM)
REFERENCE_CPU_S = 0.075


def reference_loop() -> float:
    """A fixed mix of the program's kinds of work at its shapes: numpy calls
    on toy-sized matrices (interpreter-bound), an encoder forward pass,
    softmax and gradient at full shapes (BLAS), an Adam-like elementwise
    update, and 17-digit float rendering."""
    rng = np.random.default_rng(7)
    queries, keys = rng.standard_normal((64, 16)), rng.standard_normal((10, 16))
    acc = 0.0
    for _ in range(800):
        sims = queries @ keys.T
        e = np.exp(sims - sims.max(axis=1, keepdims=True))
        acc += float((e / e.sum(axis=1, keepdims=True)).sum())
    inputs, weight = rng.standard_normal((256, 64)), rng.standard_normal((256, 64)) / 8.0
    items = rng.standard_normal((20, 256)) / 16.0
    first, second = np.zeros_like(weight), np.zeros_like(weight)
    for _ in range(30):
        logits = (inputs @ weight.T) @ items.T
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        grad = (probs @ items).T @ inputs / 256.0
        first = 0.9 * first + 0.1 * grad
        second = 0.999 * second + 0.001 * grad * grad
        weight = weight - 1e-3 * first / (np.sqrt(second) + 1e-8)
    acc += float(weight.sum())
    return acc + len(",".join(format(x, ".17g") for x in inputs.ravel()[:12288]))


# --- runs ---


@dataclass
class RunState:
    """One run's configuration, outcomes and timings (``Stopwatch`` lists)."""

    cfg: object
    out: Path
    tally: Tally = field(default_factory=Tally)
    setup: list = field(default_factory=list)
    train: list = field(default_factory=list)
    eval: list = field(default_factory=list)
    trained: Trained | None = None
    first_digest: str | None = None
    references: list = field(default_factory=list)

    def run_reference(self) -> int:
        """Time ``reference_loop`` (CPU clock); returns its index."""
        with Stopwatch() as watch:
            reference_loop()
        self.references.append(watch.cpu)
        return len(self.references) - 1

    def slowdown(self, call: Stopwatch) -> float:
        """How slow the machine ran around ``call``: the mean CPU time of the
        reference loops just before and just after it, over the reference
        box's."""
        around = self.references[call.reference : call.reference + 2]
        return statistics.fmean(around) / REFERENCE_CPU_S

    def train_once(self) -> list:
        """Train and check; returns the stopwatches of training and of
        reloading the artifacts (none if the call failed)."""

        def call():
            outcome = train(self.cfg, self.out)
            if self.first_digest is None:
                self.first_digest = outcome[2].digest
            elif outcome[2].digest != self.first_digest:
                raise CheckFailed("artifacts differ from the first run of this seed")
            return outcome

        reference = self.run_reference()
        outcome = self.tally.run("run_training", call)
        if outcome is None:
            self.trained = None
            return []
        train_time, load_time, self.trained = outcome
        train_time.reference = load_time.reference = reference
        self.train.append(train_time)
        return [train_time, load_time]

    def eval_once(self) -> None:
        """Evaluate the last trained artifacts and check the outputs."""
        if self.trained is None:
            return
        reference = self.run_reference()
        eval_time = self.tally.run("evaluate", evaluate, self.cfg, self.trained, self.out)
        if eval_time is not None:
            eval_time.reference = reference
            self.eval.append(eval_time)

    def job(self) -> None:
        self.train_once()
        self.eval_once()


def set_up(workload: Workload, seed: int, out: Path) -> RunState:
    """Set up ``SETUP_REPS`` times; each resolves the config and, where the
    workload trains in set-up, builds and reloads the artifacts. Records
    the CPU time of each set-up, checks excluded, with the build scaled by
    machine speed like the rates."""
    reference_loop()  # warm-up: the first call in a process runs slow
    state = None
    reps = []
    for _ in range(SETUP_REPS):
        with Stopwatch() as config_time:
            cfg = make_config(workload, seed)
            out.mkdir(parents=True, exist_ok=True)
        if state is None:
            state = RunState(cfg, out)
        state.cfg = cfg
        reps.append((config_time.cpu, state.train_once() if workload.train_in_setup else []))
    state.run_reference()
    state.setup = [cpu + sum(t.cpu / state.slowdown(t) for t in build) for cpu, build in reps]
    return state


def timed_loop(seconds: float, step, minimum: int) -> None:
    """Call ``step`` until ``seconds`` have passed and at least ``minimum`` times."""
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < minimum or time.perf_counter() < deadline:
        step()
        calls += 1


def _rate(state, work: int, times: list) -> float:
    """Median over calls of work per CPU second, each scaled by how fast the
    machine ran the reference loop around the call.

    The shared machine's speed drifts by 10-25% over minutes, on the CPU
    clock too; the same drift slows the reference loop (per-call
    correlation about 0.5 there), so the scaled rate is steadier.
    """
    return statistics.median(work / t.cpu * state.slowdown(t) for t in times)


def _raw_rate(work: int, times: list, clock: str) -> float:
    return statistics.median(work / getattr(t, clock) for t in times)


def run_untraced(workload: Workload, seed: int, seconds: float, out: Path, import_s: float):
    """Returns the run state, the end-to-end metrics and, for information,
    the unscaled CPU-clock and wall-clock rates."""
    state = set_up(workload, seed, out)
    timed_loop(seconds, state.eval_once if workload.train_in_setup else state.job, MIN_TIMED_CALLS)
    state.run_reference()
    metrics, info = {}, {}
    if state.setup:
        metrics["setup_s"] = import_s + statistics.median(state.setup)
    for name, times, work in (
        ("train_iter_per_s", state.train, state.cfg.iterations),
        ("eval_scene_per_s", state.eval, state.cfg.eval_scenes),
    ):
        if times:
            metrics[name] = _rate(state, work, times)
            info[f"{name} (cpu clock, unscaled)"] = _raw_rate(work, times, "cpu")
            info[f"{name} (wall clock)"] = _raw_rate(work, times, "wall")
    info["reference_loop_cpu_s"] = statistics.median(state.references)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return state, metrics, info


def run_traced(workload: Workload, seed: int, seconds: float, out: Path):
    """Alternate untraced and traced whole jobs (train, then held-out eval).

    The untraced ones give the tracing overhead: the ratio of the median
    scaled CPU times of the jobs' timed calls (which side runs first
    alternates, so the first job's warm-up falls on neither). The traced
    ones give the per-layer metrics, and their per-unit call counts must
    repeat exactly.
    """
    state = set_up(workload, seed, out)
    untraced: list[list] = []
    traced: list[list] = []
    tracers: list[Tracer] = []

    def job(into: list, tracer: Tracer | None) -> None:
        n_train, n_eval = len(state.train), len(state.eval)
        if tracer is None:
            state.job()
        else:
            with tracer:
                state.job()
            tracers.append(tracer)
        into.append(state.train[n_train:] + state.eval[n_eval:])

    def pair():
        if len(tracers) % 2:
            job(traced, Tracer())
            job(untraced, None)
        else:
            job(untraced, None)
            job(traced, Tracer())

    timed_loop(seconds, pair, MIN_TRACED_JOBS)
    state.run_reference()

    def counts_repeat():
        first = tracers[0].unit_counts()
        for tracer in tracers[1:]:
            if tracer.unit_counts() != first:
                raise CheckFailed("per-unit call counts differ between traced runs")

    state.tally.run("trace counts", counts_repeat)

    def median_cpu(jobs: list[list]) -> float:
        return statistics.median(sum(t.cpu / state.slowdown(t) for t in calls) for calls in jobs)

    base = median_cpu(untraced)
    overhead = median_cpu(traced) / base if base else 0.0
    return state, tracers, layer_metrics(tracers, state.cfg, out, overhead)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- per-layer metrics ---


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (``q`` in [0, 100])."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def layer_metrics(tracers: list[Tracer], cfg, out: Path, overhead: float) -> dict:
    """Per-layer metrics from the traced jobs.

    Times are pooled over all traced jobs (``.us``/``.ms``: mean inclusive
    time per call; ``self``: minus child spans). Counts come from the first
    traced job; ``calls_per_iter`` counts the spans of training iterations.
    """
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    train_step_ms: list[float] = []
    for tracer in tracers:
        for span, own in zip(tracer.spans, tracer.self_times()):
            calls[span.name] = calls.get(span.name, 0) + 1
            total_ns[span.name] = total_ns.get(span.name, 0) + span.duration
            self_ns[span.name] = self_ns.get(span.name, 0) + own
            if span.name == "encoder.train_step":
                train_step_ms.append(span.duration / 1e6)
    jobs = len(tracers)

    def mean_ns(names) -> float:
        n = sum(calls.get(name, 0) for name in names)
        return sum(total_ns.get(name, 0) for name in names) / n if n else 0.0

    first = tracers[0]
    per_iter: dict[str, int] = {}
    iterations = set()
    for span in first.spans:
        if span.unit is not None and span.unit[0] == "iter":
            per_iter[span.name] = per_iter.get(span.name, 0) + 1
            iterations.add(span.unit)
    n_iter = max(len(iterations), 1)

    m: dict[str, float] = {}
    for name in _CALL_METRICS:
        m[f"{name}.calls_per_iter"] = per_iter.get(name, 0) / n_iter
        m[f"{name}.us"] = mean_ns([name]) / 1e3
    m["memory.save_bank.ms"] = mean_ns(["memory.save_bank"]) / 1e6
    m["memory.save_bank.bytes"] = _size(out / "bank.json")
    for name in ("objectives.contrastive_loss", "objectives.triplet_loss"):
        m[f"{name}.calls_per_iter"] = per_iter.get(name, 0) / n_iter
    m["objectives.item_loss.us"] = (
        mean_ns(["objectives.contrastive_loss", "objectives.triplet_loss"]) / 1e3
    )
    train_step_ms.sort()
    m["encoder.train_step.ms_p50"] = _percentile(train_step_ms, 50) if train_step_ms else 0.0
    m["encoder.train_step.ms_p99"] = _percentile(train_step_ms, 99) if train_step_ms else 0.0
    m["encoder.train_step.samples"] = len(train_step_ms)
    n_losses = calls.get("encoder.compute_losses", 0)
    m["encoder.compute_losses.self_ms"] = (
        self_ns.get("encoder.compute_losses", 0) / n_losses / 1e6 if n_losses else 0.0
    )
    m["encoder.forward.us"] = mean_ns(["encoder.forward"]) / 1e3
    m["encoder.backward.us"] = mean_ns(["encoder.backward"]) / 1e3
    m["encoder.save_encoders.ms"] = mean_ns(["encoder.save_encoders"]) / 1e6
    m["encoder.save_encoders.bytes"] = _size(out / "encoders.json")
    m["synthdata.generate_scene_pair.ms"] = mean_ns(["synthdata.generate_scene_pair"]) / 1e6
    m["harness.run_training.self_ms_per_iter"] = (
        self_ns.get("harness.run_training", 0) / jobs / max(cfg.iterations, 1) / 1e6
    )
    n_eval = calls.get("harness.evaluate", 0)
    m["harness.evaluate.self_s"] = (
        self_ns.get("harness.evaluate", 0) / n_eval / 1e9 if n_eval else 0.0
    )
    m["harness.evaluate.assignments_bytes"] = _size(out / HELD_OUT_CSV)
    m["serialize.fmt_float.calls"] = first.counts.get("serialize.fmt_float", 0)
    m["serialize.resolved_config.bytes"] = _size(out / "resolved_config.json")
    m["serialize.metrics_csv.bytes"] = _size(out / "metrics.csv")
    m["serialize.final_eval.bytes"] = _size(out / "final_eval.json")
    for layer in _LAYERS:
        names = [n for n in SPAN_FUNCTIONS if n.startswith(layer + ".")]
        m[f"layer.{layer}.self_ms"] = sum(self_ns.get(n, 0) for n in names) / jobs / 1e6
    m["trace.overhead"] = overhead
    return m


# --- machine ---


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the loaded library; None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
    }
