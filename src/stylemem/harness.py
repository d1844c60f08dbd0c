"""Experiment orchestration: configuration, training loop, evaluation.

A run is fully determined by its resolved configuration (which includes the
seed): scene streams, bank and encoder initialization, and evaluation scenes
are all derived from the seed through fixed stream keys, and no artifact
contains timestamps, so reruns are byte-identical.

Evaluation and the per-iteration metrics score one test-time read per
scene pair in ``_accumulate_pair``, one unmasked softmax over the pair's
content-key ``Cosines`` (both domains' (2P, N) rows), which also holds the
package's one check of the content row norms. Its fidelity is the cosine
of each read's mixture with the opposite domain's encoded style, taken by
the factored-read rule of :mod:`stylemem.numerics` from the value-plane
Grams, dot products and norms, so no mixture is formed. Evaluation takes
one loss pass per held-out scene pair and no gradient, and the read, the
fidelity and the assignments export reuse that pass's encodings and
cosines. The per-iteration metrics encode afresh, since the step has just
made new encoders and perhaps a new bank, and take one two-block
``cosine_matrix`` against the keys and the dot products and norms of the
fresh style encodings. Every pass takes one ``stylemem.encoder.State`` of
the encoders and the bank, which makes the factors of the encoding rule
of :mod:`stylemem.numerics` (each widening encoder's ``Affine``) on first
use, as the bank makes its Grams. So they are made once per state: by
``evaluate`` once per call, and in training once per step, whose returned
state serves that iteration's metrics and the next step's loss pass.
Widening encoders' rows are formed only for the triplet distances and the
``assignments.csv`` content columns. The export is rendered to bytes in
numpy, a chunk of finished lines at a time, and written as it is rendered.

Config files are JSON. A file may name a ``preset`` ("toy" or "full") and
override any subset of keys; the expansion to a fully explicit config is
logged and written to the output directory as resolved_config.json. The keys
are described in the README's Configuration section. The toy preset is the
``ExperimentConfig`` defaults. ``ExperimentConfig``, its ``train`` (a
``TrainSettings``) and its ``scene`` (a ``SceneSettings``) each check their
keys when built, so a ``dataclasses.replace`` is checked too; the loader
and the built objects share one type rule (``serialize.typed``), and only
the loader turns an integral float into an int. A config whose
run would allocate an array over ``MAX_ARRAY_ELEMENTS`` elements is rejected.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .encoder import EncoderSet, State, TrainSettings, compute_losses, encode_pair, save_encoders, train_step
from .errors import ConfigError, GenerationError, LayoutError, StylememError, ValidationError
from .memory import POOLED_CLASS_ID, MemoryBank, MemoryLayout, init_bank, load_bank, read_global, save_bank
from .numerics import Cosines, cosine_matrix, read_cosines, split_rng
from .serialize import FLOAT, atomic_write, check_types, csv_lines, layout_counts, typed, write_json
from .synthdata import DomainSpec, ScenePair, SceneSettings, generate_scene_pair

log = logging.getLogger(__name__)

METRICS_HEADER = "iter,key_loss,value_loss,rec_loss,util_entropy,purity,fidelity"
METRICS_TEMPLATE = ",".join(["%d"] + [FLOAT] * 6)

# stream keys under the root seed (see numerics.split_rng)
STREAM_SPEC = 0
STREAM_BANK = 1
STREAM_ENCODERS = 2
STREAM_TRAIN = 3
STREAM_EVAL = 4

# Element limit of every array a config makes a run allocate; the full
# preset's largest holds 65,536 (2**16). Not a config key.
MAX_ARRAY_ELEMENTS = 2**24


def _check_array_sizes(cfg: ExperimentConfig) -> None:
    s = cfg.scene
    positions = s.height * s.width
    shapes = {
        "bank (items x channels)": (cfg.n_items, cfg.channels),
        "scene noise (3 x positions x scene.input_channels)": (3, positions, s.input_channels),
        "encoded features (positions x channels)": (positions, cfg.channels),
        "encoders (channels x scene.input_channels)": (cfg.channels, s.input_channels),
        "pair storage (items x 2 x positions)": (cfg.n_items, 2, positions),
        "class prototypes (scene.classes x scene.input_channels)": (s.classes, s.input_channels),
        "prototype similarities (scene.classes x scene.classes)": (s.classes, s.classes),
    }
    for name, shape in shapes.items():
        if math.prod(shape) > MAX_ARRAY_ELEMENTS:
            raise ConfigError(
                f"{name} would hold {' x '.join(map(str, shape))} elements, more than {MAX_ARRAY_ELEMENTS}"
            )


def _check_preset(preset) -> None:
    if preset is not None and (not isinstance(preset, str) or preset not in PRESETS):
        raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings; the defaults are the toy preset.

    Construction checks the preset name, that ``scene``, ``train`` and
    ``layout`` hold a ``SceneSettings``, a ``TrainSettings`` and (class,
    count) pairs, the int fields' types, then the top-level range rules; the
    prototype draw is left out, so ``replace`` stays cheap. ``memory_mode``
    picks the bank layout, which alone decides how a step addresses the bank.
    """

    preset: str | None = None
    memory_mode: str = "class-aware"
    layout: tuple[tuple[int, int], ...] = ((1, 3), (2, 2), (3, 2), (0, 3))
    channels: int = 16
    iterations: int = 2000
    update_every: int = 2
    seed: int = 19
    eval_scenes: int = 100
    assignment_scenes: int = 4
    train: TrainSettings = TrainSettings()
    scene: SceneSettings = SceneSettings(content_overlap=0.75, style_overlap=0.98)

    def __post_init__(self):
        _check_preset(self.preset)
        for name, kind in (("scene", SceneSettings), ("train", TrainSettings)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not (isinstance(self.layout, tuple) and all(isinstance(e, tuple) and len(e) == 2 for e in self.layout)):
            raise ConfigError(f"layout must be a tuple of (class, count) pairs, got {self.layout!r}")
        check_types(ExperimentConfig, vars(self))
        for i, entry in enumerate(self.layout):
            for key, value in zip(("class", "count"), entry):
                typed(f"layout {key} (entry {i})", "int", value)
        if self.memory_mode not in ("class-aware", "single"):
            raise ConfigError(f"memory_mode must be 'class-aware' or 'single', got {self.memory_mode!r}")
        minimums = (("iterations", 0), ("update_every", 1), ("channels", 1), ("seed", 0), ("eval_scenes", 1))
        for name, low in minimums:
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not 0 <= self.assignment_scenes <= self.eval_scenes:
            raise ConfigError("assignment_scenes must lie in [0, eval_scenes]")
        if any(cid == POOLED_CLASS_ID for cid, _ in self.layout):
            raise ConfigError(f"class id {POOLED_CLASS_ID} is reserved for pooled mode")
        _check_array_sizes(self)
        try:
            self.reference_layout()
        except LayoutError as exc:
            raise ConfigError(f"layout: {exc}") from exc
        if self.train.loss_variant == "triplet" and self.n_items < 2:
            raise ConfigError(f"triplet loss needs at least two items, layout has {self.n_items}")
        # scenes label every position with a class in [0, scene.classes)
        missing = sorted(set(range(self.scene.classes)) - {cid for cid, _ in self.layout})
        if self.memory_mode == "class-aware" and missing:
            raise ConfigError(
                f"class-aware layout lacks scene classes {missing} (scene.classes is {self.scene.classes})"
            )

    @property
    def n_items(self) -> int:
        return sum(count for _, count in self.layout)

    def reference_layout(self) -> MemoryLayout:
        """The class partition map; used for addressing in class-aware mode
        and as the purity reference in both modes."""
        return MemoryLayout.from_counts(self.layout)

    def bank_layout(self) -> MemoryLayout:
        if self.memory_mode == "class-aware":
            return self.reference_layout()
        return MemoryLayout.from_counts([(POOLED_CLASS_ID, self.n_items)])

    def domain_spec(self) -> DomainSpec:
        return DomainSpec.create(split_rng(self.seed, STREAM_SPEC), self.scene)

    def to_dict(self) -> dict:
        """The config keys: the ``train`` fields sit at the top level."""
        doc = asdict(self)
        doc.update(doc.pop("train"))
        doc["layout"] = [{"class": cid, "count": count} for cid, count in self.layout]
        return doc


_TOY = ExperimentConfig()
PRESETS: dict[str, ExperimentConfig] = {
    "toy": _TOY,
    "full": replace(
        _TOY, layout=((1, 5), (2, 3), (3, 2), (0, 10)), channels=256,
        scene=replace(_TOY.scene, input_channels=64),
    ),
}
_TOP_KEYS = tuple(_TOY.to_dict())
_SCENE_KEYS = tuple(f.name for f in fields(SceneSettings))


def resolve_config(raw: dict) -> dict:
    """Expand a (possibly preset-based) config dict to a fully explicit one."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    preset = raw.get("preset")
    _check_preset(preset)
    resolved: dict = PRESETS[preset].to_dict() if preset else {}
    resolved["preset"] = preset

    overrides = []
    for key, value in raw.items():
        if key == "preset":
            continue
        if key == "scene":
            if not isinstance(value, dict):
                raise ConfigError("scene must be an object")
            bad = set(value) - set(_SCENE_KEYS)
            if bad:
                raise ConfigError(f"unknown scene keys: {sorted(bad)}")
            resolved.setdefault("scene", {}).update(value)
        else:
            resolved[key] = value
        overrides.append(key)

    missing = [k for k in _TOP_KEYS if k != "preset" and k not in resolved]
    if missing:
        raise ConfigError(f"config missing keys: {missing}")
    missing_scene = [k for k in _SCENE_KEYS if k not in resolved["scene"]]
    if missing_scene:
        raise ConfigError(f"scene config missing keys: {missing_scene}")
    log.info("resolved config: preset=%r, overridden keys=%s", preset, sorted(overrides))
    return resolved


def config_from_dict(resolved: dict) -> ExperimentConfig:
    """Type-check a resolved config dict and build the typed config.

    Each object built here (``SceneSettings``, ``TrainSettings``,
    ``ExperimentConfig``) checks its range rules; this adds the prototype draw
    and reports a scene error as a ``ConfigError`` that names the key.
    """
    try:
        scene = SceneSettings(**check_types(SceneSettings, resolved["scene"], "scene.", loading=True))
        top = check_types(ExperimentConfig, resolved, loading=True)  # before layout and train: keeps the first error
        cfg = ExperimentConfig(
            preset=resolved.get("preset"),
            layout=layout_counts(resolved["layout"], "layout", ConfigError),
            train=TrainSettings(**check_types(TrainSettings, resolved, loading=True)),
            scene=scene,
            **top,
        )
        cfg.domain_spec()
    except GenerationError as exc:
        raise ConfigError(f"scene: {exc}") from exc
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 decode errors
        raise ConfigError(f"config file {path}: {exc}") from exc
    return config_from_dict(resolve_config(raw))


@dataclass
class MetricsRow:
    """One evaluation snapshot; purity and fidelity use test-time reads."""

    iteration: int
    key_loss: float
    value_loss: float
    rec_loss: float
    util_entropy: float
    purity: float
    fidelity: float


@dataclass
class RunResult:
    bank: MemoryBank
    encoders: EncoderSet
    metrics: list[MetricsRow]
    final_eval: MetricsRow


def _finite(values: tuple, what: str) -> MetricsRow:
    """The ``MetricsRow`` of ``values``, or a ``ValidationError`` naming each non-finite field."""
    if not all(map(math.isfinite, values)):
        bad = [f"{f.name} {v}" for f, v in zip(fields(MetricsRow), values) if not math.isfinite(v)]
        raise ValidationError(f"{what} became non-finite ({', '.join(bad)})")
    return MetricsRow(*values)


@dataclass
class _EvalAccumulator:
    alpha_sum: np.ndarray
    queries: int = 0
    purity_hits: int = 0
    fidelity_sum: float = 0.0

    def entropy(self) -> float:
        p = self.alpha_sum / self.alpha_sum.sum()
        nz = p[p > 0.0]
        return float(-np.sum(nz * np.log(nz)))

    def purity(self) -> float:
        return self.purity_hits / self.queries

    def fidelity(self) -> float:
        return self.fidelity_sum / self.queries


def _accumulate_pair(
    acc: _EvalAccumulator, bank: MemoryBank, contents: tuple, cosines: Cosines, targets: tuple,
    labels: np.ndarray, ref_layout: MemoryLayout, export: Callable[[bytes], object] | None = None, scene: int = 0,
) -> None:
    """Test-time metrics of one scene pair: one ``read_global`` over the
    (x, y) content encodings ``contents``, from their content-key
    ``cosines`` (block d for domain d), whose norms must be finite, scored
    against the pair's ``labels`` and against ``targets``, which holds per
    domain d (x, y) the target that d's encoded style rows set for the
    opposite read: the Gram of ``values_d``, its item-major dot products
    with those rows and their norms. Each domain's assignments lines go to
    ``export`` as finished bytes, a chunk of lines at a time, from
    ``serialize.csv_lines``: the prefix ``scene,domain,``, the position,
    label and item columns (each below 2**24, by the array guard), the read
    weight and the formed content row."""
    for d, cols in zip(("x", "y"), cosines.columns):
        if not np.isfinite(cosines.row_norms[cols]).all():
            raise ValidationError(f"encoder content_{d} rows have non-finite norms")
    item_classes = ref_layout.item_classes
    alpha = read_global(bank, cosines.sims).T  # item-major (N, 2P)
    for d, content, cols, target in zip(("x", "y"), contents, cosines.columns, targets[::-1]):
        weights = alpha[:, cols]

        acc.alpha_sum += weights.sum(axis=1)
        acc.queries += content.shape[0]
        acc.fidelity_sum += float(read_cosines(weights, *target).sum())
        top = np.argmax(weights, axis=0)
        acc.purity_hits += int(np.sum(item_classes[top] == labels))
        if export is not None:
            positions = np.arange(top.shape[0])
            block = np.column_stack((weights[top, positions], content.formed()))
            for lines in csv_lines(f"{scene},{d},", (positions, labels, top), block):
                export(lines)


def _pair_metrics(state: State, pair: ScenePair, ref_layout: MemoryLayout) -> tuple[float, float, float]:
    # the step has just made a new state: encode afresh
    bank = state.bank
    contents, styles = encode_pair(state, pair)
    planes = (bank.values_x, bank.values_y)
    targets = tuple(
        (bank.grams[d], style.dots(plane), style.norms()) for d, style, plane in zip(("x", "y"), styles, planes)
    )
    acc = _EvalAccumulator(alpha_sum=np.zeros(bank.n_items))
    _accumulate_pair(acc, bank, contents, cosine_matrix(contents, bank.keys), targets, pair.labels, ref_layout)
    return acc.entropy(), acc.purity(), acc.fidelity()


def run_training(cfg: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Train for cfg.iterations scene pairs and write all artifacts.

    Artifacts: resolved_config.json, metrics.csv (one row per iteration),
    bank.json, encoders.json, final_eval.json, assignments.csv. All are
    written once the final evaluation has passed its finiteness check, so a
    run that fails in training or in that evaluation writes nothing into
    ``out_dir``. An iteration whose step or metrics row is not finite raises
    an error naming it, and numpy's floating-point warnings are silenced
    inside the loop.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec = cfg.domain_spec()
    state = State(
        EncoderSet.create(split_rng(cfg.seed, STREAM_ENCODERS), cfg.scene.input_channels, cfg.channels),
        init_bank(cfg.bank_layout(), cfg.channels, split_rng(cfg.seed, STREAM_BANK)),
    )
    ref_layout = cfg.reference_layout()

    log.info(
        "training: mode=%s loss=%s N=%d C=%d T=%d seed=%d",
        cfg.memory_mode, cfg.train.loss_variant, cfg.n_items, cfg.channels, cfg.iterations, cfg.seed,
    )
    metrics: list[MetricsRow] = []
    for t in range(cfg.iterations):
        pair = generate_scene_pair(spec, split_rng(cfg.seed, STREAM_TRAIN, t))
        updates = t % cfg.update_every == 0
        try:
            # a diverging step fails below with a named error, not numpy warnings
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                report, state = train_step(state, pair, cfg.train, update_memory=updates)
                entropy, purity, fidelity = _pair_metrics(state, pair, ref_layout)
            values = (t, report.key_loss, report.value_loss, report.rec_loss, entropy, purity, fidelity)
            metrics.append(_finite(values, "metrics"))
        except StylememError as exc:
            raise type(exc)(f"training iteration {t}: {exc}") from exc

    bank, encoders = state.bank, state.encoders
    final_eval = evaluate(bank, encoders, cfg, cfg.eval_scenes, assignments_path=out / "assignments.csv")
    write_json(out / "resolved_config.json", cfg.to_dict())
    lines = [METRICS_HEADER] + [METRICS_TEMPLATE % astuple(row) for row in metrics]
    with atomic_write(out / "metrics.csv") as write:
        write("".join(line + "\n" for line in lines).encode())
    save_bank(bank, out / "bank.json")
    save_encoders(encoders, out / "encoders.json")
    write_json(out / "final_eval.json", asdict(final_eval))
    log.info(
        "done: purity=%.4f fidelity=%.4f entropy=%.4f", final_eval.purity,
        final_eval.fidelity, final_eval.util_entropy,
    )
    return RunResult(bank, encoders, metrics, final_eval)


def _check_artifacts(bank: MemoryBank, encoders: EncoderSet, cfg: ExperimentConfig) -> None:
    """Reject a bank or encoders that were not built for ``cfg``."""
    counts = lambda layout: [(e.class_id, e.count) for e in layout.entries]
    got = (counts(bank.layout), bank.channels, {enc.weight.shape for enc in encoders.all()})
    want = (counts(cfg.bank_layout()), cfg.channels, {(cfg.channels, cfg.scene.input_channels)})
    if got != want:
        raise ValidationError(
            f"bank layout, channels and encoder (out, in) shapes {got} do not fit the config: {want}"
        )


def evaluate(
    bank: MemoryBank,
    encoders: EncoderSet,
    cfg: ExperimentConfig,
    scene_count: int,
    assignments_path: str | Path | None = None,
) -> MetricsRow:
    """Metrics over fresh held-out scene pairs using test-time global reads.

    Loss fields are per-scene means of the training objective (computed with
    the training-time class pools, without touching bank or encoders). Each
    pair takes one loss pass and no gradient; the test-time read, the
    fidelity target and the export reuse its encodings and cosines, and
    every pair takes the factors of one ``State`` of the bank and the encoders.
    When ``assignments_path`` is set, the first cfg.assignment_scenes scenes
    also dump one row per query: scene, domain, position, label, assigned
    item, its weight, and the encoded content features (for external
    projection). The export streams to a temporary file that replaces
    ``assignments_path`` only once every metric is finite; a metric that is
    not finite raises an error naming it, and the file is left as it was.
    """
    if scene_count < 1:
        raise ConfigError("evaluation needs at least one scene")
    _check_artifacts(bank, encoders, cfg)
    spec = cfg.domain_spec()
    ref_layout = cfg.reference_layout()

    acc = _EvalAccumulator(alpha_sum=np.zeros(bank.n_items))
    loss_sums = np.zeros(3)
    columns = ["scene,domain,position,label,item,weight"] + [f"c{i}" for i in range(bank.channels)]
    export = nullcontext() if assignments_path is None else atomic_write(assignments_path)

    # a diverged bank or encoder set fails below with a named error, not numpy warnings
    with export as write, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if write is not None:
            write((",".join(columns) + "\n").encode())
        state = State(encoders, bank)
        for i in range(scene_count):
            pair = generate_scene_pair(spec, split_rng(cfg.seed, STREAM_EVAL, i))
            report, fwd = compute_losses(state, pair, cfg.train)
            loss_sums += (report.key_loss, report.value_loss, report.rec_loss)
            contents = tuple(q.content for q in fwd.queries.values())
            targets = tuple(
                (bank.grams[d], fwd.values.dots.T[:, cols], fwd.values.row_norms[cols])
                for d, cols in zip(fwd.queries, fwd.values.columns)
            )
            scene_export = write if i < cfg.assignment_scenes else None
            _accumulate_pair(acc, bank, contents, fwd.cosines, targets, pair.labels, ref_layout, scene_export, i)

        losses = (float(total) / scene_count for total in loss_sums)
        values = (cfg.iterations, *losses, acc.entropy(), acc.purity(), acc.fidelity())
        return _finite(values, "evaluation")


def inspect_bank(path: str | Path) -> str:
    """Human-readable bank summary: layout, norms, key similarity structure."""
    bank = load_bank(path)
    lines = [f"bank file: {path}", f"items: {bank.n_items}, channels: {bank.channels}", "layout:"]
    lines += [f"  class {e.class_id}: items [{e.offset}, {e.offset + e.count})" for e in bank.layout.entries]
    lines.append("item norms (key / value_x / value_y):")
    planes = (bank.keys, bank.values_x, bank.values_y)
    norms = lambda i: "  ".join(f"{np.linalg.norm(plane[i]):.9f}" for plane in planes)
    lines += [f"  {i:3d}  {norms(i)}" for i in range(bank.n_items)]
    lines.append("pairwise key cosine:")
    if bank.n_items < 2:
        return "\n".join(lines + ["  (single item, no pairs)"])
    sims = bank.keys @ bank.keys.T
    lines += [f"  {i:3d}  " + " ".join(f"{s:+.3f}" for s in row) for i, row in enumerate(sims)]
    lines.append("partition key similarity (mean cosine):")
    for e in bank.layout.entries:
        inside = np.zeros(bank.n_items, dtype=bool)
        inside[e.offset : e.offset + e.count] = True
        rows = sims[inside]
        off_diag = rows[:, inside][~np.eye(e.count, dtype=bool)]
        intra = f"{off_diag.mean():+.3f}" if off_diag.size else "n/a"
        inter = f"{rows[:, ~inside].mean():+.3f}" if not inside.all() else "n/a"
        lines.append(f"  class {e.class_id}: intra {intra}, inter {inter}")
    return "\n".join(lines)
