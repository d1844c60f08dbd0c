import copy
import json
import math
import re
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from stylemem import encoder, harness
from stylemem.cli import main as cli_main
from stylemem.encoder import EncoderSet, LinearEncoder, TrainSettings, save_encoders
from stylemem.errors import ConfigError, PoolError, ValidationError
from stylemem.harness import (
    METRICS_HEADER,
    METRICS_TEMPLATE,
    PRESETS,
    ExperimentConfig,
    MetricsRow,
    config_from_dict,
    evaluate,
    inspect_bank,
    load_config,
    resolve_config,
    run_training,
)
from stylemem.memory import MemoryBank, init_bank, load_bank, save_bank
from stylemem.numerics import l2_normalize_rows, make_rng


def toy_config(**overrides):
    raw = {"preset": "toy"}
    raw.update(overrides)
    return config_from_dict(resolve_config(raw))


def tiny_config(**overrides):
    base = {
        "preset": "toy",
        "iterations": 5,
        "eval_scenes": 2,
        "assignment_scenes": 1,
        "scene": {"height": 6, "width": 6},
    }
    base.update(overrides)
    return config_from_dict(resolve_config(base))


# --- config resolution ---


def test_preset_expansion_covers_all_keys():
    cfg = toy_config()
    assert cfg.n_items == 10
    assert cfg.channels == 16
    assert cfg.layout == ((1, 3), (2, 2), (3, 2), (0, 3))
    assert cfg.scene.height == 16


def test_full_preset_scale():
    raw = resolve_config({"preset": "full"})
    cfg = config_from_dict(raw)
    assert cfg.n_items == 20
    assert cfg.channels == 256
    assert cfg.layout == ((1, 5), (2, 3), (3, 2), (0, 10))


def test_explicit_config_requires_every_key():
    with pytest.raises(ConfigError, match="missing"):
        resolve_config({"memory_mode": "class-aware"})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config({"preset": "toy", "typo_key": 1})
    with pytest.raises(ConfigError, match="unknown scene keys"):
        resolve_config({"preset": "toy", "scene": {"depth": 3}})
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config({"preset": "huge"})


def test_scene_overrides_merge_into_preset():
    cfg = toy_config(scene={"noise_sigma": 0.2})
    assert cfg.scene.noise_sigma == 0.2
    assert cfg.scene.height == 16  # untouched preset value


def test_config_range_validation():
    with pytest.raises(ConfigError, match=re.escape("temperature must be > 0")):
        toy_config(temperature=0.0)
    with pytest.raises(ConfigError, match="^update_every must be >= 1$"):
        toy_config(update_every=0)
    with pytest.raises(ConfigError, match="^memory_mode must be 'class-aware' or 'single', got 'dual'$"):
        toy_config(memory_mode="dual")
    with pytest.raises(ConfigError, match=re.escape("scene: content_overlap must lie in [0, 1), got 1.0")):
        toy_config(scene={"content_overlap": 1.0})
    with pytest.raises(ConfigError, match="^class id -1 is reserved for pooled mode$"):
        toy_config(layout=[{"class": -1, "count": 10}])
    with pytest.raises(ConfigError, match="count 0"):
        toy_config(layout=[{"class": 1, "count": 0}, {"class": 0, "count": 3}])
    with pytest.raises(ConfigError, match="duplicate class id 0"):
        toy_config(layout=[{"class": 0, "count": 2}, {"class": 0, "count": 3}])


# every rule ExperimentConfig checks itself, each with the loader's message
REPLACE_CASES = {
    "memory_mode": ({"memory_mode": "bogus"}, "memory_mode must be 'class-aware' or 'single', got 'bogus'"),
    "iterations": ({"iterations": -4}, "iterations must be >= 0"),
    "update_every": ({"update_every": 0}, "update_every must be >= 1"),
    "channels": ({"channels": 0}, "channels must be >= 1"),
    "seed": ({"seed": -1}, "seed must be >= 0"),
    "eval_scenes": ({"eval_scenes": 0}, "eval_scenes must be >= 1"),
    "assignment_scenes-high": ({"assignment_scenes": 5}, "assignment_scenes must lie in [0, eval_scenes]"),
    "assignment_scenes-low": ({"assignment_scenes": -1}, "assignment_scenes must lie in [0, eval_scenes]"),
    "reserved-class": ({"layout": ((-1, 10),)}, "class id -1 is reserved for pooled mode"),
    "array-size": ({"channels": 2**20},
                   "encoded features (positions x channels) would hold 36 x 1048576 elements, more than 16777216"),
    "layout-count": ({"layout": ((1, 0), (0, 3))}, "layout: class 1 has count 0, need >= 1"),
    "layout-duplicate": ({"layout": ((0, 2), (0, 3))}, "layout: duplicate class id 0"),
    "triplet": ({"memory_mode": "single", "train": TrainSettings(loss_variant="triplet"), "layout": ((0, 1),)},
                "triplet loss needs at least two items, layout has 1"),
    "missing-classes": ({"scene": replace(ExperimentConfig().scene, classes=5, height=6, width=6)},
                        "class-aware layout lacks scene classes [4] (scene.classes is 5)"),
}


@pytest.mark.parametrize("changes, message", REPLACE_CASES.values(), ids=REPLACE_CASES.keys())
def test_replace_checks_the_config_rules(changes, message):
    cfg = tiny_config()
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        replace(cfg, **changes)


# config keys that TrainSettings owns, each with a value other than its default
SETTINGS_KEYS = {
    "temperature": 0.25,
    "key_loss_weight": 0.75,
    "value_loss_weight": 0.25,
    "rec_loss_weight": 2.0,
    "loss_variant": "triplet",
    "triplet_margin": 0.5,
    "learning_rate": 0.01,
    "adam_beta1": 0.8,
    "adam_beta2": 0.99,
}


def test_settings_config_keys_reach_train_settings():
    config_keys = set(resolve_config({"preset": "toy"}))
    assert {f.name for f in fields(TrainSettings)} == set(SETTINGS_KEYS)
    assert set(SETTINGS_KEYS) <= config_keys
    for key, value in SETTINGS_KEYS.items():
        assert getattr(TrainSettings(), key) != value
        assert getattr(tiny_config(**{key: value}).train, key) == value, key


def test_ablation_configs_differ_only_in_two_keys():
    variants = {}
    for mode in ("class-aware", "single"):
        for loss in ("contrastive", "triplet"):
            resolved = resolve_config(
                {"preset": "toy", "memory_mode": mode, "loss_variant": loss}
            )
            variants[(mode, loss)] = resolved
    base = variants[("class-aware", "contrastive")]
    for key_pair, resolved in variants.items():
        diff = {
            k
            for k in base
            if json.dumps(resolved[k], sort_keys=True) != json.dumps(base[k], sort_keys=True)
        }
        assert diff <= {"memory_mode", "loss_variant"}, (key_pair, diff)


ROUND_TRIP_CONFIGS = {
    "toy": {"preset": "toy"},
    "full": {"preset": "full"},
    "toy-single-triplet": {"preset": "toy", "memory_mode": "single", "loss_variant": "triplet"},
}


@pytest.mark.parametrize("raw", ROUND_TRIP_CONFIGS.values(), ids=ROUND_TRIP_CONFIGS.keys())
def test_resolved_config_round_trips(raw):
    cfg = config_from_dict(resolve_config(raw))
    assert config_from_dict(resolve_config({**cfg.to_dict(), "preset": None})) == replace(cfg, preset=None)
    assert set(cfg.to_dict()) == set(resolve_config({"preset": "toy"}))
    assert config_from_dict(resolve_config({"preset": "toy"})) == replace(ExperimentConfig(), preset="toy")


def test_readme_configuration_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = {
        name
        for line in section.splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`([^`]+)`", line.split("|")[1])
    }
    resolved = resolve_config({"preset": "toy"})
    keys = set(resolved) - {"preset", "scene"} | {f"scene.{key}" for key in resolved["scene"]}
    assert documented == keys


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "toy", "iterations": 3}))
    cfg = load_config(path)
    assert cfg.iterations == 3
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_bytes(b'{"preset": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError):
        load_config(path)


# Every config key of a base config, set to each of these or deleted, must
# build or raise a ConfigError: never another exception.
SWEEP_VALUES = (
    -1, 0, 1, 2.5, True, None, "x", [], {}, 1e300, 10**30,
    [{"class": 0, "count": 1}],
    [{"class": -1, "count": 2}],
    [{"class": 1, "count": 0}, {"class": 0, "count": 3}],
    [{"class": 0, "count": 2}, {"class": 0, "count": 3}],
    [{"class": c, "count": 2} for c in range(4)],
)
SWEEP_BASES = {"toy": {"preset": "toy"}, "full": {"preset": "full"}, "preset-less": ExperimentConfig().to_dict()}
DELETE = object()


def sweep_configs(base: dict):
    """``(key, value, raw)`` for each config key of ``base`` (``scene.*`` too)
    set to each sweep value, and deleted (value ``DELETE``)."""
    doc = ExperimentConfig().to_dict()
    for path in [(key,) for key in doc] + [("scene", key) for key in doc["scene"]]:
        for value in (*SWEEP_VALUES, DELETE):
            raw = copy.deepcopy(base)
            *parent, key = path
            target = raw.setdefault(*parent, {}) if parent else raw
            if value is DELETE:
                target.pop(key, None)
            else:
                target[key] = copy.deepcopy(value)
            yield ".".join(path), value, raw


@pytest.mark.parametrize("base", SWEEP_BASES.values(), ids=SWEEP_BASES.keys())
def test_every_config_key_value_builds_or_raises_a_config_error(base):
    outcomes = {"built": 0, "ConfigError": 0}
    for key, value, raw in sweep_configs(base):
        try:
            config_from_dict(resolve_config(raw))
            outcomes["built"] += 1
        except ConfigError:
            outcomes["ConfigError"] += 1
        except Exception as exc:  # any other exception is the failure under test
            pytest.fail(f"{key}={value!r}: {type(exc).__name__}: {exc}")
    assert outcomes["built"] and outcomes["ConfigError"]


# --- training runs ---


def test_run_artifacts_and_metrics_shape(tmp_path):
    cfg = tiny_config()
    result = run_training(cfg, tmp_path)
    for name in (
        "resolved_config.json",
        "metrics.csv",
        "bank.json",
        "encoders.json",
        "final_eval.json",
        "assignments.csv",
    ):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,key_loss,value_loss,rec_loss,util_entropy,purity,fidelity"
    assert len(lines) == 1 + cfg.iterations
    for row in result.metrics:
        assert 0.0 <= row.purity <= 1.0
        assert 0.0 <= row.util_entropy <= math.log(cfg.n_items) + 1e-12
        assert -1.0 <= row.fidelity <= 1.0
        for v in (row.key_loss, row.value_loss, row.rec_loss):
            assert np.isfinite(v)


def test_zero_iteration_run(tmp_path):
    cfg = tiny_config(iterations=0)
    result = run_training(cfg, tmp_path)
    assert result.metrics == []
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 1
    assert (tmp_path / "bank.json").exists()
    assert (tmp_path / "encoders.json").exists()


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = tiny_config(iterations=8)
    run_training(cfg, tmp_path / "a")
    run_training(cfg, tmp_path / "b")
    for name in ("metrics.csv", "bank.json", "encoders.json", "final_eval.json",
                 "resolved_config.json", "assignments.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_single_mode_bank_has_pooled_layout(tmp_path):
    cfg = tiny_config(memory_mode="single")
    result = run_training(cfg, tmp_path)
    assert len(result.bank.layout.entries) == 1
    assert result.bank.layout.entries[0].count == cfg.n_items


def test_memory_mode_replaced_after_validation_trains_as_built(tmp_path):
    # the bank layout alone decides pooled addressing, so no second copy can disagree
    grid = {"height": 4, "width": 4}
    replaced = replace(tiny_config(iterations=3, scene=grid), memory_mode="single")
    built = tiny_config(iterations=3, scene=grid, memory_mode="single")
    got = run_training(replaced, tmp_path / "replaced").final_eval
    assert got == run_training(built, tmp_path / "built").final_eval
    assert replaced == built


# --- evaluation ---


def test_evaluate_uniform_identical_keys_entropy():
    cfg = tiny_config()
    rng = make_rng(0)
    bank = init_bank(cfg.bank_layout(), cfg.channels, rng)
    bank.keys[:] = bank.keys[0]
    encoders = EncoderSet.create(rng, cfg.scene.input_channels, cfg.channels)
    row = evaluate(bank, encoders, cfg, 2)
    assert row.util_entropy == pytest.approx(math.log(cfg.n_items), abs=1e-9)


def test_evaluate_jittered_identical_keys_purity_near_chance():
    cfg = tiny_config()
    rng = make_rng(1)
    bank = init_bank(cfg.bank_layout(), cfg.channels, rng)
    jitter = 1e-6 * rng.standard_normal(bank.keys.shape)
    bank.keys = l2_normalize_rows(np.tile(bank.keys[0], (bank.n_items, 1)) + jitter)
    encoders = EncoderSet.create(rng, cfg.scene.input_channels, cfg.channels)
    row = evaluate(bank, encoders, cfg, 4)
    # with effectively random addressing, purity sits near the layout's
    # chance level sum_k share_k * (N_k / N)
    assert 0.0 < row.purity < 0.6


def identity_encoders(n):
    def enc():
        return LinearEncoder(weight=np.eye(n), bias=np.zeros(n))

    return EncoderSet(content_x=enc(), content_y=enc(), style_x=enc(), style_y=enc())


def test_evaluate_oracle_bank_perfect_purity():
    cfg = tiny_config(scene={"noise_sigma": 0.0})
    spec = cfg.domain_spec()
    layout = cfg.bank_layout()
    n, c = cfg.n_items, cfg.channels
    keys = np.zeros((n, c))
    values_x = np.zeros((n, c))
    values_y = np.zeros((n, c))
    for entry in layout.entries:
        for i in range(entry.offset, entry.offset + entry.count):
            keys[i] = spec.content_prototypes[entry.class_id]
            values_x[i] = spec.style_prototypes_x[entry.class_id]
            values_y[i] = spec.style_prototypes_y[entry.class_id]
    bank = MemoryBank(
        l2_normalize_rows(keys), l2_normalize_rows(values_x), l2_normalize_rows(values_y), layout
    )
    row = evaluate(bank, identity_encoders(c), cfg, 3)
    assert row.purity == 1.0
    assert row.fidelity > 0.95


def test_assignments_csv_contents(tmp_path):
    cfg = tiny_config()
    result = run_training(cfg, tmp_path)
    lines = (tmp_path / "assignments.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:6] == ["scene", "domain", "position", "label", "item", "weight"]
    assert len(header) == 6 + cfg.channels
    p = cfg.scene.height * cfg.scene.width
    assert len(lines) == 1 + cfg.assignment_scenes * 2 * p
    first = lines[1].split(",")
    assert first[1] in ("x", "y")
    assert 0 <= int(first[4]) < cfg.n_items


def test_metrics_row_csv_format(tmp_path):
    result = run_training(tiny_config(), tmp_path)
    header, *lines, end = (tmp_path / "metrics.csv").read_text().split("\n")
    assert header == METRICS_HEADER and end == ""
    assert lines == [METRICS_TEMPLATE % astuple(row) for row in result.metrics]
    assert [tuple(map(float, line.split(","))) for line in lines] == list(map(astuple, result.metrics))
    line = METRICS_TEMPLATE % astuple(MetricsRow(3, 1.0, 0.5, 0.25, 2.0, 0.9, 0.8))
    assert line.startswith("3,1,0.5,0.25,2,0.90000000000000002,")


# --- inspect ---


def test_inspect_fresh_bank(tmp_path):
    bank = init_bank(toy_config().bank_layout(), 16, make_rng(2))
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    text = inspect_bank(path)
    assert "items: 10, channels: 16" in text
    assert "class 1: items [0, 3)" in text
    assert text.count("1.000000000") >= 30
    assert "partition key similarity" in text


def test_inspect_single_item_bank(tmp_path):
    from stylemem.memory import MemoryLayout

    bank = init_bank(MemoryLayout.from_counts([(0, 1)]), 4, make_rng(3))
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    text = inspect_bank(path)
    assert "(single item, no pairs)" in text


# --- cli ---


def write_tiny_config(path, **overrides):
    raw = {
        "preset": "toy",
        "iterations": 3,
        "eval_scenes": 2,
        "assignment_scenes": 0,
        "scene": {"height": 6, "width": 6},
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))


def test_cli_train_eval_inspect(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_tiny_config(cfg_path)
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) >= {"purity", "fidelity", "util_entropy"}

    assert (
        cli_main(
            [
                "eval",
                "--bank", str(out / "bank.json"),
                "--encoders", str(out / "encoders.json"),
                "--config", str(cfg_path),
                "--scenes", "2",
            ]
        )
        == 0
    )
    row = json.loads(capsys.readouterr().out)
    assert 0.0 <= row["purity"] <= 1.0

    assert cli_main(["inspect", "--bank", str(out / "bank.json")]) == 0
    assert "pairwise key cosine" in capsys.readouterr().out


def test_cli_validation_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "toy", "temperature": -1.0}))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_io_error_exit_code(tmp_path, capsys):
    assert cli_main(["inspect", "--bank", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_corrupt_bank_exit_code(tmp_path, capsys):
    bad = tmp_path / "bank.json"
    bad.write_text('{"version": 1')
    assert cli_main(["inspect", "--bank", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"temperature": float("nan")}, "temperature must be a finite number"),
        ({"iterations": 2.7}, "iterations must be an integer"),
        ({"channels": True}, "channels must be an integer"),
        ({"scene": {"height": 6.5}}, "scene.height must be an integer"),
        ({"layout": [{"class": 1, "count": True}, {"class": 0, "count": 3}]}, "layout count"),
        ({"scene": {"classes": -3}}, "scene: classes must be >= 2"),
        ({"scene": {"classes": 0}}, "scene: classes must be >= 2"),
        ({"scene": {"classes": 1}}, "scene: classes must be >= 2"),
        ({"scene": {"noise_sigma": -1}}, "scene: noise_sigma must be non-negative"),
        ({"scene": {"height": 1}}, "scene: grid 1x16 too small"),
        ({"scene": {"content_overlap": 1.0}}, "scene: content_overlap must lie in [0, 1)"),
        ({"learning_rate": 0}, "learning_rate must be > 0"),
        ({"adam_beta1": 1.0}, "adam betas must lie in [0, 1)"),
        ({"adam_beta2": -0.1}, "adam betas must lie in [0, 1)"),
        ({"memory_mode": "dual"}, "memory_mode must be 'class-aware' or 'single', got 'dual'"),
        ({"iterations": -1}, "iterations must be >= 0"),
        ({"update_every": 0}, "update_every must be >= 1"),
        ({"channels": 0}, "channels must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"eval_scenes": 0}, "eval_scenes must be >= 1"),
        ({"eval_scenes": 1, "assignment_scenes": 2}, "assignment_scenes must lie in [0, eval_scenes]"),
        ({"layout": [{"class": -1, "count": 3}, {"class": 0, "count": 3}]},
         "class id -1 is reserved for pooled mode"),
        ({"layout": [{"class": 1, "count": 0}, {"class": 0, "count": 3}]},
         "layout: class 1 has count 0, need >= 1"),
        # several faults: the first in check order is reported
        ({"channels": True, "scene": {"height": 6.5}}, "scene.height must be an integer"),
        ({"layout": [{"class": 1, "count": True}], "iterations": 2.7}, "iterations must be an integer"),
        ({"temperature": float("nan"), "layout": [{"class": 1, "count": True}]}, "layout count"),
        ({"iterations": -1, "learning_rate": 0}, "learning_rate must be > 0"),
    ],
)
def test_cli_rejects_mistyped_config_values(tmp_path, capsys, override, message):
    cfg_path = tmp_path / "cfg.json"
    write_tiny_config(cfg_path, **override)
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_a_config_whose_bank_exceeds_the_array_limit(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_tiny_config(cfg_path, layout=[{"class": 1, "count": 10**18}, {"class": 0, "count": 1}])
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "bank (items x channels) would hold 1000000000000000001 x 16 elements" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"channels": 2**20}, "encoded features (positions x channels)"),
        ({"scene": {"height": 2**12, "width": 2**12}}, "scene inputs (positions x scene.input_channels)"),
        ({"channels": 2**12, "scene": {"height": 2, "width": 2, "input_channels": 2**13}},
         "encoders (channels x scene.input_channels)"),
        ({"layout": [{"class": 1, "count": 2**17}, {"class": 0, "count": 1}], "channels": 1},
         "cosines (positions x items)"),
        ({"scene": {"classes": 4096, "input_channels": 2**13}},
         "class prototypes (scene.classes x scene.input_channels)"),
        ({"scene": {"classes": 5000}}, "prototype similarities (scene.classes x scene.classes)"),
    ],
)
def test_config_rejects_arrays_over_the_limit(override, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        toy_config(**override)


def test_cli_names_the_iteration_and_encoder_that_diverged(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "toy", "iterations": 20, "eval_scenes": 1, "assignment_scenes": 1,
        "learning_rate": 1e300,
    }))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: training iteration 1: loss became non-finite (" in err and "rec inf)" in err
    assert "Warning" not in err
    assert not (tmp_path / "o" / "bank.json").exists()


def test_cli_names_the_encoder_whose_adam_moments_overflowed(tmp_path, capsys):
    # logits of about 1e300 give squared gradients past the float range;
    # where Adam's second moment is inf its step is 0, so the weight would freeze
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "toy", "iterations": 3, "eval_scenes": 1, "assignment_scenes": 0,
        "temperature": 1e-300,
    }))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: training iteration 0: encoder content_x Adam second moments became non-finite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "o" / "bank.json").exists()


def test_cli_names_the_loss_that_overflowed(tmp_path, capsys):
    # scene features near 1e200 overflow the reconstruction loss before any gradient
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "toy", "iterations": 3, "eval_scenes": 1, "assignment_scenes": 0,
        "scene": {"noise_sigma": 1e200},
    }))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: training iteration 0: loss became non-finite (" in err
    assert "Traceback" not in err and "Warning" not in err
    assert list((tmp_path / "o").iterdir()) == []


def test_cli_names_the_iteration_whose_metrics_are_not_finite(tmp_path, capsys, monkeypatch):
    measured = []

    def pair_metrics(*args):
        entropy, purity, fidelity = real(*args)
        measured.append(fidelity)
        return entropy, purity, np.nan if len(measured) == 2 else fidelity

    real = harness._pair_metrics
    monkeypatch.setattr(harness, "_pair_metrics", pair_metrics)
    write_tiny_config(tmp_path / "cfg.json")
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: training iteration 1: metrics became non-finite (fidelity nan)" in err
    assert len(measured) == 2 and list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("override", [{"temperature": 1e-300}, {"scene": {"noise_sigma": 1e200}}])
def test_cli_failed_run_writes_nothing_to_its_output_directory(tmp_path, capsys, override):
    finished = tmp_path / "finished"
    write_tiny_config(tmp_path / "ok.json")
    assert cli_main(["train", "--config", str(tmp_path / "ok.json"), "--out", str(finished)]) == 0
    artifacts = lambda: {p.name: p.read_bytes() for p in finished.iterdir()}
    before = artifacts()
    assert len(before) == 6

    write_tiny_config(tmp_path / "bad.json", **override)
    for out in (tmp_path / "fresh", finished):
        assert cli_main(["train", "--config", str(tmp_path / "bad.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: training iteration 0:" in err and "Warning" not in err
    assert list((tmp_path / "fresh").iterdir()) == []
    assert artifacts() == before


DIVERGED = {
    "preset": "toy", "iterations": 1, "eval_scenes": 1, "assignment_scenes": 1, "learning_rate": 1e300,
    "scene": {"height": 4, "width": 4},
}


def test_cli_train_fails_before_writing_when_the_final_evaluation_is_not_finite(tmp_path, capsys):
    # one Adam step at learning rate 1e300 leaves finite weights near 1e300;
    # the held-out scene's squared read residual then overflows
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DIVERGED))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: evaluation became non-finite (rec_loss inf)"
    ]
    assert "Warning" not in err
    assert list((tmp_path / "o").iterdir()) == []


def test_cli_eval_rejects_artifacts_whose_evaluation_is_not_finite(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DIVERGED))
    cfg = load_config(cfg_path)
    save_bank(init_bank(cfg.bank_layout(), cfg.channels, make_rng(3)), tmp_path / "bank.json")
    encoders = EncoderSet.create(make_rng(4), cfg.scene.input_channels, cfg.channels)
    for enc in encoders.all():
        enc.weight *= 1e300
    save_encoders(encoders, tmp_path / "encoders.json")
    before = sorted(tmp_path.iterdir())
    args = ["eval", "--config", str(cfg_path), "--scenes", "1"]
    args += ["--bank", str(tmp_path / "bank.json"), "--encoders", str(tmp_path / "encoders.json")]
    assert cli_main(args) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        "error: evaluation became non-finite (rec_loss inf)"
    ]
    assert "Warning" not in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"preset": "toy", "iterations": 2, "eval_scenes": 1, "assignment_scenes": 0,
             "scene": {"classes": 5, "height": 6, "width": 6}},
            "class-aware layout lacks scene classes [4] (scene.classes is 5)",
        ),
        (
            {"preset": "toy", "iterations": 2, "eval_scenes": 1, "assignment_scenes": 0,
             "loss_variant": "triplet", "memory_mode": "single", "layout": [{"class": 0, "count": 1}]},
            "triplet loss needs at least two items, layout has 1",
        ),
    ],
)
def test_cli_rejects_configs_that_fail_in_training_before_writing(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "o").exists()


def test_pooled_mode_ignores_scene_classes_missing_from_the_layout():
    # pooled addressing ignores labels, so such a run trains
    assert tiny_config(memory_mode="single", scene={"classes": 5}).scene.classes == 5
    with pytest.raises(ConfigError, match=re.escape("lacks scene classes [4, 5]")):
        tiny_config(scene={"classes": 6})


def test_run_training_names_the_iteration_of_any_step_error(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise PoolError("triplet loss needs at least two items")

    # no valid config reaches a step error, so the step's triplet loss raises one
    monkeypatch.setattr(encoder, "triplet_loss", refuse)
    with pytest.raises(PoolError, match=r"^training iteration 0: triplet loss needs at least two items$"):
        run_training(tiny_config(loss_variant="triplet", memory_mode="single"), tmp_path / "o")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    write_tiny_config(root / "cfg.json")
    assert cli_main(["train", "--config", str(root / "cfg.json"), "--out", str(root / "run")]) == 0
    return root


def run_eval(run_root, bank=None, encoders=None, config=None):
    return cli_main(
        [
            "eval",
            "--bank", str(bank or run_root / "run" / "bank.json"),
            "--encoders", str(encoders or run_root / "run" / "encoders.json"),
            "--config", str(config or run_root / "cfg.json"),
            "--scenes", "1",
        ]
    )


def _drop_weight(doc):
    del doc["encoders"]["style_y"]["weight"]


def _text_bias(doc):
    doc["encoders"]["content_x"]["bias"] = "zeros"


def _wider_file(doc):
    doc["in_channels"] += 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: [doc], "must hold a JSON object"),
        (_drop_weight, "'style_y' missing field 'weight'"),
        (_text_bias, "'content_x'"),
        (_wider_file, "file declares"),
    ],
)
def test_cli_eval_rejects_malformed_encoder_file(trained_run, tmp_path, capsys, corrupt, message):
    doc = json.loads((trained_run / "run" / "encoders.json").read_text())
    doc = corrupt(doc) or doc
    path = tmp_path / "encoders.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_eval(trained_run, encoders=path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "override, message",
    [
        (
            {"layout": [{"class": 1, "count": 2}, {"class": 2, "count": 3},
                        {"class": 3, "count": 2}, {"class": 0, "count": 3}]},
            "[(1, 2), (2, 3), (3, 2), (0, 3)], 16, {(16, 16)})",
        ),
        ({"channels": 8}, "[(1, 3), (2, 2), (3, 2), (0, 3)], 8, {(8, 16)})"),
        ({"scene": {"height": 6, "width": 6, "input_channels": 8}}, "0, 3)], 16, {(16, 8)})"),
    ],
)
def test_cli_eval_rejects_artifacts_built_for_another_config(
    trained_run, tmp_path, capsys, override, message
):
    cfg_path = tmp_path / "cfg.json"
    write_tiny_config(cfg_path, **override)
    capsys.readouterr()
    assert run_eval(trained_run, config=cfg_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "do not fit the config" in err and message in err
    assert run_eval(trained_run) == 0
