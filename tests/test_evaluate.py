"""Evaluation in one gradient-free loss pass per scene, against the two-pass
reference, and the read weights a query set keeps."""

from dataclasses import replace

import numpy as np
import pytest

from stylemem import encoder
from stylemem.harness import config_from_dict, evaluate, resolve_config, run_training
from stylemem.memory import MemoryLayout, address, init_bank
from stylemem.numerics import softmax_rows, split_rng

from reference import reference_evaluate

CASES = [
    pytest.param("class-aware", "contrastive", id="class-aware-contrastive"),
    pytest.param("class-aware", "triplet", id="class-aware-triplet"),
    pytest.param("single", "contrastive", id="pooled-contrastive"),
    pytest.param("single", "triplet", id="pooled-triplet"),
]


def trained(tmp_path, memory_mode="class-aware", loss_variant="contrastive"):
    cfg = config_from_dict(resolve_config({
        "preset": "toy", "memory_mode": memory_mode, "loss_variant": loss_variant,
        "iterations": 30, "eval_scenes": 3, "assignment_scenes": 2,
        "scene": {"height": 6, "width": 6},
    }))
    result = run_training(cfg, tmp_path / "run")
    return cfg, result.bank, result.encoders


@pytest.mark.parametrize("memory_mode, loss_variant", CASES)
def test_evaluate_matches_the_two_pass_reference(tmp_path, memory_mode, loss_variant):
    cfg, bank, encoders = trained(tmp_path, memory_mode, loss_variant)
    row = evaluate(bank, encoders, cfg, cfg.eval_scenes, assignments_path=tmp_path / "new.csv")
    want = reference_evaluate(bank, encoders, cfg, cfg.eval_scenes, tmp_path / "reference.csv")
    assert row == want
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_evaluate_computes_no_gradients(tmp_path, monkeypatch):
    cfg, bank, encoders = trained(tmp_path)
    want = evaluate(bank, encoders, cfg, cfg.eval_scenes)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate computed a gradient")

    def item_loss_without_gradient(*args, **kwargs):
        return replace(item_loss(*args, **kwargs), gradient=refuse)

    item_loss = encoder._item_loss
    monkeypatch.setattr(encoder, "read_backward", refuse)
    monkeypatch.setattr(encoder, "_item_loss", item_loss_without_gradient)
    assert evaluate(bank, encoders, cfg, cfg.eval_scenes) == want


@pytest.mark.parametrize("counts", [[(1, 3), (2, 2), (3, 2), (0, 3)], [(-1, 10)]])
def test_address_keeps_the_masked_read_weights(counts):
    layout = MemoryLayout.from_counts(counts)
    for seed in range(5):
        rng = split_rng(30, seed)
        bank = init_bank(layout, 6, rng)
        content = rng.standard_normal((40, 6))
        labels = rng.choice(layout.class_ids, size=40)
        queries = address(bank, content, rng.standard_normal((40, 6)), labels)
        np.testing.assert_array_equal(queries.weights, softmax_rows(queries.sims, queries.mask))
