"""Evaluation in one gradient-free loss pass per scene, against the two-pass
reference, its streamed assignments export, and the read weights a query set
keeps."""

from dataclasses import replace

import numpy as np
import pytest

from stylemem import encoder, harness
from stylemem.errors import StylememError, ValidationError
from stylemem.harness import config_from_dict, evaluate, resolve_config, run_training
from stylemem.memory import MemoryLayout, init_bank
from stylemem.numerics import softmax_rows, split_rng

from reference import address_one, reference_evaluate

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
        return {d: replace(term, gradient=refuse) for d, term in item_loss(*args, **kwargs).items()}

    item_loss = encoder._item_loss
    monkeypatch.setattr(encoder, "read_backward", refuse)
    monkeypatch.setattr(encoder, "_item_loss", item_loss_without_gradient)
    assert evaluate(bank, encoders, cfg, cfg.eval_scenes) == want


def fail_on_the_second_scene(calls, out):
    # the first scene's lines went to the export's temporary file, beside the target
    if len(calls) == 2:
        assert any(p.name.endswith(".tmp") for p in out.iterdir())
        raise StylememError("scene failed")


def rec_loss_inf_on_the_last_scene(calls, out):
    if len(calls) == 3:
        calls[-1] = (replace(calls[-1][0], rec_loss=np.inf), calls[-1][1])


@pytest.mark.parametrize("fault, error, message", [
    (fail_on_the_second_scene, StylememError, "scene failed"),
    (rec_loss_inf_on_the_last_scene, ValidationError, r"evaluation became non-finite \(rec_loss inf\)"),
])
def test_a_failed_evaluation_leaves_the_existing_export_as_it_was(tmp_path, monkeypatch, fault, error, message):
    cfg, bank, encoders = trained(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    # an earlier export of another run: this evaluation would write other bytes
    path = out / "assignments.csv"
    path.write_bytes(b"scene,domain,position,label,item,weight,c0\n0,x,0,1,0,1,0.5\n")
    before = path.read_bytes()
    calls = []

    def compute_losses(*args):
        calls.append(real(*args))
        fault(calls, out)
        return calls[-1]

    real = harness.compute_losses
    monkeypatch.setattr(harness, "compute_losses", compute_losses)
    with pytest.raises(error, match=message):
        evaluate(bank, encoders, cfg, cfg.eval_scenes, assignments_path=path)
    assert (cfg.assignment_scenes, cfg.eval_scenes) == (2, 3)
    assert path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["assignments.csv"]


@pytest.mark.parametrize("counts", [[(1, 3), (2, 2), (3, 2), (0, 3)], [(-1, 10)]])
def test_address_keeps_the_masked_read_weights(counts):
    layout = MemoryLayout.from_counts(counts)
    for seed in range(5):
        rng = split_rng(30, seed)
        bank = init_bank(layout, 6, rng)
        content = rng.standard_normal((40, 6))
        labels = rng.choice(layout.class_ids, size=40)
        queries = address_one(bank, content, rng.standard_normal((40, 6)), labels)
        np.testing.assert_array_equal(queries.weights, softmax_rows(queries.sims, queries.mask))
