"""Evaluation in one gradient-free loss pass per scene, against the two-pass
reference, its streamed assignments export, and the read weights a query set
keeps; and the per-iteration metrics pass against the same reference reads.

The package takes the reconstruction loss and the fidelity by the
factored-read rule of ``stylemem.numerics``, while the reference forms each
read's mixture, so those two fields are compared at a relative tolerance of
1e-12 (float64 carries ~16 digits); every other field and the export bytes
are exact. Encoders that widen (C > Cin; 24 channels of the toy preset's 16
inputs) take the factored route of that module's encoding rule, and the
reference the forward route, so there every field and every exported float
is compared at 1e-12, and the rest of the export exactly.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from stylemem import encoder, harness
from stylemem.cli import main as cli_main
from stylemem.encoder import EncoderSet, State, load_encoders, save_encoders
from stylemem.errors import StylememError, ValidationError
from stylemem.harness import STREAM_TRAIN, _pair_metrics, config_from_dict, evaluate, resolve_config, run_training
from stylemem.memory import MemoryLayout, init_bank, save_bank
from stylemem.numerics import softmax_rows, split_rng
from stylemem.synthdata import generate_scene_pair

from reference import address_one, reference_evaluate, reference_reads

WIDENING = 24
CASES = [
    pytest.param(mode, variant, channels, id=f"{prefix}{name}-{variant}")
    for prefix, channels in (("", 16), ("widening-", WIDENING))
    for mode, name in (("class-aware", "class-aware"), ("single", "pooled"))
    for variant in ("contrastive", "triplet")
]


def trained(tmp_path, memory_mode="class-aware", loss_variant="contrastive", channels=16):
    cfg = config_from_dict(resolve_config({
        "preset": "toy", "memory_mode": memory_mode, "loss_variant": loss_variant, "channels": channels,
        "iterations": 30, "eval_scenes": 3, "assignment_scenes": 2,
        "scene": {"height": 6, "width": 6},
    }))
    result = run_training(cfg, tmp_path / "run")
    return cfg, result.bank, result.encoders


def assert_matches_the_forward_route(row, want, got_csv, want_csv):
    """Every field and exported float at relative 1e-12, the rest of the export exactly."""
    for name, value in asdict(want).items():
        assert getattr(row, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
    got_lines, want_lines = got_csv.read_text().splitlines(), want_csv.read_text().splitlines()
    assert got_lines[0] == want_lines[0] and len(got_lines) == len(want_lines)
    for got, want in zip(got_lines[1:], want_lines[1:]):
        got, want = got.split(","), want.split(",")
        assert got[:5] == want[:5]
        np.testing.assert_allclose(np.array(got[5:], float), np.array(want[5:], float), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("memory_mode, loss_variant, channels", CASES)
def test_evaluate_matches_the_two_pass_reference(tmp_path, memory_mode, loss_variant, channels):
    cfg, bank, encoders = trained(tmp_path, memory_mode, loss_variant, channels)
    row = evaluate(bank, encoders, cfg, cfg.eval_scenes, assignments_path=tmp_path / "new.csv")
    want = reference_evaluate(bank, encoders, cfg, cfg.eval_scenes, tmp_path / "reference.csv")
    if channels == WIDENING:
        assert_matches_the_forward_route(row, want, tmp_path / "new.csv", tmp_path / "reference.csv")
        return
    factored = ("rec_loss", "fidelity")
    assert replace(row, **{name: 0.0 for name in factored}) == replace(want, **{name: 0.0 for name in factored})
    for name in factored:
        assert getattr(row, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_an_export_past_four_digit_positions_matches_the_reference(tmp_path):
    cfg = config_from_dict(resolve_config({
        "preset": "toy", "iterations": 1, "eval_scenes": 1, "assignment_scenes": 1,
        "scene": {"height": 101, "width": 100},
    }))
    bank = init_bank(cfg.bank_layout(), cfg.channels, split_rng(cfg.seed, 1))
    encoders = EncoderSet.create(split_rng(cfg.seed, 2), cfg.scene.input_channels, cfg.channels)
    evaluate(bank, encoders, cfg, 1, assignments_path=tmp_path / "new.csv")
    reference_evaluate(bank, encoders, cfg, 1, tmp_path / "reference.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert b"\n0,y,10099," in got


@pytest.mark.parametrize("channels", [16, WIDENING], ids=["toy", "widening"])
@pytest.mark.parametrize("memory_mode", ["class-aware", "single"])
def test_the_metrics_pass_matches_the_reference_reads(tmp_path, memory_mode, channels):
    cfg, bank, encoders = trained(tmp_path, memory_mode, channels=channels)
    pair = generate_scene_pair(cfg.domain_spec(), split_rng(cfg.seed, STREAM_TRAIN, cfg.iterations))
    entropy, purity, fidelity = _pair_metrics(State(encoders, bank), pair, cfg.reference_layout())
    want = reference_reads(bank, encoders, [pair], cfg.reference_layout())
    assert purity == want[1]
    assert (entropy, fidelity) == pytest.approx((want[0], want[2]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fault", ["zero-column", "equal-columns"])
def test_a_widening_encoder_file_with_a_singular_weight_gram_evaluates(tmp_path, capsys, fault):
    # load_encoders accepts such a weight, whose W.T W is singular
    cfg, bank, encoders = trained(tmp_path, channels=WIDENING)

    def singular(enc):
        weight = enc.weight.copy()
        weight[:, 3] = 0.0 if fault == "zero-column" else weight[:, 5]
        return replace(enc, weight=weight)

    encoders = EncoderSet(**{name: singular(enc) for name, enc in vars(encoders).items()})
    paths = {"bank": tmp_path / "bank.json", "encoders": tmp_path / "encoders.json", "config": tmp_path / "cfg.json"}
    save_bank(bank, paths["bank"])
    save_encoders(encoders, paths["encoders"])
    paths["config"].write_text(json.dumps(cfg.to_dict()))
    loaded = load_encoders(paths["encoders"])
    assert np.linalg.matrix_rank(loaded.content_x.weight.T @ loaded.content_x.weight) < cfg.scene.input_channels
    row = evaluate(bank, loaded, cfg, cfg.eval_scenes, assignments_path=tmp_path / "new.csv")
    want = reference_evaluate(bank, loaded, cfg, cfg.eval_scenes, tmp_path / "reference.csv")
    assert_matches_the_forward_route(row, want, tmp_path / "new.csv", tmp_path / "reference.csv")
    args = ["eval", "--scenes", str(cfg.eval_scenes)] + [a for k, v in paths.items() for a in (f"--{k}", str(v))]
    assert cli_main(args) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "error" not in captured.err


def test_cli_eval_names_a_content_encoder_whose_row_norms_overflow(tmp_path, capsys):
    # the rows are formed (C = Cin); scaled by 1e160 they stay finite, but their squared norms overflow
    cfg, bank, encoders = trained(tmp_path)

    def scaled(scale):
        enc = encoders.content_x
        return replace(encoders, content_x=replace(enc, weight=enc.weight * scale, bias=enc.bias * scale))

    want, row = (evaluate(bank, e, cfg, cfg.eval_scenes) for e in (encoders, scaled(1e150)))
    assert row.purity == want.purity and row.fidelity == pytest.approx(want.fidelity, rel=1e-12)
    paths = {"bank": tmp_path / "bank.json", "encoders": tmp_path / "encoders.json", "config": tmp_path / "cfg.json"}
    save_bank(bank, paths["bank"])
    save_encoders(scaled(1e160), paths["encoders"])
    paths["config"].write_text(json.dumps(cfg.to_dict()))
    args = ["eval", "--scenes", str(cfg.eval_scenes)] + [a for k, v in paths.items() for a in (f"--{k}", str(v))]
    assert cli_main(args) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        "error: encoder content_x rows have non-finite norms"
    ]
    assert "Traceback" not in captured.err and "Warning" not in captured.err and captured.out == ""


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
