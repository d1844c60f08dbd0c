import copy

import numpy as np
import pytest

from stylemem.encoder import (
    EncoderSet,
    LinearEncoder,
    LossReport,
    TrainSettings,
    apply_gradients,
    backward,
    compute_losses,
    forward,
    load_encoders,
    save_encoders,
    train_step,
)
from stylemem.errors import ConfigError, ShapeError
from stylemem.memory import MemoryLayout, init_bank
from stylemem.numerics import make_rng, split_rng
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from fdcheck import fd_check
from oracles import oracle_linear_forward
from reference import span


def identity_encoder(n):
    return LinearEncoder(weight=np.eye(n), bias=np.zeros(n))


def small_problem(seed, class_aware=True):
    rng = make_rng(seed)
    spec = DomainSpec.create(
        rng, SceneSettings(classes=3, input_channels=5, height=4, width=4, noise_sigma=0.3)
    )
    scene_x, scene_y = generate_scene_pair(spec, split_rng(seed, 1))
    counts = [(1, 2), (2, 2), (0, 2)] if class_aware else [(-1, 6)]
    bank = init_bank(MemoryLayout.from_counts(counts), 4, split_rng(seed, 2))
    encoders = EncoderSet.create(split_rng(seed, 3), 5, 4)
    return spec, scene_x, scene_y, bank, encoders


# --- forward / backward ---


def test_forward_identity():
    enc = identity_encoder(3)
    x = make_rng(0).standard_normal((4, 3))
    np.testing.assert_array_equal(forward(enc, x), x)


def test_forward_zero_input_gives_bias():
    enc = identity_encoder(2)
    enc.bias = np.array([0.5, -1.0])
    out = forward(enc, np.zeros((3, 2)))
    np.testing.assert_array_equal(out, np.tile(enc.bias, (3, 1)))


def test_forward_matches_scalar_oracle():
    rng = make_rng(40)
    enc = LinearEncoder.create(rng, 4, 2)
    x = rng.standard_normal((3, 4))
    expected = oracle_linear_forward(enc.weight.tolist(), enc.bias.tolist(), x.tolist())
    np.testing.assert_allclose(forward(enc, x), expected, atol=1e-12)


def test_forward_shape_check():
    enc = identity_encoder(3)
    with pytest.raises(ShapeError):
        forward(enc, np.zeros((2, 4)))


def test_backward_zero_upstream():
    rng = make_rng(41)
    enc = LinearEncoder.create(rng, 3, 2)
    x = rng.standard_normal((4, 3))
    gw, gb, gx = backward(enc, x, np.zeros((4, 2)))
    np.testing.assert_array_equal(gw, 0.0)
    np.testing.assert_array_equal(gb, 0.0)
    np.testing.assert_array_equal(gx, 0.0)


def test_backward_identity_passes_upstream_through():
    enc = identity_encoder(3)
    upstream = make_rng(42).standard_normal((1, 3))
    _, _, gx = backward(enc, np.zeros((1, 3)), upstream)
    np.testing.assert_array_equal(gx, upstream)


def test_backward_weight_and_bias_fd():
    rng = make_rng(43)
    enc = LinearEncoder.create(rng, 4, 3)
    x = rng.standard_normal((5, 4))
    projector = rng.standard_normal((5, 3))

    def weight_loss(w):
        probe = copy.deepcopy(enc)
        probe.weight = w
        out = forward(probe, x)
        gw, _, _ = backward(probe, x, projector)
        return float(np.sum(out * projector)), gw

    def bias_loss(b):
        probe = copy.deepcopy(enc)
        probe.bias = b
        out = forward(probe, x)
        _, gb, _ = backward(probe, x, projector)
        return float(np.sum(out * projector)), gb

    assert fd_check(weight_loss, enc.weight).passed
    assert fd_check(bias_loss, enc.bias).passed


def test_backward_shape_check():
    enc = identity_encoder(3)
    with pytest.raises(ShapeError):
        backward(enc, np.zeros((2, 3)), np.zeros((3, 3)))


def test_apply_gradients_advances_state():
    rng = make_rng(44)
    enc = LinearEncoder.create(rng, 2, 2)
    before = enc.weight.copy()
    apply_gradients(enc, np.ones_like(enc.weight), np.ones_like(enc.bias), TrainSettings())
    assert enc.weight_state.step_count == 1
    assert not np.array_equal(enc.weight, before)


# --- train_step ---


def test_train_settings_validation():
    with pytest.raises(ConfigError):
        TrainSettings(loss_variant="hinge")
    with pytest.raises(ConfigError):
        TrainSettings(rec_loss_weight=-0.1)
    with pytest.raises(ConfigError, match="learning_rate must be > 0"):
        TrainSettings(learning_rate=float("nan"))


def test_zero_weights_leave_parameters_bitwise_unchanged():
    _, scene_x, scene_y, bank, encoders = small_problem(50)
    settings = TrainSettings(
        temperature=0.1, key_loss_weight=0.0, value_loss_weight=0.0, rec_loss_weight=0.0
    )
    snapshot = [(e.weight.copy(), e.bias.copy()) for e in encoders.all()]
    report, new_bank = train_step(encoders, bank, scene_x, scene_y, settings)
    for enc, (w, b) in zip(encoders.all(), snapshot):
        np.testing.assert_array_equal(enc.weight, w)
        np.testing.assert_array_equal(enc.bias, b)
    # losses are still reported and the memory still moves
    assert report.total == 0.0
    assert report.key_loss > 0.0
    assert not np.array_equal(new_bank.keys, bank.keys)


def test_train_step_does_not_mutate_scenes():
    _, scene_x, scene_y, bank, encoders = small_problem(51)
    frozen = (scene_x.content.copy(), scene_x.style.copy(), scene_y.content.copy(), scene_y.style.copy())
    train_step(encoders, bank, scene_x, scene_y, TrainSettings())
    np.testing.assert_array_equal(scene_x.content, frozen[0])
    np.testing.assert_array_equal(scene_x.style, frozen[1])
    np.testing.assert_array_equal(scene_y.content, frozen[2])
    np.testing.assert_array_equal(scene_y.style, frozen[3])


def test_train_step_deterministic_loss_stream():
    def run():
        _, scene_x, scene_y, bank, encoders = small_problem(52)
        values = []
        for _ in range(5):
            report, bank = train_step(encoders, bank, scene_x, scene_y, TrainSettings())
            values.append((report.key_loss, report.value_loss, report.rec_loss, report.total))
        return values

    assert run() == run()


def test_train_step_update_every_gate():
    _, scene_x, scene_y, bank, encoders = small_problem(53)
    settings = TrainSettings(update_memory=False)
    _, same_bank = train_step(encoders, bank, scene_x, scene_y, settings)
    assert same_bank is bank


def test_train_step_pooled_mode_needs_single_partition():
    _, scene_x, scene_y, bank, encoders = small_problem(54)
    with pytest.raises(ConfigError):
        train_step(encoders, bank, scene_x, scene_y, TrainSettings(class_aware=False))


def test_train_step_pooled_mode_runs():
    _, scene_x, scene_y, bank, encoders = small_problem(55, class_aware=False)
    report, new_bank = train_step(
        encoders, bank, scene_x, scene_y, TrainSettings(class_aware=False)
    )
    assert report.total > 0.0
    assert not np.array_equal(new_bank.keys, bank.keys)
    assert np.all(report.key_positives["x"] >= 0)


def test_default_loss_weights():
    cfg = TrainSettings()
    assert cfg.key_loss_weight == 1.0
    assert cfg.value_loss_weight == 0.5


def test_positives_filled_for_every_position():
    _, scene_x, scene_y, bank, encoders = small_problem(56)
    report, _ = train_step(encoders, bank, scene_x, scene_y, TrainSettings())
    for d in ("x", "y"):
        assert np.all(report.key_positives[d] >= 0)
        assert np.all(report.value_positives[d] >= 0)
        # class-aware positives stay inside the class partition
        for cid in np.unique(scene_x.labels):
            offset, count = span(bank.layout, int(cid))
            chosen = report.key_positives[d][scene_x.labels == cid]
            assert np.all((chosen >= offset) & (chosen < offset + count))


# --- full-pipeline gradient ---


def _param_loss_fn(encoders, bank, scene_x, scene_y, settings, name, which):
    scenes = {"x": scene_x, "y": scene_y}
    domain = name.split("_")[1]
    kind = name.split("_")[0]
    inputs = scenes[domain].content if kind == "content" else scenes[domain].style

    def fn(param):
        probe = copy.deepcopy(encoders)
        enc = getattr(probe, name)
        if which == "weight":
            enc.weight = param
        else:
            enc.bias = param
        report, fwd = compute_losses(probe, bank, scene_x, scene_y, settings)
        grad_map = fwd.grad_content if kind == "content" else fwd.grad_style
        gw, gb, _ = backward(enc, inputs, grad_map[domain])
        return report.total, gw if which == "weight" else gb

    return fn


@pytest.mark.parametrize("variant", ["contrastive", "triplet"])
def test_full_pipeline_gradient_all_encoders(variant):
    _, scene_x, scene_y, bank, encoders = small_problem(57)
    settings = TrainSettings(loss_variant=variant)
    for name in ("content_x", "content_y", "style_x", "style_y"):
        for which in ("weight", "bias"):
            fn = _param_loss_fn(encoders, bank, scene_x, scene_y, settings, name, which)
            enc = getattr(encoders, name)
            point = enc.weight if which == "weight" else enc.bias
            report = fd_check(fn, point, step=1e-5, tolerance=1e-4)
            assert report.passed, (name, which, report)


# --- persistence ---


def test_encoder_checkpoint_round_trip(tmp_path):
    rng = make_rng(58)
    encoders = EncoderSet.create(rng, 5, 4)
    path = tmp_path / "encoders.json"
    save_encoders(encoders, path)
    loaded = load_encoders(path)
    for name in ("content_x", "content_y", "style_x", "style_y"):
        np.testing.assert_array_equal(getattr(loaded, name).weight, getattr(encoders, name).weight)
        np.testing.assert_array_equal(getattr(loaded, name).bias, getattr(encoders, name).bias)
    # identical bytes when re-saved
    path2 = tmp_path / "encoders2.json"
    save_encoders(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
