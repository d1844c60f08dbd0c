import copy
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stylemem.encoder import (
    EncoderSet,
    LinearEncoder,
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
from stylemem.harness import PRESETS, evaluate
from stylemem.memory import MemoryLayout, init_bank, read, read_backward
from stylemem.numerics import FeatureGrad, make_rng, split_rng
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from fdcheck import fd_check
from oracles import oracle_linear_forward
from reference import dense_gradient, factored_loss, span


def identity_encoder(n):
    return LinearEncoder(weight=np.eye(n), bias=np.zeros(n))


def small_problem(seed, class_aware=True):
    rng = make_rng(seed)
    spec = DomainSpec.create(
        rng, SceneSettings(classes=3, input_channels=5, height=4, width=4, noise_sigma=0.3)
    )
    pair = generate_scene_pair(spec, split_rng(seed, 1))
    counts = [(1, 2), (2, 2), (0, 2)] if class_aware else [(-1, 6)]
    bank = init_bank(MemoryLayout.from_counts(counts), 4, split_rng(seed, 2))
    encoders = EncoderSet.create(split_rng(seed, 3), 5, 4)
    return spec, pair, bank, encoders


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


def random_gradient(rng, rows, channels, items=3):
    """A factored gradient with random factors for ``rows`` rows of ``channels``."""
    draw = rng.standard_normal
    return FeatureGrad(draw((items, channels)), draw((items, rows)), draw(rows))


@pytest.mark.parametrize("c_in, c_out", [pytest.param(3, 2, id="rows"), pytest.param(2, 3, id="gram")])
def test_backward_zero_upstream(c_in, c_out):
    rng = make_rng(41)
    enc = LinearEncoder.create(rng, c_in, c_out)
    enc.bias = rng.standard_normal(c_out)
    x = rng.standard_normal((4, c_in))
    grad = FeatureGrad(rng.standard_normal((3, c_out)), np.zeros((3, 4)), np.zeros(4))
    gw, gb = backward(enc, x, grad, forward(enc, x))
    np.testing.assert_array_equal(gw, 0.0)
    np.testing.assert_array_equal(gb, 0.0)


@pytest.mark.parametrize("c_in, c_out", [(5, 4), (64, 256)])
def test_forward_is_the_affine_expression_bit_for_bit(c_in, c_out):
    # the product takes the bias in place; the caller's arrays stay as they were
    rng = make_rng(42)
    enc = LinearEncoder.create(rng, c_in, c_out)
    enc.bias = rng.standard_normal(c_out)
    inputs = rng.standard_normal((256, c_in))
    kept = (enc.weight.copy(), enc.bias.copy(), inputs.copy())
    np.testing.assert_array_equal(forward(enc, inputs), inputs @ enc.weight.T + enc.bias)
    for before, after in zip(kept, (enc.weight, enc.bias, inputs)):
        np.testing.assert_array_equal(before, after)


# 3 output channels of 4 inputs take the scale terms from the rows; 4 of 3,
# through the Gram identity
@pytest.mark.parametrize("c_in, c_out", [pytest.param(4, 3, id="rows"), pytest.param(3, 4, id="gram")])
def test_backward_weight_and_bias_fd(c_in, c_out):
    rng = make_rng(43)
    enc = LinearEncoder.create(rng, c_in, c_out)
    enc.bias = rng.standard_normal(c_out)
    x = rng.standard_normal((5, c_in))
    grad = random_gradient(rng, 5, c_out)

    def weight_loss(w):
        probe = copy.deepcopy(enc)
        probe.weight = w
        rows = forward(probe, x)
        gw, _ = backward(probe, x, grad, rows)
        return factored_loss(grad, rows), gw

    def bias_loss(b):
        probe = copy.deepcopy(enc)
        probe.bias = b
        rows = forward(probe, x)
        _, gb = backward(probe, x, grad, rows)
        return factored_loss(grad, rows), gb

    assert fd_check(weight_loss, enc.weight).passed
    assert fd_check(bias_loss, enc.bias).passed


def test_backward_shape_check():
    enc = identity_encoder(3)
    rng = make_rng(45)
    rows = np.zeros((2, 3))
    for count, channels in ((3, 3), (2, 4)):  # one row too many; one channel too many
        with pytest.raises(ShapeError):
            backward(enc, np.zeros((2, 3)), random_gradient(rng, count, channels), rows)
    grad = random_gradient(rng, 2, 3)
    for wrong in (replace(grad, scale=np.zeros(3)), replace(grad, coef=np.zeros((4, 2)))):
        with pytest.raises(ShapeError):
            backward(enc, np.zeros((2, 3)), wrong, rows)
    with pytest.raises(ShapeError, match="rows"):
        backward(enc, np.zeros((2, 3)), grad, np.zeros((2, 4)))
    with pytest.raises(ShapeError, match="inputs"):  # one input channel too many
        backward(enc, np.zeros((2, 4)), grad, rows)


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
    with pytest.raises(ConfigError, match="learning_rate must be a finite number, got nan"):
        TrainSettings(learning_rate=float("nan"))


def test_zero_weights_leave_parameters_bitwise_unchanged():
    _, pair, bank, encoders = small_problem(50)
    settings = TrainSettings(
        temperature=0.1, key_loss_weight=0.0, value_loss_weight=0.0, rec_loss_weight=0.0
    )
    snapshot = [(e.weight.copy(), e.bias.copy()) for e in encoders.all()]
    report, new_bank = train_step(encoders, bank, pair, settings)
    for enc, (w, b) in zip(encoders.all(), snapshot):
        np.testing.assert_array_equal(enc.weight, w)
        np.testing.assert_array_equal(enc.bias, b)
    # losses are still reported and the memory still moves
    assert report.total == 0.0
    assert report.key_loss > 0.0
    assert not np.array_equal(new_bank.keys, bank.keys)


def test_train_step_does_not_mutate_scenes():
    _, pair, bank, encoders = small_problem(51)
    frozen = (pair.content.copy(), pair.styles[0].copy(), pair.labels.copy(), pair.styles[1].copy())
    train_step(encoders, bank, pair, TrainSettings())
    np.testing.assert_array_equal(pair.content, frozen[0])
    np.testing.assert_array_equal(pair.styles[0], frozen[1])
    np.testing.assert_array_equal(pair.labels, frozen[2])
    np.testing.assert_array_equal(pair.styles[1], frozen[3])


# a pair whose labels or one style array lack the last position
SHORT_BLOCKS = {
    "labels": (lambda p: replace(p, labels=p.labels[:-1]), "labels shape (15,), expected (16,)"),
    "style-x": (lambda p: replace(p, styles=(p.styles[0][:-1], p.styles[1])),
                "style shape (15, 4) != content shape (16, 4)"),
    "style-y": (lambda p: replace(p, styles=(p.styles[0], p.styles[1][:-1])),
                "style shape (15, 4) != content shape (16, 4)"),
}


@pytest.mark.parametrize("shorten, message", SHORT_BLOCKS.values(), ids=SHORT_BLOCKS.keys())
def test_a_pair_block_one_row_short_raises_in_address_blocks(shorten, message):
    _, pair, bank, encoders = small_problem(59)
    pair = shorten(pair)
    before = copy.deepcopy((encoders, bank))
    for step in (compute_losses, train_step):
        with pytest.raises(ShapeError, match=re.escape(message)) as raised:
            step(encoders, bank, pair, TrainSettings())
        assert raised.traceback[-1].name == "address_blocks"
    for got, want in zip(encoders.all(), before[0].all()):
        np.testing.assert_array_equal(got.weight, want.weight)
        np.testing.assert_array_equal(got.bias, want.bias)
        assert (got.weight_state.step_count, got.bias_state.step_count) == (0, 0)
    for plane in ("keys", "values_x", "values_y"):
        np.testing.assert_array_equal(getattr(bank, plane), getattr(before[1], plane))


WEIGHTED = dict(key_loss_weight=0.7, value_loss_weight=0.3, rec_loss_weight=1.3)


@pytest.mark.parametrize("settings", [
    pytest.param(TrainSettings(**WEIGHTED, loss_variant="contrastive"), id="contrastive"),
    pytest.param(TrainSettings(**WEIGHTED, loss_variant="triplet"), id="triplet"),
    pytest.param(TrainSettings(), id="unit-weights"),  # key and rec weights 1.0
])
def test_gradients_are_the_weighted_sums_in_arrays_of_their_own(settings):
    _, pair, bank, encoders = small_problem(53)
    _, fwd = compute_losses(encoders, bank, pair, settings)
    shared = [
        a for d, q in fwd.queries.items() for a in (fwd.g_weights[d], q.content, q.style, q.weights, q.sims)
    ]
    before = [a.copy() for a in shared]
    grads = [*fwd.grad_content.values(), *fwd.grad_style.values()]
    for kept, now in zip(before, shared):
        np.testing.assert_array_equal(now, kept)
    assert not any(np.shares_memory(part, a) for g in grads for part in (g.coef, g.scale) for a in shared)

    s = settings
    for d, opposite in (("x", "y"), ("y", "x")):
        key = fwd.key_terms[d].gradient()
        through_read = read_backward(bank, fwd.queries[d], fwd.g_weights[d])
        got = fwd.grad_content[d]
        assert got.items is bank.keys
        np.testing.assert_array_equal(
            got.coef, s.key_loss_weight * key.coef + s.rec_loss_weight * through_read.coef
        )
        np.testing.assert_array_equal(
            got.scale, s.key_loss_weight * key.scale + s.rec_loss_weight * through_read.scale
        )
        # the reconstruction term of style d: -(2/P) times the opposite read's weights, on values_d, plus 2/P
        value, rec = fwd.value_terms[d].gradient(), s.rec_loss_weight * 2.0 / pair.labels.shape[0]
        got = fwd.grad_style[d]
        assert got.items is value.items is (bank.values_x if d == "x" else bank.values_y)
        np.testing.assert_array_equal(
            got.coef, s.value_loss_weight * value.coef - rec * fwd.queries[opposite].weights.T
        )
        np.testing.assert_array_equal(got.scale, s.value_loss_weight * value.scale + rec)
        rows = fwd.queries[d].style
        residual = read(bank, fwd.queries[opposite], opposite).aggregated_style - rows
        want = s.value_loss_weight * dense_gradient(value, rows) - rec * residual
        np.testing.assert_allclose(dense_gradient(got, rows), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_train_step_deterministic_loss_stream():
    def run():
        _, pair, bank, encoders = small_problem(52)
        values = []
        for _ in range(5):
            report, bank = train_step(encoders, bank, pair, TrainSettings())
            values.append((report.key_loss, report.value_loss, report.rec_loss, report.total))
        return values

    assert run() == run()


def test_train_step_update_every_gate():
    _, pair, bank, encoders = small_problem(53)
    _, same_bank = train_step(encoders, bank, pair, TrainSettings(), update_memory=False)
    assert same_bank is bank


def test_train_step_pooled_mode_runs():
    _, pair, bank, encoders = small_problem(55, class_aware=False)
    _, fwd = compute_losses(encoders, bank, pair, TrainSettings())
    report, new_bank = train_step(encoders, bank, pair, TrainSettings())
    assert report.total > 0.0
    assert not np.array_equal(new_bank.keys, bank.keys)
    assert np.all(fwd.key_terms["x"].positives >= 0)


def test_default_loss_weights():
    cfg = TrainSettings()
    assert cfg.key_loss_weight == 1.0
    assert cfg.value_loss_weight == 0.5


def test_positives_filled_for_every_position():
    _, pair, bank, encoders = small_problem(56)
    _, fwd = compute_losses(encoders, bank, pair, TrainSettings())
    for d in ("x", "y"):
        assert np.all(fwd.key_terms[d].positives >= 0)
        assert np.all(fwd.value_terms[d].positives >= 0)
        # class-aware positives stay inside the class partition
        for cid in np.unique(pair.labels):
            offset, count = span(bank.layout, int(cid))
            chosen = fwd.key_terms[d].positives[pair.labels == cid]
            assert np.all((chosen >= offset) & (chosen < offset + count))


# --- full-pipeline gradient ---


def _param_loss_fn(encoders, bank, pair, settings, name, which):
    domain = name.split("_")[1]
    kind = name.split("_")[0]
    inputs = pair.content if kind == "content" else pair.styles["xy".index(domain)]

    def fn(param):
        probe = copy.deepcopy(encoders)
        enc = getattr(probe, name)
        if which == "weight":
            enc.weight = param
        else:
            enc.bias = param
        report, fwd = compute_losses(probe, bank, pair, settings)
        grad_map = fwd.grad_content if kind == "content" else fwd.grad_style
        gw, gb = backward(enc, inputs, grad_map[domain], getattr(fwd.queries[domain], kind))
        return report.total, gw if which == "weight" else gb

    return fn


@pytest.mark.parametrize("variant", ["contrastive", "triplet"])
def test_full_pipeline_gradient_all_encoders(variant):
    _, pair, bank, encoders = small_problem(57)
    settings = TrainSettings(loss_variant=variant)
    for name in ("content_x", "content_y", "style_x", "style_y"):
        for which in ("weight", "bias"):
            fn = _param_loss_fn(encoders, bank, pair, settings, name, which)
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


# --- allocation ---

# Peak traced bytes (numpy 2.4.6) of a warm full-preset train_step, of its
# loss pass and of a one-scene evaluate. Each bound is the peak plus half of
# one (P, C) float64 array, so one dense feature gradient or read mixture
# held at the peak would exceed it. The step read 6_864_544 when each
# encoder's gradient was a dense (P, C) array and 4_939_968 when the read's
# mixture was formed; the loss pass read 3_687_552 and the evaluation
# 5_285_907 with the mixtures, and 3_060_656 and 3_724_418 without them.
FACTORED_STEP_PEAK = 4_231_232
FACTORED_LOSS_PASS_PEAK = 3_060_656
FACTORED_EVALUATION_PEAK = 3_724_418


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def warm_full_step():
    """A full-preset config, bank, encoders and pair after one step, so the Adam moments exist."""
    cfg = PRESETS["full"]
    bank = init_bank(cfg.bank_layout(), cfg.channels, split_rng(3, 0))
    encoders = EncoderSet.create(split_rng(3, 1), cfg.scene.input_channels, cfg.channels)
    pair = generate_scene_pair(cfg.domain_spec(), split_rng(3, 2))
    train_step(encoders, bank, pair, cfg.train)
    half_feature = pair.content.shape[0] * cfg.channels * 8 // 2
    return cfg, bank, encoders, pair, half_feature


def test_a_warm_full_preset_step_allocates_no_dense_feature_gradient(warm_full_step):
    cfg, bank, encoders, pair, half_feature = warm_full_step
    peak = traced_peak(lambda: train_step(encoders, bank, pair, cfg.train))
    assert peak <= FACTORED_STEP_PEAK + half_feature, peak


def test_no_read_mixture_in_a_full_preset_loss_pass_or_evaluation(warm_full_step):
    cfg, bank, encoders, pair, half_feature = warm_full_step
    compute_losses(encoders, bank, pair, cfg.train)
    peak = traced_peak(lambda: compute_losses(encoders, bank, pair, cfg.train))
    assert peak <= FACTORED_LOSS_PASS_PEAK + half_feature, peak
    evaluate(bank, encoders, cfg, 1)
    peak = traced_peak(lambda: evaluate(bank, encoders, cfg, 1))
    assert peak <= FACTORED_EVALUATION_PEAK + half_feature, peak
