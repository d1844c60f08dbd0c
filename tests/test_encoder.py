import copy
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from stylemem.encoder import (
    EncoderSet,
    LinearEncoder,
    State,
    TrainSettings,
    backward,
    compute_losses,
    forward,
    load_encoders,
    save_encoders,
    train_step,
)
from stylemem.errors import ConfigError, ShapeError, ValidationError
from stylemem.harness import PRESETS, _pair_metrics, evaluate
from stylemem.memory import MemoryLayout, init_bank, read, read_backward
from stylemem.numerics import FeatureGrad, split_rng
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from fdcheck import fd_check
from oracles import oracle_linear_forward
from reference import assert_same_bits, dense_gradient, encoding, factored_loss, span


def identity_encoder(n):
    return LinearEncoder(weight=np.eye(n), bias=np.zeros(n))


def small_problem(seed, class_aware=True):
    rng = split_rng(seed)
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
    x = split_rng(0).standard_normal((4, 3))
    np.testing.assert_array_equal(forward(enc, x), x)


def test_forward_zero_input_gives_bias():
    enc = replace(identity_encoder(2), bias=np.array([0.5, -1.0]))
    out = forward(enc, np.zeros((3, 2)))
    np.testing.assert_array_equal(out, np.tile(enc.bias, (3, 1)))


def test_forward_matches_scalar_oracle():
    rng = split_rng(40)
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
    rng = split_rng(41)
    enc = LinearEncoder.create(rng, c_in, c_out)
    enc = replace(enc, bias=rng.standard_normal(c_out))
    x = rng.standard_normal((4, c_in))
    grad = FeatureGrad(rng.standard_normal((3, c_out)), np.zeros((3, 4)), np.zeros(4))
    gw, gb = backward(encoding(enc, x, grad.items), grad)
    np.testing.assert_array_equal(gw, 0.0)
    np.testing.assert_array_equal(gb, 0.0)


@pytest.mark.parametrize("c_in, c_out", [(5, 4), (64, 256)])
def test_forward_is_the_affine_expression_bit_for_bit(c_in, c_out):
    # the product takes the bias in place; the caller's arrays stay as they were
    rng = split_rng(42)
    enc = LinearEncoder.create(rng, c_in, c_out)
    enc = replace(enc, bias=rng.standard_normal(c_out))
    inputs = rng.standard_normal((256, c_in))
    kept = (enc.weight.copy(), enc.bias.copy(), inputs.copy())
    np.testing.assert_array_equal(forward(enc, inputs), inputs @ enc.weight.T + enc.bias)
    for before, after in zip(kept, (enc.weight, enc.bias, inputs)):
        np.testing.assert_array_equal(before, after)


# 3 output channels of 4 inputs take the scale terms from the rows; 4 of 3,
# through the Gram identity
@pytest.mark.parametrize("c_in, c_out", [pytest.param(4, 3, id="rows"), pytest.param(3, 4, id="gram")])
def test_backward_weight_and_bias_fd(c_in, c_out):
    rng = split_rng(43)
    enc = LinearEncoder.create(rng, c_in, c_out)
    enc = replace(enc, bias=rng.standard_normal(c_out))
    x = rng.standard_normal((5, c_in))
    grad = random_gradient(rng, 5, c_out)

    def weight_loss(w):
        probe = replace(enc, weight=w)
        gw, _ = backward(encoding(probe, x, grad.items), grad)
        return factored_loss(grad, forward(probe, x)), gw

    def bias_loss(b):
        probe = replace(enc, bias=b)
        _, gb = backward(encoding(probe, x, grad.items), grad)
        return factored_loss(grad, forward(probe, x)), gb

    assert fd_check(weight_loss, enc.weight).passed
    assert fd_check(bias_loss, enc.bias).passed


def test_backward_shape_check():
    rng = split_rng(45)
    for c_out in (3, 4):  # formed rows, and factored ones
        encoded = encoding(LinearEncoder.create(rng, 3, c_out), np.zeros((2, 3)), np.zeros((5, c_out)))
        for count, channels in ((3, c_out), (2, c_out + 1)):  # one row too many; one channel too many
            with pytest.raises(ShapeError, match=re.escape(f"do not fit the encoding's rows (2, {c_out})")):
                backward(encoded, random_gradient(rng, count, channels))
        grad = random_gradient(rng, 2, c_out)
        for wrong in (replace(grad, scale=np.zeros(3)), replace(grad, coef=np.zeros((4, 2)))):
            with pytest.raises(ShapeError):
                backward(encoded, wrong)


@pytest.mark.parametrize("channels", [16, 24], ids=["toy", "widening"])
def test_an_encoder_checks_the_shapes_of_its_weight_and_bias(channels):
    # unchecked, a (1,) bias would broadcast at the toy shape and fail in a matmul at the widening one
    cfg = replace(PRESETS["toy"], channels=channels)
    bank = init_bank(cfg.bank_layout(), channels, split_rng(8, 0))
    encoders = EncoderSet.create(split_rng(8, 1), cfg.scene.input_channels, channels)
    enc = encoders.content_x
    wrong = (
        dict(bias=np.zeros(1)), dict(bias=np.zeros((channels, 1))), dict(bias=enc.bias.tolist()),
        dict(weight=enc.weight[0]), dict(weight=enc.weight[:0], bias=np.zeros(0)), dict(weight=enc.weight[:, :0]),
    )
    for fields in wrong:
        with pytest.raises(ShapeError, match=r"^encoder weight shape .* need \(C, Cin\) and \(C,\) with C, Cin >= 1$"):
            evaluate(bank, replace(encoders, content_x=replace(enc, **fields)), cfg, 1)
    evaluate(bank, replace(encoders, content_x=replace(enc, bias=np.ones(channels))), cfg, 1)


def test_a_step_makes_and_advances_the_adam_moments_of_its_state():
    _, pair, bank, encoders = small_problem(44)
    state = State(encoders, bank)
    _, stepped = train_step(state, pair, TrainSettings())
    assert state.moments == {} and list(stepped.moments) == [f.name for f in fields(EncoderSet)]
    assert (state.steps, stepped.steps) == (0, 1)
    for enc, enc_moments in zip(stepped.encoders.all(), stepped.moments.values()):
        shapes = tuple(m.shape for m in enc_moments[0] + enc_moments[1])
        assert shapes == (enc.weight.shape,) * 2 + (enc.bias.shape,) * 2
    for new, old in zip(stepped.encoders.all(), encoders.all()):
        assert not np.array_equal(new.weight, old.weight)
    _, again = train_step(stepped, pair, TrainSettings())
    assert again.steps == 2
    for name, enc_moments in again.moments.items():
        assert not np.array_equal(enc_moments[0][0], stepped.moments[name][0][0])


def state_arrays(state: State) -> list[np.ndarray]:
    """Every array reachable from ``state``: through dataclass fields and
    cached properties, dicts, tuples and lists."""
    found, todo, seen = [], [state], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif is_dataclass(obj):
            todo.extend(getattr(obj, f.name) for f in fields(obj))
            todo.extend(getattr(obj, "__dict__", {}).values())
    return found


def assert_same_state(got: State, want: State):
    """The encoders, the bank and the Adam state of ``got`` and ``want``, bit for bit."""
    assert got.steps == want.steps and list(got.moments) == list(want.moments)
    for name, enc_moments in want.moments.items():
        for got_moment, want_moment in zip(sum(got.moments[name], ()), sum(enc_moments, ()), strict=True):
            assert_same_bits(got_moment, want_moment)
    for got_enc, want_enc in zip(got.encoders.all(), want.encoders.all()):
        assert_same_bits(got_enc.weight, want_enc.weight)
        assert_same_bits(got_enc.bias, want_enc.bias)
    for plane in ("keys", "values_x", "values_y"):
        assert_same_bits(getattr(got.bank, plane), getattr(want.bank, plane))


def test_a_state_with_moments_steps_again_to_the_same_bits():
    _, pair, bank, encoders = small_problem(45)
    _, stepped = train_step(State(encoders, bank), pair, TrainSettings())
    _, again = train_step(stepped, pair, TrainSettings())
    _, once_more = train_step(stepped, pair, TrainSettings())
    assert_same_state(once_more, again)
    # a state many steps on is a value too: its next step is the step of a fresh three-step chain
    _, third = train_step(again, pair, TrainSettings())
    fresh = State(encoders, bank)
    for _ in range(3):
        _, fresh = train_step(fresh, pair, TrainSettings())
    assert third.steps == fresh.steps == 3
    assert_same_state(third, fresh)


@pytest.mark.parametrize("channels", [4, 8], ids=["rows", "factored"])
def test_a_step_leaves_every_array_of_its_state_as_it_was(channels):
    _, pair, bank, _ = small_problem(46)
    bank = init_bank(bank.layout, channels, split_rng(46, 4))
    _, state = train_step(State(EncoderSet.create(split_rng(46, 5), 5, channels), bank), pair, TrainSettings())
    state.affine, state.bank.grams, state.bank.layout.item_classes  # the factors a step reads
    arrays = state_arrays(state)
    assert len(arrays) >= 4 * 2 + 3 + 8 * 2  # the encoders, the planes and the moments at least
    before = [(a, a.tobytes()) for a in arrays]
    train_step(state, pair, TrainSettings())
    for array, was in before:
        assert array.tobytes() == was


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
    report, stepped = train_step(State(encoders, bank), pair, settings)
    for enc, (w, b) in zip(stepped.encoders.all(), snapshot):
        np.testing.assert_array_equal(enc.weight, w)
        np.testing.assert_array_equal(enc.bias, b)
    # losses are still reported and the memory still moves
    assert report.total == 0.0
    assert report.key_loss > 0.0
    assert not np.array_equal(stepped.bank.keys, bank.keys)


def test_train_step_does_not_mutate_scenes():
    _, pair, bank, encoders = small_problem(51)
    frozen = (pair.content.copy(), pair.styles[0].copy(), pair.labels.copy(), pair.styles[1].copy())
    train_step(State(encoders, bank), pair, TrainSettings())
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
    _, state = train_step(State(encoders, bank), pair, TrainSettings())  # a state whose moments exist
    pair = shorten(pair)
    before = copy.deepcopy((state.encoders, state.bank, state.moments))
    for step in (compute_losses, train_step):
        with pytest.raises(ShapeError, match=re.escape(message)) as raised:
            step(state, pair, TrainSettings())
        assert raised.traceback[-1].name == "address_blocks"
    for got, want in zip(state.encoders.all(), before[0].all()):
        np.testing.assert_array_equal(got.weight, want.weight)
        np.testing.assert_array_equal(got.bias, want.bias)
    assert state.steps == 1
    for name, enc_moments in before[2].items():
        for got, want in zip(sum(state.moments[name], ()), sum(enc_moments, ()), strict=True):
            np.testing.assert_array_equal(got, want)
    for plane in ("keys", "values_x", "values_y"):
        np.testing.assert_array_equal(getattr(state.bank, plane), getattr(before[1], plane))


WEIGHTED = dict(key_loss_weight=0.7, value_loss_weight=0.3, rec_loss_weight=1.3)


@pytest.mark.parametrize("settings", [
    pytest.param(TrainSettings(**WEIGHTED, loss_variant="contrastive"), id="contrastive"),
    pytest.param(TrainSettings(**WEIGHTED, loss_variant="triplet"), id="triplet"),
    pytest.param(TrainSettings(), id="unit-weights"),  # key and rec weights 1.0
])
def test_gradients_are_the_weighted_sums_in_arrays_of_their_own(settings):
    _, pair, bank, encoders = small_problem(53)
    _, fwd = compute_losses(State(encoders, bank), pair, settings)
    q = fwd.queries
    shared = [fwd.g_weights, *(e.rows for e in (*q.contents, *q.styles)), q.weights, q.cosines.sims]
    before = [a.copy() for a in shared]
    grads = [*fwd.grad_content.values(), *fwd.grad_style.values()]
    for kept, now in zip(before, shared):
        np.testing.assert_array_equal(now, kept)
    assert not any(np.shares_memory(part, a) for g in grads for part in (g.coef, g.scale) for a in shared)

    s = settings
    through_read = read_backward(bank, q, fwd.g_weights)  # one call for both domains' columns
    columns, rows_of = q.cosines.columns, (e.rows for e in q.styles)
    for d, own, opposite, rows in zip(("x", "y"), columns, columns[::-1], rows_of):
        key = fwd.key_terms[d].gradient()
        got = fwd.grad_content[d]
        assert got.items is bank.keys
        np.testing.assert_array_equal(
            got.coef, s.key_loss_weight * key.coef + s.rec_loss_weight * through_read.coef[:, own]
        )
        np.testing.assert_array_equal(
            got.scale, s.key_loss_weight * key.scale + s.rec_loss_weight * through_read.scale[own]
        )
        # the reconstruction term of style d: -(2/P) times the opposite read's weights, on values_d, plus 2/P
        value, rec = fwd.value_terms[d].gradient(), s.rec_loss_weight * 2.0 / pair.labels.shape[0]
        got = fwd.grad_style[d]
        assert got.items is value.items is (bank.values_x if d == "x" else bank.values_y)
        np.testing.assert_array_equal(
            got.coef, s.value_loss_weight * value.coef - rec * q.weights.T[:, opposite]
        )
        np.testing.assert_array_equal(got.scale, s.value_loss_weight * value.scale + rec)
        residual = read(bank, q)[opposite] @ got.items - rows  # the opposite read mixes values_d
        want = s.value_loss_weight * dense_gradient(value, rows) - rec * residual
        np.testing.assert_allclose(dense_gradient(got, rows), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_train_step_deterministic_loss_stream():
    def run():
        _, pair, bank, encoders = small_problem(52)
        state = State(encoders, bank)
        values = []
        for _ in range(5):
            report, state = train_step(state, pair, TrainSettings())
            values.append((report.key_loss, report.value_loss, report.rec_loss, report.total))
        return values

    assert run() == run()


def test_train_step_update_every_gate():
    _, pair, bank, encoders = small_problem(53)
    _, stepped = train_step(State(encoders, bank), pair, TrainSettings(), update_memory=False)
    assert stepped.bank is bank


def test_a_step_that_keeps_the_bank_keeps_its_grams():
    # the Grams belong to the bank, so a step without a memory update makes none
    _, pair, bank, encoders = small_problem(53)
    state = State(encoders, bank)
    _, stepped = train_step(state, pair, TrainSettings(), update_memory=False)
    assert stepped.bank.grams is state.bank.grams
    _, updated = train_step(stepped, pair, TrainSettings())
    assert updated.bank.grams is not stepped.bank.grams
    for new in (stepped.bank, updated.bank):
        for d, plane in (("x", new.values_x), ("y", new.values_y)):
            assert_same_bits(new.grams[d], plane @ plane.T)


def parameters_and_planes(state) -> list:
    return [p for enc in state.encoders.all() for p in (enc.weight, enc.bias)] + [
        state.bank.keys, state.bank.values_x, state.bank.values_y
    ]


@pytest.mark.parametrize("channels", [16, 24], ids=["toy", "widening"])
def test_a_step_leaves_the_previous_state_intact(channels):
    cfg = replace(PRESETS["toy"], channels=channels)
    bank = init_bank(cfg.bank_layout(), channels, split_rng(6, 0))
    encoders = EncoderSet.create(split_rng(6, 1), cfg.scene.input_channels, channels)
    pair = generate_scene_pair(cfg.domain_spec(), split_rng(6, 2))
    state = State(encoders, bank)
    kept = [a.copy() for a in parameters_and_planes(state)]
    passes = (
        lambda s: compute_losses(s, pair, cfg.train)[0],
        lambda s: _pair_metrics(s, pair, cfg.reference_layout()),
    )
    want = [run(state) for run in passes]
    for update_memory in (True, False):
        _, stepped = train_step(state, pair, cfg.train, update_memory=update_memory)
        assert state.encoders is encoders and state.bank is bank
        assert not any(new is old for new, old in zip(stepped.encoders.all(), encoders.all()))
        assert (stepped.bank is not bank) == update_memory
        for now, before in zip(parameters_and_planes(state), kept):
            assert_same_bits(now, before)
        assert [run(state) for run in passes] == [run(State(encoders, bank)) for run in passes] == want


def test_the_parameters_the_package_makes_are_read_only(tmp_path):
    # an in-place edit would leave the factors of a state at those parameters stale
    cfg = replace(PRESETS["toy"], channels=24)
    bank = init_bank(cfg.bank_layout(), 24, split_rng(6, 0))
    encoders = EncoderSet.create(split_rng(6, 1), cfg.scene.input_channels, 24)
    pair = generate_scene_pair(cfg.domain_spec(), split_rng(6, 2))
    state = State(encoders, bank)
    want = compute_losses(state, pair, cfg.train)[0]
    with pytest.raises(ValueError, match="read-only"):
        encoders.content_x.weight *= 2.0
    with pytest.raises(FrozenInstanceError):
        encoders.content_x.weight = encoders.content_x.weight * 2.0
    with pytest.raises(FrozenInstanceError):
        encoders.content_x = encoders.style_x
    assert compute_losses(state, pair, cfg.train)[0] == want
    _, stepped = train_step(state, pair, cfg.train)
    save_encoders(stepped.encoders, tmp_path / "encoders.json")
    loaded = load_encoders(tmp_path / "encoders.json")
    for made in (EncoderSet.create(split_rng(6, 1), 16, 24), stepped.encoders, loaded):
        assert not any(p.flags.writeable for enc in made.all() for p in (enc.weight, enc.bias))


# finite weights near 1e300 square past the float range in W.T W, and the
# bias split follows as nan; a bias near 1e200 overflows only |b_perp|^2
@pytest.mark.parametrize("name, param, value, stages", [
    ("content_x", "weight", 1e300, "gram, shift, cross, offset"),
    ("style_y", "bias", 1e200, "offset"),
])
def test_factors_name_the_encoder_whose_factors_overflow(name, param, value, stages):
    bank = init_bank(MemoryLayout.from_counts([(1, 3), (0, 3)]), 24, split_rng(7, 0))
    encoders = EncoderSet.create(split_rng(7, 1), 16, 24)
    enc = getattr(encoders, name)
    overflowing = LinearEncoder(**{**vars(enc), param: np.full_like(getattr(enc, param), value)})
    encoders = replace(encoders, **{name: overflowing})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError) as raised:
        State(encoders, bank).affine
    assert str(raised.value) == f"encoder {name} factors became non-finite ({stages})"


def test_train_step_pooled_mode_runs():
    _, pair, bank, encoders = small_problem(55, class_aware=False)
    state = State(encoders, bank)
    _, fwd = compute_losses(state, pair, TrainSettings())
    report, stepped = train_step(state, pair, TrainSettings())
    assert report.total > 0.0
    assert not np.array_equal(stepped.bank.keys, bank.keys)
    assert np.all(fwd.key_terms["x"].positives >= 0)


def test_default_loss_weights():
    cfg = TrainSettings()
    assert cfg.key_loss_weight == 1.0
    assert cfg.value_loss_weight == 0.5


def test_positives_filled_for_every_position():
    _, pair, bank, encoders = small_problem(56)
    _, fwd = compute_losses(State(encoders, bank), pair, TrainSettings())
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

    def fn(param):
        probe = replace(encoders, **{name: replace(getattr(encoders, name), **{which: param})})
        report, fwd = compute_losses(State(probe, bank), pair, settings)
        grad_map = fwd.grad_content if kind == "content" else fwd.grad_style
        gw, gb = backward(getattr(fwd.queries, f"{kind}s")["xy".index(domain)], grad_map[domain])
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
    rng = split_rng(58)
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
# loss pass, of a one-scene evaluate and of a metrics pass, each at a
# state whose factors are made (evaluate makes its own). Each bound is the
# peak plus half of one (P, C) float64 array, so one dense feature
# gradient, read mixture or formed row
# array held at the peak would exceed it. The step read 6_864_544 when each
# encoder's gradient was a dense (P, C) array, 4_939_968 when the read's
# mixture was formed and 4_231_232 when the encoded rows were; the loss pass
# read 3_687_552, 3_060_848 and 956_448 along the same changes, the
# evaluation 5_285_907, 3_724_786 and 1_807_214, and the metrics pass
# 1_796_729 with the rows and 500_056 without them.
FACTORED_STEP_PEAK = 2_127_104
FACTORED_LOSS_PASS_PEAK = 956_448
FACTORED_EVALUATION_PEAK = 1_807_214
FACTORED_METRICS_PEAK = 500_056


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def warm_full_step():
    """A full-preset config, the state after one step at the initial bank,
    so the Adam moments exist, with its factors made, and a pair."""
    cfg = PRESETS["full"]
    bank = init_bank(cfg.bank_layout(), cfg.channels, split_rng(3, 0))
    encoders = EncoderSet.create(split_rng(3, 1), cfg.scene.input_channels, cfg.channels)
    pair = generate_scene_pair(cfg.domain_spec(), split_rng(3, 2))
    _, state = train_step(State(encoders, bank), pair, cfg.train, update_memory=False)
    state.affine, state.bank.grams
    half_feature = pair.content.shape[0] * cfg.channels * 8 // 2
    return cfg, state, pair, half_feature


def test_a_warm_full_preset_step_allocates_no_dense_feature_gradient(warm_full_step):
    cfg, state, pair, half_feature = warm_full_step
    peak = traced_peak(lambda: train_step(state, pair, cfg.train))
    assert peak <= FACTORED_STEP_PEAK + half_feature, peak


def test_no_read_mixture_in_a_full_preset_loss_pass_or_evaluation(warm_full_step):
    cfg, state, pair, half_feature = warm_full_step
    compute_losses(state, pair, cfg.train)
    peak = traced_peak(lambda: compute_losses(state, pair, cfg.train))
    assert peak <= FACTORED_LOSS_PASS_PEAK + half_feature, peak
    evaluate(state.bank, state.encoders, cfg, 1)
    peak = traced_peak(lambda: evaluate(state.bank, state.encoders, cfg, 1))
    assert peak <= FACTORED_EVALUATION_PEAK + half_feature, peak


def test_a_full_preset_metrics_pass_forms_no_row_array(warm_full_step):
    cfg, state, pair, half_feature = warm_full_step
    ref_layout = cfg.reference_layout()
    _pair_metrics(state, pair, ref_layout)
    peak = traced_peak(lambda: _pair_metrics(state, pair, ref_layout))
    assert peak <= FACTORED_METRICS_PEAK + half_feature, peak
