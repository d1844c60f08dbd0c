"""The dense training pass against the per-class reference loop.

The dense code sums in a different order than the reference, so floats are
compared at a relative tolerance fixed before the rewrite: 1e-12 of the
largest magnitude in each compared array (float64 carries ~16 digits).
Positives and triplet negatives are discrete and must match exactly.

The package never forms a (P, C) feature gradient: ``encoder.backward``
takes the factored one, its scale terms from the encoded rows (C <= Cin) or
through the Gram identity (C > Cin), while the reference multiplies its
dense gradient G out as ``G.T @ inputs`` and ``G.sum(0)``. The tests reach
both routes by shape, with 6 input channels and C = 5 or 8, and every
encoder has a random nonzero bias, so the Gram identity's bias terms count.
The two agree to the same 1e-12, except on rows where the factored terms
are large and cancel. A triplet query 1e-9 from its positive has a scale of
about 1e9, and its gradients agree to ``RTOL_CANCEL`` on both routes. A
content row of norm 1e-8 has a read-backward scale of ``coeff / 1e-8``; it
agrees to 1e-12 from the rows and to ``RTOL_CANCEL`` through the Gram
identity, whose two terms are then large and cancel to the small row.

The package takes the reconstruction loss from the expansion
``a.(G a) - 2 a.(V s) + |s|^2``, which cancels where a read reproduces its
target row; the reference forms the residual. Where the read of one row
meets its target exactly or within 1e-8, both still agree to 1e-12: the
cancelling row's error is relative to the whole pass, not to that row.
"""

from dataclasses import replace

import numpy as np
import pytest

from stylemem.encoder import EncoderSet, State, TrainSettings, backward, compute_losses, train_step
from stylemem.errors import LayoutError
from stylemem.memory import MemoryLayout, init_bank, read
from stylemem.numerics import EPS_DIV, make_rng, read_cosines, split_rng
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from reference import cosine_rows, dense_gradient, reference_compute_losses, reference_train_step, span

RTOL = 1e-12
# worst at seeds 70-77: the triplet row 5.5e-8 (rows, C = 5) and 6.2e-8 (Gram,
# C = 8), the small content row 1.8e-15 (rows) and 5.3e-8 (Gram)
RTOL_CANCEL = 1e-6

CASES = [
    pytest.param(True, "contrastive", id="class-aware-contrastive"),
    pytest.param(True, "triplet", id="class-aware-triplet"),
    pytest.param(False, "contrastive", id="pooled-contrastive"),
    pytest.param(False, "triplet", id="pooled-triplet"),
]


def assert_close(got, want, rtol=RTOL):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
    assert float(np.abs(got - want).max()) <= rtol * scale


# the encoded width C of 6 input channels: backward's route
ROUTES = [pytest.param(5, id="rows"), pytest.param(8, id="gram")]


def problem(seed, class_aware, channels):
    spec = DomainSpec.create(make_rng(seed), SceneSettings(
        classes=4, input_channels=6, height=8, width=8,
        noise_sigma=0.2, content_overlap=0.5, style_overlap=0.5,
    ))
    pair = generate_scene_pair(spec, split_rng(seed, 1))
    counts = [(1, 3), (2, 2), (3, 2), (0, 3)] if class_aware else [(-1, 10)]
    bank = init_bank(MemoryLayout.from_counts(counts), channels, split_rng(seed, 2))
    rng = split_rng(seed, 5)
    encoders = EncoderSet(**{  # a zero bias would hide the Gram route's bias terms
        name: replace(enc, bias=rng.standard_normal(channels))
        for name, enc in vars(EncoderSet.create(split_rng(seed, 3), 6, channels)).items()
    })
    return pair, bank, encoders


def check_step(state, pair, settings, update_memory=True):
    """Compare one dense train_step with the reference from the same state;
    returns the step's next state."""
    ref, ref_encoders, ref_bank = reference_train_step(state, pair, settings, update_memory)
    dense_report, fwd = compute_losses(state, pair, settings)
    report, new_state = train_step(state, pair, settings, update_memory)

    for name in ("key_loss", "value_loss", "rec_loss", "total"):
        assert_close(getattr(report, name), getattr(ref, name))
        assert getattr(report, name) == getattr(dense_report, name)
    q = fwd.queries
    for d, content, style, cols in zip(("x", "y"), q.contents, q.styles, q.cosines.columns):
        np.testing.assert_array_equal(fwd.key_terms[d].positives, ref.key_positives[d])
        np.testing.assert_array_equal(fwd.value_terms[d].positives, ref.value_positives[d])
        assert_close(dense_gradient(fwd.grad_content[d], content.formed()), ref.grad_content[d])
        assert_close(dense_gradient(fwd.grad_style[d], style.formed()), ref.grad_style[d])
        assert_close(fwd.g_weights[:, cols], ref.g_weights[d])
    # the step's per-domain item-loss terms: key x, value x, key y, value y
    terms = [fwd.key_terms["x"], fwd.value_terms["x"], fwd.key_terms["y"], fwd.value_terms["y"]]
    if settings.loss_variant == "triplet":
        negatives = [ref.key_negatives["x"], ref.value_negatives["x"],
                     ref.key_negatives["y"], ref.value_negatives["y"]]
        for term, want in zip(terms, negatives, strict=True):
            np.testing.assert_array_equal(term.negatives, want)
    else:
        assert all(term.negatives is None for term in terms)

    for got, want in zip(new_state.encoders.all(), ref_encoders.all()):
        assert_close(got.weight, want.weight)
        assert_close(got.bias, want.bias)
    for plane in ("keys", "values_x", "values_y"):
        assert_close(getattr(new_state.bank, plane), getattr(ref_bank, plane))
    return new_state


@pytest.mark.parametrize("channels", ROUTES)
@pytest.mark.parametrize("class_aware, loss_variant", CASES)
def test_dense_pass_matches_per_class_reference(class_aware, loss_variant, channels):
    for seed in range(4):
        pair, bank, encoders = problem(70 + seed, class_aware, channels)
        settings = TrainSettings(learning_rate=1e-2, loss_variant=loss_variant)
        state = State(encoders, bank)
        for step in range(3):
            state = check_step(state, pair, settings, step != 1)


def encoder_gradients(encoders, pair, fwd, ref):
    """(package (d_weight, d_bias), reference (G.T @ inputs, G.sum(0))) per
    encoder name."""
    out = {}
    q = fwd.queries
    for d, style, content_rows, style_rows in zip(("x", "y"), pair.styles, q.contents, q.styles):
        for kind, inputs, grad, encoded, dense in (
            ("content", pair.content, fwd.grad_content[d], content_rows, ref.grad_content[d]),
            ("style", style, fwd.grad_style[d], style_rows, ref.grad_style[d]),
        ):
            out[f"{kind}_{d}"] = (backward(encoded, grad), (dense.T @ inputs, dense.sum(axis=0)))
    return out


WEIGHTS = {"unit-weights": {}, "weighted": dict(key_loss_weight=0.7, value_loss_weight=0.3, rec_loss_weight=1.3)}


@pytest.mark.parametrize("channels", ROUTES)
@pytest.mark.parametrize("weights", WEIGHTS.values(), ids=WEIGHTS)
@pytest.mark.parametrize("class_aware, loss_variant", CASES)
def test_encoder_gradients_match_the_dense_reference(class_aware, loss_variant, weights, channels):
    for seed in range(4):
        pair, bank, encoders = problem(90 + seed, class_aware, channels)
        settings = TrainSettings(loss_variant=loss_variant, **weights)
        ref = reference_compute_losses(encoders, bank, pair, settings)
        _, fwd = compute_losses(State(encoders, bank), pair, settings)
        for got, want in encoder_gradients(encoders, pair, fwd, ref).values():
            assert_close(got[0], want[0])
            assert_close(got[1], want[1])


@pytest.mark.parametrize("channels", ROUTES)
@pytest.mark.parametrize("row", ["triplet-positive-1e-9-away", "content-norm-1e-8"])
def test_encoder_gradients_where_the_factored_terms_cancel(row, channels):
    for seed in range(70, 78):
        pair, bank, encoders = problem(seed, True, channels)
        enc = encoders.content_x
        toward = split_rng(seed, 4).standard_normal(bank.channels)
        toward /= np.linalg.norm(toward)
        if row == "content-norm-1e-8":
            target, settings = 1e-8 * toward, TrainSettings()
        else:  # the first key of position 0's partition; the wide margin keeps its hinge active
            offset, _ = span(bank.layout, int(pair.labels[0]))
            target = bank.keys[offset] + 1e-9 * toward
            settings = TrainSettings(loss_variant="triplet", triplet_margin=3.0)
        # content row 0 of domain x is now the target
        encoders = replace(encoders, content_x=replace(enc, bias=target - enc.weight @ pair.content[0]))
        ref = reference_compute_losses(encoders, bank, pair, settings)
        _, fwd = compute_losses(State(encoders, bank), pair, settings)
        if row == "content-norm-1e-8":
            assert np.linalg.norm(fwd.queries.contents[0].formed()[0]) == pytest.approx(1e-8, rel=1e-6)
        else:
            assert fwd.key_terms["x"].positives[0] == offset
            assert 0.0 < fwd.key_terms["x"].gradient().scale[0] == pytest.approx(1e9, rel=1e-6)
        (gw, gb), (want_w, want_b) = encoder_gradients(encoders, pair, fwd, ref)["content_x"]
        rtol = RTOL if channels <= 6 and row == "content-norm-1e-8" else RTOL_CANCEL
        assert_close(gw, want_w, rtol)
        assert_close(gb, want_b, rtol)


@pytest.mark.parametrize("channels", ROUTES)
@pytest.mark.parametrize("gap", [pytest.param(0.0, id="exact"), pytest.param(1e-8, id="1e-8-away")])
def test_reconstruction_where_the_expanded_residual_cancels(gap, channels):
    for seed in range(70, 78):
        pair, bank, encoders = problem(seed, True, channels)
        settings = TrainSettings()
        _, fwd = compute_losses(State(encoders, bank), pair, settings)
        x, y = fwd.queries.cosines.columns
        mixture = (read(bank, fwd.queries)[x] @ bank.values_y)[0]  # a_0 V_y
        toward = split_rng(seed, 4).standard_normal(bank.channels)
        toward /= np.linalg.norm(toward)
        enc = encoders.style_y
        # style row 0 of y is now a_0 V_y
        encoders = replace(encoders, style_y=replace(enc, bias=mixture + gap * toward - enc.weight @ pair.styles[1][0]))
        ref = reference_compute_losses(encoders, bank, pair, settings)
        state = State(encoders, bank)
        report, fwd = compute_losses(state, pair, settings)
        miss = np.linalg.norm(fwd.queries.styles[1].formed()[0] - mixture)
        assert miss <= 1e-15 * np.linalg.norm(mixture) if gap == 0.0 else miss == pytest.approx(gap, rel=1e-6)

        assert_close(report.rec_loss, ref.rec_loss)
        for d, cols in zip(("x", "y"), (x, y)):
            assert_close(fwd.g_weights[:, cols], ref.g_weights[d])
        for got, want in encoder_gradients(encoders, pair, fwd, ref).values():
            assert_close(got[0], want[0])
            assert_close(got[1], want[1])
        cols = fwd.values.columns[1]
        weights = fwd.queries.weights.T[:, x]
        fidelity = read_cosines(weights, bank.grams["y"], fwd.values.dots.T[:, cols], fwd.values.row_norms[cols])
        mixtures = read(bank, fwd.queries)[x] @ bank.values_y
        assert_close(fidelity, cosine_rows(mixtures, fwd.queries.styles[1].formed()))
        norm_sq = float(fwd.values.row_norms[cols][0]) ** 2  # 1, less the share of EPS_DIV in the denominator
        assert fidelity[0] == pytest.approx(norm_sq / (norm_sq + EPS_DIV), rel=1e-14)


def test_absent_class_partition_stays_bit_identical():
    pair, bank, encoders = problem(80, True, 5)
    pair.labels[pair.labels == 3] = 1
    new_bank = check_step(State(encoders, bank), pair, TrainSettings(learning_rate=1e-2)).bank
    offset, count = span(bank.layout, 3)
    block = slice(offset, offset + count)
    for plane in ("keys", "values_x", "values_y"):
        np.testing.assert_array_equal(getattr(new_bank, plane)[block], getattr(bank, plane)[block])
        assert not np.array_equal(getattr(new_bank, plane), getattr(bank, plane))


def test_label_missing_from_layout_raises():
    pair, bank, encoders = problem(81, True, 5)
    pair.labels[:5] = 7
    with pytest.raises(LayoutError, match="class 7"):
        train_step(State(encoders, bank), pair, TrainSettings(learning_rate=1e-2))
    with pytest.raises(LayoutError, match="class 7"):
        reference_train_step(State(encoders, bank), pair, TrainSettings(learning_rate=1e-2))
