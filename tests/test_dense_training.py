"""The dense training pass against the per-class reference loop.

The dense code sums in a different order than the reference, so floats are
compared at a relative tolerance fixed before the rewrite: 1e-12 of the
largest magnitude in each compared array (float64 carries ~16 digits).
Positives and triplet negatives are discrete and must match exactly.

The package never forms a (P, C) feature gradient: ``encoder.backward``
takes the factored one, its scale terms from the encoded rows or through
the Gram identity, while the reference multiplies its dense gradient G out
as ``G.T @ inputs`` and ``G.sum(0)``. The two agree to the same 1e-12,
except on rows where the factored terms are large and cancel. A triplet
query 1e-9 from its positive has a scale of about 1e9, and its gradients
agree to ``RTOL_CANCEL`` on both routes. A content row of norm 1e-8 has a
read-backward scale of ``coeff / 1e-8``; it agrees to 1e-12 from the rows
and to ``RTOL_CANCEL`` through the Gram identity, whose two terms are then
large and cancel to the small row.
"""

import copy

import numpy as np
import pytest

from stylemem.encoder import EncoderSet, TrainSettings, backward, compute_losses, train_step
from stylemem.errors import LayoutError
from stylemem.memory import MemoryLayout, init_bank
from stylemem.numerics import make_rng, split_rng
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from reference import dense_gradient, reference_compute_losses, reference_train_step, span

RTOL = 1e-12
# worst at seeds 70-77: the triplet row 5.5e-8 (rows) and 6.9e-8 (Gram), the
# small content row 1.8e-15 (rows) and 1.1e-7 (Gram)
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


def problem(seed, class_aware):
    spec = DomainSpec.create(make_rng(seed), SceneSettings(
        classes=4, input_channels=6, height=8, width=8,
        noise_sigma=0.2, content_overlap=0.5, style_overlap=0.5,
    ))
    pair = generate_scene_pair(spec, split_rng(seed, 1))
    counts = [(1, 3), (2, 2), (3, 2), (0, 3)] if class_aware else [(-1, 10)]
    bank = init_bank(MemoryLayout.from_counts(counts), 5, split_rng(seed, 2))
    encoders = EncoderSet.create(split_rng(seed, 3), 6, 5)
    return pair, bank, encoders


def check_step(encoders, bank, pair, settings, update_memory=True):
    """Compare one dense train_step with the reference from the same state."""
    ref, ref_encoders, ref_bank = reference_train_step(encoders, bank, pair, settings, update_memory)
    dense_report, fwd = compute_losses(copy.deepcopy(encoders), bank, pair, settings)
    report, new_bank = train_step(encoders, bank, pair, settings, update_memory)

    for name in ("key_loss", "value_loss", "rec_loss", "total"):
        assert_close(getattr(report, name), getattr(ref, name))
        assert getattr(report, name) == getattr(dense_report, name)
    for d in ("x", "y"):
        np.testing.assert_array_equal(report.key_positives[d], ref.key_positives[d])
        np.testing.assert_array_equal(report.value_positives[d], ref.value_positives[d])
        assert_close(dense_gradient(fwd.grad_content[d], fwd.queries[d].content), ref.grad_content[d])
        assert_close(dense_gradient(fwd.grad_style[d], fwd.queries[d].style), ref.grad_style[d])
    # the step's per-domain item-loss terms: key x, value x, key y, value y
    terms = [fwd.key_terms["x"], fwd.value_terms["x"], fwd.key_terms["y"], fwd.value_terms["y"]]
    if settings.loss_variant == "triplet":
        negatives = [ref.key_negatives["x"], ref.value_negatives["x"],
                     ref.key_negatives["y"], ref.value_negatives["y"]]
        for term, want in zip(terms, negatives, strict=True):
            np.testing.assert_array_equal(term.negatives, want)
    else:
        assert all(term.negatives is None for term in terms)

    for got, want in zip(encoders.all(), ref_encoders.all()):
        assert_close(got.weight, want.weight)
        assert_close(got.bias, want.bias)
    for plane in ("keys", "values_x", "values_y"):
        assert_close(getattr(new_bank, plane), getattr(ref_bank, plane))
    return new_bank


@pytest.mark.parametrize("class_aware, loss_variant", CASES)
def test_dense_pass_matches_per_class_reference(class_aware, loss_variant):
    for seed in range(4):
        pair, bank, encoders = problem(70 + seed, class_aware)
        settings = TrainSettings(learning_rate=1e-2, loss_variant=loss_variant)
        for step in range(3):
            bank = check_step(encoders, bank, pair, settings, step != 1)


def encoder_gradients(encoders, pair, fwd, ref, with_rows):
    """(package (d_weight, d_bias), reference (G.T @ inputs, G.sum(0))) per
    encoder name; ``with_rows`` passes ``backward`` the encoded rows."""
    out = {}
    for d, style in zip(("x", "y"), pair.styles):
        q = fwd.queries[d]
        for kind, inputs, grad, rows, dense in (
            ("content", pair.content, fwd.grad_content[d], q.content, ref.grad_content[d]),
            ("style", style, fwd.grad_style[d], q.style, ref.grad_style[d]),
        ):
            enc = getattr(encoders, f"{kind}_{d}")
            got = backward(enc, inputs, grad, rows if with_rows else None)
            out[f"{kind}_{d}"] = (got, (dense.T @ inputs, dense.sum(axis=0)))
    return out


# the encoded rows given to backward, or not: with 5 output and 6 input
# channels, the first takes the scale terms from the rows, the second through
# the Gram identity
ROWS = [pytest.param(True, id="rows"), pytest.param(False, id="gram")]


WEIGHTS = {"unit-weights": {}, "weighted": dict(key_loss_weight=0.7, value_loss_weight=0.3, rec_loss_weight=1.3)}


@pytest.mark.parametrize("with_rows", ROWS)
@pytest.mark.parametrize("weights", WEIGHTS.values(), ids=WEIGHTS)
@pytest.mark.parametrize("class_aware, loss_variant", CASES)
def test_encoder_gradients_match_the_dense_reference(class_aware, loss_variant, weights, with_rows):
    for seed in range(4):
        pair, bank, encoders = problem(90 + seed, class_aware)
        settings = TrainSettings(loss_variant=loss_variant, **weights)
        ref = reference_compute_losses(encoders, bank, pair, settings)
        _, fwd = compute_losses(encoders, bank, pair, settings)
        for got, want in encoder_gradients(encoders, pair, fwd, ref, with_rows).values():
            assert_close(got[0], want[0])
            assert_close(got[1], want[1])


@pytest.mark.parametrize("with_rows", ROWS)
@pytest.mark.parametrize("row", ["triplet-positive-1e-9-away", "content-norm-1e-8"])
def test_encoder_gradients_where_the_factored_terms_cancel(row, with_rows):
    for seed in range(70, 78):
        pair, bank, encoders = problem(seed, True)
        enc = encoders.content_x
        toward = split_rng(seed, 4).standard_normal(bank.channels)
        toward /= np.linalg.norm(toward)
        if row == "content-norm-1e-8":
            target, settings = 1e-8 * toward, TrainSettings()
        else:  # the first key of position 0's partition; the wide margin keeps its hinge active
            offset, _ = span(bank.layout, int(pair.labels[0]))
            target = bank.keys[offset] + 1e-9 * toward
            settings = TrainSettings(loss_variant="triplet", triplet_margin=3.0)
        enc.bias = target - enc.weight @ pair.content[0]  # content row 0 of domain x is now the target
        ref = reference_compute_losses(encoders, bank, pair, settings)
        _, fwd = compute_losses(encoders, bank, pair, settings)
        if row == "content-norm-1e-8":
            assert np.linalg.norm(fwd.queries["x"].content[0]) == pytest.approx(1e-8, rel=1e-6)
        else:
            assert fwd.key_terms["x"].positives[0] == offset
            assert 0.0 < fwd.key_terms["x"].gradient().scale[0] == pytest.approx(1e9, rel=1e-6)
        (gw, gb), (want_w, want_b) = encoder_gradients(encoders, pair, fwd, ref, with_rows)["content_x"]
        rtol = RTOL if with_rows and row == "content-norm-1e-8" else RTOL_CANCEL
        assert_close(gw, want_w, rtol)
        assert_close(gb, want_b, rtol)


def test_absent_class_partition_stays_bit_identical():
    pair, bank, encoders = problem(80, True)
    pair.labels[pair.labels == 3] = 1
    new_bank = check_step(encoders, bank, pair, TrainSettings(learning_rate=1e-2))
    offset, count = span(bank.layout, 3)
    block = slice(offset, offset + count)
    for plane in ("keys", "values_x", "values_y"):
        np.testing.assert_array_equal(getattr(new_bank, plane)[block], getattr(bank, plane)[block])
        assert not np.array_equal(getattr(new_bank, plane), getattr(bank, plane))


def test_label_missing_from_layout_raises():
    pair, bank, encoders = problem(81, True)
    pair.labels[:5] = 7
    with pytest.raises(LayoutError, match="class 7"):
        train_step(encoders, bank, pair, TrainSettings(learning_rate=1e-2))
    with pytest.raises(LayoutError, match="class 7"):
        reference_train_step(encoders, bank, pair, TrainSettings(learning_rate=1e-2))
