"""The dense training pass against the per-class reference loop.

The dense code sums in a different order than the reference, so floats are
compared at a relative tolerance fixed before the rewrite: 1e-12 of the
largest magnitude in each compared array (float64 carries ~16 digits).
Positives and triplet negatives are discrete and must match exactly.
"""

import copy

import numpy as np
import pytest

from stylemem.encoder import EncoderSet, TrainSettings, compute_losses, train_step
from stylemem.errors import LayoutError
from stylemem.memory import MemoryLayout, init_bank
from stylemem.numerics import make_rng, split_rng
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from reference import reference_compute_losses, reference_train_step, span

RTOL = 1e-12

CASES = [
    pytest.param(True, "contrastive", id="class-aware-contrastive"),
    pytest.param(True, "triplet", id="class-aware-triplet"),
    pytest.param(False, "contrastive", id="pooled-contrastive"),
    pytest.param(False, "triplet", id="pooled-triplet"),
]


def assert_close(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
    assert float(np.abs(got - want).max()) <= RTOL * scale


def problem(seed, class_aware):
    spec = DomainSpec.create(make_rng(seed), SceneSettings(
        classes=4, input_channels=6, height=8, width=8,
        noise_sigma=0.2, content_overlap=0.5, style_overlap=0.5,
    ))
    scene_x, scene_y = generate_scene_pair(spec, split_rng(seed, 1))
    counts = [(1, 3), (2, 2), (3, 2), (0, 3)] if class_aware else [(-1, 10)]
    bank = init_bank(MemoryLayout.from_counts(counts), 5, split_rng(seed, 2))
    encoders = EncoderSet.create(split_rng(seed, 3), 6, 5)
    return scene_x, scene_y, bank, encoders


def check_step(encoders, bank, scene_x, scene_y, settings, update_memory=True):
    """Compare one dense train_step with the reference from the same state."""
    ref, ref_encoders, ref_bank = reference_train_step(
        encoders, bank, scene_x, scene_y, settings, update_memory
    )
    dense_report, fwd = compute_losses(copy.deepcopy(encoders), bank, scene_x, scene_y, settings)
    report, new_bank = train_step(encoders, bank, scene_x, scene_y, settings, update_memory)

    for name in ("key_loss", "value_loss", "rec_loss", "total"):
        assert_close(getattr(report, name), getattr(ref, name))
        assert getattr(report, name) == getattr(dense_report, name)
    for d in ("x", "y"):
        np.testing.assert_array_equal(report.key_positives[d], ref.key_positives[d])
        np.testing.assert_array_equal(report.value_positives[d], ref.value_positives[d])
        assert_close(fwd.grad_content[d], ref.grad_content[d])
        assert_close(fwd.grad_style[d], ref.grad_style[d])
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
        scene_x, scene_y, bank, encoders = problem(70 + seed, class_aware)
        settings = TrainSettings(learning_rate=1e-2, loss_variant=loss_variant)
        for step in range(3):
            bank = check_step(encoders, bank, scene_x, scene_y, settings, step != 1)


def test_absent_class_partition_stays_bit_identical():
    scene_x, scene_y, bank, encoders = problem(80, True)
    for scene in (scene_x, scene_y):
        scene.labels[scene.labels == 3] = 1
    new_bank = check_step(encoders, bank, scene_x, scene_y, TrainSettings(learning_rate=1e-2))
    offset, count = span(bank.layout, 3)
    block = slice(offset, offset + count)
    for plane in ("keys", "values_x", "values_y"):
        np.testing.assert_array_equal(getattr(new_bank, plane)[block], getattr(bank, plane)[block])
        assert not np.array_equal(getattr(new_bank, plane), getattr(bank, plane))


def test_label_missing_from_layout_raises():
    scene_x, scene_y, bank, encoders = problem(81, True)
    for scene in (scene_x, scene_y):
        scene.labels[:5] = 7
    with pytest.raises(LayoutError, match="class 7"):
        train_step(encoders, bank, scene_x, scene_y, TrainSettings(learning_rate=1e-2))
    with pytest.raises(LayoutError, match="class 7"):
        reference_train_step(encoders, bank, scene_x, scene_y, TrainSettings(learning_rate=1e-2))
