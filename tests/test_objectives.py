import math

import numpy as np
import pytest

from stylemem.encoder import TrainSettings
from stylemem.errors import ConfigError, PoolError
from stylemem.numerics import make_rng, split_rng
from stylemem.objectives import contrastive_loss, triplet_loss

from fdcheck import fd_check
from oracles import oracle_contrastive, oracle_triplet


def test_config_validates_temperature():
    with pytest.raises(ConfigError):
        TrainSettings(temperature=0.0)
    with pytest.raises(ConfigError):
        TrainSettings(key_loss_weight=-1.0)


# --- contrastive ---


def test_contrastive_single_item_zero_loss():
    term = contrastive_loss(np.array([[0.4, -1.2]]), np.array([[1.0, 0.0]]), [0], 0.5)
    assert term.value == 0.0
    np.testing.assert_array_equal(term.gradient(), 0.0)


def test_contrastive_uniform_limit_large_temperature():
    rng = make_rng(31)
    queries = rng.standard_normal((3, 4))
    items = rng.standard_normal((5, 4))
    term = contrastive_loss(queries, items, range(5), 1e9)
    assert term.value / 3.0 == pytest.approx(math.log(5), abs=1e-6)


def test_contrastive_hand_case():
    term = contrastive_loss(
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        [0],
        1.0,
    )
    assert term.value == pytest.approx(0.3132616875182228, abs=1e-12)
    assert term.positives.tolist() == [0]


def test_contrastive_matches_oracle():
    for seed in range(10):
        rng = split_rng(400, seed)
        p, n, c = (int(rng.integers(1, 6)) for _ in range(3))
        queries = rng.standard_normal((p, c))
        items = rng.standard_normal((n, c))
        pool = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        tau = float(rng.uniform(0.2, 2.0))
        term = contrastive_loss(queries, items, pool, tau)
        ref_value, ref_pos = oracle_contrastive(queries.tolist(), items.tolist(), pool, tau)
        assert term.value == pytest.approx(ref_value, abs=1e-9)
        assert term.positives.tolist() == ref_pos


def test_contrastive_empty_pool_rejected():
    with pytest.raises(PoolError):
        contrastive_loss(np.ones((1, 2)), np.ones((2, 2)), [])
    with pytest.raises(PoolError):
        contrastive_loss(np.ones((1, 2)), np.ones((2, 2)), [5])


def test_contrastive_nonnegative_and_temperature_monotone():
    # positive holds the strictly largest dot product, so shrinking tau
    # drives the loss to zero and growing it approaches P * log(N)
    queries = np.array([[1.0, 0.1], [0.9, -0.2]])
    items = np.array([[1.0, 0.0], [-0.4, 0.9], [-0.8, -0.6]])
    last = None
    for tau in (1e3, 10.0, 1.0, 0.5, 0.1, 0.02, 0.005):
        value = contrastive_loss(queries, items, [0], tau).value
        assert value >= 0.0
        if last is not None:
            assert value <= last + 1e-12
        last = value
    assert last == pytest.approx(0.0, abs=1e-9)
    big = contrastive_loss(queries, items, [0], 1e9).value
    assert big == pytest.approx(2.0 * math.log(3), abs=1e-6)


def test_contrastive_positive_selection_scale_invariant():
    # cosine selection ignores query rescaling even though the loss itself
    # uses raw dot products
    rng = make_rng(32)
    queries = rng.standard_normal((4, 5))
    items = rng.standard_normal((6, 5))
    temperature = 0.7
    base = contrastive_loss(queries, items, range(6), temperature)
    scaled = contrastive_loss(3.7 * queries, items, range(6), temperature)
    np.testing.assert_array_equal(base.positives, scaled.positives)
    assert scaled.value != pytest.approx(base.value)


def test_contrastive_gradient_fd():
    rng = make_rng(33)
    queries = rng.standard_normal((4, 6))
    items = rng.standard_normal((5, 6))
    temperature = 0.5
    report = fd_check(
        lambda q: (lambda t: (t.value, t.gradient()))(contrastive_loss(q, items, [0, 2], temperature)),
        queries,
    )
    assert report.passed, report


# --- triplet ---


def test_triplet_satisfied_hinge_zero():
    queries = np.array([[1.0, 0.0]])
    items = np.array([[1.0, 0.0], [-1.0, 0.0]])
    term = triplet_loss(queries, items, [0], margin=1.0)
    # d+ = 0, d- = 2, margin 1 -> hinge inactive
    assert term.value == 0.0
    np.testing.assert_array_equal(term.gradient(), 0.0)


def test_triplet_equidistant_gives_margin():
    queries = np.array([[0.0, 1.0]])
    items = np.array([[1.0, 1.0], [-1.0, 1.0]])
    term = triplet_loss(queries, items, [0], margin=0.7)
    assert term.value == pytest.approx(0.7, abs=1e-12)


def test_triplet_hand_case_matches_oracle_and_fd():
    queries = np.array([[1.0, 0.0]])
    items = np.array([[0.8, 0.6], [0.0, 1.0]])
    term = triplet_loss(queries, items, [0], margin=1.0)
    ref_value, ref_pos, ref_neg = oracle_triplet(queries.tolist(), items.tolist(), [0], 1.0)
    assert term.value == pytest.approx(ref_value, abs=1e-12)
    assert term.value == pytest.approx(0.2182419696605808, abs=1e-12)
    assert term.positives.tolist() == ref_pos == [0]
    assert ref_neg == [1]
    report = fd_check(
        lambda q: (lambda t: (t.value, t.gradient()))(triplet_loss(q, items, [0], 1.0)), queries
    )
    assert report.passed, report


def test_triplet_matches_oracle():
    for seed in range(10):
        rng = split_rng(500, seed)
        p = int(rng.integers(1, 6))
        n = int(rng.integers(2, 7))
        c = int(rng.integers(2, 6))
        queries = rng.standard_normal((p, c))
        items = rng.standard_normal((n, c))
        pool = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        margin = float(rng.uniform(0.2, 1.5))
        term = triplet_loss(queries, items, pool, margin)
        ref_value, ref_pos, _ = oracle_triplet(queries.tolist(), items.tolist(), pool, margin)
        assert term.value == pytest.approx(ref_value, abs=1e-9)
        assert term.positives.tolist() == ref_pos


def test_triplet_needs_two_items():
    with pytest.raises(PoolError):
        triplet_loss(np.ones((1, 2)), np.ones((1, 2)), [0], 1.0)


# --- fd_check itself ---


def test_fd_check_zero_function():
    report = fd_check(lambda q: (0.0, np.zeros_like(q)), np.ones((2, 3)))
    assert report.passed
    assert report.max_rel_error == 0.0


def test_fd_check_flags_corrupted_gradient():
    rng = make_rng(34)
    items = rng.standard_normal((5, 6))
    temperature = 0.5

    def corrupted(q):
        term = contrastive_loss(q, items, [1], temperature)
        grad = term.gradient()
        grad[0, 0] *= 1.10
        return term.value, grad

    report = fd_check(corrupted, rng.standard_normal((3, 6)))
    assert not report.passed
    assert report.worst_index == (0, 0)
