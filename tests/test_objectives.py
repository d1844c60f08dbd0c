import math

import numpy as np
import pytest

from stylemem.encoder import TrainSettings
from stylemem.errors import ConfigError, PoolError
from stylemem.memory import address_blocks
from stylemem.numerics import make_rng, split_rng
from stylemem.objectives import contrastive_loss, triplet_loss

from fdcheck import fd_check
from oracles import oracle_contrastive, oracle_triplet, oracle_triplet_factors
from reference import PAIR_CASES, address_one, assert_same_bits, dense_gradient, encoded, one_block, pair_rows


def test_config_validates_temperature():
    with pytest.raises(ConfigError):
        TrainSettings(temperature=0.0)
    with pytest.raises(ConfigError):
        TrainSettings(key_loss_weight=-1.0)


# --- contrastive ---


def test_contrastive_single_item_zero_loss():
    queries = np.array([[0.4, -1.2]])
    (term,) = contrastive_loss(*one_block(queries, np.array([[1.0, 0.0]]), [0]), 0.5)
    assert term.value == 0.0
    np.testing.assert_array_equal(dense_gradient(term.gradient(), queries), 0.0)


def test_contrastive_uniform_limit_large_temperature():
    rng = make_rng(31)
    queries = rng.standard_normal((3, 4))
    items = rng.standard_normal((5, 4))
    (term,) = contrastive_loss(*one_block(queries, items, range(5)), 1e9)
    assert term.value / 3.0 == pytest.approx(math.log(5), abs=1e-6)


def test_contrastive_hand_case():
    (term,) = contrastive_loss(
        *one_block(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]), [0]), 1.0
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
        (term,) = contrastive_loss(*one_block(queries, items, pool), tau)
        ref_value, ref_pos = oracle_contrastive(queries.tolist(), items.tolist(), pool, tau)
        assert term.value == pytest.approx(ref_value, abs=1e-9)
        assert term.positives.tolist() == ref_pos


def test_contrastive_empty_pool_rejected():
    with pytest.raises(PoolError):
        contrastive_loss((np.ones((1, 2)),), np.ones((2, 2)), np.zeros((1, 2), dtype=bool))


NOT_MASKS = {  # pools for 3 queries and 2 items that are not a boolean (3, 2) mask with an item per query
    "int-mask": np.ones((3, 2), dtype=np.int64),
    "float-mask": np.ones((3, 2)),
    "index-list": [0],
    "index-array": np.array([0, 1]),
    "item-row": np.ones(2, dtype=bool),
    "transposed": np.ones((2, 3), dtype=bool),
    "one-query-empty": np.array([[True, False], [False, False], [True, True]]),
}


@pytest.mark.parametrize("pool", NOT_MASKS.values(), ids=NOT_MASKS)
@pytest.mark.parametrize("loss", [contrastive_loss, triplet_loss])
def test_a_pool_that_is_not_a_boolean_mask_is_rejected(loss, pool):
    with pytest.raises(PoolError, match="not a boolean"):
        loss((np.ones((3, 2)),), np.eye(2), pool)


def test_contrastive_nonnegative_and_temperature_monotone():
    # positive holds the strictly largest dot product, so shrinking tau
    # drives the loss to zero and growing it approaches P * log(N)
    queries = np.array([[1.0, 0.1], [0.9, -0.2]])
    items = np.array([[1.0, 0.0], [-0.4, 0.9], [-0.8, -0.6]])
    last = None
    for tau in (1e3, 10.0, 1.0, 0.5, 0.1, 0.02, 0.005):
        value = contrastive_loss(*one_block(queries, items, [0]), tau)[0].value
        assert value >= 0.0
        if last is not None:
            assert value <= last + 1e-12
        last = value
    assert last == pytest.approx(0.0, abs=1e-9)
    big = contrastive_loss(*one_block(queries, items, [0]), 1e9)[0].value
    assert big == pytest.approx(2.0 * math.log(3), abs=1e-6)


def test_contrastive_positive_selection_scale_invariant():
    # cosine selection ignores query rescaling even though the loss itself
    # uses raw dot products
    rng = make_rng(32)
    queries = rng.standard_normal((4, 5))
    items = rng.standard_normal((6, 5))
    temperature = 0.7
    (base,) = contrastive_loss(*one_block(queries, items, range(6)), temperature)
    (scaled,) = contrastive_loss(*one_block(3.7 * queries, items, range(6)), temperature)
    np.testing.assert_array_equal(base.positives, scaled.positives)
    assert scaled.value != pytest.approx(base.value)


def test_contrastive_gradient_fd():
    rng = make_rng(33)
    queries = rng.standard_normal((4, 6))
    items = rng.standard_normal((5, 6))
    temperature = 0.5
    report = fd_check(
        lambda q: (lambda t: (t.value, dense_gradient(t.gradient(), q)))(
            contrastive_loss(*one_block(q, items, [0, 2]), temperature)[0]
        ),
        queries,
    )
    assert report.passed, report


# --- triplet ---


def test_triplet_satisfied_hinge_zero():
    queries = np.array([[1.0, 0.0]])
    items = np.array([[1.0, 0.0], [-1.0, 0.0]])
    (term,) = triplet_loss(*one_block(queries, items, [0]), margin=1.0)
    # d+ = 0, d- = 2, margin 1 -> hinge inactive
    assert term.value == 0.0
    np.testing.assert_array_equal(dense_gradient(term.gradient(), queries), 0.0)


def test_triplet_equidistant_gives_margin():
    queries = np.array([[0.0, 1.0]])
    items = np.array([[1.0, 1.0], [-1.0, 1.0]])
    (term,) = triplet_loss(*one_block(queries, items, [0]), margin=0.7)
    assert term.value == pytest.approx(0.7, abs=1e-12)


def test_triplet_hand_case_matches_oracle_and_fd():
    queries = np.array([[1.0, 0.0]])
    items = np.array([[0.8, 0.6], [0.0, 1.0]])
    (term,) = triplet_loss(*one_block(queries, items, [0]), margin=1.0)
    ref_value, ref_pos, ref_neg = oracle_triplet(queries.tolist(), items.tolist(), [0], 1.0)
    assert term.value == pytest.approx(ref_value, abs=1e-12)
    assert term.value == pytest.approx(0.2182419696605808, abs=1e-12)
    assert term.positives.tolist() == ref_pos == [0]
    assert ref_neg == [1]
    report = fd_check(
        lambda q: (lambda t: (t.value, dense_gradient(t.gradient(), q)))(
            triplet_loss(*one_block(q, items, [0]), 1.0)[0]
        ),
        queries,
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
        (term,) = triplet_loss(*one_block(queries, items, pool), margin)
        ref_value, ref_pos, ref_neg = oracle_triplet(queries.tolist(), items.tolist(), pool, margin)
        assert term.value == pytest.approx(ref_value, abs=1e-9)
        assert term.positives.tolist() == ref_pos
        ref_coef, ref_scale = oracle_triplet_factors(queries.tolist(), items.tolist(), ref_pos, ref_neg, margin)
        grad = term.gradient()
        np.testing.assert_array_equal(grad.items, items)
        np.testing.assert_allclose(grad.coef, ref_coef, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grad.scale, ref_scale, rtol=1e-12, atol=0.0)


def test_triplet_needs_two_items():
    with pytest.raises(PoolError):
        triplet_loss(*one_block(np.ones((1, 2)), np.ones((1, 2)), [0]), 1.0)


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
        (term,) = contrastive_loss(*one_block(q, items, [1]), temperature)
        grad = dense_gradient(term.gradient(), q)
        grad[0, 0] *= 1.10
        return term.value, grad

    report = fd_check(corrupted, rng.standard_normal((3, 6)))
    assert not report.passed
    assert report.worst_index == (0, 0)


# --- scene pairs ---


@pytest.mark.parametrize("class_aware, side", PAIR_CASES)
@pytest.mark.parametrize("loss, setting", [(contrastive_loss, 0.1), (triplet_loss, 1.0)])
def test_pair_item_losses_are_the_single_domain_terms_bit_for_bit(class_aware, side, loss, setting):
    bank, contents, styles, labels = pair_rows(31, class_aware, side)
    contents, styles = tuple(map(encoded, contents)), tuple(map(encoded, styles))
    queries = address_blocks(bank, contents, styles, labels)
    mask, cosines = queries.mask, queries.cosines
    singles = [address_one(bank, c.rows, s.rows, lab) for c, s, lab in zip(contents, styles, labels)]
    values = (bank.values_x, bank.values_y)
    planes = [  # (pair call, one-block call per domain)
        (loss(contents, bank.keys, mask, setting, cosines),
         [loss(q.contents, bank.keys, q.mask, setting, q.cosines)[0] for q in singles]),
        (loss(styles, values, mask, setting),
         [loss(q.styles, v, q.mask, setting)[0] for q, v in zip(singles, values)]),
    ]
    for terms, single_terms in planes:
        assert isinstance(terms, tuple) and len(terms) == 2
        for term, single in zip(terms, single_terms, strict=True):
            # each domain's value is summed over its own queries
            assert_same_bits(term.value, single.value)
            assert_same_bits(term.positives, single.positives)
            if loss is triplet_loss:
                assert_same_bits(term.negatives, single.negatives)
            else:
                assert term.negatives is None and single.negatives is None
            first, second, alone = term.gradient(), term.gradient(), single.gradient()
            assert first.items is alone.items
            for part in ("coef", "scale"):
                assert_same_bits(getattr(first, part), getattr(alone, part))
                assert_same_bits(getattr(second, part), getattr(first, part))
                assert not np.shares_memory(getattr(first, part), getattr(second, part))


BRANCH_MARGIN = 0.5
BRANCH_LABELS = [2, 3, 0, 0]  # the toy layout's classes of items 3-4, 5-6, 7-9, 7-9


def triplet_branch_rows(items):
    """Change ``items`` (a toy-layout copy) in place and return four query rows,
    of classes ``BRANCH_LABELS``, that reach each branch of the triplet gradient
    at ``BRANCH_MARGIN``, class-aware or pooled: d+ = 0 under an active hinge;
    d- = 0 with a -0.0 in the positive difference where the negative one holds
    +0.0; inactive hinges at d+ = 0 and at d+ > 0."""
    items[4] = items[3]
    items[4, 1] += 0.05  # item 3's nearest neighbour, inside the margin
    items[5, 2] = 0.0
    items[7] = 1e-3 * items[5]  # item 5's direction, so item 5 is the cosine-nearer
    items[7, 2] = -0.0  # the query's difference is -0.0 to item 5 and +0.0 to item 7
    return np.stack([items[3], items[7], items[8], 1.01 * items[8]])


@pytest.mark.parametrize("class_aware, side", PAIR_CASES)
def test_triplet_gradient_is_the_boolean_mask_gradient_bit_for_bit(class_aware, side):
    bank, contents, _, labels = pair_rows(41, class_aware, side)
    p = side * side
    keys = bank.keys.copy()
    values = (bank.values_x.copy(), bank.values_y.copy())
    blocks = {"keys": [c.copy() for c in contents], "values": [c.copy() for c in contents]}
    spots = (slice(0, 4), slice(p - 4, p))  # the crafted rows of block x and of block y
    labels = tuple(lab.copy() for lab in labels)
    for b, spot in enumerate(spots):
        labels[b][spot] = BRANCH_LABELS
        blocks["keys"][b][spot] = triplet_branch_rows(keys)
        blocks["values"][b][spot] = triplet_branch_rows(values[b])
    key_blocks = tuple(map(encoded, blocks["keys"]))
    mask = address_blocks(bank, key_blocks, key_blocks, labels).mask
    for plane, items in (("keys", keys), ("values", values)):  # one items array shared, or one per block
        queries = tuple(blocks[plane])
        pair = triplet_loss(tuple(map(encoded, queries)), items, mask, BRANCH_MARGIN)
        items = items if isinstance(items, tuple) else (items, items)
        for b, spot in enumerate(spots):
            (single,) = triplet_loss((encoded(queries[b]),), items[b], mask[b * p:(b + 1) * p], BRANCH_MARGIN)
            for term in (pair[b], single):
                coef, scale = oracle_triplet_factors(
                    queries[b].tolist(), items[b].tolist(), term.positives, term.negatives, BRANCH_MARGIN
                )
                grad = term.gradient()
                assert grad.items is items[b]
                assert_same_bits(grad.coef, np.array(coef))
                assert_same_bits(grad.scale, np.array(scale))
            # the crafted rows reach the branches they were built for
            diff_pos = queries[b][spot] - items[b][single.positives[spot]]
            diff_neg = queries[b][spot] - items[b][single.negatives[spot]]
            d_pos, d_neg = np.linalg.norm(diff_pos, axis=1), np.linalg.norm(diff_neg, axis=1)
            assert (d_pos == 0.0).tolist() == [True, False, True, False]
            assert (d_neg == 0.0).tolist() == [False, True, False, False]
            assert (d_pos - d_neg + BRANCH_MARGIN > 0.0).tolist() == [True, True, False, False]
            assert np.signbit(diff_pos[1, 2]) and not np.signbit(diff_neg[1, 2])
