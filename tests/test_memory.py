import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stylemem.errors import EmptyClusterError, LayoutError, ShapeError, StylememError, ValidationError
from stylemem.memory import (
    POOLED_CLASS_ID,
    LayoutEntry,
    MemoryBank,
    MemoryLayout,
    address_blocks,
    init_bank,
    load_bank,
    read,
    read_backward,
    read_global,
    save_bank,
    update,
)
from stylemem.numerics import l2_normalize_rows, make_rng, softmax_cols, softmax_rows, split_rng

from oracles import oracle_read, oracle_read_global, oracle_update
from reference import (
    PAIR_CASES, address_one, assert_same_bits, assignment_weights, dense_gradient, pair_rows, read_global_one, span,
)

TOY_COUNTS = [(1, 3), (2, 2), (3, 2), (0, 3)]


def make_cluster(bank, rng, class_id, size):
    """Random query rows of one class, addressing that class's partition."""
    content = rng.standard_normal((size, bank.channels))
    style = rng.standard_normal((size, bank.channels))
    return class_queries(bank, class_id, content, style)


def class_queries(bank, class_id, content, style):
    return address_one(bank, content, style, np.full(len(content), class_id))


def random_bank(rng, counts, channels):
    return init_bank(MemoryLayout.from_counts(counts), channels, rng)


# --- layout ---


def test_layout_from_counts():
    layout = MemoryLayout.from_counts(TOY_COUNTS)
    assert layout.n_items == 10
    assert span(layout, 2) == (3, 2)
    assert layout.class_ids == (1, 2, 3, 0)


def test_layout_rejects_zero_count():
    with pytest.raises(LayoutError):
        MemoryLayout.from_counts([(0, 3), (1, 0)])


def test_layout_rejects_duplicate_class():
    with pytest.raises(LayoutError):
        MemoryLayout.from_counts([(0, 3), (0, 2)])


@pytest.mark.parametrize(
    "entry", [(1.9, 3.7), (1, "2"), (0, True), (True, 2), ("a", 2), (1,), (1, 2, 3), 5, None], ids=repr
)
def test_layout_from_counts_takes_only_pairs_of_integers(entry):
    with pytest.raises(LayoutError, match=f"^layout entry {re.escape(repr(entry))} is not"):
        MemoryLayout.from_counts([(0, 3), entry])


def test_layout_from_counts_takes_tuple_and_list_pairs():
    layout = MemoryLayout.from_counts([(1, 2), [0, 3]])
    assert layout.entries == (LayoutEntry(1, 0, 2), LayoutEntry(0, 2, 3))


def test_layout_unknown_class():
    layout = MemoryLayout.from_counts(TOY_COUNTS)
    with pytest.raises(LayoutError):
        span(layout, 9)


# --- init ---


def test_init_bank_full_scale_layout():
    # car/person/sign 5/3/2 plus background 10 gives N=20
    layout = MemoryLayout.from_counts([(1, 5), (2, 3), (3, 2), (0, 10)])
    bank = init_bank(layout, 256, make_rng(0))
    assert bank.n_items == 20
    assert bank.channels == 256
    for plane in (bank.keys, bank.values_x, bank.values_y):
        np.testing.assert_allclose(np.linalg.norm(plane, axis=1), 1.0, atol=1e-12)


def test_init_bank_smallest():
    bank = init_bank(MemoryLayout.from_counts([(0, 1)]), 2, make_rng(1))
    assert bank.keys.shape == (1, 2)
    assert np.linalg.norm(bank.keys[0]) == pytest.approx(1.0, abs=1e-12)


def test_init_bank_deterministic():
    layout = MemoryLayout.from_counts(TOY_COUNTS)
    a = init_bank(layout, 8, make_rng(42))
    b = init_bank(layout, 8, make_rng(42))
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.values_x, b.values_x)
    np.testing.assert_array_equal(a.values_y, b.values_y)


def test_init_bank_bad_channels():
    with pytest.raises(ShapeError):
        init_bank(MemoryLayout.from_counts([(0, 1)]), 0, make_rng(0))


# --- item-major storage ---


def assert_item_major_view(view, shape):
    """``view`` is the (P, N) transpose of a C-contiguous (N, P) array."""
    stored = view.base
    assert view.shape == shape and stored.shape == shape[::-1]
    assert stored.flags.c_contiguous
    assert view.strides == stored.strides[::-1] and np.shares_memory(view, stored)
    np.testing.assert_array_equal(view, stored.T)


@pytest.mark.parametrize("counts", [TOY_COUNTS, [(POOLED_CLASS_ID, 10)]])
def test_address_stores_query_item_arrays_item_major(counts):
    rng = make_rng(26)
    bank = random_bank(rng, counts, 6)
    labels = rng.choice([1, 2, 3, 0], size=40)
    queries = address_one(bank, rng.standard_normal((40, 6)), rng.standard_normal((40, 6)), labels)
    shape = (40, bank.n_items)
    cos = queries.cosines
    for view in (queries.mask, queries.weights, queries.sims, cos.dots, cos.denom, cos.sims):
        assert_item_major_view(view, shape)
    if counts == TOY_COUNTS:
        np.testing.assert_array_equal(queries.mask, labels[:, None] == bank.layout.item_classes)
    else:
        assert queries.mask.all()
    assert read(bank, queries, "x").weights is queries.weights
    assert_item_major_view(read_global(bank, (queries.content,), ("y",), queries.sims)[0].weights, shape)
    assert_item_major_view(read_global_one(bank, queries.content, "y").weights, shape)
    assert_item_major_view(assignment_weights(queries), shape)


# --- scene-pair storage ---


def assert_pair_views(x_view, y_view, shape):
    """The (P, N) views are the transposes of columns [0, P) and [P, 2P) of
    one C-contiguous (N, 2P) array."""
    stored = x_view.base
    p, n = shape
    assert y_view.base is stored and stored.flags.c_contiguous and stored.shape == (n, 2 * p)
    for view, cols in ((x_view, slice(0, p)), (y_view, slice(p, 2 * p))):
        assert view.shape == shape and view.T.strides == stored.strides
        assert view.T.ctypes.data == stored[:, cols].ctypes.data


@pytest.mark.parametrize("class_aware, side", PAIR_CASES)
def test_address_blocks_is_two_one_block_calls_bit_for_bit(class_aware, side):
    bank, contents, styles, labels = pair_rows(27, class_aware, side)
    mask, cosines, pair = address_blocks(bank, contents, styles, labels)
    shape = (side * side, bank.n_items)
    assert mask.T.flags.c_contiguous and mask.shape == (2 * shape[0], shape[1])
    assert cosines.columns == (slice(0, shape[0]), slice(shape[0], 2 * shape[0]))
    qx, qy = pair
    for name in ("mask", "weights", "sims"):
        assert_pair_views(getattr(qx, name), getattr(qy, name), shape)
    for name in ("dots", "denom", "sims"):
        assert_pair_views(getattr(qx.cosines, name), getattr(qy.cosines, name), shape)
    assert qx.mask.base is mask.base and qx.sims.base is cosines.sims.base
    reads = read_global(bank, contents, ("x", "y"), cosines.sims)  # one test-time softmax
    assert_pair_views(reads[0].weights, reads[1].weights, shape)
    with pytest.raises(ShapeError, match="sims"):
        read_global(bank, contents, ("x", "y"), qx.sims)
    for d, queries, content, style, block_labels, pair_read in zip("xy", pair, contents, styles, labels, reads):
        single = address_one(bank, content, style, block_labels)
        assert_same_bits(pair_read.weights, read_global(bank, (content,), (d,), queries.sims)[0].weights)
        assert_same_bits(pair_read.aggregated_style, read_global_one(bank, content, d).aggregated_style)
        for name in ("content", "style", "mask", "weights"):
            assert_same_bits(getattr(queries, name), getattr(single, name))
        for name in ("dots", "denom", "sims", "row_norms", "item_norms"):
            assert_same_bits(getattr(queries.cosines, name), getattr(single.cosines, name))
        g_weights = make_rng(28).standard_normal((bank.n_items, len(content)))
        assert_same_bits(read(bank, queries, d).aggregated_style, read(bank, single, d).aggregated_style)
        through_pair, through_single = (read_backward(bank, q, g_weights) for q in (queries, single))
        assert through_pair.items is through_single.items is bank.keys
        assert_same_bits(through_pair.coef, through_single.coef)
        assert_same_bits(through_pair.scale, through_single.scale)
        assert_same_bits(assignment_weights(queries), assignment_weights(single))


@pytest.mark.parametrize("class_aware, side", PAIR_CASES)
def test_update_on_the_pair_storage_is_update_on_separate_query_sets(class_aware, side):
    bank, contents, styles, labels = pair_rows(29, class_aware, side)
    _, _, (qx, qy) = address_blocks(bank, contents, styles, labels)
    separate = [address_one(bank, *rows) for rows in zip(contents, styles, labels)]
    got, want = update(bank, qx, qy), update(bank, *separate)
    for plane in ("keys", "values_x", "values_y"):
        assert_same_bits(getattr(got, plane), getattr(want, plane))


def test_item_classes_are_computed_once_and_read_only():
    layout = MemoryLayout.from_counts(TOY_COUNTS)
    assert layout.item_classes is layout.item_classes
    np.testing.assert_array_equal(layout.item_classes, [1, 1, 1, 2, 2, 3, 3, 0, 0, 0])
    with pytest.raises(ValueError):
        layout.item_classes[0] = 7


# Logits on a quarter-step grid: exact ties are common (the first item wins
# them) and unequal logits are far enough apart that no rounding reorders them.
grid_logits = st.integers(1, 24).flatmap(
    lambda n: arrays(
        np.float64, st.tuples(st.integers(1, 40), st.just(n)),
        elements=st.integers(-24, 24).map(lambda k: k / 4),
    )
)


@given(grid_logits, st.data())
@settings(max_examples=200, deadline=None)
def test_softmax_rows_agrees_on_item_major_views(m, data):
    p, n = m.shape
    # any mask, fully masked rows included
    mask = data.draw(arrays(np.bool_, (p, n)))
    stored, stored_mask = np.ascontiguousarray(m.T), np.ascontiguousarray(mask.T)
    dense = softmax_rows(m, mask)
    viewed = softmax_rows(stored.T, stored_mask.T)
    # the two layouts sum a row's n weights in different orders
    np.testing.assert_allclose(viewed, dense, rtol=1e-15 * n, atol=0.0)
    np.testing.assert_array_equal(np.argmax(viewed, axis=1), np.argmax(dense, axis=1))
    np.testing.assert_array_equal(viewed, softmax_cols(stored, stored_mask).T)
    assert viewed.T.flags.c_contiguous
    np.testing.assert_array_equal(dense[~mask.any(axis=1)], 0.0)


# --- read ---


def test_read_single_item_partition():
    rng = make_rng(5)
    bank = random_bank(rng, [(0, 1), (1, 4)], 6)
    cluster = make_cluster(bank, rng, 0, 3)
    result = read(bank, cluster, "x")
    np.testing.assert_allclose(result.weights[:, 0], 1.0, atol=1e-15)
    np.testing.assert_array_equal(result.weights[:, 1:], 0.0)
    for p in range(3):
        np.testing.assert_allclose(result.aggregated_style[p], bank.values_y[0], atol=1e-15)


def test_read_identical_keys_uniform():
    rng = make_rng(6)
    bank = random_bank(rng, [(7, 4)], 5)
    bank.keys[:] = bank.keys[0]
    cluster = make_cluster(bank, rng, 7, 2)
    result = read(bank, cluster, "y")
    np.testing.assert_allclose(result.weights, 0.25, atol=1e-12)
    expected = bank.values_x.mean(axis=0)
    for p in range(2):
        np.testing.assert_allclose(result.aggregated_style[p], expected, atol=1e-12)


def test_read_two_key_hand_case():
    # query (1,0) against keys (1,0) and (0,1): cosines 1 and 0
    layout = MemoryLayout.from_counts([(0, 2)])
    keys = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = l2_normalize_rows(np.array([[0.3, 0.7], [0.9, -0.1]]))
    bank = MemoryBank(keys, values.copy(), values[::-1].copy(), layout)
    cluster = class_queries(bank, 0, np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    result = read(bank, cluster, "x")
    np.testing.assert_allclose(result.weights[0], [0.731059, 0.268941], atol=1e-6)
    expected = 0.7310585786300049 * bank.values_y[0] + 0.2689414213699951 * bank.values_y[1]
    np.testing.assert_allclose(result.aggregated_style[0], expected, atol=1e-9)


def test_read_rejects_unknown_class_and_empty_cluster():
    rng = make_rng(7)
    bank = random_bank(rng, TOY_COUNTS, 4)
    with pytest.raises(LayoutError):
        read(bank, make_cluster(bank, rng, 9, 2), "x")
    empty = class_queries(bank, 1, np.zeros((0, 4)), np.zeros((0, 4)))
    with pytest.raises(EmptyClusterError):
        read(bank, empty, "x")



def test_reads_reject_an_unknown_domain_with_a_package_error():
    rng = make_rng(7)
    bank = random_bank(rng, TOY_COUNTS, 4)
    cluster = make_cluster(bank, rng, 1, 2)
    calls = [
        lambda: read(bank, cluster, "z"),
        lambda: read_global_one(bank, cluster.content, "z"),
        lambda: read_global(bank, (cluster.content, cluster.content), ("x", "z"), np.zeros((4, bank.n_items))),
    ]
    for call in calls:
        with pytest.raises(StylememError, match="domain must be 'x' or 'y', got 'z'"):
            call()


def test_read_direction_picks_cross_domain_values():
    rng = make_rng(8)
    bank = random_bank(rng, [(0, 3)], 4)
    cluster = make_cluster(bank, rng, 0, 2)
    rx = read(bank, cluster, "x")
    ry = read(bank, cluster, "y")
    np.testing.assert_array_equal(rx.weights, ry.weights)
    assert rx.values is bank.values_y and ry.values is bank.values_x
    np.testing.assert_allclose(rx.aggregated_style, rx.weights[:, :3] @ bank.values_y, atol=1e-15)
    np.testing.assert_allclose(ry.aggregated_style, ry.weights[:, :3] @ bank.values_x, atol=1e-15)


def test_read_global_single_item():
    rng = make_rng(9)
    bank = random_bank(rng, [(0, 1)], 4)
    result = read_global_one(bank, rng.standard_normal((3, 4)), "x")
    np.testing.assert_allclose(result.weights, 1.0, atol=1e-15)
    for p in range(3):
        np.testing.assert_allclose(result.aggregated_style[p], bank.values_y[0], atol=1e-15)


def test_read_global_argmax_on_matching_basis_vector():
    layout = MemoryLayout.from_counts([(0, 1), (1, 1), (2, 1)])
    keys = np.eye(3)
    bank = MemoryBank(keys.copy(), keys.copy(), keys.copy(), layout)
    result = read_global_one(bank, np.array([[1.0, 0.0, 0.0]]), "x")
    assert int(np.argmax(result.weights[0])) == 0


def test_read_matches_read_global_for_single_partition():
    rng = make_rng(10)
    bank = random_bank(rng, [(0, 6)], 5)
    cluster = make_cluster(bank, rng, 0, 4)
    a = read(bank, cluster, "x")
    b = read_global_one(bank, cluster.content, "x")
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.aggregated_style, b.aggregated_style)


def test_read_row_stochastic_and_partition_support():
    for seed in range(30):
        rng = split_rng(100, seed)
        counts = [(0, int(rng.integers(1, 5))), (1, int(rng.integers(1, 5)))]
        channels = int(rng.integers(1, 8))
        bank = random_bank(rng, counts, channels)
        cid = int(rng.integers(0, 2))
        cluster = make_cluster(bank, rng, cid, int(rng.integers(1, 6)))
        result = read(bank, cluster, "x")
        np.testing.assert_allclose(result.weights.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(result.weights >= 0.0)
        offset, count = span(bank.layout, cid)
        outside = np.delete(result.weights, np.s_[offset : offset + count], axis=1)
        np.testing.assert_array_equal(outside, 0.0)
        # convex mixing keeps every aggregated coordinate inside the
        # addressed value rows' range
        addressed = bank.values_y[offset : offset + count]
        assert np.all(result.aggregated_style <= addressed.max(axis=0) + 1e-12)
        assert np.all(result.aggregated_style >= addressed.min(axis=0) - 1e-12)


# --- oracle equivalence ---


def test_read_and_update_match_scalar_oracle():
    for seed in range(25):
        rng = split_rng(200, seed)
        n_a = int(rng.integers(1, 5))
        n_b = int(rng.integers(1, 5))
        channels = int(rng.integers(1, 9))
        bank = random_bank(rng, [(0, n_a), (1, n_b)], channels)
        cid, offset, count = (0, 0, n_a) if rng.random() < 0.5 else (1, n_a, n_b)
        p = int(rng.integers(1, 9))
        cluster = make_cluster(bank, rng, cid, p)
        domain = "x" if rng.random() < 0.5 else "y"

        got = read(bank, cluster, domain)
        w_ref, s_ref = oracle_read(
            bank.keys.tolist(), bank.values_x.tolist(), bank.values_y.tolist(),
            offset, count, cluster.content.tolist(), domain,
        )
        np.testing.assert_allclose(got.weights, w_ref, atol=1e-9)
        np.testing.assert_allclose(got.aggregated_style, s_ref, atol=1e-9)

        queries = rng.standard_normal((p, channels))
        got_g = read_global_one(bank, queries, domain)
        w_ref, s_ref = oracle_read_global(
            bank.keys.tolist(), bank.values_x.tolist(), bank.values_y.tolist(),
            queries.tolist(), domain,
        )
        np.testing.assert_allclose(got_g.weights, w_ref, atol=1e-9)
        np.testing.assert_allclose(got_g.aggregated_style, s_ref, atol=1e-9)

        cx = make_cluster(bank, rng, cid, int(rng.integers(0, 4)))
        cy = make_cluster(bank, rng, cid, int(rng.integers(0, 4)))
        updated = update(bank, cx, cy)
        k_ref, vx_ref, vy_ref = oracle_update(
            bank.keys.tolist(), bank.values_x.tolist(), bank.values_y.tolist(),
            offset, count,
            cx.content.tolist(), cx.style.tolist(),
            cy.content.tolist(), cy.style.tolist(),
        )
        np.testing.assert_allclose(updated.keys, k_ref, atol=1e-9)
        np.testing.assert_allclose(updated.values_x, vx_ref, atol=1e-9)
        np.testing.assert_allclose(updated.values_y, vy_ref, atol=1e-9)


# --- read_backward ---


def _fd_query_gradient(bank, cluster, domain, upstream, step=1e-6):
    labels = bank.layout.item_classes[np.argmax(cluster.mask, axis=1)]
    grad = np.zeros_like(cluster.content)
    for p in range(cluster.content.shape[0]):
        for c in range(cluster.content.shape[1]):
            for sign in (1.0, -1.0):
                content = cluster.content.copy()
                content[p, c] += sign * step
                bumped = address_one(bank, content, cluster.style, labels)
                value = float(np.sum(read(bank, bumped, domain).aggregated_style * upstream))
                grad[p, c] += sign * value / (2.0 * step)
    return grad


def through_mixture(bank, cluster, domain, upstream):
    """``read_backward`` of the loss ``sum(aggregated_style * upstream)``:
    its gradient at the read weights is ``V @ upstream.T``."""
    return read_backward(bank, cluster, read(bank, cluster, domain).values @ upstream.T)


def test_read_backward_zero_upstream():
    rng = make_rng(13)
    bank = random_bank(rng, [(0, 4)], 5)
    cluster = make_cluster(bank, rng, 0, 3)
    grad = dense_gradient(read_backward(bank, cluster, np.zeros((4, 3))), cluster.content)
    np.testing.assert_array_equal(grad, np.zeros((3, 5)))


def test_read_backward_single_item_constant_path():
    rng = make_rng(14)
    bank = random_bank(rng, [(0, 1)], 5)
    cluster = make_cluster(bank, rng, 0, 3)
    grad = dense_gradient(through_mixture(bank, cluster, "x", rng.standard_normal((3, 5))), cluster.content)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_read_backward_matches_finite_differences():
    rng = make_rng(15)
    bank = random_bank(rng, [(0, 4), (1, 3)], 5)
    cluster = make_cluster(bank, rng, 0, 3)
    upstream = rng.standard_normal((3, 5))
    analytic = dense_gradient(through_mixture(bank, cluster, "x", upstream), cluster.content)
    fd = _fd_query_gradient(bank, cluster, "x", upstream)
    rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    assert float(rel.max()) <= 1e-5


def test_read_backward_shape_check():
    rng = make_rng(16)
    bank = random_bank(rng, [(0, 4)], 5)
    cluster = make_cluster(bank, rng, 0, 3)
    for shape in ((3, 4), (4, 2), (3, 5)):  # (P, N), too few queries, the old (P, C) upstream
        with pytest.raises(ShapeError, match=re.escape(f"g_weights shape {shape}, expected (4, 3)")):
            read_backward(bank, cluster, np.zeros(shape))


# --- update ---


def test_update_single_query_single_item():
    layout = MemoryLayout.from_counts([(0, 1)])
    bank = MemoryBank(
        np.array([[1.0, 0.0]]),
        np.array([[0.0, 1.0]]),
        np.array([[1.0, 0.0]]),
        layout,
    )
    cx = class_queries(bank, 0, np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]))
    cy = class_queries(bank, 0, np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))
    updated = update(bank, cx, cy)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(updated.keys[0], [inv_sqrt2, inv_sqrt2], atol=1e-12)


def test_update_both_empty_is_noop():
    rng = make_rng(17)
    bank = random_bank(rng, TOY_COUNTS, 4)
    empty = class_queries(bank, 1, np.zeros((0, 4)), np.zeros((0, 4)))
    updated = update(bank, empty, None)
    np.testing.assert_array_equal(updated.keys, bank.keys)
    np.testing.assert_array_equal(updated.values_x, bank.values_x)
    np.testing.assert_array_equal(updated.values_y, bank.values_y)


def test_update_one_empty_domain_leaves_its_plane():
    rng = make_rng(18)
    bank = random_bank(rng, [(0, 3)], 4)
    cx = make_cluster(bank, rng, 0, 2)
    updated = update(bank, cx, None)
    np.testing.assert_array_equal(updated.values_y, bank.values_y)
    assert not np.array_equal(updated.keys, bank.keys)
    assert not np.array_equal(updated.values_x, bank.values_x)


def test_update_domains_may_address_different_partitions():
    rng = make_rng(19)
    bank = random_bank(rng, TOY_COUNTS, 4)
    updated = update(bank, make_cluster(bank, rng, 1, 2), make_cluster(bank, rng, 2, 2))
    (off_1, n_1), (off_2, n_2) = span(bank.layout, 1), span(bank.layout, 2)
    touched = np.zeros(bank.n_items, dtype=bool)
    touched[off_1 : off_1 + n_1] = touched[off_2 : off_2 + n_2] = True
    assert not np.any(np.all(updated.keys[touched] == bank.keys[touched], axis=1))
    np.testing.assert_array_equal(updated.keys[~touched], bank.keys[~touched])
    # each value plane moves only where its own domain's queries point
    np.testing.assert_array_equal(updated.values_x[off_2 : off_2 + n_2], bank.values_x[off_2 : off_2 + n_2])
    np.testing.assert_array_equal(updated.values_y[off_1 : off_1 + n_1], bank.values_y[off_1 : off_1 + n_1])
    assert not np.array_equal(updated.values_x[off_1 : off_1 + n_1], bank.values_x[off_1 : off_1 + n_1])
    assert not np.array_equal(updated.values_y[off_2 : off_2 + n_2], bank.values_y[off_2 : off_2 + n_2])


def test_pooled_bank_is_addressed_whatever_the_labels():
    rng = make_rng(25)
    bank = random_bank(rng, [(POOLED_CLASS_ID, 5)], 4)
    content, style = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    for labels in (np.full(6, POOLED_CLASS_ID), np.array([0, 1, 2, 3, 7, -5])):
        queries = address_one(bank, content, style, labels)
        np.testing.assert_array_equal(queries.mask, np.ones((6, 5), dtype=bool))
    with pytest.raises(ShapeError, match="labels"):
        address_one(bank, content, style, np.zeros(5))


def test_malformed_cluster_rejected():
    rng = make_rng(24)
    bank = random_bank(rng, TOY_COUNTS, 4)
    with pytest.raises(ShapeError, match="style"):
        address_one(bank, rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), np.ones(3))
    with pytest.raises(ShapeError, match="labels"):
        address_one(bank, rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), np.ones(2))
    queries = make_cluster(bank, rng, 1, 3)
    queries.cosines.sims = queries.sims[:, :4]
    with pytest.raises(ShapeError, match="sims"):
        update(bank, queries, None)


def test_update_untouched_partitions_and_unit_norms():
    rng = make_rng(20)
    bank = random_bank(rng, TOY_COUNTS, 6)
    cx = make_cluster(bank, rng, 2, 4)
    cy = make_cluster(bank, rng, 2, 3)
    updated = update(bank, cx, cy)
    offset, count = span(bank.layout, 2)
    mask = np.ones(bank.n_items, dtype=bool)
    mask[offset : offset + count] = False
    np.testing.assert_array_equal(updated.keys[mask], bank.keys[mask])
    np.testing.assert_array_equal(updated.values_x[mask], bank.values_x[mask])
    np.testing.assert_array_equal(updated.values_y[mask], bank.values_y[mask])
    for plane in (updated.keys, updated.values_x, updated.values_y):
        np.testing.assert_allclose(
            np.linalg.norm(plane[offset : offset + count], axis=1), 1.0, atol=1e-9
        )


def test_assignment_weights_column_stochastic():
    for seed in range(20):
        rng = split_rng(300, seed)
        channels = int(rng.integers(1, 8))
        count = int(rng.integers(1, 6))
        bank = random_bank(rng, [(0, count)], channels)
        cluster = make_cluster(bank, rng, 0, int(rng.integers(1, 7)))
        beta = assignment_weights(cluster)
        assert beta.shape == (cluster.size, count)
        np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-9)
    # with several partitions, items no query addresses get all-zero columns
    rng = split_rng(300, 99)
    bank = random_bank(rng, TOY_COUNTS, 5)
    beta = assignment_weights(make_cluster(bank, rng, 2, 4))
    offset, count = span(bank.layout, 2)
    np.testing.assert_allclose(beta[:, offset : offset + count].sum(axis=0), 1.0, atol=1e-9)
    np.testing.assert_array_equal(np.delete(beta, np.s_[offset : offset + count], axis=1), 0.0)


# --- persistence ---


def test_save_load_round_trip_bitwise(tmp_path):
    rng = make_rng(21)
    bank = random_bank(rng, [(1, 5), (2, 3), (3, 2), (0, 10)], 256)
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    loaded = load_bank(path)
    np.testing.assert_array_equal(loaded.keys, bank.keys)
    np.testing.assert_array_equal(loaded.values_x, bank.values_x)
    np.testing.assert_array_equal(loaded.values_y, bank.values_y)
    assert loaded.layout == bank.layout
    # saving the loaded bank reproduces the exact same bytes
    path2 = tmp_path / "bank2.json"
    save_bank(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_layout_count_mismatch(tmp_path):
    rng = make_rng(22)
    bank = random_bank(rng, [(0, 2), (1, 2)], 3)
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    text = path.read_text().replace('{"class": 1, "count": 2}', '{"class": 1, "count": 3}')
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_bank(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text('{"version": 1,')
    with pytest.raises(ValidationError, match="line"):
        load_bank(path)


def test_load_rejects_wrong_version(tmp_path):
    rng = make_rng(23)
    bank = random_bank(rng, [(0, 1)], 2)
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    path.write_text(path.read_text().replace('"version": 1', '"version": 7'))
    with pytest.raises(ValidationError, match="version"):
        load_bank(path)


def test_load_rejects_non_unit_rows(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(
        '{"version": 1, "channels": 2, "layout": [{"class": 0, "count": 1}],'
        ' "keys": [[3.0, 4.0]], "values_x": [[1.0, 0.0]], "values_y": [[0.0, 1.0]]}'
    )
    with pytest.raises(ValidationError, match="unit norm"):
        load_bank(path)
