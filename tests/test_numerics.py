import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stylemem.encoder import LinearEncoder, TrainSettings, forward
from stylemem.errors import ShapeError
from stylemem.numerics import (
    ADAM_EPS,
    AdamState,
    Cosines,
    adam_step,
    cosine_matrix,
    dot_norms,
    l2_normalize_rows,
    make_rng,
    read_cosines,
    row_norms,
    softmax_cols,
    softmax_rows,
    split_rng,
)

from oracles import oracle_adam_scalar, oracle_cosine, oracle_softmax
from reference import cosine_rows, encoded, encoding

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def cosine_similarity(a, b):
    """Cosine of two vectors through the row-paired kernel."""
    return float(cosine_rows(np.atleast_2d(a), np.atleast_2d(b))[0])


def l2_normalize(v):
    """A vector through the row-wise normalization."""
    return l2_normalize_rows(np.atleast_2d(v))[0]


def small_matrices(max_side=6):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite))


# --- cosine similarity ---


def test_cosine_identical_unit_vectors():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_value():
    # (3,4).(4,3) = 24, norms 5 and 5 -> 24/25
    assert cosine_similarity(np.array([3.0, 4.0]), np.array([4.0, 3.0])) == pytest.approx(0.96, abs=1e-12)


def test_cosine_zero_vector_scores_zero():
    assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ShapeError):
        cosine_similarity(np.ones(3), np.ones(4))


@given(arrays(np.float64, 5, elements=finite), arrays(np.float64, 5, elements=finite))
def test_cosine_symmetric(a, b):
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)


@given(
    arrays(np.float64, 4, elements=finite),
    arrays(np.float64, 4, elements=finite),
    st.floats(min_value=1e-2, max_value=1e2),
)
def test_cosine_scale_invariant(a, b, lam):
    # the EPS_DIV guard perturbs the ratio by eps / (norm product), so keep
    # norms >= 1 to make the stated tolerance provable
    assume(np.linalg.norm(a) >= 1.0 and np.linalg.norm(b) >= 1.0)
    assert cosine_similarity(lam * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-9)


def test_cosine_matrix_matches_scalar():
    rng = make_rng(11)
    q = rng.standard_normal((4, 6))
    k = rng.standard_normal((5, 6))
    got = cosine_matrix((encoded(q),), k).sims
    for p in range(4):
        for n in range(5):
            assert got[p, n] == pytest.approx(oracle_cosine(q[p], k[n]), abs=1e-12)


def test_cosine_rows_paired():
    rng = make_rng(12)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    got = cosine_rows(a, b)
    for p in range(3):
        assert got[p] == pytest.approx(oracle_cosine(a[p], b[p]), abs=1e-12)


@pytest.mark.parametrize("p, n, c", [(7, 4, 3), (256, 20, 256)])
def test_read_cosines_are_the_cosines_of_the_formed_mixtures(p, n, c):
    rng = make_rng(13)
    values = rng.standard_normal((n, c))
    weights = softmax_cols(rng.standard_normal((n, p)))  # item-major, each column sums to 1
    targets = rng.standard_normal((p, c))
    targets[0] = weights[:, 0] @ values  # a target the read meets exactly
    got = read_cosines(weights, values @ values.T, values @ targets.T, dot_norms(targets))
    want = cosine_rows(weights.T @ values, targets)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert got.shape == (p,) and np.all(np.abs(got) <= 1.0)


def test_read_cosines_score_a_zero_mixture_zero():
    # two opposite value rows in equal parts mix to zero; in the second Gram
    # a.(G a) rounds below zero, which must not reach the square root
    values = np.array([[0.6, 0.8], [-0.6, -0.8]])
    weights = np.full((2, 1), 0.5)
    target = np.array([[1.0, 2.0]])
    dots = values @ target.T
    for gram in (values @ values.T, np.array([[1.0, -1.0 - 1e-15], [-1.0 - 1e-15, 1.0]])):
        assert float(weights[:, 0] @ gram @ weights[:, 0]) <= 0.0
        np.testing.assert_array_equal(read_cosines(weights, gram, dots, dot_norms(target)), [0.0])


# --- softmax ---


def test_softmax_rows_uniform():
    out = softmax_rows(np.zeros((1, 3)))
    np.testing.assert_allclose(out, np.full((1, 3), 1.0 / 3.0), atol=1e-15)


def test_softmax_rows_hand_value():
    out = softmax_rows(np.array([[1.0, 0.0]]))
    e = math.e
    np.testing.assert_allclose(out, [[e / (e + 1.0), 1.0 / (e + 1.0)]], atol=1e-12)
    np.testing.assert_allclose(out, [[0.731059, 0.268941]], atol=1e-6)


def test_softmax_rows_empty_rejected():
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros((2, 0)))


def test_softmax_rows_overflow_safe():
    out = softmax_rows(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.all(np.isfinite(out))
    assert out[0].sum() == pytest.approx(1.0, abs=1e-12)


@given(small_matrices())
@settings(max_examples=200)
def test_softmax_rows_stochastic(m):
    out = softmax_rows(m)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0.0)


@given(small_matrices(), st.floats(min_value=-30.0, max_value=30.0))
def test_softmax_rows_shift_invariant(m, c):
    np.testing.assert_allclose(softmax_rows(m + c), softmax_rows(m), atol=1e-12)


def test_softmax_cols_single_row():
    np.testing.assert_allclose(softmax_cols(np.array([[3.0, -2.0, 7.0]])), np.ones((1, 3)), atol=1e-15)


def test_softmax_cols_uniform():
    np.testing.assert_allclose(softmax_cols(np.zeros((2, 1))), np.full((2, 1), 0.5), atol=1e-15)


def test_softmax_cols_hand_value():
    out = softmax_cols(np.array([[2.0], [0.0]]))
    np.testing.assert_allclose(out[:, 0], [0.880797, 0.119203], atol=1e-6)
    np.testing.assert_allclose(out[:, 0], oracle_softmax([2.0, 0.0]), atol=1e-12)


@given(small_matrices())
def test_softmax_cols_stochastic(m):
    np.testing.assert_allclose(softmax_cols(m).sum(axis=0), 1.0, atol=1e-12)


# --- row norms ---

# rows of zeros, -0.0, subnormals, NaN, 1e200 (whose squares overflow) or anything else
special_floats = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, np.nan, 1e200, -1e200])
any_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=special_floats | any_floats)
))
@example(np.array([[0.0, 0.0], [-0.0, -0.0], [5e-324, 2.5e-310], [np.nan, 1.0], [1e200, 1.0]]))
@settings(max_examples=300)
def test_row_norms_are_linalg_norm_bit_for_bit(m):
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = row_norms(m), np.linalg.norm(m, axis=1)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@given(small_matrices(max_side=40))
def test_dot_norms_are_row_norms_to_the_last_bits(m):
    out = np.empty(len(m))
    assert dot_norms(m, out=out) is out
    np.testing.assert_allclose(out, row_norms(m), rtol=1e-14, atol=0.0)


# --- l2 normalization ---


def test_l2_normalize_hand_value():
    np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_l2_normalize_zero_guard():
    np.testing.assert_array_equal(l2_normalize(np.zeros(2)), np.zeros(2))


def test_l2_normalize_unit_fixed_point():
    u = np.array([0.6, 0.8])
    np.testing.assert_allclose(l2_normalize(u), u, atol=1e-15)


@given(arrays(np.float64, 6, elements=finite))
def test_l2_normalize_idempotent(v):
    once = l2_normalize(v)
    np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)


def test_l2_normalize_rows_mixed():
    m = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    out = l2_normalize_rows(m)
    np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 0.0], [0.0, 1.0]], atol=1e-15)


# --- adam ---


def test_adam_zero_gradient_bitwise_noop():
    rng = make_rng(3)
    param = rng.standard_normal((3, 2))
    state = AdamState.for_param(param.shape)
    out = adam_step(param, np.zeros_like(param), state, 0.05, 0.9, 0.999)
    np.testing.assert_array_equal(out, param)
    assert state.step_count == 1
    # stays a no-op on later zero-gradient steps as well
    out2 = adam_step(out, np.zeros_like(param), state, 0.05, 0.9, 0.999)
    np.testing.assert_array_equal(out2, param)


def test_adam_first_step_scalar_oracle():
    state = AdamState.for_param((1, 1))
    out = adam_step(np.array([[1.0]]), np.array([[1.0]]), state, 0.1, 0.9, 0.999)
    expected, *_ = oracle_adam_scalar(1.0, 1.0, 0.0, 0.0, 0, 0.9, 0.999, 1e-8, 0.1)
    assert out[0, 0] == pytest.approx(expected, abs=1e-15)
    assert out[0, 0] == pytest.approx(0.9, abs=1e-7)


def test_adam_matches_scalar_oracle_over_steps():
    rng = make_rng(4)
    param = np.array([[0.5]])
    state = AdamState.for_param((1, 1))
    p_ref, m_ref, v_ref, t_ref = 0.5, 0.0, 0.0, 0
    for _ in range(20):
        g = rng.standard_normal()
        param = adam_step(param, np.array([[g]]), state, 0.01, 0.9, 0.999)
        p_ref, m_ref, v_ref, t_ref = oracle_adam_scalar(p_ref, g, m_ref, v_ref, t_ref, 0.9, 0.999, 1e-8, 0.01)
        assert param[0, 0] == pytest.approx(p_ref, abs=1e-14)
    assert state.step_count == 20


def test_adam_is_the_one_expression_form_bit_for_bit():
    # adam_step builds its step in place; the textbook expression is the reference
    rng = make_rng(5)
    param = rng.standard_normal((16, 8))
    state = AdamState.for_param(param.shape)
    ref, m, v = param.copy(), np.zeros_like(param), np.zeros_like(param)
    lr, b1, b2 = 0.01, 0.9, 0.999
    for t in range(1, 51):
        grad = rng.standard_normal(param.shape) * 10.0 ** rng.integers(-6, 3)
        given = grad.copy()
        param = adam_step(param, grad, state, lr, b1, b2)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        ref = ref - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ADAM_EPS)
        np.testing.assert_array_equal(param, ref)
        np.testing.assert_array_equal(grad, given)
    np.testing.assert_array_equal(state.first_moment, m)
    np.testing.assert_array_equal(state.second_moment, v)


def test_adam_shape_mismatch():
    state = AdamState.for_param((2, 2))
    with pytest.raises(ShapeError):
        adam_step(np.zeros((2, 2)), np.zeros((3, 2)), state, 1e-3, 0.9, 0.999)


def test_adam_defaults():
    settings = TrainSettings()
    assert settings.adam_beta1 == 0.9
    assert settings.adam_beta2 == 0.999
    assert ADAM_EPS == 1e-8


# --- rng contract ---


def test_same_seed_same_stream():
    a = make_rng(123).standard_normal(8)
    b = make_rng(123).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_split_streams_differ_and_are_stable():
    a1 = split_rng(9, 0, 4).standard_normal(4)
    a2 = split_rng(9, 0, 4).standard_normal(4)
    b = split_rng(9, 0, 5).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# --- the encoding rule ---

BIASES = ("zero", "unit", "large", "cancelling")


@st.composite
def weights_and_rows(draw):
    """(encoder, inputs, items, bias kind) at Cin and C in 1-8, on both sides
    of C <= Cin. The weight's singular values lie in [0.5, 2]: the split's
    rounding grows with the condition of W.T W. With a zero bias, the last
    input row is zero, so its encoded row is zero; with a cancelling one,
    ``b = t - W x0`` for a random ``|t| = 1e-8``, so row 0 is ``t``."""
    c_in, c_out, p = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("zero", "unit", "large", "cancelling")))
    rng = split_rng(draw(st.integers(0, 2**20)), 17)
    k = min(c_in, c_out)
    left = np.linalg.qr(rng.standard_normal((c_out, k)))[0]
    right = np.linalg.qr(rng.standard_normal((c_in, k)))[0]
    weight = (left * rng.uniform(0.5, 2.0, k)) @ right.T
    inputs = rng.standard_normal((p, c_in))
    bias = {"zero": 0.0, "unit": 1.0, "large": 1e6, "cancelling": 0.0}[kind] * rng.standard_normal(c_out)
    if kind == "zero":
        inputs[-1] = 0.0
    if kind == "cancelling":
        toward = rng.standard_normal(c_out)
        bias = 1e-8 * toward / np.linalg.norm(toward) - weight @ inputs[0]
    return LinearEncoder(weight, bias), inputs, rng.standard_normal((3, c_out)), kind


def assert_within(got, want, tolerance):
    assert np.all(np.abs(got - want) <= tolerance), float(np.max(np.abs(got - want) - tolerance))


@pytest.mark.parametrize("out_channels", [5, 8, 16, 24], ids=lambda c: f"C={c}")
def test_an_encoding_stores_the_shape_of_its_rows(out_channels):
    # 5 and 8 form the rows (C <= Cin = 8); 16 and 24 widen and leave them to the affine
    rng = split_rng(5, out_channels)
    enc = LinearEncoder(rng.standard_normal((out_channels, 8)), rng.standard_normal(out_channels))
    got = encoding(enc, rng.standard_normal((12, 8)), rng.standard_normal((3, out_channels)))
    assert (got.rows is None) == (out_channels > 8)
    assert got.shape == got.formed().shape == (12, out_channels)
    fewer = replace(got, inputs=got.inputs[:7])
    assert fewer.shape == fewer.formed().shape
    if got.rows is not None:  # formed rows are what they are; replace them with the inputs
        fewer = replace(got, inputs=got.inputs[:7], rows=got.rows[:7])
    assert fewer.shape == fewer.formed().shape == (7, out_channels)


@given(weights_and_rows())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_encodings_take_dots_norms_and_folds_of_the_formed_rows(case):
    enc, inputs, items, kind = case
    got = encoding(enc, inputs, items)  # the rows formed where C <= Cin, else factored
    rows = forward(enc, inputs)
    assert (got.rows is None) == (enc.out_channels > enc.in_channels)
    np.testing.assert_array_equal(got.formed(), rows)
    # each row's rounding is relative to the parts it is made of, not to the row
    scale = np.linalg.norm(enc.weight) * np.linalg.norm(inputs, axis=1) + np.linalg.norm(enc.bias)
    assert_within(got.dots(items), items @ rows.T, 1e-12 * np.linalg.norm(items, axis=1)[:, None] * scale)
    assert_within(got.norms(), np.linalg.norm(rows, axis=1), 1e-12 * scale)
    beta = softmax_cols(np.arange(3.0 * len(inputs)).reshape(3, -1) % 4)
    assert_within(got.fold(beta), beta @ rows, 1e-12 * (beta @ scale)[:, None])
    if kind == "zero":  # a zero row scores 0, as a zero-feature query does
        assert got.norms()[-1] == 0.0
        assert np.all(Cosines.between((got,), (items,)).sims[-1] == 0.0)
    if kind == "cancelling":  # the tiny row's norm survives; the plain quadratic form loses it
        exact = np.asarray(inputs[0], np.longdouble) @ np.asarray(enc.weight, np.longdouble).T + enc.bias
        assert got.norms()[0] == pytest.approx(float(np.sqrt(np.sum(exact * exact))), rel=1e-6)
