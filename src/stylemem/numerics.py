"""Dense float64 kernels shared by every module.

Matrices throughout the package are plain 2-D ``numpy`` arrays of float64,
row-major. All functions here are pure except :func:`adam_step`, which
mutates its explicit state argument; nothing touches global state, and all
randomness flows through generators owned by the caller.

Row norms go through :func:`row_norms` (the bits of ``np.linalg.norm(m,
axis=1)`` without its conjugate copy), and :func:`adam_step` builds its step
in place in the textbook expression's operation order, so with its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# Guard added to cosine and normalization denominators. Zero-feature queries
# then score 0 against every key instead of dividing by zero.
EPS_DIV = 1e-12

ADAM_EPS = 1e-8


def _as_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    return m


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real 2-D array, (P,)."""
    return np.sqrt(np.add.reduce(m * m, axis=1))


class Cosines:
    """All-pairs cosine similarities of rows (P, C) against items (N, C),
    with the parts they are built from, so consumers of the raw dot
    products or the norms need no second pass.

    Unchecked: the caller passes 2-D float64 arrays of equal width.
    """

    __slots__ = ("row_norms", "item_norms", "dots", "denom", "sims")

    def __init__(self, rows: np.ndarray, items: np.ndarray):
        self.row_norms = row_norms(rows)  # (P,)
        self.item_norms = row_norms(items)  # (N,)
        self.dots = rows @ items.T  # (P, N)
        self.denom = np.outer(self.row_norms, self.item_norms) + EPS_DIV  # (P, N)
        self.sims = np.clip(self.dots / self.denom, -1.0, 1.0)  # (P, N), in [-1, 1]


def cosine_matrix(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarities, (P, C) x (N, C) -> (P, N)."""
    queries = _as_matrix(queries, "queries")
    keys = _as_matrix(keys, "keys")
    if queries.shape[1] != keys.shape[1]:
        raise ShapeError(f"channel mismatch: {queries.shape[1]} vs {keys.shape[1]}")
    return Cosines(queries, keys).sims


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-paired cosine similarities of two equally shaped matrices, (P,)."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"row-paired cosine needs equal shapes, got {a.shape} and {b.shape}")
    denom = row_norms(a) * row_norms(b) + EPS_DIV
    return np.clip(np.einsum("ij,ij->i", a, b) / denom, -1.0, 1.0)


def _softmax(m: np.ndarray, mask: np.ndarray | None, axis: int) -> np.ndarray:
    m = _as_matrix(m, "softmax input")
    if mask is not None:
        m = np.where(mask, m, -np.inf)
    peak = m.max(axis=axis, keepdims=True)
    e = np.exp(m - np.where(peak == -np.inf, 0.0, peak))
    total = e.sum(axis=axis, keepdims=True)
    return e / np.where(total == 0.0, 1.0, total)


def softmax_rows(m: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction; each output row sums to 1.

    Entries where ``mask`` is False get weight 0 (logit -inf); a row with no
    True entry is all zero.
    """
    return _softmax(m, mask, axis=1)


def softmax_cols(m: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Column-wise softmax, masked as in :func:`softmax_rows`."""
    return _softmax(m, mask, axis=0)


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization; zero rows pass through unchanged."""
    m = _as_matrix(m, "l2_normalize_rows input")
    norms = row_norms(m)[:, None]
    safe = np.where(norms <= EPS_DIV, 1.0, norms)
    return m / safe


@dataclass
class AdamState:
    """Adam moment buffers for one parameter array.

    ``step_count`` increases by exactly one per :func:`adam_step`.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_param(cls, shape: tuple[int, ...]) -> "AdamState":
        return cls(np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64))


def adam_step(
    param: np.ndarray, grad: np.ndarray, state: AdamState, learning_rate: float, beta1: float, beta2: float
) -> np.ndarray:
    """One bias-corrected Adam update with ``ADAM_EPS``; returns the new
    parameter array.

    The moment buffers and step count in ``state`` are updated in place;
    ``param`` itself is left untouched.
    """
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    state.step_count += 1
    t = state.step_count
    state.first_moment *= beta1
    state.first_moment += (1.0 - beta1) * grad
    state.second_moment *= beta2
    grad_sq = (1.0 - beta2) * grad
    grad_sq *= grad
    state.second_moment += grad_sq
    # param - learning_rate * m_hat / (sqrt(v_hat) + ADAM_EPS), in that order
    step = state.first_moment / (1.0 - beta1**t)
    step *= learning_rate
    denom = np.divide(state.second_moment, 1.0 - beta2**t, out=grad_sq)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    return param - step


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the same seed yields the same stream."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def split_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for (seed, key).

    This is the package's one stream-splitting rule: a child generator is
    ``default_rng(SeedSequence(seed, spawn_key=key))``, so any (seed, key)
    pair names the same stream in every process.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
