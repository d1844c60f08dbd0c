"""Item-separation objectives over memory items, with hand-derived gradients.

Both losses pick each query's positive as the cosine-nearest item inside a
caller-supplied pool (its class partition during class-aware training, the
whole bank otherwise): a masked argmax over the query-item cosine matrix.
They treat the items as constants: gradients flow into the queries only.

The pools, cosines and logits are used item-major, as (N, P) arrays (see
:mod:`stylemem.numerics`): the argmax and the log-sum-exp over each query's
items run along axis 0, and a sum over items adds whole contiguous P-vectors.
Callers pass (P, N) pools and cosines; the transposed views of item-major
storage that :func:`stylemem.memory.address` makes are the fast case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PoolError, ShapeError
from .numerics import Cosines, row_norms

# Selection switches are non-differentiable; distances below this are treated
# as an exact hit and contribute no gradient.
_DIST_FLOOR = 1e-12


@dataclass
class LossTerm:
    """One loss evaluation: scalar value, per-query positives and, for the
    triplet loss, per-query negatives.

    The query gradient is computed only when ``gradient()`` is called, so a
    caller that needs only the value never pays for it. Each call returns a
    new array, which the caller owns.
    """

    value: float
    positives: np.ndarray
    gradient: Callable[[], np.ndarray] = field(repr=False, compare=False)
    negatives: np.ndarray | None = None


def _inputs(queries, items, positive_pool, cosines) -> tuple[np.ndarray, Cosines]:
    """The positive pool as a validated item-major (N, P) mask, and the query-item cosines."""
    if queries.ndim != 2 or items.ndim != 2 or queries.shape[1] != items.shape[1]:
        raise ShapeError(f"queries {queries.shape} and items {items.shape} must share channels")
    shape = (queries.shape[0], items.shape[0])
    pool = np.asarray(positive_pool)
    if pool.dtype != bool:
        indices = pool.astype(np.intp).ravel()
        if indices.size and (indices.min() < 0 or indices.max() >= shape[1]):
            raise PoolError(f"positive pool indices out of range for {shape[1]} items")
        pool = np.zeros(shape[1], dtype=bool)
        pool[indices] = True
    by_item = np.broadcast_to(pool, shape).T if pool.shape in (shape, shape[1:]) else None
    if by_item is None or not by_item.any(axis=0).all():
        raise PoolError(f"positive pool {pool.shape} is empty or does not fit {shape}")
    if 0 in queries.shape:
        raise ShapeError(f"queries must be a non-empty 2-D array, got shape {queries.shape}")
    if cosines is None:
        cosines = Cosines(queries, items)
    elif cosines.sims.shape != shape or cosines.dots.shape != shape:
        raise ShapeError(f"cosines shape {cosines.sims.shape}, expected {shape}")
    return by_item, cosines


def contrastive_loss(
    queries: np.ndarray,
    items: np.ndarray,
    positive_pool,
    temperature: float = 0.1,
    cosines: Cosines | None = None,
) -> LossTerm:
    """Softmax loss over temperature-scaled dot products against all items.

    Each query's positive is its cosine-nearest pool item; the denominator
    runs over every item, so all non-positives act as negatives. With a
    single item the loss is exactly zero. ``positive_pool`` holds item
    indices shared by every query, or is a (P, N) boolean mask giving each
    query its own pool. ``cosines`` is ``Cosines(queries, items)`` when
    the caller already has it; the cosines pick the positives and their dot
    products are the logits.
    """
    queries = np.asarray(queries, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    pool, cosines = _inputs(queries, items, positive_pool, cosines)
    rows = np.arange(queries.shape[0])
    positives = np.argmax(np.where(pool, cosines.sims.T, -np.inf), axis=0)

    logits = cosines.dots.T / temperature  # (N, P)
    peak = logits.max(axis=0)
    e = np.exp(logits - peak)
    total = e.sum(axis=0)
    log_z = np.log(total) + peak
    value = float(np.sum(log_z - logits[positives, rows]))

    def gradient() -> np.ndarray:
        probs = e / total
        probs[positives, rows] -= 1.0
        grad = probs.T @ items
        grad /= temperature
        return grad

    return LossTerm(value, positives, gradient)


def triplet_loss(
    queries: np.ndarray,
    items: np.ndarray,
    positive_pool,
    margin: float = 1.0,
    cosines: Cosines | None = None,
) -> LossTerm:
    """Hinge between the euclidean distances to the positive and the runner-up.

    The negative is the cosine-nearest item once the positive is excluded,
    which is the second-nearest item whenever the positive is the global
    nearest. Gradients use the subgradient that is zero at an inactive hinge.
    ``positive_pool`` and ``cosines`` are as in :func:`contrastive_loss`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    pool, cosines = _inputs(queries, items, positive_pool, cosines)
    if items.shape[0] < 2:
        raise PoolError("triplet loss needs at least two items")
    rows = np.arange(queries.shape[0])
    positives = np.argmax(np.where(pool, cosines.sims.T, -np.inf), axis=0)
    others = cosines.sims.T.copy()  # (N, P)
    others[positives, rows] = -np.inf
    negatives = np.argmax(others, axis=0)

    diff_pos = queries - items[positives]
    diff_neg = queries - items[negatives]
    d_pos = row_norms(diff_pos)
    d_neg = row_norms(diff_neg)
    terms = d_pos - d_neg + margin
    active = terms > 0.0

    value = float(np.sum(np.maximum(terms, 0.0)))

    def gradient() -> np.ndarray:
        grad = np.zeros_like(queries)
        pos_ok = active & (d_pos > _DIST_FLOOR)
        neg_ok = active & (d_neg > _DIST_FLOOR)
        grad[pos_ok] += diff_pos[pos_ok] / d_pos[pos_ok, None]
        grad[neg_ok] -= diff_neg[neg_ok] / d_neg[neg_ok, None]
        return grad

    return LossTerm(value, positives, gradient, negatives)
