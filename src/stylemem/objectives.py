"""Item-separation objectives over memory items, with hand-derived gradients.

Both losses pick each query's positive as the cosine-nearest item inside a
caller-supplied pool (its class partition during class-aware training, the
whole bank otherwise): a masked argmax over the query-item cosine matrix.
They treat the items as constants: gradients flow into the queries only.

Pools and cosines come as (P, N) views of item-major storage (see
:mod:`stylemem.numerics`), and the losses work on the storage. Queries and
items may come as tuples of blocks (a scene pair's two domains): every step
over the storage then runs once for all blocks, and each block gets its own
term, summed over its own queries, with the one-block bits.
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


def _inputs(queries, items, positive_pool, cosines) -> tuple[tuple, tuple, np.ndarray, Cosines]:
    """The query and item blocks (one items array may serve them all), the
    pool as a validated item-major (N, P) mask over all P queries, and the cosines."""
    queries = tuple(np.asarray(q, np.float64) for q in (queries if isinstance(queries, tuple) else [queries]))
    items = items if isinstance(items, tuple) else (items,) * len(queries)
    items = tuple(np.asarray(i, np.float64) for i in items)
    for q, i in zip(queries, items, strict=True):
        if q.ndim != 2 or i.ndim != 2 or q.shape[1] != i.shape[1] or i.shape != items[0].shape:
            raise ShapeError(f"queries {q.shape} and items {i.shape} must share channels")
    sizes = [q.shape[0] for q in queries]
    shape = (sum(sizes), items[0].shape[0])
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
    if any(0 in q.shape for q in queries):
        raise ShapeError(f"queries must be non-empty 2-D arrays, got shapes {[q.shape for q in queries]}")
    cosines = Cosines.between(queries, items) if cosines is None else cosines
    spans = [c.stop - c.start for c in cosines.columns]
    if {cosines.sims.shape, cosines.dots.shape} != {shape} or spans != sizes:
        raise ShapeError(f"cosines shape {cosines.sims.shape}, expected {shape} in blocks {sizes}")
    return queries, items, by_item, cosines


def contrastive_loss(
    queries, items, positive_pool, temperature: float = 0.1, cosines: Cosines | None = None
) -> LossTerm | tuple[LossTerm, ...]:
    """Softmax loss over temperature-scaled dot products against all items.

    Each query's positive is its cosine-nearest pool item; the denominator
    runs over every item, so all non-positives act as negatives. With a
    single item the loss is exactly zero. ``positive_pool`` holds item
    indices shared by every query, or is a (P, N) boolean mask giving each
    query its own pool. ``cosines`` (``Cosines.between`` the query and item
    blocks), when the caller has it, picks the positives, and its dot
    products are the logits. A tuple of query blocks gives a tuple of terms.
    """
    blocks, items, pool, cosines = _inputs(queries, items, positive_pool, cosines)
    rows = np.arange(pool.shape[1])
    positives = np.argmax(np.where(pool, cosines.sims.T, -np.inf), axis=0)

    logits = cosines.dots.T / temperature  # (N, P)
    peak = logits.max(axis=0)
    e = np.exp(logits - peak)
    total = e.sum(axis=0)
    log_z = np.log(total) + peak
    per_query = log_z - logits[positives, rows]

    def term(b: int, cols: slice) -> LossTerm:
        def gradient() -> np.ndarray:
            probs = e[:, cols] / total[cols]
            probs[positives[cols], rows[: probs.shape[1]]] -= 1.0
            probs /= temperature  # on the (N, P) factor, not the (P, C) product
            return probs.T @ items[b]

        return LossTerm(float(np.sum(per_query[cols])), positives[cols], gradient)

    terms = tuple(term(b, cols) for b, cols in enumerate(cosines.columns))
    return terms if isinstance(queries, tuple) else terms[0]


def triplet_loss(
    queries, items, positive_pool, margin: float = 1.0, cosines: Cosines | None = None
) -> LossTerm | tuple[LossTerm, ...]:
    """Hinge between the euclidean distances to the positive and the runner-up.

    The negative is the cosine-nearest item once the positive is excluded,
    which is the second-nearest item whenever the positive is the global
    nearest. Gradients use the subgradient that is zero at an inactive hinge;
    at an active one, a side whose distance is at most 1e-12 gives none. The
    gradient is dense over all rows, the positive side's unit difference
    minus the negative side's, each dividing by inf where it does not count.
    ``positive_pool``, ``cosines`` and blocks are as in :func:`contrastive_loss`.
    """
    blocks, items, pool, cosines = _inputs(queries, items, positive_pool, cosines)
    if pool.shape[0] < 2:
        raise PoolError("triplet loss needs at least two items")
    rows = np.arange(pool.shape[1])
    positives = np.argmax(np.where(pool, cosines.sims.T, -np.inf), axis=0)
    others = cosines.sims.T.copy()  # (N, P)
    others[positives, rows] = -np.inf
    negatives = np.argmax(others, axis=0)

    def term(b: int, cols: slice) -> LossTerm:
        diff_pos = blocks[b] - items[b][positives[cols]]
        diff_neg = blocks[b] - items[b][negatives[cols]]
        d_pos = row_norms(diff_pos)
        d_neg = row_norms(diff_neg)
        terms = d_pos - d_neg + margin
        active = terms > 0.0

        def gradient() -> np.ndarray:
            # a side that does not count divides by inf, so its finite differences give +-0.0
            grad = np.divide(diff_pos, np.where(active & (d_pos > _DIST_FLOOR), d_pos, np.inf)[:, None])
            grad -= np.divide(diff_neg, np.where(active & (d_neg > _DIST_FLOOR), d_neg, np.inf)[:, None])
            grad += 0.0  # (a - b) + 0.0 has the bits of (0.0 + a) - b: no -0.0
            return grad

        return LossTerm(float(np.sum(np.maximum(terms, 0.0))), positives[cols], gradient, negatives[cols])

    terms = tuple(term(b, cols) for b, cols in enumerate(cosines.columns))
    return terms if isinstance(queries, tuple) else terms[0]
