"""Item-separation objectives over memory items, with hand-derived gradients.

Both losses pick each query's positive as the cosine-nearest item inside a
caller-supplied pool (its class partition during class-aware training, the
whole bank otherwise): a masked argmax over the query-item cosine matrix.
They treat the items as constants: gradients flow into the queries only,
factored on the items as :mod:`stylemem.numerics` states.

Queries come as a tuple of blocks of encodings (a scene pair's two
domains; one block is a one-tuple; see the encoding rule of
:mod:`stylemem.numerics`), the items as one array shared by every block or
one per block, and the pool as a boolean (P, N) mask over all blocks' P
queries.
Pools and cosines are (P, N) views of item-major storage, and every step
runs once over the storage for all blocks; each block gets its own term,
summed over its own queries, by the block rule of :mod:`stylemem.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PoolError, ShapeError
from .numerics import Cosines, FeatureGrad, row_norms

# Selection switches are non-differentiable; distances below this are treated
# as an exact hit and contribute no gradient.
_DIST_FLOOR = 1e-12


@dataclass
class LossTerm:
    """One loss evaluation: scalar value, per-query positives and, for the
    triplet loss, per-query negatives.

    The query gradient is computed only when ``gradient()`` is called, so a
    caller that needs only the value never pays for it. Each call returns a
    new :class:`FeatureGrad` on the term's items, whose arrays the caller owns.
    """

    value: float
    positives: np.ndarray
    gradient: Callable[[], FeatureGrad] = field(repr=False, compare=False)
    negatives: np.ndarray | None = None


def _inputs(queries: tuple, items, pool: np.ndarray, cosines) -> tuple[tuple, tuple, np.ndarray, Cosines]:
    """The query and item blocks (one items array may serve them all), the
    pool as a validated item-major (N, P) view, and the cosines."""
    items = items if isinstance(items, tuple) else (items,) * len(queries)
    items = tuple(np.asarray(i, np.float64) for i in items)
    for q, i in zip(queries, items, strict=True):
        if i.ndim != 2 or q.shape[1] != i.shape[1] or i.shape != items[0].shape:
            raise ShapeError(f"queries {q.shape} and items {i.shape} must share channels")
    sizes = [q.shape[0] for q in queries]
    shape = (sum(sizes), items[0].shape[0])
    pool = np.asarray(pool)
    if pool.dtype != bool or pool.shape != shape or not pool.any(axis=1).all():
        raise PoolError(f"positive pool ({pool.dtype} {pool.shape}) is not a boolean {shape} mask, or is empty")
    if any(0 in q.shape for q in queries):
        raise ShapeError(f"queries must be non-empty 2-D arrays, got shapes {[q.shape for q in queries]}")
    cosines = Cosines.between(queries, items) if cosines is None else cosines
    spans = [c.stop - c.start for c in cosines.columns]
    if {cosines.sims.shape, cosines.dots.shape} != {shape} or spans != sizes:
        raise ShapeError(f"cosines shape {cosines.sims.shape}, expected {shape} in blocks {sizes}")
    return queries, items, pool.T, cosines


def contrastive_loss(
    queries: tuple, items, positive_pool: np.ndarray, temperature: float = 0.1, cosines: Cosines | None = None
) -> tuple[LossTerm, ...]:
    """Softmax loss over temperature-scaled dot products against all items.

    Each query's positive is its cosine-nearest pool item; the denominator
    runs over every item, so all non-positives act as negatives. With a
    single item the loss is exactly zero. ``positive_pool`` is the (P, N)
    boolean mask of each query's pool. ``cosines`` (``Cosines.between`` the
    query and item blocks), when the caller has it, picks the positives, and
    its dot products are the logits. Returns one term per query block. The
    gradient's ``coef`` is (softmax - positive's one-hot) / temperature.
    """
    queries, items, pool, cosines = _inputs(queries, items, positive_pool, cosines)
    rows = np.arange(pool.shape[1])
    positives = np.argmax(np.where(pool, cosines.sims.T, -np.inf), axis=0)

    logits = cosines.dots.T / temperature  # (N, P)
    peak = logits.max(axis=0)
    e = np.exp(logits - peak)
    total = e.sum(axis=0)
    log_z = np.log(total) + peak
    per_query = log_z - logits[positives, rows]

    def term(b: int, cols: slice) -> LossTerm:
        def gradient() -> FeatureGrad:
            probs = e[:, cols] / total[cols]
            probs[positives[cols], rows[: probs.shape[1]]] -= 1.0
            probs /= temperature
            return FeatureGrad(items[b], probs, np.zeros(probs.shape[1]))

        return LossTerm(float(np.sum(per_query[cols])), positives[cols], gradient)

    return tuple(term(b, cols) for b, cols in enumerate(cosines.columns))


def triplet_loss(
    queries: tuple, items, positive_pool: np.ndarray, margin: float = 1.0, cosines: Cosines | None = None
) -> tuple[LossTerm, ...]:
    """Hinge between the euclidean distances to the positive and the runner-up.

    The negative is the cosine-nearest item once the positive is excluded,
    which is the second-nearest item whenever the positive is the global
    nearest. Gradients use the subgradient that is zero at an inactive hinge;
    at an active one, a side whose distance is at most 1e-12 gives none. The
    gradient ``(q - k+) / d+ - (q - k-) / d-`` has ``coef`` -1/d+ at the
    positive and 1/d- at the negative, ``scale`` 1/d+ - 1/d-, and 1/inf = 0.0
    for a side that does not count.
    ``positive_pool``, ``cosines`` and blocks are as in :func:`contrastive_loss`.
    """
    queries, items, pool, cosines = _inputs(queries, items, positive_pool, cosines)
    if pool.shape[0] < 2:
        raise PoolError("triplet loss needs at least two items")
    rows = np.arange(pool.shape[1])
    positives = np.argmax(np.where(pool, cosines.sims.T, -np.inf), axis=0)
    others = cosines.sims.T.copy()  # (N, P)
    others[positives, rows] = -np.inf
    negatives = np.argmax(others, axis=0)

    def term(b: int, cols: slice) -> LossTerm:
        formed = queries[b].formed()
        diff_pos = formed - items[b][positives[cols]]
        diff_neg = formed - items[b][negatives[cols]]
        d_pos = row_norms(diff_pos)
        d_neg = row_norms(diff_neg)
        terms = d_pos - d_neg + margin
        active = terms > 0.0

        def gradient() -> FeatureGrad:
            inv_pos = 1.0 / np.where(active & (d_pos > _DIST_FLOOR), d_pos, np.inf)
            inv_neg = 1.0 / np.where(active & (d_neg > _DIST_FLOOR), d_neg, np.inf)
            coef, at = np.zeros((items[b].shape[0], len(inv_pos))), rows[: len(inv_pos)]
            coef[positives[cols], at] = -inv_pos
            coef[negatives[cols], at] = inv_neg
            return FeatureGrad(items[b], coef, inv_pos - inv_neg)

        return LossTerm(float(np.sum(np.maximum(terms, 0.0))), positives[cols], gradient, negatives[cols])

    return tuple(term(b, cols) for b, cols in enumerate(cosines.columns))
