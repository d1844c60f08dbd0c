"""Class-partitioned key-values memory.

A bank holds N items; each item is a key row plus one value row per domain,
all unit-normalized. The layout reserves a contiguous block of items per
object class. Training reads and updates address only the block of each
query's class, as one masked (P, N) operation over a scene, except in a
pooled bank (one ``POOLED_CLASS_ID`` partition), which every query addresses
whole; test-time reads address all N items. :func:`address` computes a
scene's content-key cosines, their parts and the class-restricted read
weights once; the read, its backward pass, the update weights, the key-side
item loss and the test-time read all take them from the query set. Bank
files go through :mod:`stylemem.serialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyClusterError, LayoutError, ShapeError, ValidationError
from .numerics import EPS_DIV, Cosines, cosine_matrix, l2_normalize_rows, softmax_cols, softmax_rows
from .serialize import array, integer, layout_counts, read_json, write_json

BANK_FORMAT_VERSION = 1

# class id of the single partition of a pooled ("single" memory mode) bank
POOLED_CLASS_ID = -1


@dataclass(frozen=True)
class LayoutEntry:
    class_id: int
    offset: int
    count: int


@dataclass(frozen=True)
class MemoryLayout:
    """Contiguous, non-overlapping per-class partitions covering [0, N)."""

    entries: tuple[LayoutEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise LayoutError("layout needs at least one partition")
        expected_offset = 0
        seen: set[int] = set()
        for e in self.entries:
            if e.count < 1:
                raise LayoutError(f"class {e.class_id} has count {e.count}, need >= 1")
            if e.offset != expected_offset:
                raise LayoutError(f"class {e.class_id} offset {e.offset} breaks contiguity")
            if e.class_id in seen:
                raise LayoutError(f"duplicate class id {e.class_id}")
            seen.add(e.class_id)
            expected_offset += e.count

    @classmethod
    def from_counts(cls, counts) -> "MemoryLayout":
        """Build a layout from ordered (class_id, count) pairs."""
        entries = []
        offset = 0
        for class_id, count in counts:
            entries.append(LayoutEntry(int(class_id), offset, int(count)))
            offset += int(count)
        return cls(tuple(entries))

    @property
    def n_items(self) -> int:
        last = self.entries[-1]
        return last.offset + last.count

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(e.class_id for e in self.entries)

    @property
    def item_classes(self) -> np.ndarray:
        """Class id owning each item, (N,)."""
        return np.repeat(self.class_ids, [e.count for e in self.entries])


@dataclass
class MemoryBank:
    """Keys plus per-domain value planes, one row per item, all N x C."""

    keys: np.ndarray
    values_x: np.ndarray
    values_y: np.ndarray
    layout: MemoryLayout

    @property
    def n_items(self) -> int:
        return self.keys.shape[0]

    @property
    def channels(self) -> int:
        return self.keys.shape[1]

    def copy(self) -> "MemoryBank":
        return MemoryBank(self.keys.copy(), self.values_x.copy(), self.values_y.copy(), self.layout)


@dataclass
class QuerySet:
    """One domain's content/style rows and the memory items each may address.

    ``mask[p]`` is True on the partition of row p's class (on every item of
    a pooled bank). ``cosines`` holds the content rows' cosine similarities
    to the keys of the bank the set was built for, with their dot products
    and norms, and ``weights`` the class-restricted read weights
    ``softmax_rows(sims, mask)`` (see :func:`address`).
    """

    content: np.ndarray
    style: np.ndarray
    mask: np.ndarray
    cosines: Cosines
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.content.shape[0]

    @property
    def sims(self) -> np.ndarray:
        return self.cosines.sims


@dataclass
class ReadResult:
    """Row-stochastic read weights (full item width) and the style mixture."""

    weights: np.ndarray
    aggregated_style: np.ndarray


def _check_domain(domain: str) -> None:
    if domain not in ("x", "y"):
        raise ValueError(f"domain must be 'x' or 'y', got {domain!r}")


def _cross_values(bank: MemoryBank, domain: str) -> np.ndarray:
    # queries from one domain aggregate the opposite domain's values
    return bank.values_y if domain == "x" else bank.values_x


def init_bank(layout: MemoryLayout, channels: int, rng: np.random.Generator) -> MemoryBank:
    """Fresh bank with i.i.d. standard-normal rows, unit-normalized.

    Draw order is keys, values_x, values_y, so a given generator state always
    produces the same bank.
    """
    if channels < 1:
        raise ShapeError(f"channels must be >= 1, got {channels}")
    n = layout.n_items
    keys = l2_normalize_rows(rng.standard_normal((n, channels)))
    values_x = l2_normalize_rows(rng.standard_normal((n, channels)))
    values_y = l2_normalize_rows(rng.standard_normal((n, channels)))
    return MemoryBank(keys, values_x, values_y, layout)


def address(
    bank: MemoryBank, content: np.ndarray, style: np.ndarray, labels: np.ndarray
) -> QuerySet:
    """Query set whose rows address the partition of their class ``labels[p]``.

    A pooled bank ignores the labels; otherwise labels missing from the
    layout raise :class:`LayoutError`. The cosine similarities to the keys
    and the read weights are computed here, once.
    """
    content = np.asarray(content, dtype=np.float64)
    style = np.asarray(style, dtype=np.float64)
    labels = np.asarray(labels)
    if content.ndim != 2 or content.shape[1] != bank.channels:
        raise ShapeError(f"content shape {content.shape} incompatible with C={bank.channels}")
    if style.shape != content.shape:
        raise ShapeError(f"style shape {style.shape} != content shape {content.shape}")
    if labels.shape != (content.shape[0],):
        raise ShapeError(f"labels shape {labels.shape}, expected {(content.shape[0],)}")
    if bank.layout.class_ids == (POOLED_CLASS_ID,):
        mask = np.ones((content.shape[0], bank.n_items), dtype=bool)
    else:
        mask = labels[:, None] == bank.layout.item_classes[None, :]
        unknown = labels[~mask.any(axis=1)]
        if unknown.size:
            raise LayoutError(f"class {unknown[0]} not in layout (have {list(bank.layout.class_ids)})")
    cosines = Cosines(content, bank.keys)
    weights = softmax_rows(cosines.sims, mask) if content.shape[0] else np.zeros(mask.shape)
    return QuerySet(content, style, mask, cosines, weights)


def _check_queries(bank: MemoryBank, queries: QuerySet) -> None:
    if queries.size == 0:
        raise EmptyClusterError("query set is empty")
    expected = (queries.size, bank.n_items)
    if queries.sims.shape != expected or queries.mask.shape != expected:
        raise ShapeError(f"query set sims/mask shapes differ from {expected}")


def read(bank: MemoryBank, queries: QuerySet, domain: str) -> ReadResult:
    """Class-restricted read.

    Each row gets the global softmax over its cosine similarities with every
    logit outside its partition masked to -inf, so weights outside the
    partition are exactly zero. The aggregated style row is the weight-mixed
    cross-domain value. The weights are the ones :func:`address` stored.
    """
    _check_domain(domain)
    _check_queries(bank, queries)
    return ReadResult(queries.weights, queries.weights @ _cross_values(bank, domain))


def read_global(
    bank: MemoryBank, queries: np.ndarray, domain: str, sims: np.ndarray | None = None
) -> ReadResult:
    """Test-time read: softmax over all N items, no class information.

    ``sims`` is ``cosine_matrix(queries, bank.keys)`` when the caller
    already has it, such as the ``sims`` of a query set built from the same
    rows.
    """
    _check_domain(domain)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[0] == 0 or queries.shape[1] != bank.channels:
        raise ShapeError(f"queries shape {queries.shape} incompatible with C={bank.channels}")
    if sims is None:
        sims = cosine_matrix(queries, bank.keys)
    elif sims.shape != (queries.shape[0], bank.n_items):
        raise ShapeError(f"sims shape {sims.shape}, expected {(queries.shape[0], bank.n_items)}")
    alpha = softmax_rows(sims)
    return ReadResult(alpha, alpha @ _cross_values(bank, domain))


def read_backward(
    bank: MemoryBank, queries: QuerySet, domain: str, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of a class-restricted read with respect to its content rows.

    ``upstream`` is d(loss)/d(aggregated_style), shape (P, C). Keys and
    values are constants (they evolve through :func:`update`, not gradient
    descent), so only the query gradient is produced. The path is value
    aggregation -> masked softmax -> cosine similarity; the [-1, 1] clamp on
    the similarity is treated as inactive. The read weights, cosines and
    norms come from the query set, which must have been addressed against
    ``bank``.
    """
    _check_domain(domain)
    _check_queries(bank, queries)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (queries.size, bank.channels):
        raise ShapeError(
            f"upstream shape {upstream.shape}, expected {(queries.size, bank.channels)}"
        )

    alpha = queries.weights
    cos = queries.cosines

    # d loss / d alpha, then through the softmax jacobian; masked entries
    # have alpha = 0 and so get no gradient
    g_alpha = upstream @ _cross_values(bank, domain).T
    g_sims = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=1, keepdims=True))

    # d sims / d query: k / w  -  sims * ||k|| * q / (w * ||q||)
    g_scaled = g_sims / cos.denom
    coeff = np.sum(g_scaled * cos.sims * cos.item_norms[None, :], axis=1)
    safe_q = np.maximum(cos.row_norms, EPS_DIV)
    grad = g_scaled @ bank.keys
    grad -= (coeff / safe_q)[:, None] * queries.content
    return grad


def update_weights(bank: MemoryBank, queries: QuerySet) -> np.ndarray:
    """Assignment weights of queries to items, (P, N).

    Each column is softmax-normalized over the queries that address the
    item, so each addressed item distributes one unit of mass across them;
    columns of items no query addresses are zero.
    """
    _check_queries(bank, queries)
    return softmax_cols(queries.sims, queries.mask)


def update(
    bank: MemoryBank,
    queries_x: QuerySet | None,
    queries_y: QuerySet | None,
) -> MemoryBank:
    """Fold both domains' features into the items they address.

    Keys absorb assignment-weighted content from both domains (content is
    shared), while each value plane absorbs only its own domain's style.
    Every touched row is re-normalized to unit length; items no query
    addresses stay bit-identical. An empty or missing domain contributes
    nothing.
    """
    new = bank.copy()
    key_accum = bank.keys.copy()
    touched = np.zeros(bank.n_items, dtype=bool)
    for queries, plane in ((queries_x, new.values_x), (queries_y, new.values_y)):
        if queries is None or queries.size == 0:
            continue
        beta = update_weights(bank, queries)
        hit = queries.mask.any(axis=0)
        key_accum += beta.T @ queries.content
        plane[hit] = l2_normalize_rows(plane[hit] + (beta.T @ queries.style)[hit])
        touched |= hit
    if touched.any():
        new.keys[touched] = l2_normalize_rows(key_accum[touched])
    return new


# --- persistence ---


def save_bank(bank: MemoryBank, path: str | Path) -> None:
    """Write the bank as one JSON document (see :mod:`stylemem.serialize`)."""
    layout = [{"class": e.class_id, "count": e.count} for e in bank.layout.entries]
    write_json(path, dict(
        version=BANK_FORMAT_VERSION, channels=bank.channels, layout=layout,
        keys=bank.keys, values_x=bank.values_x, values_y=bank.values_y,
    ))


def load_bank(path: str | Path) -> MemoryBank:
    """Parse and validate a bank file; the round trip with save is bit-exact."""
    doc = read_json(path, "bank", BANK_FORMAT_VERSION)
    channels = integer("bank field 'channels'", doc.get("channels"), minimum=1)
    try:
        layout = MemoryLayout.from_counts(layout_counts(doc.get("layout"), "bank layout"))
    except LayoutError as exc:
        raise ValidationError(f"bank layout: {exc}") from exc
    planes = []
    for field in ("keys", "values_x", "values_y"):
        plane = array(doc, field, (layout.n_items, channels), "bank")
        with np.errstate(over="ignore"):  # a norm that overflows to inf fails the check below
            worst = float(np.abs(np.linalg.norm(plane, axis=1) - 1.0).max())
        if worst > 1e-9:
            raise ValidationError(f"bank field {field!r} rows deviate from unit norm by {worst:.3e}")
        planes.append(plane)
    return MemoryBank(*planes, layout)
