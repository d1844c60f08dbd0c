"""Class-partitioned key-values memory.

A bank holds N items; each item is a key row plus one value row per domain,
all unit-normalized. The layout reserves a contiguous block of items per
object class. Training reads and updates address only the block of each
query's class, as one masked operation over a scene's P x N query-item
pairs, except in a pooled bank (one ``POOLED_CLASS_ID`` partition), which
every query addresses whole; test-time reads address all N items.
:func:`address_blocks` computes the content-key cosines, their parts and the
class-restricted read weights of a scene pair's two domains in one pass; the
read, its backward pass, the update, the key-side item loss and the
test-time read take them from each domain's query set. Bank files go
through :mod:`stylemem.serialize`.

Query-item arrays follow the item-major rule of :mod:`stylemem.numerics`:
a scene pair's storage is (N, 2P), domain x in columns [0, P) and y in
[P, 2P). :func:`read_backward`'s gradient is factored by that module's rule,
and so are the reads: a :class:`ReadResult` holds its weights and the value
plane it mixes, and no package path forms the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyClusterError, LayoutError, ShapeError, StylememError, ValidationError
from .numerics import EPS_DIV, Cosines, FeatureGrad, l2_normalize_rows, softmax_cols, softmax_rows
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
        """Build a layout from ordered (class_id, count) pairs of integers;
        any other entry (a bool is not an integer) raises :class:`LayoutError`."""
        entries = []
        offset = 0
        for entry in counts:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) for v in entry
            )):
                raise LayoutError(f"layout entry {entry!r} is not a (class id, count) pair of integers")
            class_id, count = entry
            entries.append(LayoutEntry(class_id, offset, count))
            offset += count
        return cls(tuple(entries))

    @property
    def n_items(self) -> int:
        last = self.entries[-1]
        return last.offset + last.count

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(e.class_id for e in self.entries)

    @cached_property
    def item_classes(self) -> np.ndarray:
        """Class id owning each item, (N,), computed once and read-only."""
        classes = np.repeat(self.class_ids, [e.count for e in self.entries])
        classes.flags.writeable = False
        return classes


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
    ``softmax_rows(sims, mask)``. ``mask``, ``weights`` and ``sims`` are (P, N)
    views of item-major storage that a scene pair's two domains share.
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
    """Row-stochastic read weights (full item width; a (P, N) view of
    item-major storage) and the (N, C) value plane they mix."""

    weights: np.ndarray
    values: np.ndarray

    @property
    def aggregated_style(self) -> np.ndarray:
        """The (P, C) style mixture ``weights @ values``, formed on each access."""
        return self.weights @ self.values


def _check_domain(domain: str) -> None:
    if domain not in ("x", "y"):
        raise StylememError(f"domain must be 'x' or 'y', got {domain!r}")


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


def address_blocks(bank: MemoryBank, contents: tuple, styles: tuple, labels: tuple) -> tuple:
    """Query sets of blocks of rows (a scene pair's two domains, or one
    block ``(content,)``) addressed in one pass: row p of block b addresses
    the partition of class ``labels[b][p]``.

    A pooled bank ignores the labels; otherwise labels missing from the
    layout raise :class:`LayoutError`. Returns the (P, N) partition mask of
    all blocks' P rows, their content-key :class:`Cosines` and each block's
    :class:`QuerySet`, whose ``mask``, ``weights`` and ``cosines`` are views
    of the block's columns of that storage, by the block rule of
    :mod:`stylemem.numerics`: the bits of its own one-block call.
    """
    contents = tuple(np.asarray(c, dtype=np.float64) for c in contents)
    styles = tuple(np.asarray(s, dtype=np.float64) for s in styles)
    labels = tuple(np.asarray(block_labels) for block_labels in labels)
    for content, style, block_labels in zip(contents, styles, labels, strict=True):
        if content.ndim != 2 or content.shape[1] != bank.channels:
            raise ShapeError(f"content shape {content.shape} incompatible with C={bank.channels}")
        if style.shape != content.shape:
            raise ShapeError(f"style shape {style.shape} != content shape {content.shape}")
        if block_labels.shape != (content.shape[0],):
            raise ShapeError(f"labels shape {block_labels.shape}, expected {(content.shape[0],)}")
    every = np.concatenate(labels)
    pooled = bank.layout.class_ids == (POOLED_CLASS_ID,)
    if pooled:
        mask = np.ones((bank.n_items, every.shape[0]), dtype=bool)
    else:
        mask = bank.layout.item_classes[:, None] == every  # (N, P)
        unknown = every[~mask.any(axis=0)]
        if unknown.size:
            raise LayoutError(f"class {unknown[0]} not in layout (have {list(bank.layout.class_ids)})")
    cosines = Cosines.between(contents, (bank.keys,) * len(contents))
    # each query's softmax over its items, a column softmax; an all-True mask masks nothing
    weights = softmax_cols(cosines.sims.T, None if pooled else mask) if len(every) else np.zeros(mask.shape)
    sets = tuple(
        QuerySet(contents[b], styles[b], mask[:, cols].T, cosines.block(b), weights[:, cols].T)
        for b, cols in enumerate(cosines.columns)
    )
    return mask.T, cosines, sets


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
    partition are exactly zero. The weights are the ones :func:`address_blocks`
    stored, and they mix the cross-domain values.
    """
    _check_domain(domain)
    _check_queries(bank, queries)
    return ReadResult(queries.weights, _cross_values(bank, domain))


def read_global(bank: MemoryBank, queries: tuple, domains: tuple, sims: np.ndarray) -> tuple:
    """Test-time read: softmax over all N items, no class information.

    ``queries`` is a tuple of query blocks and ``domains`` their domains;
    ``sims`` holds the cosines of all blocks' rows with the keys (a scene
    pair's (2P, N) storage, or ``cosine_matrix(content, bank.keys)`` for one
    block). One softmax over all blocks gives one result per block.
    """
    blocks = tuple(np.asarray(q, dtype=np.float64) for q in queries)
    for block, domain in zip(blocks, domains, strict=True):
        _check_domain(domain)
        if block.ndim != 2 or block.shape[0] == 0 or block.shape[1] != bank.channels:
            raise ShapeError(f"queries shape {block.shape} incompatible with C={bank.channels}")
    shape = (sum(len(block) for block in blocks), bank.n_items)
    if getattr(sims, "shape", None) != shape:
        raise ShapeError(f"sims shape {getattr(sims, 'shape', None)}, expected {shape}")
    alpha = softmax_cols(sims.T)  # item-major (N, P)
    results, start = [], 0
    for block, domain in zip(blocks, domains):
        results.append(ReadResult(alpha[:, start : start + len(block)].T, _cross_values(bank, domain)))
        start += len(block)
    return tuple(results)


def read_backward(bank: MemoryBank, queries: QuerySet, g_weights: np.ndarray) -> FeatureGrad:
    """Gradient of a loss of a class-restricted read with respect to its
    content rows, a :class:`FeatureGrad` on the keys.

    ``g_weights`` is d(loss)/d(weights), item-major (N, P): ``V @ U.T`` for
    a loss whose gradient at the mixture ``weights @ V`` is U (P, C). The
    reconstruction loss takes it from the factors of the
    :mod:`stylemem.numerics` read rule instead. Keys and values are
    constants (they evolve through :func:`update`, not gradient descent), so
    only the query gradient is produced. The path is masked softmax ->
    cosine similarity; the [-1, 1] clamp on the similarity is treated as
    inactive. The read weights, cosines and norms come from the query set,
    addressed against ``bank``; they may be views of a scene pair's storage.
    With g the gradient at the cosines and w their denominators, row q gets
    ``sum_k (g_k / w_k) (k - sims_k ||k|| q / ||q||)``: ``coef`` is g / w,
    and ``scale`` the factor of q.
    """
    _check_queries(bank, queries)
    g_weights = np.asarray(g_weights, dtype=np.float64)
    if g_weights.shape != (bank.n_items, queries.size):
        raise ShapeError(f"g_weights shape {g_weights.shape}, expected {(bank.n_items, queries.size)}")

    # item-major (N, P) throughout: the sums over items run along axis 0
    alpha = queries.weights.T
    cos = queries.cosines

    # through the softmax jacobian; masked entries have alpha = 0 and so get no gradient
    g_sims = alpha * (g_weights - np.sum(alpha * g_weights, axis=0))

    # d sims / d query: k / w  -  sims * ||k|| * q / (w * ||q||)
    g_scaled = g_sims / cos.denom.T
    coeff = np.sum(g_scaled * cos.sims.T * cos.item_norms.T, axis=0)
    safe_q = np.maximum(cos.row_norms, EPS_DIV)
    return FeatureGrad(bank.keys, g_scaled, -coeff / safe_q)


def update(bank: MemoryBank, queries_x: QuerySet | None, queries_y: QuerySet | None) -> MemoryBank:
    """Fold both domains' features into the items they address.

    Keys absorb assignment-weighted content from both domains (content is
    shared), while each value plane absorbs only its own domain's style. An
    item's weights are its softmax over the cosines of the queries that
    address it: one unit of mass spread across them. Every touched row is
    re-normalized to unit length; items no query addresses stay
    bit-identical. An empty or missing domain contributes nothing.
    """
    new = bank.copy()
    key_accum = bank.keys.copy()
    touched = np.zeros(bank.n_items, dtype=bool)
    for queries, plane in ((queries_x, new.values_x), (queries_y, new.values_y)):
        if queries is None or queries.size == 0:
            continue
        _check_queries(bank, queries)
        beta = softmax_rows(queries.sims.T, queries.mask.T)  # (N, P): a row softmax of the storage
        hit = queries.mask.T.any(axis=1)
        key_accum += beta @ queries.content
        plane[hit] = l2_normalize_rows(plane[hit] + (beta @ queries.style)[hit])
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
