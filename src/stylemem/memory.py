"""Class-partitioned key-values memory.

A bank holds N items; each item is a key row plus one value row per domain,
all unit-normalized. The layout reserves a contiguous block of items per
object class. Training reads and updates address only the block of each
query's class, as one masked operation over a scene's P x N query-item
pairs, except in a pooled bank (one ``POOLED_CLASS_ID`` partition), which
every query addresses whole; test-time reads address all N items.
:func:`address_blocks` computes the content-key cosines, their parts and the
class-restricted read weights of a scene pair's two domains in one pass, as
one query set; the read, its backward pass, the update and the key-side item
loss take that set whole, and the test-time read its cosines. Bank files go
through :mod:`stylemem.serialize`.

Query-item arrays follow the item-major rule of :mod:`stylemem.numerics`:
a scene pair's storage is (N, 2P), domain x in columns [0, P) and y in
[P, 2P). :func:`read_backward`'s gradient is factored by that module's rule,
and so are the reads: :func:`read` and :func:`read_global` return their
weights, which mix the opposite domain's value plane, and no package path
forms the mixture ``weights @ plane``. Query sets hold
their rows as encodings, by that module's encoding rule: addressing takes
their dots and norms, and :func:`update` folds them, at input width where
the encoders widen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyClusterError, LayoutError, ShapeError, ValidationError
from .numerics import (
    EPS_DIV, Cosines, Encoding, FeatureGrad, l2_normalize_rows, read_only, softmax_cols, softmax_rows,
)
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
        return read_only(np.repeat(self.class_ids, [e.count for e in self.entries]))


@dataclass(frozen=True)
class MemoryBank:
    """Keys plus per-domain value planes, one row per item, all N x C.
    The planes that :func:`init_bank`, :func:`update` and :func:`load_bank`
    make are read-only: a bank and its Grams never change; an update makes a new one."""

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

    @cached_property
    def grams(self) -> dict[str, np.ndarray]:
        """The Gram matrix ``V V.T`` of each value plane, by domain, made on first use."""
        return {"x": self.values_x @ self.values_x.T, "y": self.values_y @ self.values_y.T}


@dataclass
class QuerySet:
    """Blocks of content/style encodings (a scene pair's two domains, x then
    y, or one block) and the memory items each row may address.

    ``contents`` and ``styles`` hold each block's encodings. ``mask[p]`` is
    True on the partition of row p's class (on every item of a pooled bank).
    ``cosines`` holds all blocks' content rows' cosine similarities to the
    keys of the bank the set was built for, with their dot products and
    norms, block b in its columns ``cosines.columns[b]``; ``weights`` holds
    the class-restricted read weights ``softmax_rows(cosines.sims, mask)``.
    ``mask`` and ``weights`` are (P, N) views of item-major storage, over all
    blocks' P rows.
    """

    contents: tuple[Encoding, ...]
    styles: tuple[Encoding, ...]
    mask: np.ndarray
    cosines: Cosines
    weights: np.ndarray


def init_bank(layout: MemoryLayout, channels: int, rng: np.random.Generator) -> MemoryBank:
    """Fresh bank with i.i.d. standard-normal rows, unit-normalized.

    Draw order is keys, values_x, values_y, so a given generator state always
    produces the same bank.
    """
    if channels < 1:
        raise ShapeError(f"channels must be >= 1, got {channels}")
    planes = [read_only(l2_normalize_rows(rng.standard_normal((layout.n_items, channels)))) for _ in range(3)]
    return MemoryBank(*planes, layout)


def address_blocks(bank: MemoryBank, contents: tuple, styles: tuple, labels: tuple) -> QuerySet:
    """The query set of blocks of encodings (a scene pair's two domains, or
    one block ``(content,)``) addressed in one pass: row p of block b
    addresses the partition of class ``labels[b][p]``. Content encodings
    are scored against the keys (see :class:`~stylemem.numerics.Encoding`).

    A pooled bank ignores the labels; otherwise labels missing from the
    layout raise :class:`LayoutError`. Block b's columns of the set's
    storage have the bits of its own one-block call, by the block rule of
    :mod:`stylemem.numerics`.
    """
    labels = tuple(np.asarray(block_labels) for block_labels in labels)
    for content, style, block_labels in zip(contents, styles, labels, strict=True):
        if content.shape[1] != bank.channels:
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
    return QuerySet(contents, styles, mask.T, cosines, weights.T)


def _check_queries(bank: MemoryBank, queries: QuerySet) -> int:
    """The set's row count P, once its (P, N) arrays are checked."""
    expected = (queries.cosines.row_norms.shape[0], bank.n_items)
    if queries.cosines.sims.shape != expected or queries.mask.shape != expected:
        raise ShapeError(f"query set sims/mask shapes differ from {expected}")
    return expected[0]


def read(bank: MemoryBank, queries: QuerySet) -> np.ndarray:
    """Class-restricted read weights (P, N) of all the set's blocks, the
    view that :func:`address_blocks` stored: each row a softmax over the
    cosines of its partition, exactly zero outside it. Domain d's weights
    mix the opposite domain's value plane. A set with no rows raises
    :class:`EmptyClusterError`. This accessor stays only because
    ``perfbench`` traces ``memory.read`` (``tracer.SPAN_FUNCTIONS``, its
    tracer test and the ``memory.read.*`` metrics of ``BENCHMARK.json``).
    """
    if _check_queries(bank, queries) == 0:
        raise EmptyClusterError("query set is empty")
    return queries.weights


def read_global(bank: MemoryBank, sims: np.ndarray) -> np.ndarray:
    """Test-time read weights (P, N), a view of item-major storage: one
    softmax over all N items, no class information, of ``sims``, the (P, N)
    cosines of query rows with the keys (a scene pair's ``Cosines.sims``)."""
    shape = getattr(sims, "shape", None)
    if shape is None or len(shape) != 2 or shape[0] < 1 or shape[1] != bank.n_items:
        raise ShapeError(f"sims shape {shape}, expected (P, {bank.n_items}) with P >= 1")
    return softmax_cols(sims.T).T


def read_backward(bank: MemoryBank, queries: QuerySet, g_weights: np.ndarray) -> FeatureGrad:
    """Gradient of a loss of the class-restricted reads of all the set's
    blocks with respect to their content rows, a :class:`FeatureGrad` on
    the keys whose columns are the blocks' columns.

    ``g_weights`` is d(loss)/d(weights), item-major (N, P) over all blocks:
    ``V @ U.T`` for a loss whose gradient at the mixture ``weights @ V`` is
    U (P, C). The reconstruction loss takes it from the factors of the
    :mod:`stylemem.numerics` read rule instead. Keys and values are
    constants (they evolve through :func:`update`, not gradient descent), so
    only the query gradient is produced. The path is masked softmax ->
    cosine similarity; the [-1, 1] clamp on the similarity is treated as
    inactive. The read weights, cosines and norms come from the query set,
    addressed against ``bank``. With g the gradient at the cosines and w
    their denominators, row q gets ``sum_k (g_k / w_k) (k - sims_k ||k|| q
    / ||q||)``: ``coef`` is g / w, and ``scale`` the factor of q. Every
    sum runs over items, one column at a time, so each block's columns
    have the bits of its own one-block call.
    """
    size = _check_queries(bank, queries)
    if size == 0:
        raise EmptyClusterError("query set is empty")
    g_weights = np.asarray(g_weights, dtype=np.float64)
    if g_weights.shape != (bank.n_items, size):
        raise ShapeError(f"g_weights shape {g_weights.shape}, expected {(bank.n_items, size)}")

    # item-major (N, P) throughout: the sums over items run along axis 0
    alpha = queries.weights.T
    cos = queries.cosines

    # through the softmax jacobian; masked entries have alpha = 0 and so get no gradient
    g_sims = alpha * (g_weights - (alpha * g_weights).sum(axis=0))

    # d sims / d query: k / w  -  sims * ||k|| * q / (w * ||q||); every block scores the keys
    g_scaled = g_sims / cos.denom.T
    coeff = (g_scaled * cos.sims.T * cos.item_norms[:1].T).sum(axis=0)
    safe_q = np.maximum(cos.row_norms, EPS_DIV)
    return FeatureGrad(bank.keys, g_scaled, -coeff / safe_q)


def update(bank: MemoryBank, queries: QuerySet) -> MemoryBank:
    """Fold the set's blocks into the items they address: block b (x, then
    y) into value plane b.

    Keys absorb assignment-weighted content from every block (content is
    shared), while each value plane absorbs only its own block's style. An
    item's weights are its softmax over the cosines of the block's queries
    that address it: one unit of mass spread across them. Every touched row
    is re-normalized to unit length; items no query addresses stay
    bit-identical. An empty block contributes nothing; a set of more than
    two blocks raises :class:`ShapeError`. The features are folded by the
    encoding rule of :mod:`stylemem.numerics`.
    """
    if len(queries.contents) > 2:
        raise ShapeError(f"an update folds one block per value plane, got {len(queries.contents)} blocks")
    _check_queries(bank, queries)
    keys, planes = bank.keys.copy(), (bank.values_x.copy(), bank.values_y.copy())
    key_accum = bank.keys.copy()
    touched = np.zeros(bank.n_items, dtype=bool)
    sims, mask = queries.cosines.sims.T, queries.mask.T  # (N, P) storage
    for content, style, cols, plane in zip(queries.contents, queries.styles, queries.cosines.columns, planes):
        if cols.start == cols.stop:
            continue
        beta = softmax_rows(sims[:, cols], mask[:, cols])  # (N, P_b): a row softmax of the storage
        hit = mask[:, cols].any(axis=1)
        key_accum += content.fold(beta)
        plane[hit] = l2_normalize_rows(plane[hit] + style.fold(beta)[hit])
        touched |= hit
    if touched.any():
        keys[touched] = l2_normalize_rows(key_accum[touched])
    return MemoryBank(read_only(keys), *map(read_only, planes), bank.layout)


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
        planes.append(read_only(plane))
    return MemoryBank(*planes, layout)
