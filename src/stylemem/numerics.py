"""Dense float64 kernels shared by every module.

Matrices throughout the package are plain 2-D ``numpy`` arrays of float64,
row-major. All functions here are pure except :func:`adam_step`, which
mutates its explicit state argument, and :func:`read_only`, which marks
its argument read-only; nothing touches global state, and all randomness
flows through generators owned by the caller.

Row norms of formed rows come in two kinds, which may differ in the last
bit. The cosines (:class:`Cosines`, and the target norms of
:func:`read_cosines`) take :func:`dot_norms`, one ``einsum`` pass that
reads each row once and makes no temporary of the matrix's shape.
:func:`l2_normalize_rows` and the triplet distances take :func:`row_norms`,
the bits of ``np.linalg.norm(m, axis=1)`` without its conjugate copy, so
that bank rows and triplet terms match their references bit for bit. The
rows of a factored encoding take the bias split of the encoding rule below.
:func:`adam_step` builds its step in place in the textbook expression's
operation order, so with its bits.

Query-item arrays (P queries x N items) are stored item-major: a C-contiguous
(N, P) array, so that a sum, max or softmax over the few items of each query
runs along axis 0, one contiguous P-vector at a time. The (P, N) names, such
as ``Cosines.sims``, are transposed views of that storage; on such a view
:func:`softmax_rows` is :func:`softmax_cols` of the stored array, bit for
bit. Blocks of queries (a scene pair's two domains) share one storage, each
in its own columns, whose (P, N) views are the block's names. The block
rule: each block of a pair's storage, and each result taken from it, has
the bits of its own one-block call.

Feature gradients are factored. The memory touches an encoded row only
through its N items and the row itself, so the gradient of a loss with
respect to P feature rows is ``coef.T @ items + scale * rows``. A
:class:`FeatureGrad` holds it as ``items`` (N, C), ``coef`` (an item-major
(N, P) array) and ``scale`` (P,); the (P, C) array it stands for is never
formed. ``stylemem.encoder.backward`` turns it into parameter gradients of
the encoder that made the rows.

Reads are factored by the same rule. A read mixes N value rows V (N, C)
with its (P, N) weights, one row ``a V`` per query; that (P, C) mixture is
never formed. What the package takes of it, against a target row s, needs
only the Gram matrix ``G = V V.T`` (N, N), the dot products ``V s`` (an
item-major (N, P) array) and ``|s|``: the squared distance
``|a V - s|^2 = a.(G a) - 2 a.(V s) + |s|^2``, its gradient at the item-major
weights A, ``2 (G A - V s)``, and the cosine of :func:`read_cosines`.

Encodings are factored too. An :class:`Encoding` is its inputs X (P, Cin)
together with the weight W (C, Cin) and bias b that made its rows
``R = X W.T + b``, and the package takes R only through dot products with
item rows M, norms and folds ``beta R``. Where C <= Cin the rows are formed,
by :func:`forward`, and used as they are. Where C > Cin they
are not: an :class:`Affine` holds W, b and their factors against M, computed
once per weight and bank state, and every product runs at input width. The
dots are ``M R.T = (M W) X.T + M b``, and a fold is ``beta R = (beta X)
W.T + outer(beta.sum(1), b)``. The norms take a bias split that survives
cancellation: with ``G = W.T W``, ``z0 = solve(G + eps tr(G) I, W.T b)``,
``b_perp = b - W z0`` and ``U = X + z0``, ``|r|^2 = U.(G U) + 2 U.(W.T
b_perp) + |b_perp|^2``, floored at 0. Rows are formed on demand only where
a consumer needs them whole (:meth:`Encoding.formed`, by :func:`forward`).
An encoding's ``shape`` is the (P, C) of its rows on either route, stored
when it is built (a ``dataclasses.replace`` builds anew), so that the many
shape checks per step read a field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def read_only(m: np.ndarray) -> np.ndarray:
    """``m``, marked read-only, so that an in-place edit raises."""
    m.flags.writeable = False
    return m


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real 2-D array, (P,)."""
    return np.sqrt(np.add.reduce(m * m, axis=1))


def dot_norms(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row in one pass over ``m``, (P,), into ``out`` if given."""
    return np.sqrt(np.einsum("ij,ij->i", m, m), out=out)


@dataclass(slots=True)
class Affine:
    """An encoder's map ``x -> W x + b`` at one weight state, with the
    factors by which the encoding rule meets the one item plane M (N, C)
    that its rows are scored against: ``item_weight`` M W and ``item_bias``
    M b, and the bias split of the norms, ``gram`` G, ``shift`` z0,
    ``cross`` W.T b_perp and ``offset`` |b_perp|^2."""

    weight: np.ndarray
    bias: np.ndarray
    item_weight: np.ndarray
    item_bias: np.ndarray
    gram: np.ndarray
    shift: np.ndarray
    cross: np.ndarray
    offset: float

    @classmethod
    def of(cls, weight: np.ndarray, bias: np.ndarray, items: np.ndarray) -> "Affine":
        gram = weight.T @ weight
        ridged = gram.copy()
        ridged.flat[:: len(gram) + 1] += np.finfo(np.float64).eps * np.trace(gram)
        try:
            shift = np.linalg.solve(ridged, weight.T @ bias)
        except np.linalg.LinAlgError:  # a zero weight has no ridge: z0 = 0 splits nothing off
            shift = np.zeros(len(gram))
        perp = bias - weight @ shift
        offset = float(np.einsum("i,i->", perp, perp))
        return cls(weight, bias, items @ weight, items @ bias, gram, shift, weight.T @ perp, offset)


@dataclass(slots=True)
class Encoding:
    """P encoded rows ``inputs @ W.T + b`` by the encoding rule of the
    module docstring: ``rows`` holds them formed where C <= Cin, and where
    C > Cin ``rows`` is None and ``affine`` stands for them. ``shape``,
    the (P, C) of the rows, is set when the encoding is built."""

    inputs: np.ndarray
    rows: np.ndarray | None
    affine: Affine | None
    shape: tuple[int, int] = field(init=False)

    def __post_init__(self):
        self.shape = self.rows.shape if self.rows is not None else (len(self.inputs), len(self.affine.bias))

    def formed(self) -> np.ndarray:
        """The (P, C) rows, formed on each call where they are not held."""
        return self.rows if self.rows is not None else forward(self.affine, self.inputs)

    def norms(self, out: np.ndarray | None = None) -> np.ndarray:
        """Each row's norm, (P,): :func:`dot_norms` of the rows, or the bias split."""
        if self.rows is not None:
            return dot_norms(self.rows, out)
        a = self.affine
        shifted = self.inputs + a.shift
        half = shifted @ a.gram
        half += 2.0 * a.cross
        squares = np.einsum("ij,ij->i", shifted, half)
        squares += a.offset
        return np.sqrt(np.maximum(squares, 0.0, out=squares), out=out)

    def dots(self, items: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Item-major (N, P) dot products ``items @ rows.T``; where the rows
        are not held, ``items`` must be the plane of ``affine``."""
        if self.rows is not None:
            return np.matmul(items, self.rows.T, out=out)
        out = np.matmul(self.affine.item_weight, self.inputs.T, out=out)
        out += self.affine.item_bias[:, None]
        return out

    def fold(self, weights: np.ndarray) -> np.ndarray:
        """``weights @ rows`` for item-major (N, P) ``weights``, (N, C)."""
        if self.rows is not None:
            return weights @ self.rows
        folded = (weights @ self.inputs) @ self.affine.weight.T
        folded += np.multiply.outer(weights.sum(axis=1), self.affine.bias)
        return folded


@dataclass(slots=True)
class Cosines:
    """All-pairs cosine similarities of query rows against items, with the
    parts they are built from, so consumers of the raw dot products or the
    norms need no second pass.

    ``dots``, ``denom`` and ``sims`` are (P, N) views of item-major (N, P)
    arrays; their ``.T`` is the C-contiguous storage. The rows come in
    blocks (:meth:`between`): block b owns columns ``columns[b]`` of the
    storage and row b of ``item_norms`` (B, N), and :meth:`block` is its
    one-block view. ``row_norms`` is (P,).
    """

    row_norms: np.ndarray
    item_norms: np.ndarray
    dots: np.ndarray
    denom: np.ndarray
    sims: np.ndarray
    columns: tuple[slice, ...]

    @classmethod
    def between(cls, rows: tuple[Encoding, ...], items: tuple[np.ndarray, ...]) -> "Cosines":
        """Block b pairs the encoding ``rows[b]`` (P_b, C) with ``items[b]``
        (N, C), the plane of its ``affine`` if it has one, and writes its
        products into its own columns, by the block rule; no array of all
        blocks' rows is formed. Unchecked: float64 of equal width, items of
        equal length."""
        norms_of = {id(i): dot_norms(i) for i in items}  # blocks that share items share the norms
        norms, item_norms = np.empty(sum(r.shape[0] for r in rows)), np.array([norms_of[id(i)] for i in items])
        dots, denom = np.empty((item_norms.shape[1], len(norms))), np.empty((item_norms.shape[1], len(norms)))
        columns, start = [], 0
        for b, block in enumerate(rows):
            cols = slice(start, start + block.shape[0])
            columns.append(cols)
            start = cols.stop
            block.norms(out=norms[cols])
            block.dots(items[b], out=dots[:, cols])
            np.multiply(item_norms[b, :, None], norms[cols], out=denom[:, cols])
        denom += EPS_DIV
        sims = np.divide(dots, denom)
        np.minimum(np.maximum(sims, -1.0, out=sims), 1.0, out=sims)  # np.clip's bits, in [-1, 1]
        return cls(norms, item_norms, dots.T, denom.T, sims.T, tuple(columns))

    def block(self, b: int) -> "Cosines":
        cols = self.columns[b]
        norms, span = self.row_norms[cols], (slice(0, cols.stop - cols.start),)
        return Cosines(norms, self.item_norms[b : b + 1], self.dots[cols], self.denom[cols], self.sims[cols], span)


@dataclass(slots=True)
class FeatureGrad:
    """A gradient with respect to P feature rows, in the factors of the
    module docstring; the rows themselves are not held."""

    items: np.ndarray
    coef: np.ndarray
    scale: np.ndarray


def forward(affine, inputs: np.ndarray) -> np.ndarray:
    """Affine map over rows, ``inputs @ W.T + b``, of the ``weight`` and
    ``bias`` of ``affine`` (a ``LinearEncoder`` or an :class:`Affine`)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != affine.weight.shape[1]:
        raise ShapeError(f"inputs shape {inputs.shape} incompatible with W {affine.weight.shape}")
    out = inputs @ affine.weight.T
    out += affine.bias
    return out


def cosine_matrix(queries: tuple[Encoding, ...], keys: np.ndarray) -> Cosines:
    """The :class:`Cosines` of the rows of each block of encodings with the
    keys, (P, C) x (N, C) -> (P, N) over all blocks' P rows, each block's
    columns by the block rule."""
    keys = _as_matrix(keys, "keys")
    if not queries or any(block.shape[0] == 0 or block.shape[1] != keys.shape[1] for block in queries):
        raise ShapeError(f"query blocks {[block.shape for block in queries]} do not fit keys {keys.shape}")
    return Cosines.between(queries, (keys,) * len(queries))


def read_cosines(weights: np.ndarray, gram: np.ndarray, dots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosine of each read mixture ``a V`` with its target row s, (P,), by the
    factored-read rule: ``a.(V s) / (sqrt(a.(G a)) |s| + EPS_DIV)`` in [-1, 1].

    ``weights`` and ``dots`` (``V s``) are item-major (N, P), ``gram`` is
    ``V V.T`` and ``norms`` holds each ``|s|``. Unchecked. A mixture whose
    ``a.(G a)`` rounds below zero counts as a zero mixture, which scores 0
    as a zero-feature query does.
    """
    mixture_norms = np.einsum("ij,ij->j", weights, gram @ weights)
    np.sqrt(np.maximum(mixture_norms, 0.0, out=mixture_norms), out=mixture_norms)
    mixture_norms *= norms
    mixture_norms += EPS_DIV
    cos = np.einsum("ij,ij->j", weights, dots)
    cos /= mixture_norms
    return np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)  # np.clip's bits


def _softmax(m: np.ndarray, mask: np.ndarray | None, axis: int) -> np.ndarray:
    m = _as_matrix(m, "softmax input")
    masked = m if mask is None else np.where(mask, m, -np.inf)
    peak = masked.max(axis=axis, keepdims=True)
    shifted = masked - np.where(peak == -np.inf, 0.0, peak)
    if mask is None:
        e = np.exp(shifted)
    else:  # exp(-inf) takes numpy's slow special-value path; exp(0) * False is the same +0.0
        e = np.exp(np.where(mask, shifted, 0.0))
        e *= mask
    total = e.sum(axis=axis, keepdims=True)
    return e / np.where(total == 0.0, 1.0, total)


def softmax_rows(m: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction; each output row sums to 1.

    Entries where ``mask`` is False get weight 0 (logit -inf); a row with no
    True entry is all zero. The output keeps the input's layout, so on the
    transposed view of an item-major array a sum over a row's items adds
    whole contiguous rows of the stored array.
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
