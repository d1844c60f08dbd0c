"""Test-side references for the dense training pass and for evaluation.

``reference_compute_losses``/``reference_train_step`` are the training
iteration written as a loop over 2 domains x the classes present in a
scene: item losses over each class's partition (:func:`one_block`), then
one class-restricted ``read`` and ``read_backward`` per class cluster, with
the results scattered back to scene positions, and one ``update`` per class
of the set that addresses its x and y clusters as two blocks. The package
computes the same quantities in one masked (P, N) pass per memory plane;
``test_dense_training.py`` compares the two. The reference holds its
gradients dense, as (P, C) arrays built by :func:`dense_gradient`, and
takes the encoder gradients as ``G.T @ inputs`` and ``G.sum(0)``. It forms
each read's (P, C) mixture ``weights @ V``, with V the opposite domain's
value plane (:func:`opposite_plane`), and its residual, which the package
never does, and takes the gradient at the read weights as ``V @
upstream.T``. The
reference Adam step runs ``oracles.oracle_adam_scalar`` element by element,
so that comparison also covers the package optimizer.

``reference_evaluate`` is evaluation in two passes per scene: the full loss
pass with its gradients, by the forward route (below), then
:func:`reference_reads`, a fresh encoding of the scene and a one-block
``read_global`` per domain on the raw content features, whose fidelity is
:func:`cosine_rows` of the formed mixture and the target rows. The package
takes one gradient-free loss pass and reuses its features and cosines, and
its per-iteration metrics pass reads as evaluation does;
``test_evaluate.py`` compares both with the references.

``pair_rows`` draws a bank and the rows of one scene pair, whose two domains
the package addresses in one pass; ``test_memory.py`` and
``test_objectives.py`` compare that pass with one call per domain.

The package takes rows as encodings (``numerics.Encoding``). :func:`encoded`
holds given rows as they are, :func:`encoding` encodes inputs as the package
does. A :class:`ForwardState` is an ``encoder.State`` by which every
encoder forms its rows with ``forward``, whatever its width: the forward
route, against which the factored route of widening encoders is checked.

:func:`dense_gradient` is the one place a factored feature gradient
(``numerics.FeatureGrad``) becomes the (P, C) array it stands for, and
:func:`factored_loss` a loss that has it as its gradient, for the
finite-difference checks of ``encoder.backward``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from stylemem.encoder import EncoderSet, LinearEncoder, State, compute_losses, forward
from stylemem.errors import LayoutError
from stylemem.harness import STREAM_EVAL, MetricsRow
from stylemem.memory import (
    POOLED_CLASS_ID, MemoryLayout, address_blocks, init_bank, read, read_backward, read_global, update,
)
from stylemem.errors import ShapeError
from stylemem.numerics import (
    EPS_DIV, Affine, Encoding, cosine_matrix, dot_norms, softmax_rows, split_rng,
)
from stylemem.objectives import contrastive_loss, triplet_loss
from stylemem.serialize import FLOAT
from stylemem.synthdata import generate_scene_pair

from oracles import oracle_adam_scalar

DOMAINS = ("x", "y")

# the pair-pass cases: both bank layouts, on grids whose P = side * side is
# (16) and is not (6) a point where numpy's pairwise sum of 2P values splits
# into the sums of the two halves
PAIR_CASES = [(class_aware, side) for class_aware in (True, False) for side in (16, 6)]

ADAM_EPS = 1e-8  # the package's documented Adam epsilon


@dataclass
class ClassCluster:
    """The content/style rows of one class, with their scene positions."""

    class_id: int
    content: np.ndarray
    style: np.ndarray
    positions: np.ndarray

    @property
    def size(self) -> int:
        return self.content.shape[0]


def clusters(labels, content, style) -> list[ClassCluster]:
    """One cluster per class present, ascending class id, positions preserved."""
    out = []
    for class_id in np.unique(labels):
        positions = np.flatnonzero(labels == class_id)
        out.append(ClassCluster(int(class_id), content[positions], style[positions], positions))
    return out


def cluster_by_class(pair, domain) -> list[ClassCluster]:
    """The clusters of one domain of a scene pair: shared content, its style."""
    return clusters(pair.labels, pair.content, pair.styles[DOMAINS.index(domain)])


def span(layout, class_id: int) -> tuple[int, int]:
    """(offset, count) of a class's partition in ``layout``; unknown ids raise."""
    for e in layout.entries:
        if e.class_id == class_id:
            return e.offset, e.count
    raise LayoutError(f"class {class_id} not in layout (have {list(layout.class_ids)})")


def addressed(bank, *clusters: ClassCluster):
    """Clusters as one query set, block b addressing cluster b's class partition."""
    return address_rows(bank, *((c.content, c.style, np.full(c.size, c.class_id)) for c in clusters))


def address_one(bank, content, style, labels):
    """The query set of one block of rows: ``address_blocks`` on one-tuples."""
    return address_rows(bank, (content, style, labels))


def address_rows(bank, *blocks):
    """The query set of blocks of rows, each a (content, style, labels) triple."""
    contents, styles, labels = zip(*blocks)
    return address_blocks(bank, tuple(map(encoded, contents)), tuple(map(encoded, styles)), labels)


def read_global_one(bank, content):
    """The test-time read weights of one block of content rows, from their own cosines."""
    return read_global(bank, cosine_matrix((encoded(content),), bank.keys).sims)


def opposite_plane(bank, domain):
    """The value plane that the reads of ``domain`` mix: the other domain's."""
    return bank.values_y if domain == "x" else bank.values_x


def encoded(rows):
    """Rows held as they are, as an encoding: inputs and rows both ``rows``
    (the weight I and bias 0 made them)."""
    rows = np.asarray(rows, dtype=np.float64)
    return Encoding(rows, rows, None)


def encoding(enc, inputs, items):
    """The package's encoding of ``inputs`` by ``enc``, scored against the
    plane ``items``: rows formed by ``forward`` where C <= Cin, else factored."""
    if enc.out_channels <= enc.in_channels:
        return Encoding(inputs, forward(enc, inputs), None)
    return Encoding(inputs, None, Affine.of(enc.weight, enc.bias, items))


class ForwardState(State):
    """A ``State`` by which every encoder forms its rows with ``forward``."""

    @cached_property
    def affine(self) -> dict:
        return dict.fromkeys(vars(self.encoders))


@dataclass
class ReferencePass:
    key_loss: float
    value_loss: float
    rec_loss: float
    total: float
    key_positives: dict
    value_positives: dict
    key_negatives: dict
    value_negatives: dict
    grad_content: dict
    grad_style: dict
    g_weights: dict
    clusters: dict


def reference_compute_losses(encoders, bank, pair, settings) -> ReferencePass:
    content = {d: forward(getattr(encoders, f"content_{d}"), pair.content) for d in DOMAINS}
    style = {d: forward(getattr(encoders, f"style_{d}"), s) for d, s in zip(DOMAINS, pair.styles)}
    if bank.layout.class_ids == (POOLED_CLASS_ID,):
        every = np.arange(pair.labels.shape[0])
        per_domain = {d: [ClassCluster(POOLED_CLASS_ID, content[d], style[d], every)] for d in DOMAINS}
    else:
        per_domain = {d: clusters(pair.labels, content[d], style[d]) for d in DOMAINS}

    def item_loss(queries, items, pool):
        if settings.loss_variant == "contrastive":
            return contrastive_loss(*one_block(queries, items, pool), settings.temperature)[0]
        return triplet_loss(*one_block(queries, items, pool), settings.triplet_margin)[0]

    p_total = pair.labels.shape[0]
    grad_content = {d: np.zeros_like(content[d]) for d in DOMAINS}
    grad_style = {d: np.zeros_like(style[d]) for d in DOMAINS}
    g_weights = {d: np.zeros((bank.n_items, p_total)) for d in DOMAINS}
    positives = {(k, d): np.full(p_total, -1) for k in ("key", "value") for d in DOMAINS}
    negatives = {(k, d): np.full(p_total, -1) for k in ("key", "value") for d in DOMAINS}
    key_loss = value_loss = rec_loss = 0.0

    for d in DOMAINS:
        opposite = "y" if d == "x" else "x"
        same_values = bank.values_x if d == "x" else bank.values_y
        for cluster in per_domain[d]:
            offset, count = span(bank.layout, cluster.class_id)
            pool = np.arange(offset, offset + count)
            for kind, queries, items, weight, grads in (
                ("key", cluster.content, bank.keys, settings.key_loss_weight, grad_content),
                ("value", cluster.style, same_values, settings.value_loss_weight, grad_style),
            ):
                term = item_loss(queries, items, pool)
                if kind == "key":
                    key_loss += term.value
                else:
                    value_loss += term.value
                grads[d][cluster.positions] += weight * dense_gradient(term.gradient(), queries)
                positives[kind, d][cluster.positions] = term.positives
                if term.negatives is not None:
                    negatives[kind, d][cluster.positions] = term.negatives

            queries = addressed(bank, cluster)
            plane = opposite_plane(bank, d)
            diff = read(bank, queries) @ plane - style[opposite][cluster.positions]
            rec_loss += float(np.sum(diff * diff)) / p_total
            upstream = (2.0 / p_total) * diff
            g_weights[d][:, cluster.positions] = plane @ upstream.T
            through_read = dense_gradient(
                read_backward(bank, queries, g_weights[d][:, cluster.positions]), queries.contents[0].rows
            )
            grad_content[d][cluster.positions] += settings.rec_loss_weight * through_read
            grad_style[opposite][cluster.positions] -= settings.rec_loss_weight * upstream

    total = (
        settings.key_loss_weight * key_loss + settings.value_loss_weight * value_loss
        + settings.rec_loss_weight * rec_loss
    )
    return ReferencePass(
        key_loss,
        value_loss,
        rec_loss,
        total,
        {d: positives["key", d] for d in DOMAINS},
        {d: positives["value", d] for d in DOMAINS},
        {d: negatives["key", d] for d in DOMAINS},
        {d: negatives["value", d] for d in DOMAINS},
        grad_content,
        grad_style,
        g_weights,
        per_domain,
    )


def reference_adam(enc, moments, step, grad_weight, grad_bias, settings) -> tuple[LinearEncoder, tuple]:
    """``enc`` after Adam step ``step`` (1-based), and its new moments:
    ``oracle_adam_scalar`` on every element of each parameter, from
    ``moments``, the (weight, bias) pair of (first, second) moment arrays,
    which are not modified."""
    new, new_moments = {}, []
    for (name, grad), (first, second) in zip((("weight", grad_weight), ("bias", grad_bias)), moments):
        param = getattr(enc, name)
        new[name], m, v = np.empty_like(param), first.copy(), second.copy()
        for i in np.ndindex(param.shape):
            new[name][i], m[i], v[i], _ = oracle_adam_scalar(
                float(param[i]), float(grad[i]), float(m[i]), float(v[i]), step - 1,
                settings.adam_beta1, settings.adam_beta2, ADAM_EPS, settings.learning_rate,
            )
        new_moments.append((m, v))
    return LinearEncoder(**new), tuple(new_moments)


def reference_train_step(state, pair, settings, update_memory=True):
    """(reference pass, encoders after the scalar-oracle Adam, new bank)
    from ``state``, whose moments are not modified."""
    encoders, bank = state.encoders, state.bank
    ref = reference_compute_losses(encoders, bank, pair, settings)
    zeros = lambda p: (np.zeros(p.shape), np.zeros(p.shape))
    stepped = {}
    for name, enc in vars(encoders).items():
        kind, d = name.split("_")
        grad = (ref.grad_content if kind == "content" else ref.grad_style)[d]
        inputs = pair.content if kind == "content" else pair.styles[DOMAINS.index(d)]
        moments = state.moments.get(name) or (zeros(enc.weight), zeros(enc.bias))
        stepped[name], _ = reference_adam(
            enc, moments, state.steps + 1, grad.T @ inputs, grad.sum(axis=0), settings
        )
    encoders = EncoderSet(**stepped)
    if not update_memory:
        return ref, encoders, bank

    new_bank = bank
    for cx, cy in zip(ref.clusters["x"], ref.clusters["y"], strict=True):  # the domains share the labels
        new_bank = update(new_bank, addressed(new_bank, cx, cy))
    return ref, encoders, new_bank


def reference_evaluate(bank, encoders, cfg, scene_count, assignments_path) -> MetricsRow:
    """``harness.evaluate`` in two passes per scene, by the forward route;
    writes ``assignments_path``, each line one ``%`` template call over all
    its columns."""
    spec = cfg.domain_spec()
    settings = cfg.train
    loss_sums = np.zeros(3)
    columns = ["scene,domain,position,label,item,weight"] + [f"c{i}" for i in range(bank.channels)]
    lines = [",".join(columns)]

    pairs = [generate_scene_pair(spec, split_rng(cfg.seed, STREAM_EVAL, i)) for i in range(scene_count)]
    for pair in pairs:
        report, fwd = compute_losses(ForwardState(encoders, bank), pair, settings)
        fwd.grad_content, fwd.grad_style  # the whole training pass, backward included
        loss_sums += (report.key_loss, report.value_loss, report.rec_loss)
    entropy, purity, fidelity = reference_reads(
        bank, encoders, pairs, cfg.reference_layout(), lines, cfg.assignment_scenes
    )
    Path(assignments_path).write_text("".join(line + "\n" for line in lines))
    losses = (float(total) / scene_count for total in loss_sums)
    return MetricsRow(cfg.iterations, *losses, entropy, purity, fidelity)


def reference_reads(bank, encoders, pairs, ref_layout, lines=None, assignment_scenes=0):
    """(util_entropy, purity, fidelity) of the test-time reads of the scene
    ``pairs``, by the forward route: each domain's content rows by
    ``forward``, their own one-block :func:`read_global_one`, and
    :func:`cosine_rows` of the formed mixture with the opposite domain's
    style rows. The first ``assignment_scenes`` scenes append their
    assignments lines to ``lines``."""
    item_classes = ref_layout.item_classes
    template = ",".join(["%d", "%s", "%d", "%d", "%d"] + [FLOAT] * (1 + bank.channels))
    alpha_sum = np.zeros(bank.n_items)
    queries = purity_hits = 0
    fidelity_sum = 0.0
    for i, pair in enumerate(pairs):
        styles = dict(zip(DOMAINS, pair.styles))
        for d, opposite in (("x", "y"), ("y", "x")):
            content = forward(getattr(encoders, f"content_{d}"), pair.content)
            weights = read_global_one(bank, content)
            target = forward(getattr(encoders, f"style_{opposite}"), styles[opposite])
            alpha_sum += weights.sum(axis=0)
            queries += content.shape[0]
            fidelity_sum += float(cosine_rows(weights @ opposite_plane(bank, d), target).sum())
            top = np.argmax(weights, axis=1)
            labels = pair.labels
            purity_hits += int(np.sum(item_classes[top] == labels))
            if i < assignment_scenes:
                picked = weights[np.arange(top.shape[0]), top]
                rows = zip(labels.tolist(), top.tolist(), picked.tolist(), content)
                for p, (label, item, weight, row) in enumerate(rows):
                    lines.append(template % (i, d, p, label, item, weight, *row.tolist()))
    usage = alpha_sum / alpha_sum.sum()
    used = usage[usage > 0.0]
    return float(-np.sum(used * np.log(used))), purity_hits / queries, fidelity_sum / queries


def cosine_rows(a, b):
    """Row-paired cosine similarities of two equally shaped matrices, (P,):
    the dense fidelity of a formed read mixture ``a`` and its targets ``b``."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape or 0 in a.shape:
        raise ShapeError(f"row-paired cosine needs equal non-empty 2-D shapes, got {a.shape} and {b.shape}")
    denom = dot_norms(a) * dot_norms(b) + EPS_DIV
    return np.clip(np.einsum("ij,ij->i", a, b) / denom, -1.0, 1.0)


def pair_rows(seed, class_aware, side, channels=16):
    """A toy-layout (or pooled) bank and one scene pair's content, style and
    labels on a side x side grid, each a tuple (x, y); x and y draw their
    labels independently."""
    rng = split_rng(seed, 0)
    counts = [(1, 3), (2, 2), (3, 2), (0, 3)] if class_aware else [(POOLED_CLASS_ID, 10)]
    bank = init_bank(MemoryLayout.from_counts(counts), channels, rng)
    p = side * side
    draw = lambda: (rng.standard_normal((p, channels)), rng.standard_normal((p, channels)))
    contents, styles = draw(), draw()
    labels = (rng.choice([1, 2, 3, 0], size=p), rng.choice([1, 2, 3, 0], size=p))
    return bank, contents, styles, labels


def one_block(queries, items, pool):
    """The item-loss inputs of one block of ``queries`` whose every row has
    the items of indices ``pool``: ``((queries,), items, mask)``, with the
    boolean (P, N) pool mask."""
    mask = np.zeros((len(queries), len(items)), dtype=bool)
    mask[:, list(pool)] = True
    return (encoded(queries),), items, mask


def assignment_weights(queries, cols=slice(None)):
    """The (P, N) weights with which ``memory.update`` folds the block of a
    query set in columns ``cols`` (by default a one-block set's only block)
    into the items, in its expression: each item's softmax over the cosines
    of the block's queries that address it."""
    return softmax_rows(queries.cosines.sims.T[:, cols], queries.mask.T[:, cols]).T


def dense_gradient(grad, rows):
    """The (P, C) gradient that the factored ``grad`` stands for, at the
    (P, C) ``rows`` it was taken at: ``coef.T @ items + scale * rows``."""
    return grad.coef.T @ grad.items + grad.scale[:, None] * rows


def factored_loss(grad, rows) -> float:
    """A loss of the (P, C) ``rows`` whose gradient is ``dense_gradient(grad, rows)``:
    ``sum((coef.T @ items) * rows) + sum(scale * |row|^2) / 2``, with ``grad``'s
    factors held fixed."""
    return float(np.sum((grad.coef.T @ grad.items) * rows) + 0.5 * np.sum(grad.scale[:, None] * rows * rows))


def assert_same_bits(got, want):
    """Equal shapes, dtypes and bytes: bit for bit, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
