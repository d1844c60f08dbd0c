"""Test-side references for the dense training pass and for evaluation.

``reference_compute_losses``/``reference_train_step`` are the training
iteration written as a loop over 2 domains x the classes present in a
scene: item losses over each class's partition (:func:`one_block`), then
one class-restricted ``read``, ``read_backward`` and ``update`` per class
cluster, with the results scattered back to scene positions. The package
computes the same quantities in one masked (P, N) pass per memory plane;
``test_dense_training.py`` compares the two. The reference holds its
gradients dense, as (P, C) arrays built by :func:`dense_gradient`, and
takes the encoder gradients as ``G.T @ inputs`` and ``G.sum(0)``. It forms
each read's (P, C) mixture and residual, which the package never does, and
takes the gradient at the read weights as ``V @ upstream.T``. The
reference Adam step runs ``oracles.oracle_adam_scalar`` element by element,
so that comparison also covers the package optimizer.

``reference_evaluate`` is evaluation in two passes per scene: the full loss
pass with its gradients, then a fresh encoding of the scene and a
one-block ``read_global`` on the raw content features, whose fidelity is
:func:`cosine_rows` of the formed mixture and the target rows. The package
takes one gradient-free loss pass and reuses its features and cosines;
``test_evaluate.py`` compares the two.

``pair_rows`` draws a bank and the rows of one scene pair, whose two domains
the package addresses in one pass; ``test_memory.py`` and
``test_objectives.py`` compare that pass with one call per domain.

:func:`dense_gradient` is the one place a factored feature gradient
(``numerics.FeatureGrad``) becomes the (P, C) array it stands for, and
:func:`factored_loss` a loss that has it as its gradient, for the
finite-difference checks of ``encoder.backward``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stylemem.encoder import compute_losses, forward
from stylemem.errors import LayoutError
from stylemem.harness import STREAM_EVAL, MetricsRow
from stylemem.memory import (
    POOLED_CLASS_ID, MemoryLayout, address_blocks, init_bank, read, read_backward, read_global, update,
)
from stylemem.errors import ShapeError
from stylemem.numerics import EPS_DIV, cosine_matrix, dot_norms, softmax_rows, split_rng
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


def addressed(bank, cluster: ClassCluster | None):
    """A cluster as a query set addressing its class's partition."""
    if cluster is None:
        return None
    return address_one(bank, cluster.content, cluster.style, np.full(cluster.size, cluster.class_id))


def address_one(bank, content, style, labels):
    """The query set of one block of rows: ``address_blocks`` on one-tuples."""
    return address_blocks(bank, (content,), (style,), (labels,))[2][0]


def read_global_one(bank, content, domain):
    """The test-time read of one block of content rows, from their own cosines."""
    return read_global(bank, (content,), (domain,), cosine_matrix(content, bank.keys))[0]


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
    content = {d: forward(encoders.content(d), pair.content) for d in DOMAINS}
    style = {d: forward(encoders.style(d), s) for d, s in zip(DOMAINS, pair.styles)}
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
            result = read(bank, queries, d)
            diff = result.aggregated_style - style[opposite][cluster.positions]
            rec_loss += float(np.sum(diff * diff)) / p_total
            upstream = (2.0 / p_total) * diff
            g_weights[d][:, cluster.positions] = result.values @ upstream.T
            through_read = dense_gradient(
                read_backward(bank, queries, g_weights[d][:, cluster.positions]), queries.content
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


def reference_adam(enc, grad_weight, grad_bias, settings) -> None:
    """One Adam step on ``enc``: ``oracle_adam_scalar`` on every element of
    each parameter, reading and advancing that parameter's moments and step count."""
    for name, grad in (("weight", grad_weight), ("bias", grad_bias)):
        param, state = getattr(enc, name), getattr(enc, f"{name}_state")
        new = np.empty_like(param)
        m, v = state.first_moment, state.second_moment
        for i in np.ndindex(param.shape):
            new[i], m[i], v[i], _ = oracle_adam_scalar(
                float(param[i]), float(grad[i]), float(m[i]), float(v[i]), state.step_count,
                settings.adam_beta1, settings.adam_beta2, ADAM_EPS, settings.learning_rate,
            )
        state.step_count += 1
        setattr(enc, name, new)


def reference_train_step(encoders, bank, pair, settings, update_memory=True):
    """(reference pass, encoders after the scalar-oracle Adam, new bank);
    ``encoders`` is not modified."""
    encoders = copy.deepcopy(encoders)
    ref = reference_compute_losses(encoders, bank, pair, settings)
    for d, style in zip(DOMAINS, pair.styles):
        grad = ref.grad_content[d]
        reference_adam(encoders.content(d), grad.T @ pair.content, grad.sum(axis=0), settings)
        grad = ref.grad_style[d]
        reference_adam(encoders.style(d), grad.T @ style, grad.sum(axis=0), settings)
    if not update_memory:
        return ref, encoders, bank

    by_class_x = {c.class_id: c for c in ref.clusters["x"]}
    by_class_y = {c.class_id: c for c in ref.clusters["y"]}
    new_bank = bank
    for class_id in sorted(set(by_class_x) | set(by_class_y)):
        new_bank = update(
            new_bank,
            addressed(new_bank, by_class_x.get(class_id)),
            addressed(new_bank, by_class_y.get(class_id)),
        )
    return ref, encoders, new_bank


def reference_evaluate(bank, encoders, cfg, scene_count, assignments_path) -> MetricsRow:
    """``harness.evaluate`` in two passes per scene; writes ``assignments_path``,
    each line one ``%`` template call over all its columns."""
    spec = cfg.domain_spec()
    item_classes = cfg.reference_layout().item_classes
    settings = cfg.train
    alpha_sum = np.zeros(bank.n_items)
    loss_sums = np.zeros(3)
    queries = purity_hits = 0
    fidelity_sum = 0.0
    columns = ["scene,domain,position,label,item,weight"] + [f"c{i}" for i in range(bank.channels)]
    template = ",".join(["%d", "%s", "%d", "%d", "%d"] + [FLOAT] * (1 + bank.channels))
    lines = [",".join(columns)]

    for i in range(scene_count):
        pair = generate_scene_pair(spec, split_rng(cfg.seed, STREAM_EVAL, i))
        report, fwd = compute_losses(encoders, bank, pair, settings)
        fwd.grad_content, fwd.grad_style  # the whole training pass, backward included
        loss_sums += (report.key_loss, report.value_loss, report.rec_loss)

        styles = dict(zip(DOMAINS, pair.styles))
        for d, opposite in (("x", "y"), ("y", "x")):
            content = forward(encoders.content(d), pair.content)
            result = read_global_one(bank, content, d)
            target = forward(encoders.style(opposite), styles[opposite])
            alpha_sum += result.weights.sum(axis=0)
            queries += content.shape[0]
            fidelity_sum += float(cosine_rows(result.aggregated_style, target).sum())
            top = np.argmax(result.weights, axis=1)
            labels = pair.labels
            purity_hits += int(np.sum(item_classes[top] == labels))
            if i < cfg.assignment_scenes:
                picked = result.weights[np.arange(top.shape[0]), top]
                rows = zip(labels.tolist(), top.tolist(), picked.tolist(), content)
                for p, (label, item, weight, row) in enumerate(rows):
                    lines.append(template % (i, d, p, label, item, weight, *row.tolist()))
    Path(assignments_path).write_text("".join(line + "\n" for line in lines))

    usage = alpha_sum / alpha_sum.sum()
    used = usage[usage > 0.0]
    return MetricsRow(
        iteration=cfg.iterations,
        key_loss=float(loss_sums[0]) / scene_count,
        value_loss=float(loss_sums[1]) / scene_count,
        rec_loss=float(loss_sums[2]) / scene_count,
        util_entropy=float(-np.sum(used * np.log(used))),
        purity=purity_hits / queries,
        fidelity=fidelity_sum / queries,
    )


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
    return (queries,), items, mask


def assignment_weights(queries):
    """The (P, N) weights with which ``memory.update`` folds a query set into
    the items, in its expression: each item's softmax over the cosines of
    the queries that address it."""
    return softmax_rows(queries.sims.T, queries.mask.T).T


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
