"""Per-class reference for the dense training pass.

This is the training iteration written as a loop over 2 domains x the
classes present in a scene: item losses over index pools, then one
class-restricted ``read``, ``read_backward`` and ``update`` per class
cluster, with the results scattered back to scene positions. The package
computes the same quantities in one masked (P, N) pass per memory plane;
``test_dense_training.py`` compares the two.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from stylemem.encoder import apply_gradients, backward, forward
from stylemem.memory import address, read, read_backward, update
from stylemem.objectives import contrastive_loss, triplet_loss

DOMAINS = ("x", "y")


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


def cluster_by_class(scene) -> list[ClassCluster]:
    return clusters(scene.labels, scene.content, scene.style)


def addressed(bank, cluster: ClassCluster | None):
    """A cluster as a query set addressing its class's partition."""
    if cluster is None:
        return None
    return address(bank, cluster.content, cluster.style, np.full(cluster.size, cluster.class_id))


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
    clusters: dict


def reference_compute_losses(encoders, bank, scene_x, scene_y, settings) -> ReferencePass:
    scenes = {"x": scene_x, "y": scene_y}
    content = {d: forward(encoders.content(d), scenes[d].content) for d in DOMAINS}
    style = {d: forward(encoders.style(d), scenes[d].style) for d in DOMAINS}
    if settings.class_aware:
        per_domain = {d: clusters(scenes[d].labels, content[d], style[d]) for d in DOMAINS}
    else:
        pooled_id = bank.layout.entries[0].class_id
        every = np.arange(scene_x.positions)
        per_domain = {d: [ClassCluster(pooled_id, content[d], style[d], every)] for d in DOMAINS}

    def item_loss(queries, items, pool):
        if settings.loss_variant == "contrastive":
            return contrastive_loss(queries, items, pool, settings.objective)
        return triplet_loss(queries, items, pool, settings.triplet_margin)

    p_total = scene_x.positions
    cfg = settings.objective
    grad_content = {d: np.zeros_like(content[d]) for d in DOMAINS}
    grad_style = {d: np.zeros_like(style[d]) for d in DOMAINS}
    positives = {(k, d): np.full(p_total, -1) for k in ("key", "value") for d in DOMAINS}
    negatives = {(k, d): np.full(p_total, -1) for k in ("key", "value") for d in DOMAINS}
    key_loss = value_loss = rec_loss = 0.0

    for d in DOMAINS:
        opposite = "y" if d == "x" else "x"
        same_values = bank.values_x if d == "x" else bank.values_y
        for cluster in per_domain[d]:
            offset, count = bank.layout.span(cluster.class_id)
            pool = np.arange(offset, offset + count)
            for kind, queries, items, weight, grads in (
                ("key", cluster.content, bank.keys, cfg.key_weight, grad_content),
                ("value", cluster.style, same_values, cfg.value_weight, grad_style),
            ):
                term = item_loss(queries, items, pool)
                if kind == "key":
                    key_loss += term.value
                else:
                    value_loss += term.value
                grads[d][cluster.positions] += weight * term.grad
                positives[kind, d][cluster.positions] = term.positives
                if term.negatives is not None:
                    negatives[kind, d][cluster.positions] = term.negatives

            queries = addressed(bank, cluster)
            diff = read(bank, queries, d).aggregated_style - style[opposite][cluster.positions]
            rec_loss += float(np.sum(diff * diff)) / p_total
            upstream = (2.0 / p_total) * diff
            grad_content[d][cluster.positions] += settings.rec_weight * read_backward(
                bank, queries, d, upstream
            )
            grad_style[opposite][cluster.positions] -= settings.rec_weight * upstream

    total = cfg.key_weight * key_loss + cfg.value_weight * value_loss + settings.rec_weight * rec_loss
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
        per_domain,
    )


def reference_train_step(encoders, bank, scene_x, scene_y, settings):
    """(reference pass, encoders after Adam, new bank); ``encoders`` is not modified."""
    encoders = copy.deepcopy(encoders)
    ref = reference_compute_losses(encoders, bank, scene_x, scene_y, settings)
    scenes = {"x": scene_x, "y": scene_y}
    for d in DOMAINS:
        gw, gb, _ = backward(encoders.content(d), scenes[d].content, ref.grad_content[d])
        apply_gradients(encoders.content(d), gw, gb)
        gw, gb, _ = backward(encoders.style(d), scenes[d].style, ref.grad_style[d])
        apply_gradients(encoders.style(d), gw, gb)
    if not settings.update_memory:
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
