"""Independent scalar-loop reference implementations.

Everything here is written against plain Python lists with explicit loops and
``math`` calls, on purpose: these functions are the oracles the vectorized
package code is checked against, so they must not share any code with it.
"""

from __future__ import annotations

import math

EPS_DIV = 1e-12
DIST_FLOOR = 1e-12


def oracle_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    d = dot / (na * nb + EPS_DIV)
    return max(-1.0, min(1.0, d))


def oracle_softmax(xs):
    m = max(xs)
    es = [math.exp(x - m) for x in xs]
    s = sum(es)
    return [e / s for e in es]


def oracle_l2_normalize(v):
    n = math.sqrt(sum(x * x for x in v))
    if n <= EPS_DIV:
        return list(v)
    return [x / n for x in v]


def oracle_adam_scalar(param, grad, m, v, t, beta1, beta2, eps, lr):
    """One Adam step on a single scalar; returns (new_param, m, v, t)."""
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (math.sqrt(v_hat) + eps), m, v, t


def oracle_read(keys, values_x, values_y, offset, count, queries, domain):
    """Partition-restricted read: (full-width weights, aggregated style).

    ``keys``/``values_*`` are N x C lists, ``queries`` P x C; the softmax runs
    over the ``count`` items starting at ``offset``. Queries from domain "x"
    aggregate ``values_y`` and vice versa.
    """
    n_items = len(keys)
    channels = len(keys[0])
    values = values_y if domain == "x" else values_x
    weights = []
    aggregated = []
    for q in queries:
        sims = [oracle_cosine(q, keys[offset + j]) for j in range(count)]
        alpha = oracle_softmax(sims)
        row = [0.0] * n_items
        for j in range(count):
            row[offset + j] = alpha[j]
        weights.append(row)
        s_hat = [0.0] * channels
        for j in range(count):
            for c in range(channels):
                s_hat[c] += alpha[j] * values[offset + j][c]
        aggregated.append(s_hat)
    return weights, aggregated


def oracle_read_global(keys, values_x, values_y, queries, domain):
    return oracle_read(keys, values_x, values_y, 0, len(keys), queries, domain)


def oracle_update_weights(keys, offset, count, queries):
    """Column-stochastic update weights, P x count, softmax over queries."""
    sims = [[oracle_cosine(q, keys[offset + j]) for j in range(count)] for q in queries]
    beta = [[0.0] * count for _ in queries]
    for j in range(count):
        col = [sims[p][j] for p in range(len(queries))]
        soft = oracle_softmax(col)
        for p in range(len(queries)):
            beta[p][j] = soft[p]
    return beta


def oracle_update(keys, values_x, values_y, offset, count, content_x, style_x, content_y, style_y):
    """Additive key/value update with unit renormalization.

    Either domain's query set may be empty, in which case its contribution is
    skipped. Returns (keys, values_x, values_y) as fresh nested lists.
    """
    channels = len(keys[0])
    new_keys = [list(row) for row in keys]
    new_vx = [list(row) for row in values_x]
    new_vy = [list(row) for row in values_y]

    beta_x = oracle_update_weights(keys, offset, count, content_x) if content_x else None
    beta_y = oracle_update_weights(keys, offset, count, content_y) if content_y else None

    for j in range(count):
        k = list(keys[offset + j])
        if beta_x is not None:
            for p in range(len(content_x)):
                for c in range(channels):
                    k[c] += beta_x[p][j] * content_x[p][c]
        if beta_y is not None:
            for p in range(len(content_y)):
                for c in range(channels):
                    k[c] += beta_y[p][j] * content_y[p][c]
        new_keys[offset + j] = oracle_l2_normalize(k)

        if beta_x is not None:
            vx = list(values_x[offset + j])
            for p in range(len(style_x)):
                for c in range(channels):
                    vx[c] += beta_x[p][j] * style_x[p][c]
            new_vx[offset + j] = oracle_l2_normalize(vx)
        if beta_y is not None:
            vy = list(values_y[offset + j])
            for p in range(len(style_y)):
                for c in range(channels):
                    vy[c] += beta_y[p][j] * style_y[p][c]
            new_vy[offset + j] = oracle_l2_normalize(vy)

    return new_keys, new_vx, new_vy


def oracle_linear_forward(weight, bias, inputs):
    """Row-wise affine map with explicit loops."""
    out = []
    for row in inputs:
        out_row = []
        for o in range(len(weight)):
            acc = bias[o]
            for i, x in enumerate(row):
                acc += weight[o][i] * x
            out_row.append(acc)
        out.append(out_row)
    return out


def oracle_contrastive(queries, items, positive_pool, temperature):
    """Per-query -log softmax at the cosine-nearest pool item; returns
    (total, positives)."""
    total = 0.0
    positives = []
    for q in queries:
        best = max(positive_pool, key=lambda i: (oracle_cosine(q, items[i]), -i))
        logits = [sum(x * y for x, y in zip(q, item)) / temperature for item in items]
        m = max(logits)
        lse = m + math.log(sum(math.exp(z - m) for z in logits))
        total += lse - logits[best]
        positives.append(best)
    return total, positives


def oracle_triplet(queries, items, positive_pool, margin):
    """Hinge on euclidean distances to the nearest pool item vs the nearest
    remaining item; returns (total, positives, negatives)."""
    total = 0.0
    positives = []
    negatives = []
    for q in queries:
        best = max(positive_pool, key=lambda i: (oracle_cosine(q, items[i]), -i))
        rest = [i for i in range(len(items)) if i != best]
        neg = max(rest, key=lambda i: (oracle_cosine(q, items[i]), -i))
        d_pos = math.sqrt(sum((x - y) ** 2 for x, y in zip(q, items[best])))
        d_neg = math.sqrt(sum((x - y) ** 2 for x, y in zip(q, items[neg])))
        total += max(0.0, d_pos - d_neg + margin)
        positives.append(best)
        negatives.append(neg)
    return total, positives, negatives


def _pairwise_sum(xs):
    """numpy's float64 pairwise sum of a contiguous run: plain below 8 values,
    8 accumulators over blocks of up to 128, halves above, so that a sum of
    squares has the bits of ``np.add.reduce`` along a row."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        acc = list(xs[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                acc[j] += xs[i + j]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for x in xs[i:]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def oracle_triplet_factors(queries, items, positives, negatives, margin):
    """Per-query subgradient of the triplet hinge for the given positives and
    negatives, in factors: with each side's inverse distance, 0.0 where the
    hinge is inactive or the distance is at most ``DIST_FLOOR``, the gradient
    of query p is ``scale[p] * q - inv_pos * items[pos] + inv_neg * items[neg]``.
    Returns (coef, scale): ``coef`` an N x P list holding -inv_pos at the
    positive and inv_neg at the negative, ``scale[p] = inv_pos - inv_neg``."""
    coef = [[0.0] * len(queries) for _ in items]
    scale = []
    for p, (q, best, neg) in enumerate(zip(queries, positives, negatives)):
        d_pos = math.sqrt(_pairwise_sum([(x - y) * (x - y) for x, y in zip(q, items[best])]))
        d_neg = math.sqrt(_pairwise_sum([(x - y) * (x - y) for x, y in zip(q, items[neg])]))
        active = d_pos - d_neg + margin > 0.0
        inv_pos = 1.0 / d_pos if active and d_pos > DIST_FLOOR else 0.0
        inv_neg = 1.0 / d_neg if active and d_neg > DIST_FLOOR else 0.0
        coef[best][p] = -inv_pos
        coef[neg][p] = inv_neg
        scale.append(inv_pos - inv_neg)
    return coef, scale
