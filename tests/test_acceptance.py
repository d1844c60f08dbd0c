"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``). Training-based criteria share module-scoped runs.
"""

import copy
import math
import time

import numpy as np
import pytest

from stylemem.encoder import EncoderSet, LinearEncoder, backward, compute_losses, forward
from stylemem.errors import ValidationError
from stylemem.harness import config_from_dict, resolve_config, run_training
from stylemem.memory import (
    MemoryLayout,
    address,
    init_bank,
    load_bank,
    read,
    read_global,
    save_bank,
    update,
    update_weights,
)
from stylemem.numerics import FeatureGrad, l2_normalize_rows, make_rng, split_rng
from stylemem.objectives import contrastive_loss, triplet_loss
from stylemem.synthdata import DomainSpec, SceneSettings, generate_scene_pair

from fdcheck import fd_check
from oracles import oracle_read, oracle_read_global, oracle_update
from reference import dense_gradient, factored_loss, span


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, detail


def _random_layout(rng, n_max):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, min(3, n) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist()) if k > 1 else []
    counts = np.diff([0] + cuts + [n]).tolist()
    return MemoryLayout.from_counts(list(enumerate(counts))), n


def _random_bank(rng, layout, channels):
    n = layout.n_items
    from stylemem.memory import MemoryBank

    return MemoryBank(
        l2_normalize_rows(rng.standard_normal((n, channels))),
        l2_normalize_rows(rng.standard_normal((n, channels))),
        l2_normalize_rows(rng.standard_normal((n, channels))),
        layout,
    )


def _cluster(rng, bank, class_id, size):
    """Random query rows of one class, addressing that class's partition."""
    content = rng.standard_normal((size, bank.channels))
    style = rng.standard_normal((size, bank.channels))
    return address(bank, content, style, np.full(size, class_id))


# ---------------------------------------------------------------------------


def test_criterion_1_stochasticity_invariants():
    start = time.monotonic()
    worst_alpha = 0.0
    worst_beta = 0.0
    for i in range(1000):
        rng = split_rng(9001, i)
        layout, n = _random_layout(rng, 16)
        channels = int(rng.integers(1, 17))
        bank = _random_bank(rng, layout, channels)
        class_id = int(rng.integers(0, len(layout.entries)))
        offset, count = span(layout, class_id)

        cluster = _cluster(rng, bank, class_id, int(rng.integers(1, 17)))
        result = read(bank, cluster, "x")
        worst_alpha = max(worst_alpha, float(np.abs(result.weights.sum(axis=1) - 1.0).max()))
        outside = np.delete(result.weights, np.s_[offset : offset + count], axis=1)
        assert np.all(outside == 0.0)

        for _ in range(2):
            beta = update_weights(bank, _cluster(rng, bank, class_id, int(rng.integers(1, 17))))
            inside = beta[:, offset : offset + count]
            worst_beta = max(worst_beta, float(np.abs(inside.sum(axis=0) - 1.0).max()))
            assert np.all(np.delete(beta, np.s_[offset : offset + count], axis=1) == 0.0)
    elapsed = time.monotonic() - start
    _report(
        1,
        worst_alpha <= 1e-9 and worst_beta <= 1e-9 and elapsed < 5.0,
        f"1000 instances: alpha row-sum dev {worst_alpha:.2e}, beta col-sum dev "
        f"{worst_beta:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for i in range(200):
        rng = split_rng(9002, i)
        layout, n = _random_layout(rng, 8)
        channels = int(rng.integers(1, 9))
        bank = _random_bank(rng, layout, channels)
        class_id = int(rng.integers(0, len(layout.entries)))
        offset, count = span(layout, class_id)

        cluster = _cluster(rng, bank, class_id, int(rng.integers(1, 9)))
        domain = "x" if rng.random() < 0.5 else "y"
        got = read(bank, cluster, domain)
        w_ref, s_ref = oracle_read(
            bank.keys.tolist(), bank.values_x.tolist(), bank.values_y.tolist(),
            offset, count, cluster.content.tolist(), domain,
        )
        worst = max(worst, float(np.abs(got.weights - w_ref).max()))
        worst = max(worst, float(np.abs(got.aggregated_style - s_ref).max()))

        queries = rng.standard_normal((int(rng.integers(1, 9)), channels))
        got_g = read_global(bank, queries, domain)
        w_ref, s_ref = oracle_read_global(
            bank.keys.tolist(), bank.values_x.tolist(), bank.values_y.tolist(),
            queries.tolist(), domain,
        )
        worst = max(worst, float(np.abs(got_g.weights - w_ref).max()))
        worst = max(worst, float(np.abs(got_g.aggregated_style - s_ref).max()))

        cx = _cluster(rng, bank, class_id, int(rng.integers(0, 9)))
        cy = _cluster(rng, bank, class_id, int(rng.integers(0, 9)))
        updated = update(bank, cx, cy)
        k_ref, vx_ref, vy_ref = oracle_update(
            bank.keys.tolist(), bank.values_x.tolist(), bank.values_y.tolist(),
            offset, count,
            cx.content.tolist(), cx.style.tolist(), cy.content.tolist(), cy.style.tolist(),
        )
        worst = max(worst, float(np.abs(updated.keys - k_ref).max()))
        worst = max(worst, float(np.abs(updated.values_x - vx_ref).max()))
        worst = max(worst, float(np.abs(updated.values_y - vy_ref).max()))
    _report(2, worst <= 1e-9, f"200 instances: max |module - oracle| = {worst:.2e}")


def test_criterion_3_update_normalization():
    worst = 0.0
    for i in range(200):
        rng = split_rng(9003, i)
        layout, n = _random_layout(rng, 12)
        channels = int(rng.integers(1, 13))
        bank = _random_bank(rng, layout, channels)
        class_id = int(rng.integers(0, len(layout.entries)))
        offset, count = span(layout, class_id)
        cx = _cluster(rng, bank, class_id, int(rng.integers(1, 9)))
        cy = _cluster(rng, bank, class_id, int(rng.integers(0, 9)))
        updated = update(bank, cx, cy)
        block = slice(offset, offset + count)
        for plane in (updated.keys, updated.values_x, updated.values_y):
            worst = max(worst, float(np.abs(np.linalg.norm(plane[block], axis=1) - 1.0).max()))
    _report(3, worst <= 1e-9, f"200 updates: max |row norm - 1| = {worst:.2e}")


def _fd_term(loss_fn, point):
    return fd_check(loss_fn, point, step=1e-5, tolerance=1e-4)


def test_criterion_4_gradient_correctness():
    failures = []
    worst = 0.0

    # contrastive and triplet losses w.r.t. queries
    for i in range(50):
        rng = split_rng(9004, i)
        p, n, c = int(rng.integers(1, 6)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
        items = rng.standard_normal((n, c))
        queries = rng.standard_normal((p, c))
        pool = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        temperature = float(rng.uniform(0.2, 2.0))

        rep = _fd_term(
            lambda q: (lambda t: (t.value, dense_gradient(t.gradient(), q)))(
                contrastive_loss(q, items, pool, temperature)
            ),
            queries,
        )
        worst = max(worst, rep.max_rel_error)
        if not rep.passed:
            failures.append(("contrastive", i, rep.max_rel_error))

        margin = float(rng.uniform(0.2, 1.5))
        rep = _fd_term(
            lambda q: (lambda t: (t.value, dense_gradient(t.gradient(), q)))(triplet_loss(q, items, pool, margin)),
            queries,
        )
        worst = max(worst, rep.max_rel_error)
        if not rep.passed:
            failures.append(("triplet", i, rep.max_rel_error))

    # encoder backward w.r.t. weight and bias, from a random factored
    # upstream and the loss that has it as its gradient, through the Gram
    # identity and from the rows; the forward map's input jacobian
    # (upstream @ weight), which training has no use for
    for i in range(50):
        rng = split_rng(9005, i)
        c_in, c_out, p = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        enc = LinearEncoder.create(rng, c_in, c_out)
        inputs = rng.standard_normal((p, c_in))
        n = int(rng.integers(1, 6))
        upstream = FeatureGrad(rng.standard_normal((n, c_out)), rng.standard_normal((n, p)), rng.standard_normal(p))

        def weight_loss(w, with_rows=False):
            probe = copy.deepcopy(enc)
            probe.weight = w
            rows = forward(probe, inputs)
            gw, _ = backward(probe, inputs, upstream, rows if with_rows else None)
            return factored_loss(upstream, rows), gw

        def bias_loss(b, with_rows=False):
            probe = copy.deepcopy(enc)
            probe.bias = b
            rows = forward(probe, inputs)
            _, gb = backward(probe, inputs, upstream, rows if with_rows else None)
            return factored_loss(upstream, rows), gb

        def input_loss(x):
            rows = forward(enc, x)
            return factored_loss(upstream, rows), dense_gradient(upstream, rows) @ enc.weight

        for name, fn, point in (
            ("enc-weight", weight_loss, enc.weight),
            ("enc-bias", bias_loss, enc.bias),
            ("enc-weight-rows", lambda w: weight_loss(w, True), enc.weight),
            ("enc-bias-rows", lambda b: bias_loss(b, True), enc.bias),
            ("enc-input", input_loss, inputs),
        ):
            rep = _fd_term(fn, point)
            worst = max(worst, rep.max_rel_error)
            if not rep.passed:
                failures.append((name, i, rep.max_rel_error))

    # full train-step loss against a frozen bank, every encoder parameter;
    # fixed vectors chosen away from the subgradient kinks of the hinge and
    # of positive/negative selection, where central differences are undefined
    for i in range(50):
        rng = split_rng(9106, i)
        spec = DomainSpec.create(rng, SceneSettings(
            classes=3, input_channels=4, height=4, width=4,
            noise_sigma=0.3, content_overlap=0.3, style_overlap=0.3,
        ))
        pair = generate_scene_pair(spec, split_rng(9106, i, 1))
        bank = init_bank(MemoryLayout.from_counts([(1, 2), (2, 2), (0, 2)]), 3, split_rng(9106, i, 2))
        encoders = EncoderSet.create(split_rng(9106, i, 3), 4, 3)
        settings_cls = __import__("stylemem.encoder", fromlist=["TrainSettings"]).TrainSettings
        settings = settings_cls(loss_variant="contrastive" if i % 2 == 0 else "triplet")

        for name in ("content_x", "content_y", "style_x", "style_y"):
            kind, domain = name.split("_")
            inputs = pair.content if kind == "content" else pair.styles["xy".index(domain)]
            for which in ("weight", "bias"):

                def fn(param, _name=name, _which=which, _inputs=inputs, _kind=kind, _domain=domain):
                    probe = copy.deepcopy(encoders)
                    enc = getattr(probe, _name)
                    if _which == "weight":
                        enc.weight = param
                    else:
                        enc.bias = param
                    report, fwd = compute_losses(probe, bank, pair, settings)
                    grads = fwd.grad_content if _kind == "content" else fwd.grad_style
                    gw, gb = backward(enc, _inputs, grads[_domain])
                    return report.total, gw if _which == "weight" else gb

                enc = getattr(encoders, name)
                rep = _fd_term(fn, enc.weight if which == "weight" else enc.bias)
                worst = max(worst, rep.max_rel_error)
                if not rep.passed:
                    failures.append((f"pipeline-{name}-{which}", i, rep.max_rel_error))

    _report(
        4,
        not failures,
        f"contrastive/triplet/encoder/full-pipeline FD checks: worst rel err {worst:.2e}"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_5_contrastive_limits():
    single = contrastive_loss(
        np.array([[0.3, -0.8]]), np.array([[1.0, 0.0]]), [0], 0.7
    )
    rng = make_rng(9007)
    queries = rng.standard_normal((4, 5))
    items = rng.standard_normal((6, 5))
    flat = contrastive_loss(queries, items, range(6), 1e9)
    deviation = abs(flat.value / 4.0 - math.log(6))
    _report(
        5,
        single.value == 0.0 and deviation <= 1e-6,
        f"single-item loss {single.value!r}, tau=1e9 per-query deviation from log N' = {deviation:.2e}",
    )


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    cfg = config_from_dict(resolve_config({"preset": "toy"}))
    out = tmp_path_factory.mktemp("toy_run")
    start = time.monotonic()
    result = run_training(cfg, out)
    elapsed = time.monotonic() - start
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory, toy_run):
    purities = {("class-aware", "contrastive"): toy_run[1].final_eval.purity}
    for mode, loss in (
        ("class-aware", "triplet"),
        ("single", "contrastive"),
        ("single", "triplet"),
    ):
        cfg = config_from_dict(
            resolve_config({"preset": "toy", "memory_mode": mode, "loss_variant": loss})
        )
        out = tmp_path_factory.mktemp(f"ablation_{mode}_{loss}")
        purities[(mode, loss)] = run_training(cfg, out).final_eval.purity
    return purities


def test_criterion_6_desk_scale_training(toy_run):
    cfg, result, elapsed = toy_run
    assert cfg.eval_scenes == 100
    final = result.final_eval
    _report(
        6,
        final.purity >= 0.90 and final.fidelity >= 0.95 and elapsed < 60.0,
        f"toy run: purity {final.purity:.4f} (>= 0.90), fidelity {final.fidelity:.4f} "
        f"(>= 0.95), {elapsed:.1f}s (< 60s), 100 held-out scenes",
    )


def test_criterion_7_ablation_trend(ablation_runs):
    cm_cl = ablation_runs[("class-aware", "contrastive")]
    cm_tl = ablation_runs[("class-aware", "triplet")]
    sm_cl = ablation_runs[("single", "contrastive")]
    sm_tl = ablation_runs[("single", "triplet")]
    margins = {
        "cm+cl vs cm+tl": cm_cl - cm_tl,
        "cm+tl vs sm+tl": cm_tl - sm_tl,
        "cm+cl vs sm+cl": cm_cl - sm_cl,
    }
    _report(
        7,
        all(m >= 0.02 for m in margins.values()),
        f"purities cm+cl={cm_cl:.4f} cm+tl={cm_tl:.4f} sm+cl={sm_cl:.4f} sm+tl={sm_tl:.4f}; "
        + ", ".join(f"{k}: {v:+.4f}" for k, v in margins.items()),
    )


def test_criterion_8_determinism(tmp_path):
    cfg = config_from_dict(resolve_config({"preset": "toy", "iterations": 40, "eval_scenes": 5}))
    run_training(cfg, tmp_path / "a")
    run_training(cfg, tmp_path / "b")
    same_metrics = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    same_bank = (tmp_path / "a" / "bank.json").read_bytes() == (
        tmp_path / "b" / "bank.json"
    ).read_bytes()
    _report(
        8,
        same_metrics and same_bank,
        f"identical config+seed: metrics.csv identical={same_metrics}, bank.json identical={same_bank}",
    )


def test_criterion_9_persistence(tmp_path):
    rng = make_rng(9009)
    bank = _random_bank(rng, MemoryLayout.from_counts([(1, 5), (2, 3), (3, 2), (0, 10)]), 256)
    path = tmp_path / "bank.json"
    save_bank(bank, path)
    loaded = load_bank(path)
    bitwise = (
        np.array_equal(loaded.keys, bank.keys)
        and np.array_equal(loaded.values_x, bank.values_x)
        and np.array_equal(loaded.values_y, bank.values_y)
    )
    corrupted = path.read_text().replace('{"class": 1, "count": 5}', '{"class": 1, "count": 6}')
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(corrupted)
    try:
        load_bank(bad_path)
        rejected = False
    except ValidationError:
        rejected = True
    _report(
        9,
        bitwise and rejected,
        f"round trip bitwise={bitwise}, corrupted layout rejected={rejected}",
    )
