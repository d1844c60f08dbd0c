import numpy as np
import pytest

from stylemem.errors import GenerationError, ValidationError
from stylemem.numerics import split_rng
from stylemem.synthdata import (
    DomainSpec, FeatureScene, SceneSettings, generate_scene_pair, load_scene, save_scene,
)

from reference import cluster_by_class, cosine_rows


def toy_spec(seed=42, **overrides):
    defaults = dict(classes=4, input_channels=16, height=16, width=16, noise_sigma=0.05)
    defaults.update(overrides)
    return DomainSpec.create(split_rng(seed), SceneSettings(**defaults))


def test_spec_prototypes_unit_and_distinct():
    spec = toy_spec()
    for protos in (spec.content_prototypes, spec.style_prototypes_x, spec.style_prototypes_y):
        np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)
        sims = protos @ protos.T
        assert sims[~np.eye(4, dtype=bool)].max() < 1.0 - 1e-9


def test_content_overlap_crowds_foreground_toward_background():
    flat = toy_spec(seed=3, content_overlap=0.0)
    crowded = toy_spec(seed=3, content_overlap=0.8)
    def fg_to_bg(protos):
        return (protos[1:] @ protos[0]).mean()
    assert fg_to_bg(crowded.content_prototypes) > fg_to_bg(flat.content_prototypes) + 0.3


def test_style_overlap_raises_pairwise_similarity():
    flat = toy_spec(seed=3, style_overlap=0.0)
    mixed = toy_spec(seed=3, style_overlap=0.9)
    def mean_off_diag(protos):
        sims = protos @ protos.T
        return sims[~np.eye(protos.shape[0], dtype=bool)].mean()
    assert mean_off_diag(mixed.style_prototypes_x) > mean_off_diag(flat.style_prototypes_x) + 0.3
    # expected pairwise cosine tracks the requested overlap
    assert abs(mean_off_diag(mixed.style_prototypes_x) - 0.9) < 0.1


def test_spec_rejects_single_class():
    with pytest.raises(GenerationError):
        toy_spec(classes=1)


def test_grid_too_small():
    spec = toy_spec()
    with pytest.raises(GenerationError):
        DomainSpec(
            SceneSettings(
                classes=spec.settings.classes,
                input_channels=spec.settings.input_channels,
                height=1,
                width=16,
                noise_sigma=0.0,
            ),
            content_prototypes=spec.content_prototypes,
            style_prototypes_x=spec.style_prototypes_x,
            style_prototypes_y=spec.style_prototypes_y,
        )


def test_pairing_shares_labels_boxes_and_content():
    spec = toy_spec()
    pair = generate_scene_pair(spec, split_rng(7))
    # one labels, boxes and content array serve both domains' styles
    assert pair.labels.shape == (pair.height * pair.width,)
    assert pair.content.shape == pair.styles[0].shape == pair.styles[1].shape
    assert not np.array_equal(pair.styles[0], pair.styles[1])


def test_noiseless_scene_equals_prototypes():
    spec = toy_spec(noise_sigma=0.0)
    pair = generate_scene_pair(spec, split_rng(8))
    np.testing.assert_array_equal(pair.content, spec.content_prototypes[pair.labels])
    np.testing.assert_array_equal(pair.styles[0], spec.style_prototypes_x[pair.labels])
    np.testing.assert_array_equal(pair.styles[1], spec.style_prototypes_y[pair.labels])


def test_noiseless_class_cosines():
    spec = toy_spec(noise_sigma=0.0)
    pair = generate_scene_pair(spec, split_rng(9))
    clusters = cluster_by_class(pair, "x")
    for cluster in clusters:
        assert cosine_rows(cluster.content[:1], cluster.content[-1:])[0] == pytest.approx(1.0)
    for a in clusters:
        for b in clusters:
            if a.class_id != b.class_id:
                assert cosine_rows(a.content[:1], b.content[:1])[0] < 1.0 - 1e-6


def _rms(v):
    return float(np.sqrt(np.mean(v * v)))


def test_seed42_class_means_near_prototypes():
    # per-class mean coordinates are N(mu, sigma^2 / P_k) samples, so their
    # RMS deviation concentrates at sigma / sqrt(P_k)
    spec = toy_spec(seed=42)
    pair = generate_scene_pair(spec, split_rng(42))
    for domain, protos in (
        ("x", spec.style_prototypes_x),
        ("y", spec.style_prototypes_y),
    ):
        for cluster in cluster_by_class(pair, domain):
            bound = 3.0 * spec.settings.noise_sigma / np.sqrt(cluster.size)
            assert _rms(cluster.style.mean(axis=0) - protos[cluster.class_id]) <= bound
    for cluster in cluster_by_class(pair, "x"):
        bound = 3.0 * spec.settings.noise_sigma / np.sqrt(cluster.size)
        assert _rms(cluster.content.mean(axis=0) - spec.content_prototypes[cluster.class_id]) <= bound


def test_clusters_partition_scene():
    spec = toy_spec()
    pair = generate_scene_pair(spec, split_rng(10))
    clusters = cluster_by_class(pair, "x")
    all_positions = np.concatenate([c.positions for c in clusters])
    assert len(np.unique(all_positions)) == pair.labels.shape[0] == 256
    rebuilt_content = np.zeros_like(pair.content)
    rebuilt_style = np.zeros_like(pair.styles[0])
    rebuilt_labels = np.zeros_like(pair.labels)
    for c in clusters:
        rebuilt_content[c.positions] = c.content
        rebuilt_style[c.positions] = c.style
        rebuilt_labels[c.positions] = c.class_id
    np.testing.assert_array_equal(rebuilt_content, pair.content)
    np.testing.assert_array_equal(rebuilt_style, pair.styles[0])
    np.testing.assert_array_equal(rebuilt_labels, pair.labels)


def test_cluster_sizes_match_scanline_box_overlay():
    spec = toy_spec()
    pair = generate_scene_pair(spec, split_rng(11))
    # recompute labels from boxes: later boxes override earlier ones
    grid = np.zeros((pair.height, pair.width), dtype=np.int64)
    for box in pair.boxes:
        for r in range(box.top, box.bottom):
            for c in range(box.left, box.right):
                grid[r, c] = box.class_id
    expected = grid.reshape(-1)
    np.testing.assert_array_equal(pair.labels, expected)
    for cluster in cluster_by_class(pair, "x"):
        assert cluster.size == int((expected == cluster.class_id).sum())


def test_single_class_cluster():
    spec = toy_spec(classes=2)
    pair = generate_scene_pair(spec, split_rng(12))
    clusters = cluster_by_class(pair, "x")
    assert sum(c.size for c in clusters) == pair.labels.shape[0]


def test_scene_generation_deterministic():
    spec = toy_spec()
    a = generate_scene_pair(spec, split_rng(5, 1, 0))
    b = generate_scene_pair(spec, split_rng(5, 1, 0))
    np.testing.assert_array_equal(a.content, b.content)
    np.testing.assert_array_equal(a.styles[1], b.styles[1])
    assert a.boxes == b.boxes


def domain_x(pair) -> FeatureScene:
    """Domain x of a scene pair as a scene fixture."""
    return FeatureScene(pair.content, pair.styles[0], pair.labels, pair.boxes, pair.height, pair.width)


def test_scene_round_trip(tmp_path):
    spec = toy_spec()
    sx = domain_x(generate_scene_pair(spec, split_rng(13)))
    path = tmp_path / "scene.json"
    save_scene(sx, path)
    loaded = load_scene(path)
    np.testing.assert_array_equal(loaded.content, sx.content)
    np.testing.assert_array_equal(loaded.style, sx.style)
    np.testing.assert_array_equal(loaded.labels, sx.labels)
    assert loaded.boxes == sx.boxes


def test_scene_load_rejects_bad_labels(tmp_path):
    spec = toy_spec(height=4, width=4)
    sx = domain_x(generate_scene_pair(spec, split_rng(14)))
    path = tmp_path / "scene.json"
    save_scene(sx, path)
    path.write_text(path.read_text().replace('"height": 4', '"height": 5'))
    with pytest.raises(ValidationError):
        load_scene(path)
