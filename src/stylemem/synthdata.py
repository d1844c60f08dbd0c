"""Paired two-domain feature scenes on a labeled grid.

A :class:`ScenePair` holds one content sample per position (content is
domain-agnostic), the labels and boxes, and each domain's style sample around
domain-specific per-class prototypes. Class 0 is the background; foreground
classes paint 1-3 rectangles each, later rectangles overriding earlier ones.
``SceneSettings`` holds the ``scene`` config keys and checks their ranges;
``DomainSpec.create`` draws the prototypes from them. A scene fixture is one
domain's :class:`FeatureScene`, stored through :mod:`stylemem.serialize`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationError
from .numerics import l2_normalize_rows
from .serialize import array, check_types, integer, read_json, write_json

SCENE_FORMAT_VERSION = 1

_MIN_BOX_SIDE = 2


@dataclass(frozen=True)
class SceneSettings:
    """The ``scene`` config keys; their range rules run here, before any draw.

    ``content_overlap`` crowds foreground content classes toward the
    background, ``style_overlap`` is the pairwise similarity of the
    per-class style directions within each domain.
    """

    classes: int = 4
    input_channels: int = 16
    height: int = 16
    width: int = 16
    noise_sigma: float = 0.05
    content_overlap: float = 0.0
    style_overlap: float = 0.0

    def __post_init__(self):
        check_types(SceneSettings, vars(self), "scene.")
        if self.classes < 2:
            raise GenerationError(
                f"classes must be >= 2 (background plus a foreground class), got {self.classes}"
            )
        if self.input_channels < 1:
            raise GenerationError(f"input_channels must be >= 1, got {self.input_channels}")
        if self.height < _MIN_BOX_SIDE or self.width < _MIN_BOX_SIDE:
            raise GenerationError(f"grid {self.height}x{self.width} too small for {_MIN_BOX_SIDE}-wide boxes")
        if not self.noise_sigma >= 0.0:
            raise GenerationError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        for name in ("content_overlap", "style_overlap"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise GenerationError(f"{name} must lie in [0, 1), got {getattr(self, name)}")


def _content_prototypes(rng: np.random.Generator, k: int, channels: int, crowding: float) -> np.ndarray:
    """K unit rows; each foreground row is blended toward the background row.

    ``crowding`` is the blend weight: 0 leaves independent random directions,
    values near 1 park every foreground class on top of the background, which
    is the regime where class-restricted addressing has to earn its keep.
    """
    rows = l2_normalize_rows(rng.standard_normal((k, channels)))
    rows[1:] = (1.0 - crowding) * rows[1:] + crowding * rows[0]
    return l2_normalize_rows(rows)


def _style_prototypes(rng: np.random.Generator, k: int, channels: int, overlap: float) -> np.ndarray:
    """K unit rows around one shared direction, pairwise cosine ~ ``overlap``.

    Styles within a domain are globally similar (one rendering condition)
    with per-class variation on top.
    """
    base = rng.standard_normal(channels)
    base /= np.linalg.norm(base)
    ratio = np.sqrt(overlap / (1.0 - overlap)) if overlap > 0.0 else 0.0
    mix = ratio / (1.0 + ratio)
    rows = l2_normalize_rows(rng.standard_normal((k, channels)))
    return l2_normalize_rows(mix * base[None, :] + (1.0 - mix) * rows)


@dataclass(frozen=True)
class DomainSpec:
    """Generative model of one scene pair distribution."""

    settings: SceneSettings
    content_prototypes: np.ndarray
    style_prototypes_x: np.ndarray
    style_prototypes_y: np.ndarray

    def __post_init__(self):
        s = self.settings
        for name in ("content_prototypes", "style_prototypes_x", "style_prototypes_y"):
            protos = getattr(self, name)
            if protos.shape != (s.classes, s.input_channels):
                raise GenerationError(f"{name} shape {protos.shape} mismatches spec")
            sims = protos @ protos.T
            off_diag = sims[~np.eye(s.classes, dtype=bool)]
            if off_diag.size and off_diag.max() > 1.0 - 1e-9:
                raise GenerationError(f"{name} contains coinciding prototypes")

    @classmethod
    def create(cls, rng: np.random.Generator, settings: SceneSettings) -> "DomainSpec":
        """Draw prototypes; order is content, style_x, style_y."""
        k, channels = settings.classes, settings.input_channels
        return cls(
            settings,
            _content_prototypes(rng, k, channels, settings.content_overlap),
            _style_prototypes(rng, k, channels, settings.style_overlap),
            _style_prototypes(rng, k, channels, settings.style_overlap),
        )


@dataclass(frozen=True)
class Box:
    """Half-open rectangle [top, bottom) x [left, right) labeled with a class."""

    class_id: int
    top: int
    bottom: int
    left: int
    right: int


@dataclass
class FeatureScene:
    """Per-position content/style features with class labels, P = H * W."""

    content: np.ndarray
    style: np.ndarray
    labels: np.ndarray
    boxes: list[Box]
    height: int
    width: int


@dataclass
class ScenePair:
    """Both domains' scene, P = H * W: shared content, labels and boxes, and
    ``styles``, the (P, Cin) style samples of domains x and y."""

    content: np.ndarray
    labels: np.ndarray
    boxes: list[Box]
    height: int
    width: int
    styles: tuple[np.ndarray, np.ndarray]


def generate_scene_pair(spec: DomainSpec, rng: np.random.Generator) -> ScenePair:
    """One scene pair, whose domains share labels and content samples.

    Draw order: boxes per foreground class, then one normal block of content
    noise, style noise for x and style noise for y.
    """
    s = spec.settings
    h, w = s.height, s.width
    max_side_h = max(_MIN_BOX_SIDE, h // 3)
    max_side_w = max(_MIN_BOX_SIDE, w // 3)

    grid = np.zeros((h, w), dtype=np.int64)
    boxes: list[Box] = []
    for class_id in range(1, s.classes):
        for _ in range(int(rng.integers(1, 4))):
            box_h = int(rng.integers(_MIN_BOX_SIDE, max_side_h + 1))
            box_w = int(rng.integers(_MIN_BOX_SIDE, max_side_w + 1))
            top = int(rng.integers(0, h - box_h + 1))
            left = int(rng.integers(0, w - box_w + 1))
            box = Box(class_id, top, top + box_h, left, left + box_w)
            grid[box.top : box.bottom, box.left : box.right] = class_id
            boxes.append(box)

    labels = grid.reshape(-1)
    noise = rng.standard_normal((3, h * w, s.input_channels))
    protos = (spec.content_prototypes, spec.style_prototypes_x, spec.style_prototypes_y)
    content, *styles = (p[labels] + s.noise_sigma * n for p, n in zip(protos, noise))
    return ScenePair(content, labels, boxes, h, w, tuple(styles))


def save_scene(scene: FeatureScene, path: str | Path) -> None:
    write_json(path, dict(
        version=SCENE_FORMAT_VERSION, height=scene.height, width=scene.width, labels=scene.labels,
        boxes=[astuple(b) for b in scene.boxes], content=scene.content, style=scene.style,
    ))


def load_scene(path: str | Path) -> FeatureScene:
    doc = read_json(path, "scene", SCENE_FORMAT_VERSION)
    height, width = (integer(f"scene field {k!r}", doc.get(k), minimum=1) for k in ("height", "width"))
    labels = array(doc, "labels", (height * width,), "scene", integral=True)
    content = array(doc, "content", (labels.shape[0], None), "scene")
    style = array(doc, "style", content.shape, "scene")
    boxes = array(doc, "boxes", (None, 5), "scene", integral=True)
    return FeatureScene(content, style, labels, [Box(*row) for row in boxes.tolist()], height, width)
