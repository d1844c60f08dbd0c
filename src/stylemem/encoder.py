"""Learnable affine encoders and the per-iteration training pipeline.

One content and one style encoder per domain stand in for the feature
extractors upstream of the memory. Forward, backward, and the Adam step are
hand-written so the whole gradient path (loss -> read -> encoder) is explicit
and checkable by finite differences. It ends at the encoder parameters:
:func:`backward` returns ``(d_weight, d_bias)`` only.

A loss pass (:func:`compute_losses`) encodes both domains of a scene pair
and addresses the bank once with its labels: one partition mask, one
content-key cosine matrix and its read weights, each in the pair storage of
:mod:`stylemem.memory`. Each memory plane's item loss runs once
for both domains, and each domain's loss is summed over its own P queries.
Its only gradient is the reconstruction loss's with respect to each read,
made in place from the read residual. The item-loss gradients and the read
backward pass run on first access of ``ForwardPass.grad_content``/
``grad_style``, which only :func:`train_step` makes, so evaluation pays for
the forward pass alone. The feature gradients are factored by the
:class:`~stylemem.numerics.FeatureGrad` rule of :mod:`stylemem.numerics`:
each is summed from its terms' (N, P) and (P,) factors, and
:func:`backward` takes it to the parameters with the encoded rows, so no
(P, C) gradient array is formed. A training iteration checks that its loss
is finite, backpropagates into the encoders, applies Adam, and, if asked,
folds the iteration's features into the memory. Checkpoints (see
:mod:`stylemem.serialize`) hold no optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .memory import MemoryBank, QuerySet, address_blocks, read, read_backward, update
from .numerics import AdamState, FeatureGrad, adam_step
from .objectives import LossTerm, contrastive_loss, triplet_loss
from .serialize import array, check_types, integer, read_json, write_json
from .synthdata import ScenePair

ENCODER_FORMAT_VERSION = 1

_DOMAINS = ("x", "y")


@dataclass
class LinearEncoder:
    """Row-wise affine map; each parameter's Adam moments start at zero."""

    weight: np.ndarray
    bias: np.ndarray
    weight_state: AdamState = field(init=False)
    bias_state: AdamState = field(init=False)

    def __post_init__(self):
        self.weight_state = AdamState.for_param(self.weight.shape)
        self.bias_state = AdamState.for_param(self.bias.shape)

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int) -> "LinearEncoder":
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("encoder needs at least one input and output channel")
        weight = rng.standard_normal((out_channels, in_channels)) / np.sqrt(in_channels)
        return cls(weight, np.zeros(out_channels))

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


def forward(enc: LinearEncoder, inputs: np.ndarray) -> np.ndarray:
    """Affine map over rows: inputs @ W.T + b."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != enc.in_channels:
        raise ShapeError(f"inputs shape {inputs.shape} incompatible with W {enc.weight.shape}")
    out = inputs @ enc.weight.T
    out += enc.bias
    return out


def backward(
    enc: LinearEncoder, inputs: np.ndarray, grad: FeatureGrad, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradients (d_weight, d_bias) from ``grad``, the factored
    gradient with respect to ``rows``, which must be ``forward(enc, inputs)``
    at the weight and bias ``enc`` holds now: take the gradients before the
    step that changes them. The inputs are scene features, so no input
    gradient is computed.

    With X the inputs, R the rows and s the scale, ``d_weight = items.T @
    (coef @ X) + R.T @ (s * X)`` and ``d_bias = items.T @ coef.sum(1) + s @
    R``. An encoder with no more output than input channels takes the s
    terms from R; a wider one takes them through the Gram identity ``R.T @
    (s * X) = W @ (X.T @ (s * X)) + outer(b, s @ X)``, whose products are of
    input width.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    items, coef, scale = grad.items, grad.coef, grad.scale
    shape = (len(inputs), enc.out_channels)
    parts = (inputs.shape[1:], items.shape[1:], coef.shape, scale.shape, rows.shape)
    if parts != (enc.weight.shape[1:], shape[1:], (len(items), shape[0]), shape[:1], shape):
        raise ShapeError(f"inputs, items, coef, scale and rows {parts} do not fit W {enc.weight.shape}")
    d_weight = items.T @ (coef @ inputs)
    d_bias = items.T @ coef.sum(axis=1)
    if enc.out_channels <= enc.in_channels:
        d_weight += (rows.T * scale) @ inputs
        d_bias += scale @ rows
    else:
        scale_x = scale @ inputs
        d_weight += enc.weight @ ((inputs.T * scale) @ inputs)
        d_weight += np.multiply.outer(enc.bias, scale_x)
        d_bias += enc.weight @ scale_x
        d_bias += scale.sum() * enc.bias
    return d_weight, d_bias


def apply_gradients(
    enc: LinearEncoder, grad_weight: np.ndarray, grad_bias: np.ndarray, settings: TrainSettings
) -> None:
    adam = (settings.learning_rate, settings.adam_beta1, settings.adam_beta2)
    enc.weight = adam_step(enc.weight, grad_weight, enc.weight_state, *adam)
    enc.bias = adam_step(enc.bias, grad_bias, enc.bias_state, *adam)


@dataclass
class EncoderSet:
    """Content and style encoders for both domains."""

    content_x: LinearEncoder
    content_y: LinearEncoder
    style_x: LinearEncoder
    style_y: LinearEncoder

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int) -> "EncoderSet":
        make = lambda: LinearEncoder.create(rng, in_channels, out_channels)
        return cls(content_x=make(), content_y=make(), style_x=make(), style_y=make())

    def content(self, domain: str) -> LinearEncoder:
        return self.content_x if domain == "x" else self.content_y

    def style(self, domain: str) -> LinearEncoder:
        return self.style_x if domain == "x" else self.style_y

    def all(self) -> tuple[LinearEncoder, ...]:
        return (self.content_x, self.content_y, self.style_x, self.style_y)


@dataclass(frozen=True)
class TrainSettings:
    """The loss and optimizer settings of a training step; each field is
    the config key of the same name, and this is the one place their ranges
    are checked."""

    temperature: float = 0.1
    key_loss_weight: float = 1.0
    value_loss_weight: float = 0.5
    rec_loss_weight: float = 1.0
    loss_variant: str = "contrastive"
    triplet_margin: float = 1.0
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999

    def __post_init__(self):
        check_types(self)
        if self.loss_variant not in ("contrastive", "triplet"):
            raise ConfigError(f"loss_variant must be 'contrastive' or 'triplet', got {self.loss_variant!r}")
        if not self.temperature > 0.0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        for name in ("key_loss_weight", "value_loss_weight", "rec_loss_weight", "triplet_margin"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be > 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")


@dataclass
class LossReport:
    """Unweighted loss values; the pass's ``ForwardPass`` terms hold the positives."""

    key_loss: float
    value_loss: float
    rec_loss: float
    total: float


@dataclass
class ForwardPass:
    """One loss pass over a scene pair: per-domain query sets (encoded
    features against the bank), item-loss terms and ``upstream``, the
    gradient of the reconstruction loss with respect to each read style;
    ``sims`` is the (2P, N) view of both domains' content-key cosines.

    The gradients of the weighted total loss with respect to the encoded
    content and style are computed on first access of ``grad_content`` and
    ``grad_style``, each a :class:`FeatureGrad` that sums its terms' factors
    with the loss weights: content the key term and :func:`read_backward`;
    style ``d`` the value term and the opposite domain's read, whose
    reconstruction term is ``-(2/P) weights_opp`` on ``values_d`` plus ``2/P``.
    """

    bank: MemoryBank
    settings: TrainSettings
    queries: dict[str, QuerySet]
    key_terms: dict[str, LossTerm]
    value_terms: dict[str, LossTerm]
    upstream: dict[str, np.ndarray]
    sims: np.ndarray

    @cached_property
    def grad_content(self) -> dict[str, FeatureGrad]:
        key, rec = self.settings.key_loss_weight, self.settings.rec_loss_weight
        grads = {}
        for d, q in self.queries.items():
            term = self.key_terms[d].gradient()
            through_read = read_backward(self.bank, q, d, self.upstream[d])
            coef = key * term.coef + rec * through_read.coef
            grads[d] = FeatureGrad(term.items, coef, key * term.scale + rec * through_read.scale)
        return grads

    @cached_property
    def grad_style(self) -> dict[str, FeatureGrad]:
        value = self.settings.value_loss_weight
        grads = {}
        for d, opposite in (("x", "y"), ("y", "x")):
            term = self.value_terms[d].gradient()
            rec = self.settings.rec_loss_weight * 2.0 / self.queries[d].size
            coef = value * term.coef - rec * self.queries[opposite].weights.T
            grads[d] = FeatureGrad(term.items, coef, value * term.scale + rec)
        return grads


def _item_loss(queries: tuple, items, pool: np.ndarray, settings: TrainSettings, cosines=None) -> dict:
    """Each domain's item-loss term of one memory plane, from one loss call."""
    if settings.loss_variant == "contrastive":
        return dict(zip(_DOMAINS, contrastive_loss(queries, items, pool, settings.temperature, cosines)))
    return dict(zip(_DOMAINS, triplet_loss(queries, items, pool, settings.triplet_margin, cosines)))


def compute_losses(
    encoders: EncoderSet,
    bank: MemoryBank,
    pair: ScenePair,
    settings: TrainSettings,
) -> tuple[LossReport, ForwardPass]:
    """Loss pass over a scene pair against a frozen bank.

    Returns the loss report plus the forward pass: the encoded query sets,
    from which the analytic gradients of the weighted total loss with
    respect to each encoded feature matrix follow on demand. Neither the
    encoders, the bank nor the pair are modified.
    """
    content = tuple(forward(encoders.content(d), pair.content) for d in _DOMAINS)
    style = tuple(forward(encoders.style(d), s) for d, s in zip(_DOMAINS, pair.styles))
    mask, cosines, sets = address_blocks(bank, content, style, (pair.labels, pair.labels))
    queries = dict(zip(_DOMAINS, sets))
    key_terms = _item_loss(content, bank.keys, mask, settings, cosines)
    value_terms = _item_loss(style, (bank.values_x, bank.values_y), mask, settings)

    p_total = pair.labels.shape[0]
    upstream = {}
    rec_loss = 0.0
    for d, opposite in (("x", "y"), ("y", "x")):
        # style reconstruction through the read: the cross-domain mixture
        # should reproduce the paired scene's encoded style
        upstream[d] = diff = read(bank, queries[d], d).aggregated_style
        diff -= queries[opposite].style
        rec_loss += float(np.einsum("ij,ij->", diff, diff)) / p_total
        diff *= 2.0 / p_total  # now d(rec_loss)/d(read style)

    key_loss = key_terms["x"].value + key_terms["y"].value
    value_loss = value_terms["x"].value + value_terms["y"].value
    s = settings
    total = s.key_loss_weight * key_loss + s.value_loss_weight * value_loss + s.rec_loss_weight * rec_loss
    report = LossReport(key_loss, value_loss, rec_loss, total)
    return report, ForwardPass(bank, settings, queries, key_terms, value_terms, upstream, cosines.sims)


def train_step(
    encoders: EncoderSet,
    bank: MemoryBank,
    pair: ScenePair,
    settings: TrainSettings,
    update_memory: bool = True,
) -> tuple[LossReport, MemoryBank]:
    """One training iteration on a scene pair.

    The encoders are updated in place through their Adam states; with
    ``update_memory`` the returned bank is a new object (reads and losses
    always use the iteration's starting bank), else it is ``bank``. The
    pair is never modified. A non-finite loss names its unweighted terms.
    """
    report, fwd = compute_losses(encoders, bank, pair, settings)
    if not np.isfinite(report.total):
        terms = f"key {report.key_loss}, value {report.value_loss}, rec {report.rec_loss}"
        raise ValidationError(f"loss became non-finite ({terms})")

    for d, style in zip(_DOMAINS, pair.styles):
        queries = fwd.queries[d]
        gw, gb = backward(encoders.content(d), pair.content, fwd.grad_content[d], queries.content)
        apply_gradients(encoders.content(d), gw, gb, settings)
        gw, gb = backward(encoders.style(d), style, fwd.grad_style[d], queries.style)
        apply_gradients(encoders.style(d), gw, gb, settings)

    for name, enc in vars(encoders).items():
        if not (np.all(np.isfinite(enc.weight)) and np.all(np.isfinite(enc.bias))):
            raise ValidationError(f"encoder {name} parameters became non-finite")
        # where a second moment is inf, Adam's step is 0 and the weight stops learning
        if not all(np.all(np.isfinite(s.second_moment)) for s in (enc.weight_state, enc.bias_state)):
            raise ValidationError(f"encoder {name} Adam second moments became non-finite")

    if not update_memory:
        return report, bank
    return report, update(bank, fwd.queries["x"], fwd.queries["y"])


# --- persistence ---


def save_encoders(encoders: EncoderSet, path: str | Path) -> None:
    """Checkpoint weights and biases (optimizer state is not persisted)."""
    blocks = {name: dict(weight=e.weight, bias=e.bias) for name, e in vars(encoders).items()}
    write_json(path, dict(
        version=ENCODER_FORMAT_VERSION, in_channels=encoders.content_x.in_channels,
        out_channels=encoders.content_x.out_channels, encoders=blocks,
    ))


def load_encoders(path: str | Path) -> EncoderSet:
    """Load a checkpoint; the Adam moments start at zero, and the
    optimizer settings come from the ``TrainSettings`` of each step."""
    doc = read_json(path, "encoder", ENCODER_FORMAT_VERSION)
    widths = tuple(
        integer(f"encoder field {k!r}", doc.get(k), minimum=1) for k in ("out_channels", "in_channels")
    )
    blocks = doc.get("encoders")
    if not isinstance(blocks, dict):
        raise ValidationError("encoder file needs an 'encoders' object")
    loaded = {}
    for name in (f.name for f in fields(EncoderSet)):
        block = blocks.get(name)
        if not isinstance(block, dict):
            raise ValidationError(f"encoder file missing {name!r}")
        weight = array(block, "weight", widths, f"encoder {name!r}")
        bias = array(block, "bias", widths[:1], f"encoder {name!r}")
        loaded[name] = LinearEncoder(weight, bias)
    return EncoderSet(**loaded)
