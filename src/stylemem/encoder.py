"""Learnable affine encoders and the per-iteration training pipeline.

One content and one style encoder per domain stand in for the feature
extractors upstream of the memory. Forward, backward, and the Adam step are
hand-written so the whole gradient path (loss -> read -> encoder) is explicit
and checkable by finite differences. It ends at the encoder parameters:
:func:`backward` returns ``(d_weight, d_bias)`` only.

Every pass takes one :class:`State`: the encoders and the bank it runs at,
and the Adam moments of the run. Encodings follow the encoding rule of
:mod:`stylemem.numerics`: an encoder with no more output than input
channels forms its rows by :func:`forward`, and a wider one leaves them to
an :class:`~stylemem.numerics.Affine`. A state makes those on first use,
and every pass at it takes them from it, and the value-plane Grams from
its bank (``MemoryBank.grams``). Encoders, encoder sets and banks are frozen, and the arrays the package
makes for them are read-only, so a state cannot change and its factors
cannot go stale; a step returns a new state.

A loss pass (:func:`compute_losses`) encodes both domains of a scene pair
and addresses the bank once with its labels: one query set, whose partition
mask, content-key cosine matrix and read weights are each in the pair
storage of :mod:`stylemem.memory`. Each memory plane's item loss runs once
for both domains, and each domain's loss is summed over its own P queries.
The reconstruction loss follows the factored-read rule of
:mod:`stylemem.numerics`: it takes each value plane's Gram matrix once and
the value-plane cosines that the value item loss also uses, so no read
mixture or residual is formed. Its only gradient is the one with respect to
the pair's read weights, one (N, 2P) array. The item-loss gradients and the
read backward pass, one call for the pair, run on first access of
``ForwardPass.grad_content``/``grad_style``, which only :func:`train_step`
makes, so evaluation pays for the forward pass alone. The feature gradients are factored by the
:class:`~stylemem.numerics.FeatureGrad` rule of :mod:`stylemem.numerics`:
each is summed from its terms' (N, P) and (P,) factors, and
:func:`backward` takes it to the parameters with the encoding, so no
(P, C) gradient array is formed. A training iteration checks that its loss
is finite, makes the feature gradients, folds the iteration's features
into the memory if asked, then backpropagates into the encoders and
applies Adam; each makes new objects, and none modifies its state.
Checkpoints (see :mod:`stylemem.serialize`) hold no optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .memory import MemoryBank, QuerySet, address_blocks, read, read_backward, update
from .numerics import Affine, Cosines, Encoding, FeatureGrad, adam_step, forward, read_only
from .objectives import LossTerm, contrastive_loss, triplet_loss
from .serialize import array, check_types, integer, read_json, write_json
from .synthdata import ScenePair

ENCODER_FORMAT_VERSION = 1

_DOMAINS = ("x", "y")

# the factors of an Affine past W and b, which the step and the encoder file check
_FACTORED = tuple(f.name for f in fields(Affine)[2:])


@dataclass(frozen=True)
class LinearEncoder:
    """Row-wise affine map of a (C, Cin) weight and a (C,) bias; other
    shapes raise a ``ShapeError``. The weight and bias arrays the package
    makes are read-only, and a step makes new encoders."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weight, bias = getattr(self.weight, "shape", None), getattr(self.bias, "shape", None)
        if weight is None or len(weight) != 2 or 0 in weight or bias != weight[:1]:
            raise ShapeError(
                f"encoder weight shape {weight} and bias shape {bias}, need (C, Cin) and (C,) with C, Cin >= 1"
            )

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int) -> "LinearEncoder":
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("encoder needs at least one input and output channel")
        weight = rng.standard_normal((out_channels, in_channels)) / np.sqrt(in_channels)
        return cls(read_only(weight), read_only(np.zeros(out_channels)))

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


def backward(encoding: Encoding, grad: FeatureGrad) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradients (d_weight, d_bias), at the weight and bias that
    made ``encoding``, from ``grad``, the factored gradient with respect to
    its rows. The inputs are scene features, so no input gradient is
    computed.

    With X the inputs, R the rows and s the scale, ``d_weight = items.T @
    (coef @ X) + R.T @ (s * X)`` and ``d_bias = items.T @ coef.sum(1) + s @
    R``. Formed rows give the s terms from R; an encoding without them
    takes them through the Gram identity ``R.T @ (s * X) = W @ (X.T @ (s *
    X)) + outer(b, s @ X)``, whose products are of input width.
    """
    inputs, items, coef, scale = encoding.inputs, grad.items, grad.coef, grad.scale
    shape = encoding.shape
    parts = (items.shape[1:], coef.shape, scale.shape)
    if parts != (shape[1:], (len(items), shape[0]), shape[:1]):
        raise ShapeError(f"items, coef and scale {parts} do not fit the encoding's rows {shape}")
    d_weight = items.T @ (coef @ inputs)
    d_bias = items.T @ coef.sum(axis=1)
    if encoding.rows is not None:
        d_weight += (encoding.rows.T * scale) @ inputs
        d_bias += scale @ encoding.rows
    else:
        weight, bias = encoding.affine.weight, encoding.affine.bias
        scale_x = scale @ inputs
        d_weight += weight @ ((inputs.T * scale) @ inputs)
        d_weight += np.multiply.outer(bias, scale_x)
        d_bias += weight @ scale_x
        d_bias += scale.sum() * bias
    return d_weight, d_bias


@dataclass(frozen=True)
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

    def all(self) -> tuple[LinearEncoder, ...]:
        return (self.content_x, self.content_y, self.style_x, self.style_y)


@dataclass(frozen=True)
class State:
    """One state of the encoders and the bank, which every pass at it
    reads, and the Adam state of the run: ``moments`` maps each encoder name
    to its (weight, bias) pair of read-only (first, second) moment arrays,
    or is empty before the first step, and ``steps`` is the number of Adam
    steps they are at. The factors of the state are made on first use and
    kept; nothing they are made from can change. No pass reads the moments,
    and a step makes new ones for the state it returns, so any state can be
    stepped any number of times, each time to the same bits."""

    encoders: EncoderSet
    bank: MemoryBank
    moments: dict[str, tuple[tuple[np.ndarray, np.ndarray], ...]] = field(default_factory=dict)
    steps: int = 0

    @cached_property
    def affine(self) -> dict[str, Affine | None]:
        """Each encoder's :class:`~stylemem.numerics.Affine` against the
        plane its rows meet (content against the keys, style d against
        ``values_d``), or None where it forms its rows (C <= Cin); a factor
        that is not finite raises a ``ValidationError`` naming its encoder."""
        bank = self.bank
        planes = dict(content_x=bank.keys, content_y=bank.keys, style_x=bank.values_x, style_y=bank.values_y)
        affine = dict.fromkeys(planes)
        for name, enc in vars(self.encoders).items():
            out_channels, in_channels = enc.weight.shape
            if out_channels > in_channels:
                a = affine[name] = Affine.of(enc.weight, enc.bias, planes[name])
                bad = [f for f in _FACTORED if not np.isfinite(getattr(a, f)).all()]
                if bad:
                    raise ValidationError(f"encoder {name} factors became non-finite ({', '.join(bad)})")
        return affine



def encode_pair(state: State, pair: ScenePair) -> tuple[tuple, tuple]:
    """The content and the style encodings of both domains of ``pair``,
    each an (x, y) tuple, at ``state``."""

    def encode(name: str, inputs: np.ndarray) -> Encoding:
        affine = state.affine[name]
        if affine is None:
            return Encoding(inputs, forward(getattr(state.encoders, name), inputs), None)
        return Encoding(inputs, None, affine)

    content = tuple(encode(f"content_{d}", pair.content) for d in _DOMAINS)
    return content, tuple(encode(f"style_{d}", s) for d, s in zip(_DOMAINS, pair.styles))


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
        check_types(TrainSettings, vars(self))
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
    """One loss pass over a scene pair: the pair's query set (its encodings
    against the bank, domain x in block 0 and y in block 1), each domain's
    item-loss terms and ``g_weights``, the gradient of the reconstruction
    loss with respect to the pair's read weights, item-major (N, 2P), in
    the columns of the set's storage. ``values`` holds the cosines of each
    domain's encoded style rows with its own value plane (block b for
    domain b, whose ``dots`` give ``V s`` and ``row_norms`` each ``|s|``).

    The gradients of the weighted total loss with respect to the encoded
    content and style are computed on first access of ``grad_content`` and
    ``grad_style``, each a :class:`FeatureGrad` per domain that sums its
    terms' factors with the loss weights: content the key term and its
    columns of the pair's one :func:`read_backward`; style ``d`` the value
    term and the opposite domain's read, whose reconstruction term is
    ``-(2/P) weights_opp`` on ``values_d`` plus ``2/P``.
    """

    bank: MemoryBank
    settings: TrainSettings
    queries: QuerySet
    key_terms: dict[str, LossTerm]
    value_terms: dict[str, LossTerm]
    g_weights: np.ndarray
    values: Cosines

    @cached_property
    def grad_content(self) -> dict[str, FeatureGrad]:
        key, rec = self.settings.key_loss_weight, self.settings.rec_loss_weight
        through_read = read_backward(self.bank, self.queries, self.g_weights)
        grads = {}
        for d, cols in zip(_DOMAINS, self.queries.cosines.columns):
            term = self.key_terms[d].gradient()
            coef = key * term.coef + rec * through_read.coef[:, cols]
            grads[d] = FeatureGrad(term.items, coef, key * term.scale + rec * through_read.scale[cols])
        return grads

    @cached_property
    def grad_style(self) -> dict[str, FeatureGrad]:
        value = self.settings.value_loss_weight
        weights = self.queries.weights.T  # (N, 2P)
        grads = {}
        for d, content, opposite in zip(_DOMAINS, self.queries.contents, self.queries.cosines.columns[::-1]):
            term = self.value_terms[d].gradient()
            rec = self.settings.rec_loss_weight * 2.0 / content.shape[0]
            coef = value * term.coef - rec * weights[:, opposite]
            grads[d] = FeatureGrad(term.items, coef, value * term.scale + rec)
        return grads


def _item_loss(queries: tuple, items, pool: np.ndarray, settings: TrainSettings, cosines=None) -> dict:
    """Each domain's item-loss term of one memory plane, from one loss call."""
    if settings.loss_variant == "contrastive":
        return dict(zip(_DOMAINS, contrastive_loss(queries, items, pool, settings.temperature, cosines)))
    return dict(zip(_DOMAINS, triplet_loss(queries, items, pool, settings.triplet_margin, cosines)))


def compute_losses(state: State, pair: ScenePair, settings: TrainSettings) -> tuple[LossReport, ForwardPass]:
    """Loss pass over a scene pair at ``state``, whose bank it leaves as it is.

    Returns the loss report plus the forward pass: the pair's query set,
    from which the analytic gradients of the weighted total loss with
    respect to each encoded feature matrix follow on demand. The pair is
    not modified.
    """
    bank = state.bank
    content, style = encode_pair(state, pair)
    queries = address_blocks(bank, content, style, (pair.labels, pair.labels))
    planes = (bank.values_x, bank.values_y)
    values = Cosines.between(style, planes)
    key_terms = _item_loss(content, bank.keys, queries.mask, settings, queries.cosines)
    value_terms = _item_loss(style, planes, queries.mask, settings, values)

    # style reconstruction through the read, by the factored-read rule:
    # domain d's mixture a V of the opposite plane should reproduce the
    # opposite encoded style s, and |a V - s|^2 = a.(G a - 2 V s) + |s|^2,
    # with V s and |s| from the opposite block of the value cosines, and the
    # Grams of the bank
    p_total = pair.labels.shape[0]
    alpha = read(bank, queries).T  # (N, 2P)
    g_weights = np.empty(alpha.shape)
    rec_loss = float(values.row_norms @ values.row_norms)
    x, y = values.columns
    for own, opposite, cols in ((x, "y", y), (y, "x", x)):
        a, v_s = alpha[:, own], values.dots.T[:, cols]
        g = np.matmul(bank.grams[opposite], a, out=g_weights[:, own])
        g -= v_s
        rec_loss += float(np.einsum("ij,ij->", a, g - v_s))
        g *= 2.0 / p_total  # now d(rec_loss)/d(read weights)
    rec_loss /= p_total

    key_loss = key_terms["x"].value + key_terms["y"].value
    value_loss = value_terms["x"].value + value_terms["y"].value
    s = settings
    total = s.key_loss_weight * key_loss + s.value_loss_weight * value_loss + s.rec_loss_weight * rec_loss
    report = LossReport(key_loss, value_loss, rec_loss, total)
    return report, ForwardPass(bank, settings, queries, key_terms, value_terms, g_weights, values)


def train_step(
    state: State, pair: ScenePair, settings: TrainSettings, update_memory: bool = True
) -> tuple[LossReport, State]:
    """One training iteration on a scene pair from ``state``, which it
    leaves as it is.

    Returns the loss report and the next state: new encoders, new moments
    one step on, and with ``update_memory`` a new bank (reads and losses
    always use the iteration's starting bank), else ``state.bank``. The
    pair is never modified. A non-finite loss names its unweighted terms.
    """
    report, fwd = compute_losses(state, pair, settings)
    if not np.isfinite(report.total):
        terms = f"key {report.key_loss}, value {report.value_loss}, rec {report.rec_loss}"
        raise ValidationError(f"loss became non-finite ({terms})")

    grads = {}  # each encoder's encoding and the gradient at its rows
    for d, content, style in zip(_DOMAINS, fwd.queries.contents, fwd.queries.styles):
        grads[f"content_{d}"] = (content, fwd.grad_content[d])
        grads[f"style_{d}"] = (style, fwd.grad_style[d])
    bank = update(state.bank, fwd.queries) if update_memory else state.bank
    # Adam's new moments live beside the state's old ones, so the query set
    # goes before they are made, which keeps the step's peak memory down
    del fwd

    step = state.steps + 1
    adam = (step, settings.learning_rate, settings.adam_beta1, settings.adam_beta2)
    moments = state.moments or {
        name: tuple((np.zeros(p.shape),) * 2 for p in (enc.weight, enc.bias))
        for name, enc in vars(state.encoders).items()
    }
    stepped, stepped_moments = {}, {}
    for name, enc in vars(state.encoders).items():
        gw, gb = backward(*grads[name])
        weight, weight_moments = adam_step(enc.weight, gw, moments[name][0], *adam)
        bias, bias_moments = adam_step(enc.bias, gb, moments[name][1], *adam)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValidationError(f"encoder {name} parameters became non-finite")
        # where a second moment is inf, Adam's step is 0 and the weight stops learning
        if not (np.isfinite(weight_moments[1]).all() and np.isfinite(bias_moments[1]).all()):
            raise ValidationError(f"encoder {name} Adam second moments became non-finite")
        stepped[name] = LinearEncoder(read_only(weight), read_only(bias))
        stepped_moments[name] = (weight_moments, bias_moments)
    return report, State(EncoderSet(**stepped), bank, stepped_moments, step)


# --- persistence ---


def save_encoders(encoders: EncoderSet, path: str | Path) -> None:
    """Checkpoint weights and biases (optimizer state is not persisted)."""
    blocks = {name: dict(weight=e.weight, bias=e.bias) for name, e in vars(encoders).items()}
    write_json(path, dict(
        version=ENCODER_FORMAT_VERSION, in_channels=encoders.content_x.in_channels,
        out_channels=encoders.content_x.out_channels, encoders=blocks,
    ))


def load_encoders(path: str | Path) -> EncoderSet:
    """Load a checkpoint; it holds no Adam moments, and the optimizer
    settings come from the ``TrainSettings`` of each step."""
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
        loaded[name] = LinearEncoder(read_only(weight), read_only(bias))
    return EncoderSet(**loaded)
