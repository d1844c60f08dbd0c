"""Metamorphic tests: relations between runs that must hold where no oracle
gives the output of either.

Domain swap. The two domains are interchangeable: exchanging x and y in the
encoders (content_x with content_y, style_x with style_y), in the bank's
value planes and in a scene pair's styles makes a problem whose domain x is
the original's domain y. At the starting state its loss pass reports the
original's losses bit for bit. Training moves both the same way, but not bit
for bit, since the key update folds domain x's content before y's: after a
few steps the encoders and the bank agree with the swapped originals to
``RTOL`` of each array's largest magnitude. The metrics pass then gives the
same purity, exactly, and the same entropy and fidelity to ``RTOL``. The
relation covers the x-y pairing of every path: each read mixes the opposite
domain's value plane against the opposite domain's style, and each update
folds block b into value plane b.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from stylemem.encoder import EncoderSet, State, compute_losses, train_step
from stylemem.harness import PRESETS, STREAM_BANK, STREAM_ENCODERS, STREAM_TRAIN, _pair_metrics
from stylemem.memory import init_bank
from stylemem.numerics import split_rng
from stylemem.synthdata import generate_scene_pair

RTOL = 1e-12
STEPS = 3

# the toy preset's 16 channels (formed rows) and 24 (factored, the encoders widen 16 inputs)
SHAPES = {"toy": 16, "widening": 24}
CASES = [
    (mode, variant) for mode in ("class-aware", "single") for variant in ("contrastive", "triplet")
]


def swap_state(state: State) -> State:
    """``state`` with its domains exchanged; a state with no moments yet."""
    enc, bank = state.encoders, state.bank
    encoders = EncoderSet(content_x=enc.content_y, content_y=enc.content_x, style_x=enc.style_y, style_y=enc.style_x)
    return State(encoders, replace(bank, values_x=bank.values_y, values_y=bank.values_x))


def swap_pair(pair):
    return replace(pair, styles=pair.styles[::-1])


def assert_close(got, want):
    scale = max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
    assert got.shape == want.shape and float(np.abs(got - want).max()) <= RTOL * scale


@pytest.mark.parametrize("channels", SHAPES.values(), ids=SHAPES)
@pytest.mark.parametrize("mode, variant", CASES)
def test_swapping_the_domains_swaps_the_run(mode, variant, channels):
    cfg = replace(PRESETS["toy"], channels=channels, memory_mode=mode)
    cfg = replace(cfg, train=replace(cfg.train, loss_variant=variant))
    spec = cfg.domain_spec()
    state = State(
        EncoderSet.create(split_rng(cfg.seed, STREAM_ENCODERS), cfg.scene.input_channels, channels),
        init_bank(cfg.bank_layout(), channels, split_rng(cfg.seed, STREAM_BANK)),
    )
    swapped = swap_state(state)
    for t in range(STEPS):
        pair = generate_scene_pair(spec, split_rng(cfg.seed, STREAM_TRAIN, t))
        if t == 0:  # states that differ only in the order of their domains
            report, _ = compute_losses(state, pair, cfg.train)
            assert astuple(compute_losses(swapped, swap_pair(pair), cfg.train)[0]) == astuple(report)
        _, state = train_step(state, pair, cfg.train)
        _, swapped = train_step(swapped, swap_pair(pair), cfg.train)

    for name, enc in vars(state.encoders).items():
        kind, d = name.split("_")
        twin = getattr(swapped.encoders, f"{kind}_{'y' if d == 'x' else 'x'}")
        assert_close(twin.weight, enc.weight)
        assert_close(twin.bias, enc.bias)
    assert_close(swapped.bank.keys, state.bank.keys)
    assert_close(swapped.bank.values_x, state.bank.values_y)
    assert_close(swapped.bank.values_y, state.bank.values_x)

    pair = generate_scene_pair(spec, split_rng(cfg.seed, STREAM_TRAIN, STEPS))
    entropy, purity, fidelity = _pair_metrics(state, pair, cfg.reference_layout())
    swapped_metrics = _pair_metrics(swapped, swap_pair(pair), cfg.reference_layout())
    assert swapped_metrics[1] == purity
    assert swapped_metrics[::2] == pytest.approx((entropy, fidelity), rel=RTOL, abs=0.0)
