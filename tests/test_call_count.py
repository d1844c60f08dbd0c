"""The call count of a warm toy training iteration.

The toy preset's iteration is bound by interpreter overhead, and its time
moves by less than a machine's noise, but its call count is exact. The
test counts the ``sys.setprofile`` events ``call`` (Python functions,
comprehensions and generator resumptions) and ``c_call`` (builtins) over
10 warm iterations of the training loop: each draws its scene pair, takes
one ``train_step`` and runs the metrics pass ``_pair_metrics`` at the
state the step returns. It does not see numpy's operator dispatch
(``a + b``). numpy's Python-level wrappers differ between versions, so the
bounds hold only for the build of the golden digests, and under any other
build the test skips and names both builds. A change that lowers the count
tightens the bounds; one that raises it says why in ``CHANGES.md``.
"""

import sys
from collections import Counter

import pytest

from stylemem.encoder import EncoderSet, State, train_step
from stylemem.harness import PRESETS, STREAM_BANK, STREAM_ENCODERS, STREAM_TRAIN, _pair_metrics
from stylemem.memory import init_bank
from stylemem.numerics import split_rng
from stylemem.synthdata import generate_scene_pair

from test_golden import BUILD, current_build

ITERATIONS = 10
# Python calls and builtin calls over the 10 iterations
PYTHON_CALLS = 6555
BUILTIN_CALLS = 3120


def iterations(cfg, spec, ref_layout, state: State, start: int, count: int) -> State:
    for t in range(start, start + count):
        pair = generate_scene_pair(spec, split_rng(cfg.seed, STREAM_TRAIN, t))
        _, state = train_step(state, pair, cfg.train, update_memory=t % cfg.update_every == 0)
        _pair_metrics(state, pair, ref_layout)
    return state


def test_a_warm_toy_iteration_makes_no_more_calls_than_its_bound():
    build = current_build()
    if build != BUILD:
        pytest.skip(f"the bounds were counted under {BUILD}; this is {build}")
    cfg = PRESETS["toy"]
    spec, ref_layout = cfg.domain_spec(), cfg.reference_layout()
    state = State(
        EncoderSet.create(split_rng(cfg.seed, STREAM_ENCODERS), cfg.scene.input_channels, cfg.channels),
        init_bank(cfg.bank_layout(), cfg.channels, split_rng(cfg.seed, STREAM_BANK)),
    )
    state = iterations(cfg, spec, ref_layout, state, 0, 2)  # a step that updates the bank, and one that does not
    events = Counter()
    sys.setprofile(lambda frame, event, arg: events.update((event,)))
    try:
        iterations(cfg, spec, ref_layout, state, 2, ITERATIONS)
    finally:
        sys.setprofile(None)
    counts = (events["call"], events["c_call"])
    assert counts[0] <= PYTHON_CALLS and counts[1] <= BUILTIN_CALLS, counts
