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
from pathlib import Path

import pytest

from stylemem.encoder import EncoderSet, State, train_step
from stylemem.harness import PRESETS, STREAM_BANK, STREAM_ENCODERS, STREAM_TRAIN, _pair_metrics
from stylemem.memory import init_bank
from stylemem.numerics import split_rng
from stylemem.synthdata import generate_scene_pair

from test_golden import BUILD, current_build

ITERATIONS = 10
# Python calls and builtin calls over the 10 iterations
PYTHON_CALLS = 4855
BUILTIN_CALLS = 2870
TOP = 15


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
    calls = Counter()  # by (event, function name)

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[event, f"{Path(code.co_filename).name}:{code.co_firstlineno} {code.co_qualname}"] += 1
        elif event == "c_call":
            calls[event, getattr(arg, "__qualname__", repr(arg))] += 1

    sys.setprofile(count)
    try:
        iterations(cfg, spec, ref_layout, state, 2, ITERATIONS)
    finally:
        sys.setprofile(None)
    counts = tuple(sum(n for (e, _), n in calls.items() if e == event) for event in ("call", "c_call"))
    top = "\n".join(f"{n:6d}  {e:6s}  {name}" for (e, name), n in calls.most_common(TOP))
    assert counts[0] <= PYTHON_CALLS and counts[1] <= BUILTIN_CALLS, (
        f"{counts[0]} Python and {counts[1]} builtin calls over {ITERATIONS} iterations, bounds "
        f"{PYTHON_CALLS} and {BUILTIN_CALLS}; the {TOP} most called:\n{top}"
    )
