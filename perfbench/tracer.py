"""Span tracing of the stylemem layers, from outside the package.

The package imports names with ``from .x import y``, so a call resolves its
callee in the *caller's* module namespace. A traced function is therefore
replaced in every ``stylemem`` module whose namespace holds it (the defining
module, for calls inside that module, and each importer), and put back when
the tracer exits.

Each span records its name, start, end (``perf_counter_ns``), parent and the
unit it belongs to: a training iteration ``("iter", t)`` or an evaluation
scene ``("scene", i)``. A unit starts at each ``generate_scene_pair`` call
inside the innermost open ``run_training`` or ``evaluate`` span (its owner).
Artifact writes and the final ``evaluate`` after the training loop end the
owner's current unit, so they belong to no iteration.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# Layer functions recorded as spans, named "<module>.<function>".
SPAN_FUNCTIONS = (
    "numerics.cosine_matrix",
    "numerics.adam_step",
    "memory.read",
    "memory.read_backward",
    "memory.update",
    "memory.read_global",
    "memory.save_bank",
    "objectives.contrastive_loss",
    "objectives.triplet_loss",
    "encoder.forward",
    "encoder.backward",
    "encoder.compute_losses",
    "encoder.train_step",
    "encoder.save_encoders",
    "synthdata.generate_scene_pair",
    "harness.run_training",
    "harness.evaluate",
)

# Functions called too often for a span; only their calls are counted.
COUNTED_FUNCTIONS = ("serialize.fmt_float",)

_OWNERS = {"harness.run_training": "iter", "harness.evaluate": "scene"}
_UNIT_START = "synthdata.generate_scene_pair"
_UNIT_END = ("memory.save_bank", "encoder.save_encoders", "harness.evaluate")


class Span:
    __slots__ = ("name", "parent", "unit", "start", "end")

    def __init__(self, name: str, parent: int | None, unit, start: int):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = start
        self.end = start

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "unit": list(self.unit) if self.unit else None,
            "start_ns": self.start,
            "end_ns": self.end,
        }


def package_modules() -> list:
    """The loaded ``stylemem`` modules, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "stylemem" or name.startswith("stylemem."))
    ]


class Tracer:
    """Context manager that wraps layer functions and collects spans.

    Spans are kept in memory (``spans``, parents as list indices) and call
    counts of ``COUNTED_FUNCTIONS`` in ``counts``. Nothing is patched before
    ``__enter__`` or after ``__exit__``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._owners: list[list] = []  # [kind, units started, current unit]
        self._patches: list[tuple[object, str, object]] = []

    # --- patching ---

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for qualified in SPAN_FUNCTIONS + COUNTED_FUNCTIONS:
                module_name, attr = qualified.split(".")
                home = by_name.get(f"stylemem.{module_name}")
                original = getattr(home, attr, None)
                if original is None:
                    self.missing.append(qualified)
                    continue
                if qualified in COUNTED_FUNCTIONS:
                    wrapper = self._counting(qualified, original)
                else:
                    wrapper = self._spanning(qualified, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _open(self, name: str) -> int:
        owner = self._owners[-1] if self._owners else None
        if owner is not None:
            if name == _UNIT_START:
                owner[2] = (owner[0], owner[1])
                owner[1] += 1
            elif name in _UNIT_END and owner[0] == "iter":
                owner[2] = None
        unit = owner[2] if owner is not None else None
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, parent, unit, perf_counter_ns()))
        self._stack.append(index)
        if name in _OWNERS:
            self._owners.append([_OWNERS[name], 0, None])
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter_ns()
        self._stack.pop()
        if span.name in _OWNERS:
            self._owners.pop()

    # --- analysis ---

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def unit_counts(self) -> dict:
        """Calls per (unit, span name), for spans that belong to a unit."""
        counts: Counter = Counter()
        for span in self.spans:
            if span.unit is not None:
                counts[(span.unit, span.name)] += 1
        return dict(counts)
