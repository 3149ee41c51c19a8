"""In-memory span tracer for the benchmark's per-layer split.

Wrappers installed around module attributes and class methods record one
span per call: name, start, end and the enclosing span. Spans are kept in
flat arrays and only reduced once the traced run has ended, so the cost
per call is a few appends. A span's self time is its duration minus the
durations of its direct children; the code is single-threaded, so child
spans never overlap and their sum is the part of the interval they cover.

This module knows nothing about socsim; ``child.py`` names the targets.
"""

from __future__ import annotations

import inspect
import time
from array import array
from typing import Callable, Optional

import numpy as np

# attribute set on every wrapper, so a leftover wrapper can be detected
MARK = "__perfbench_span__"

Tally = Callable[[dict, tuple, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, tally: Optional[Tally] = None) -> Callable:
        """A callable that behaves like ``fn`` and records a span per call.
        ``tally(counts, args, result)`` may add counts derived from the
        call; it runs after the span has closed."""
        nid = self._intern(name)
        clock, stack, counts = self.clock, self._stack, self.counts
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tally is not None:
                tally(counts, args, result)
            return result

        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # ------------------------------------------------------------------
    # installing wrappers

    def install(self, owner: object, attr: str, name: str, tally: Optional[Tally] = None) -> None:
        """Replace ``owner.attr`` (a module function or a plain method of a
        class) by a recording wrapper until ``restore``."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{owner.__name__}.{attr} is not a plain method")
        else:
            original = getattr(owner, attr)
        if is_wrapper(original):
            raise RuntimeError(f"{attr} is already wrapped as {getattr(original, MARK)!r}")
        setattr(owner, attr, self.wrap(original, name, tally))
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction

    def by_name(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        if self._stack:
            raise RuntimeError("spans are still open")
        names = np.frombuffer(self.span_name, dtype=np.int32)
        own = self_times(
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per span: duration minus the summed durations of its direct
    children (``parent`` holds the index of the enclosing span, -1 for a
    root)."""
    duration = end - start
    has_parent = parent >= 0
    child_sum = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - child_sum


def is_wrapper(obj: object) -> bool:
    return hasattr(obj, MARK)
