"""Spans around the program's public calls, recorded from outside the program.

A :class:`Tracer` replaces named module functions and methods with timing
wrappers while it is installed and puts the originals back when it is
removed. Each call records a span ``[layer, start, end, parent]`` in memory.
A layer's self time is the sum over its spans of duration minus the time
covered by their direct children. Work done by count hooks runs after the
span closes and is recorded as an ``overhead`` child of the enclosing span,
so it is charged to no layer.
"""

from __future__ import annotations

import json
from time import perf_counter

OVERHEAD = "overhead"


class Tracer:
    def __init__(self, targets):
        """``targets``: (owner, attribute, layer, after) tuples; ``after(result)`` or None."""
        self.targets = list(targets)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, layer, after):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                t0 = perf_counter()
                after(result)
                spans.append([OVERHEAD, t0, perf_counter(), stack[-1] if stack else -1])
            return result

        return traced

    def __enter__(self):
        for owner, attr, layer, after in self.targets:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, after))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    def self_seconds(self) -> dict[str, float]:
        """Layer -> summed self time in seconds (overhead spans excluded)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (layer, start, end, _), child in zip(self.spans, covered):
            if layer != OVERHEAD:
                totals[layer] = totals.get(layer, 0.0) + (end - start - child)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent"], "spans": self.spans},
                      fh, separators=(",", ":"))
