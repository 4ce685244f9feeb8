"""Spans around the benchmark's calls into the library.

A span records a name, start, end, parent and optional counts. Spans stay
in memory and are written out once, when the run ends. The library itself
is not instrumented: every span wraps a call made from the benchmark's own
files, so a span's name is the public function it called
(``smp.smp_decide_auto``, ``power.closure``, ...).

With tracing off, ``Tracer.call`` is a plain call and ``Tracer.span``
records nothing, so one code path serves the timed and the traced run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional

LAYERS = ("band", "quasi", "power", "smp", "reduction", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields it so callers can add counts."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur
        return own

    def under(self, root: str) -> list[bool]:
        """For each span, whether it is a ``root`` span or lies inside one."""
        inside: list[bool] = []
        for s in self.spans:
            inside.append(s.name == root or (s.parent is not None and inside[s.parent]))
        return inside

    def outside(self, name: str, root: str) -> list[int]:
        """Indices of the spans called ``name`` that do not lie under a ``root`` span."""
        flags = self.under(root)
        return [i for i, s in enumerate(self.spans) if s.name == name and not flags[i]]

    def layer_self_ms(self, root: str) -> dict[str, float]:
        """Self time per layer, summed over the spans under each ``root`` span.

        Time in a root span not covered by a library call is the benchmark's
        own and is reported under ``bench``.
        """
        own = self.self_times()
        totals = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for i, inside in enumerate(self.under(root)):
            if inside:
                name = self.spans[i].name
                totals["bench" if name == root else name.split(".", 1)[0]] += own[i] * 1e3
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, **({"counts": s.counts} if s.counts else {}),
                }) + "\n")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
