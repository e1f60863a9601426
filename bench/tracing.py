"""In-memory span tracing around the library's module attributes.

The traced run replaces selected functions with wrappers at the module
attribute each caller looks up, so the library itself stays untouched.
Every call becomes one span: (name, start, end, parent index, op id), where
the op id is the stream batch or SA candidate being served.  Spans stay in
a list until the run ends; ``restore`` puts every original attribute back.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 for a root
    op: int       # batch index within a stream pass, or SA candidate index


class Tracer:
    """Records nested spans and owns the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        # a placeholder keeps a parent's index below its children's
        self.spans.append(None)
        idx = len(self.spans) - 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, module_name: str, attr: str, span_name: str,
             observe=None, starts_op: bool = False) -> None:
        """Replace ``module.attr`` with a traced wrapper.

        ``observe(tracer, args, kwargs, result)`` runs after the span has
        closed, so counting work never lands inside a measured span.
        ``starts_op`` advances the op id on entry (one call per batch).
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if starts_op:
                self.op += 1
            with self.span(span_name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        self._installed.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest wrapper first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, wraps):
        """Install ``wraps`` for the duration of the block, then restore."""
        try:
            for entry in wraps:
                self.wrap(*entry)
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the part of its interval its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping or out-of-range children are never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def percentile(values, q: float) -> float:
    """The q-th percentile, refused unless at least 10 samples lie beyond it."""
    import numpy as np

    n = len(values)
    if n * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        raise ValueError(f"p{q:g} needs at least {10 * 100 / (100 - q):.0f} samples, got {n}")
    return float(np.percentile(values, q))
