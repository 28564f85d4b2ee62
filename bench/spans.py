"""Span recorder that times scendiff's layers from outside the package.

`Tracer.installed()` replaces module attributes with timing wrappers and puts
every original back when the block ends, so the package itself carries no
tracing code. A span's self time is its duration minus the time its child
spans cover. Work done inside a counter callback (shape arithmetic, the
simplex certificate check) runs with the clock paused, so it shows in no span.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value


class Tracer:
    """Collects spans from wrapped callables; `wraps` lists what to wrap.

    Each entry of `wraps` is (module, attribute, span name, label, count):
    `label(args, kwargs)` may refine the span name per call, and
    `count(stats, args, kwargs, result)` adds counters after the call.
    """

    def __init__(self, wraps):
        self.wraps = list(wraps)
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, start, child time]
        self.excluded_s = 0.0  # time spent with the clock paused

    def clock(self) -> float:
        return time.perf_counter() - self.excluded_s

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - t0

    def span_stats(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def _wrapper(self, fn, name, label, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args, kwargs) if label else name
            self._stack.append([span, self.clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, start, child = self._stack.pop()
                dur = self.clock() - start
                st = self.span_stats(span)
                st.calls += 1
                st.s += dur
                st.self_s += dur - child
                st.durations.append(dur)
                if self._stack:
                    self._stack[-1][2] += dur
            if count:
                with self.paused():
                    count(self.span_stats(span), args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, name, label, count in self.wraps:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn, name, label, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
