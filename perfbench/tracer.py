"""In-memory spans around calls into kinmix, recorded from outside the package.

A traced run patches each public function where its callers look it up
(every `kinmix.*` module attribute bound to that function, or the class
attribute for a method), records one span per call, and restores every
name afterwards. Spans stay in memory and are only turned into per-layer
numbers once the run has ended.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children.get(i, ())):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def covered_time(spans: list, within: int, names: set) -> float:
    """Time inside span `within` covered by the union of spans named in `names`."""
    outer = spans[within]
    ivals = sorted(
        (max(s.start, outer.start), min(s.end, outer.end))
        for i, s in enumerate(spans)
        if s.name in names and i != within
    )
    total, reach = 0.0, outer.start
    for a, b in ivals:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def _kinmix_modules():
    return [m for name, m in list(sys.modules.items()) if name == "kinmix" or name.startswith("kinmix.")]


class Patches:
    """Replaces functions by wrappers wherever kinmix looks them up; `restore` undoes it."""

    def __init__(self):
        self._saved: list = []  # (owner, attribute, original)

    def function(self, home: str, attr: str, make_wrapper) -> None:
        original = getattr(sys.modules[home], attr)
        wrapper = make_wrapper(original)
        for mod in _kinmix_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()


def timed(tracer: Tracer, name: str, before=None, after=None):
    """Wrapper factory: one span per call; `before` may rewrite the arguments,
    `after` sees them and the result once the span is closed."""

    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    return make
