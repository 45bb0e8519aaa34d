"""In-memory span tracer that wraps the program's functions by name.

A target names a function at the place its callers look it up: a module
attribute (`swipe.model.truncate`) or a class attribute
(`swipe.autodiff.Tensor.backward`). Installing the tracer replaces each target
with a wrapper that records a span (id, name, start, end, parent) or, for
functions called too often to time, only bumps counters. Uninstalling puts the
originals back. A target whose module or attribute no longer exists is
recorded as absent instead of failing.

Self time of a span is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class Target:
    """`module:attr.path` wrapped as span `name`; `hook` sees every call."""

    where: str
    name: str
    timed: bool = True
    hook: Callable | None = None  # hook(tracer, args, kwargs, result)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def _resolve(where: str):
    """(owner object, attribute name) for 'module:Attr.path', or None."""
    module_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    return (owner, attr) if present else None


class Tracer:
    """Span and counter recorder; `install` / `uninstall` patch the targets."""

    def __init__(self, targets: list[Target], clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.active: Counter = Counter()  # span name -> calls currently open
        self.op: str | None = None        # benchmark operation being traced
        self.absent: list[str] = []
        self.scratch: dict = {}           # per-op state for hooks
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counters[(self.op, key)] += n

    def span(self, name: str):
        """Context manager recording a span around benchmark code."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> tuple[int, int | None, float]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.active[name] += 1
        return sid, parent, self.clock()

    def _close(self, name: str, sid: int, parent: int | None, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.active[name] -= 1
        self.spans.append(Span(sid, name, start, end, parent))

    def _wrap(self, fn, target: Target):
        name, hook, calls = target.name, target.hook, target.name + ".calls"
        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.count(calls)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            self.count(calls)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return timed

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            found = _resolve(target.where)
            if found is None:
                if target.where not in self.absent:
                    self.absent.append(target.where)
                continue
            owner, attr = found
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, target))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, target))
            else:
                patched = self._wrap(raw, target)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [id, name, start, end, parent]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.writelines(
                f'[{s.sid}, "{s.name}", {s.start!r}, {s.end!r}, {json.dumps(s.parent)}]\n'
                for s in self.spans)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.state = self.tracer._open(self.name)
        self.sid = self.state[0]
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, *self.state)
        return False
