"""Call tracing from outside a package: wrap functions and methods in place.

A `Tracer` replaces chosen functions and methods with timing wrappers for
the duration of a `with tracer:` block and puts every original object back
when the block ends.  It knows nothing about charthree; `layers.py` says
what to wrap and turns the records into metrics.

Each wrapped call belongs to a layer (the module that defines the code)
and to a metric key.  For every call the tracer keeps

- a call count per key, and the inclusive time per key, counted once for
  nested calls of the same key so that recursion does not double it;
- the layer's self time: the call's duration minus the part of it spent
  inside other wrapped calls, so the self times of all layers add up to
  the time spent inside wrapped code;
- for keys marked as spans, one record (key, start, end, parent), where
  parent is the index of the enclosing span.  Frequent kernel calls are
  not spans; they only add to the counts and times above.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One thing to wrap.

    `owner` is a module or a class, `attr` the name of the function in it.
    Every other binding of the same function object, in `owner` itself or
    in any of the `also` namespaces, is wrapped too, so a function that a
    second module imported by name is traced there as well.
    """
    owner: object
    attr: str
    layer: str
    key: str
    span: bool = False
    observe: Callable | None = None    # observe(tracer, args, kwargs, result, dt)


class Tracer:
    def __init__(self, targets: list[Target], also: list[object] = ()):
        self.targets = targets
        self.also = list(also)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)   # filled by observers
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []        # child time of each open call
        self._span_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # -- patching -------------------------------------------------------------

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, target: Target):
        raw = vars(target.owner)[target.attr]
        if id(raw) in self._wrappers:
            raise ValueError(f"{target.attr} is already wrapped; list each "
                             f"function object once")
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._wrappers.add(id(wrapped))
        for ns in [target.owner, *self.also]:
            for name, value in list(vars(ns).items()):
                if value is raw:
                    self._saved.append((ns, name, raw))
                    setattr(ns, name, wrapped)

    def restore(self):
        """Put back every original attribute, last patched first."""
        while self._saved:
            ns, name, raw = self._saved.pop()
            setattr(ns, name, raw)
        self._wrappers.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(namespace, name, original) for every attribute currently wrapped."""
        return list(self._saved)

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        layer, key, span, observe = target.layer, target.key, target.span, target.observe
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        active, stack = self._active, self._stack
        spans, span_stack = self.spans, self._span_stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            depth = active[key]
            active[key] = depth + 1
            if span:
                idx = len(spans)
                spans.append([key, 0.0, 0.0, span_stack[-1] if span_stack else None])
                span_stack.append(idx)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                active[key] = depth
                if not depth:
                    inclusive[key] += dt
                if span:
                    span_stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if observe is not None:
                observe(tracer, args, kwargs, result, dt)
            return result

        return wrapper
