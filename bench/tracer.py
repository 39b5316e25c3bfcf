"""Span tracer that instruments ppratios from the outside.

While installed, every public function defined by a public ``ppratios``
module (found by introspection: ``fn.__module__`` names that module) is
replaced by a wrapper that records a span, in every ``ppratios`` module that
holds a reference to it.  A private module such as ``ppratios._special`` is
not a layer: its time counts toward whichever layer called it.  Uninstalling
restores the original functions.

Wall time is partitioned exactly.  At each instant the threads that are
inside a span and not blocked on a thread pool share the instant equally,
and each thread's share goes to its innermost span.  Time inside a traced
window when no thread is busy is unattributed.  Pool tasks inherit the span
that submitted them, so a worker thread's time between its own spans counts
toward the submitting layer, and the submitting thread counts as waiting
while it blocks on the pool's results.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import defaultdict

_OPEN, _CLOSE, _WAIT, _RESUME, _WINDOW_OPEN, _WINDOW_CLOSE = range(6)


class Span:
    __slots__ = ("id", "layer", "name", "parent", "summary")

    def __init__(self, span_id, layer, name, parent):
        self.id = span_id
        self.layer = layer
        self.name = name
        self.parent = parent  # enclosing Span, possibly on another thread
        self.summary = {}


def public_layers(package) -> dict:
    """``{layer name: module}`` for the public submodules of ``package``."""
    layers = {}
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            layers[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return layers


class Tracer:
    """Records spans and pool waits while installed; use as a context manager.

    ``summarize(span, fn, args, kwargs, result)`` returns a dict stored on the
    span; it runs after the span has closed, and its cost is charged to no
    layer.
    """

    def __init__(self, package, summarize):
        self.package = package
        self.summarize = summarize
        self.spans: list[Span] = []
        self.events: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        prefix = self.package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        wrappers = {}
        for layer, module in public_layers(self.package).items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, layer, name)
        pool = self._pool_class()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                replacement = wrappers.get(id(obj))
                if replacement is None and obj is concurrent.futures.ThreadPoolExecutor:
                    replacement = pool
                if replacement is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, replacement)
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        return False

    def _wrap(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._pop()
                tracer._set_waiting(True)
                try:
                    span.summary = tracer.summarize(span, fn, args, kwargs, result)
                finally:
                    tracer._set_waiting(False)

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._top()

                def task(*a, **kw):
                    if parent is None:
                        return fn(*a, **kw)
                    tracer._push(parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._pop()

                return super().submit(task, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)

                def waiting():
                    while True:
                        tracer._set_waiting(True)
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                        finally:
                            tracer._set_waiting(False)
                        yield item

                return waiting()

        return TracedPool

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _event(self, kind, span=None):
        self.events.append((time.perf_counter(), threading.get_ident(), kind, span))

    def _push(self, span):
        self._stack().append(span)
        self._event(_OPEN, span)

    def _pop(self):
        self._event(_CLOSE, self._stack().pop())

    def _open(self, layer, name) -> Span:
        span = Span(len(self.spans), layer, name, self._top())
        self.spans.append(span)
        self._push(span)
        return span

    def _set_waiting(self, waiting: bool):
        self._event(_WAIT if waiting else _RESUME)

    @contextlib.contextmanager
    def window(self):
        """Mark an interval whose wall time is partitioned."""
        self._event(_WINDOW_OPEN)
        try:
            yield
        finally:
            self._event(_WINDOW_CLOSE)

    # -- analysis --------------------------------------------------------

    def partition(self):
        """``(self seconds per span id, unattributed seconds, window seconds)``."""
        self_s = defaultdict(float)
        unattributed = 0.0
        window_s = 0.0
        stacks = defaultdict(list)
        waiting = defaultdict(bool)
        in_window = False
        prev = None
        for t, tid, kind, span in sorted(self.events, key=lambda e: e[0]):
            if in_window and prev is not None and t > prev:
                dt = t - prev
                window_s += dt
                busy = [s[-1] for k, s in stacks.items() if s and not waiting[k]]
                if busy:
                    share = dt / len(busy)
                    for top in busy:
                        self_s[top.id] += share
                else:
                    unattributed += dt
            prev = t
            if kind == _OPEN:
                stacks[tid].append(span)
            elif kind == _CLOSE:
                stacks[tid].pop()
            elif kind == _WAIT:
                waiting[tid] = True
            elif kind == _RESUME:
                waiting[tid] = False
            elif kind == _WINDOW_OPEN:
                in_window = True
            else:
                in_window = False
        return dict(self_s), unattributed, window_s
