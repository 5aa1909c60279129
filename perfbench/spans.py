"""Span recording and msense hooks for the traced benchmark run.

A hook swaps one msense function for a wrapper that records a span around
every call.  Spans carry a name, start and end times, the span that caused
them, a run id and the thread they ran on.  Parents come from a per-thread
stack, so calls made inside the sweep and figures thread pools are attributed
to the run that made them, not to whatever the main thread was doing.  Spans
stay in memory; the benchmark turns them into layer metrics when a repetition
ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


class Span:
    __slots__ = ("id", "name", "parent", "run", "thread", "start", "end", "attrs")

    def __init__(self, id, name, parent, run, thread, start=0.0, end=0.0, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent  # id of the enclosing span on the same thread, or None
        self.run = run  # id of the outermost span on the same thread
        self.thread = thread
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.record_errors = {}  # span name -> message of a failed attribute recorder
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            parent.id if parent else None,
            parent.run if parent else span_id,
            threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        span.start = self._clock()
        return span

    def end(self, span):
        span.end = self._clock()
        self._stack().pop()

    def wrap(self, name, fn, record=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``record(span, args, kwargs, result)`` may store attributes on the span
        after the call; if it raises, the error is kept in ``record_errors``
        and the call's result is returned unchanged.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if record is not None:
                try:
                    record(span, args, kwargs, result)
                except Exception as exc:  # a recorder must never fail the run
                    self.record_errors.setdefault(name, f"recording {name} failed: {exc!r}")
            return result

        return wrapper


def self_times(spans):
    """Map span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` ("module:function" or "module:Class.method") in spans
    named ``span``; ``record`` stores per-call attributes (see Tracer.wrap)."""

    span: str
    target: str
    record: Callable | None = None


class HookSet:
    """Context manager that installs hooks on enter and restores on exit.

    A function is replaced everywhere the package holds it, so a name that
    another module imported directly (``from .subspace import
    metrics_from_parts``) is wrapped at its point of use too.  A target that
    no longer exists is left out and listed in ``absent`` with the missing
    attribute; it never fails the run.
    """

    def __init__(self, tracer, hooks):
        self.tracer = tracer
        self.hooks = hooks
        self.absent = {}  # target -> reason
        self._restore = []

    def __enter__(self):
        for hook in self.hooks:
            reason = self._install(hook)
            if reason is not None:
                self.absent[hook.target] = reason
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()
        return False

    def _install(self, hook):
        module_name, _, path = hook.target.partition(":")
        try:
            holder = importlib.import_module(module_name)
        except ImportError as exc:
            return f"module {module_name} cannot be imported: {exc}"
        *owners, attr = path.split(".")
        where = module_name
        for owner in owners:
            where = f"{where}.{owner}"
            holder = getattr(holder, owner, None)
            if holder is None:
                return f"{where} is missing"
        where = f"{where}.{attr}"
        if owners:
            raw = vars(holder).get(attr)
            if raw is None:
                return f"{where} is missing"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.tracer.wrap(hook.span, raw.__func__, hook.record))
            else:
                new = self.tracer.wrap(hook.span, raw, hook.record)
            setattr(holder, attr, new)
            self._restore.append((holder, attr, raw))
            return None
        original = getattr(holder, attr, None)
        if original is None:
            return f"{where} is missing"
        wrapper = self.tracer.wrap(hook.span, original, hook.record)
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))
        return None
