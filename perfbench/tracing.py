"""Span recorder that wraps a layer's public entry points from outside.

Nothing in the program is edited: :meth:`Tracer.install` replaces each
target attribute with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the originals back.  A span is a name, a
start, an end and the index of the span that was open when it started
(its parent).  Spans stay in memory, in compact parallel arrays, until the
run ends; :meth:`Tracer.aggregate` then folds them into per-name call
counts, total time and self time (duration minus the time covered by
child spans).

Coroutine functions get spans that are never parents: while one is
suspended other tasks run, so a call stack cannot describe them.  Their
duration is wall time including the wait, which is what a client sees.

Functions that other modules import by name (``from repro.crypto.sha1
import hmac_sha1``) are rebound in every loaded ``repro`` module that holds
the original object, so the wrapper is what each caller resolves.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``counter(args, kwargs, result) -> {counter_name: increment}``.
Counter = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``; ``kind`` is
    ``"call"`` (function or method; coroutine functions are detected),
    ``"property"`` or ``"context"`` (a function returning a context
    manager, timed from enter to exit so the body's spans nest inside).
    """

    span: str
    owner: str
    attr: str
    kind: str = "call"
    counter: Optional[Counter] = None
    #: Exceptions that count as ``<span>.raised`` rather than a crash.
    raises: Tuple[str, ...] = ()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans around wrapped entry points; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, nest: bool) -> int:
        index = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if (nest and stack) else -1)
        self.span_end.append(0.0)
        if nest:
            stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int, nest: bool) -> None:
        self.span_end[index] = perf_counter()
        if nest:
            self._stack.pop()

    def _count(self, counter: Optional[Counter], args, kwargs, result) -> None:
        if counter is not None:
            counters = self.counters
            for key, value in counter(args, kwargs, result).items():
                counters[key] = counters.get(key, 0) + value

    def _raised(self, span: str) -> None:
        key = span + ".raised"
        self.counters[key] = self.counters.get(key, 0) + 1

    def _wrap(self, target: Target, original):
        nid = self._name_id(target.span)
        span, counter = target.span, target.counter
        expected = tuple(_resolve_exception(name) for name in target.raises)
        tracer = self

        if target.kind == "context":

            @contextlib.contextmanager
            def traced_context(*args, **kwargs):
                index = tracer._open(nid, True)
                try:
                    with original(*args, **kwargs) as value:
                        yield value
                finally:
                    tracer._close(index, True)
                tracer._count(counter, args, kwargs, None)

            return traced_context

        if inspect.iscoroutinefunction(original):

            async def traced_coroutine(*args, **kwargs):
                index = tracer._open(nid, False)
                try:
                    result = await original(*args, **kwargs)
                except expected:
                    tracer._raised(span)
                    raise
                finally:
                    tracer._close(index, False)
                tracer._count(counter, args, kwargs, result)
                return result

            return traced_coroutine

        def traced_call(*args, **kwargs):
            index = tracer._open(nid, True)
            try:
                result = original(*args, **kwargs)
            except expected:
                tracer._raised(span)
                raise
            finally:
                tracer._close(index, True)
            tracer._count(counter, args, kwargs, result)
            return result

        return traced_call

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self, targets) -> None:
        for target in targets:
            owner = _resolve(target.owner)
            if isinstance(owner, type):
                original = owner.__dict__[target.attr]
                if target.kind == "property":
                    replacement = property(self._wrap(target, original.fget))
                else:
                    replacement = self._wrap(target, original)
                self._set(owner, target.attr, replacement)
                continue
            original = getattr(owner, target.attr)
            replacement = self._wrap(target, original)
            # Rebind every by-name import of the same function object.
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def mark(self) -> Tuple[int, Dict[str, float]]:
        """A position to aggregate from: spans and counters so far."""
        return len(self.span_start), dict(self.counters)

    def aggregate(self, since: Tuple[int, Dict[str, float]] = (0, {})):
        """Per-span-name stats and counter deltas for spans after ``since``."""
        first, counters_before = since
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        child_time = [0.0] * (len(starts) - first)
        for index in range(first, len(starts)):
            parent = parents[index]
            if parent >= first:
                child_time[parent - first] += ends[index] - starts[index]
        stats: Dict[str, SpanStats] = {}
        for index in range(first, len(starts)):
            name = self.names[names[index]]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = SpanStats()
            duration = ends[index] - starts[index]
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - child_time[index - first]
        counters = {
            key: value - counters_before.get(key, 0)
            for key, value in self.counters.items()
        }
        return stats, counters


def _resolve_exception(path: str) -> type:
    module_name, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module_name), name)
