"""Span recording from the benchmark's side of each layer boundary.

:class:`SpanRecorder` replaces public callables of the program under test
with timing wrappers (and puts the originals back afterwards), so no file
under ``src/`` has to know it is being measured.  Every call becomes a span
``(id, name, start, end, parent, repeat_id)``; spans of one repeat share
``repeat_id``.

A span's *self time* is its duration minus the part its child spans cover.
Children of one span run one after another on the same thread, so the part
they cover is the sum of their durations; the recorder keeps that sum on a
per-thread stack and accumulates ``calls / total_s / self_s`` per span name
as calls return.  Those totals are exact for the whole run.  The span list
itself is capped (a simulation repeat makes millions of calls): the first
``max_spans`` spans are kept for the trace file and the rest only counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Mapping

__all__ = ["SpanRecorder"]

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "totals", "dropped")

    def __init__(self) -> None:
        #: open spans, innermost last: ``[span_id, seconds covered by children]``
        self.stack: list[list] = []
        #: span name -> ``[calls, total_s, self_s]``
        self.totals: dict[str, list] = {}
        self.dropped = 0


class SpanRecorder:
    """Wraps callables, keeps spans in memory, writes them out at the end."""

    def __init__(self, *, repeat_id: str = "", max_spans: int = 20000) -> None:
        self.repeat_id = repeat_id
        self.max_spans = max_spans
        self.origin = _perf()
        #: Wrapped callables record only while this is true, so set-up,
        #: warm-up and output checks stay out of the per-layer numbers.
        self.enabled = False
        #: ``(id, name, start, end, parent, repeat_id)``; times are seconds
        #: since :attr:`origin`.
        self.spans: list[tuple] = []
        #: span names whose target no longer exists in the program.
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        local = self._local
        spans = self.spans
        ids = self._ids
        origin = self.origin
        repeat_id = self.repeat_id
        max_spans = self.max_spans
        new_state = self._state
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if len(spans) < max_spans:
                    spans.append(
                        (frame[0], name, start - origin, end - origin, parent, repeat_id)
                    )
                else:
                    state.dropped += 1

        return wrapper

    def install(self, targets: Mapping[str, str]) -> None:
        """Wrap each ``"package.module:Attr.path"`` target under its span name.

        A target that cannot be resolved (the module or attribute was removed
        by a later change) is listed in :attr:`missing`, not raised.
        """
        for name, target in targets.items():
            module_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(owner, attr, self.wrap(name, original))
            self._installed.append((owner, attr, original))

    @contextlib.contextmanager
    def recording(self):
        """Record the wrapped calls made inside the ``with`` block."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` summed over threads."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total_s, self_s) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total_s
                into[2] += self_s
        return {
            name: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
            for name, v in sorted(merged.items())
        }

    def dropped(self) -> int:
        with self._lock:
            return sum(state.dropped for state in self._states)

    def write(self, path: str, **meta: Any) -> None:
        """Write the kept spans and the exact totals as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        document = {
            **meta,
            "columns": ["id", "name", "start_s", "end_s", "parent", "repeat_id"],
            "spans": sorted(self.spans),
            "spans_dropped": self.dropped(),
            "totals": self.totals(),
            "missing": sorted(self.missing),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
