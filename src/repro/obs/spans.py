"""Hierarchical spans: where the time of one run actually goes.

Flat timers (:class:`~repro.obs.metrics.Timer`) answer "how long did X take
in aggregate"; spans answer "*why* did this ``place()`` call take 400 ms" —
each :func:`span` nests inside the currently open one, and the closed span
records both its total duration and its *self* time (duration minus the
time spent in child spans).  The paper's §7.3–§7.5 latency analyses are all
phase-attribution questions of exactly this shape.

Spans ride the existing :class:`~repro.obs.trace.Tracer` machinery — one
``span`` :class:`~repro.obs.events.TraceEvent` per *closed* span, so the
stream stays replayable and totally ordered by ``seq``:

* ``data`` — the deterministic identity: ``name``, the ``;``-joined
  ancestor ``path`` (the collapsed-stack frame list), ``depth``, the sample
  ``count`` folded into the span, plus any caller-supplied labels.  Two
  same-seed runs produce byte-identical ``data`` streams.
* ``wall`` — the volatile measurements: ``dur_s`` (total) and ``self_s``
  (total minus child time), stripped by ``canonical()`` like every other
  wall field.

**Zero cost when disabled**: :func:`span` checks ``tracer.enabled`` first
and returns a shared no-op context manager without allocating anything, so
instrumented hot paths pay one function call and one attribute read.  Call
sites inside per-event loops should additionally guard with
``if tracer.enabled:`` like the rest of the obs layer.

Aggregated phases that are too hot to wrap individually (e.g. the thousands
of node LPs inside one branch-and-bound solve) are recorded post hoc with
:func:`span_phase`, which emits a *synthetic* child span under the
currently open one, carrying the phase's accumulated duration and sample
count.  The profile builder (:mod:`repro.obs.profile`) treats both kinds
uniformly.
"""

from __future__ import annotations

import time as _time
from typing import Any

from .events import EventKind
from .trace import Tracer, get_tracer

__all__ = ["span", "span_phase", "Span", "current_span_path"]


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One open span; use via ``with span("name"):`` rather than directly.

    The enclosing span is found on the tracer's ``span_stack`` at
    ``__enter__``;
    ``__exit__`` pops the stack, charges the duration to the parent's child
    accumulator (so the parent's ``self_s`` excludes it), and emits the
    ``span`` event — including on exception, so a crashed phase still shows
    up in the profile.
    """

    __slots__ = ("_tracer", "name", "time", "data", "path", "depth",
                 "_start", "_child_s")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        sim_time: float | None,
        data: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.time = sim_time
        self.data = data
        self._child_s = 0.0

    def __enter__(self) -> "Span":
        stack = self._tracer.span_stack
        parent = stack[-1] if stack else None
        if parent is None:
            self.path = self.name
            self.depth = 0
        else:
            self.path = f"{parent.path};{self.name}"
            self.depth = parent.depth + 1
        stack.append(self)
        self._start = _time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_s = _time.perf_counter() - self._start
        stack = self._tracer.span_stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1]._child_s += dur_s
        self._tracer.emit(
            EventKind.SPAN,
            time=self.time,
            data={
                "name": self.name,
                "path": self.path,
                "depth": self.depth,
                "count": 1,
                **self.data,
            },
            wall={
                "dur_s": dur_s,
                "self_s": max(0.0, dur_s - self._child_s),
            },
        )
        return False


def span(
    name: str,
    *,
    time: float | None = None,
    **data: Any,
) -> Span | _NullSpan:
    """Open a named span nested under the tracer's currently open span.

    ``name`` must be deterministic (no wall-derived content) and must not
    contain ``;`` — it becomes one frame of the collapsed-stack path.
    ``time`` is the simulated clock, when the caller has one; extra keyword
    labels land in the event's deterministic ``data``.  Returns a shared
    no-op when the tracer is disabled.
    """
    t = get_tracer()
    if not t.enabled:
        return _NULL_SPAN
    return Span(t, name, time, data)


def span_phase(
    name: str,
    dur_s: float,
    *,
    count: int = 1,
    time: float | None = None,
    **data: Any,
) -> None:
    """Record an *aggregated* phase as a synthetic child span.

    For phases interleaved through a hot loop (per-node LP solves, rounding
    heuristic attempts) a real span per iteration would swamp the trace;
    instead the instrumented code accumulates the phase's total duration
    and sample count itself and emits one synthetic span when done.  The
    phase nests under the currently open span and is charged to its child
    accumulator, so the parent's self time excludes it — exactly as if
    ``count`` real child spans had run.
    """
    t = get_tracer()
    if not t.enabled:
        return
    stack = t.span_stack
    parent = stack[-1] if stack else None
    if parent is None:
        path, depth = name, 0
    else:
        path, depth = f"{parent.path};{name}", parent.depth + 1
        parent._child_s += dur_s
    t.emit(
        EventKind.SPAN,
        time=time,
        data={
            "name": name,
            "path": path,
            "depth": depth,
            "count": int(count),
            "synthetic": True,
            **data,
        },
        wall={"dur_s": dur_s, "self_s": dur_s},
    )


def current_span_path() -> str | None:
    """Path of the innermost open span, or ``None`` (introspection/tests)."""
    stack = get_tracer().span_stack
    return stack[-1].path if stack else None
