"""The tracer and its sinks.

A :class:`Tracer` is the single entry point components emit through.  It is
**zero-cost when disabled**: instrumented call sites guard with
``if tracer.enabled:`` so neither the event payload dict nor the event
object is ever built on the fast path, and the disabled default tracer is a
shared module-level singleton.

Sinks receive fully formed :class:`~repro.obs.events.TraceEvent` records:

* :class:`MemorySink` — in-process list, used by tests and ad-hoc analysis.
* :class:`JsonlSink` — one sorted-key JSON object per line; deterministic
  fields in ``data``, volatile wall-clock fields under ``"wall"``.

Every component emits through the process-wide tracer (:func:`get_tracer`
/ :func:`set_tracer`): a run installs its own through
:class:`repro.obs.session.ObsSession`, so the whole causal chain of a
placement — simulation, facade, scheduler, solver — lands in one stream.
:meth:`Tracer.emit` holds the tracer's lock from the sampling decision to
the last sink, so concurrent placement requests interleave whole events.
"""

from __future__ import annotations

import contextvars
import io
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterable, Iterator, Mapping, TextIO

from .events import TraceEvent
from .sample import TraceSampler

__all__ = [
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "request_context",
    "current_request_id",
]

#: Request-scoped trace context (ISSUE 10).  While a ``request_context`` is
#: active on the current thread/task, every emitted event is stamped with
#: the request id — so the whole causal chain of one placement request
#: (``request.*`` lifecycle, nested spans, solver events) can be filtered
#: out of a shared trace.  A :class:`contextvars.ContextVar` keeps the
#: stamp thread- and async-safe for the concurrent serve path, and the
#: default ``None`` keeps simulation traces byte-identical: no context, no
#: injected field.
_request_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "medea_request_id", default=None
)

#: ``data`` key the request context injects.
REQUEST_ID_KEY = "request_id"


def current_request_id() -> str | None:
    """The active request id, if a :func:`request_context` is open."""
    return _request_id.get()


@contextmanager
def request_context(request_id: str) -> Iterator[str]:
    """Stamp every event emitted in this scope with ``request_id``.

    Scopes nest (the innermost wins) and the stamp never overrides a
    ``request_id`` a call site set explicitly in its payload.
    """
    token = _request_id.set(request_id)
    try:
        yield request_id
    finally:
        _request_id.reset(token)


class TraceSink:
    """Interface sinks implement (duck-typed; subclassing is optional)."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class MemorySink(TraceSink):
    """Keep every event in a list."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def jsonl(self, *, canonical: bool = False) -> str:
        """Serialise the captured stream as JSONL text."""
        lines = [
            e.canonical_json() if canonical else e.to_json() for e in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(TraceSink):
    """Stream events to a JSONL file (or any text file object)."""

    def __init__(self, target: str | os.PathLike | TextIO) -> None:
        if isinstance(target, (str, os.PathLike)):
            self._file: TextIO = open(target, "w", encoding="utf-8")
            self._owned = True
            self.path: str | None = os.fspath(target)
        else:
            self._file = target
            self._owned = False
            self.path = getattr(target, "name", None)
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        if not self._closed:
            self._file.write(event.to_json() + "\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.flush()
        except (ValueError, io.UnsupportedOperation):  # already closed target
            pass
        if self._owned:
            self._file.close()


class Tracer:
    """Emits typed events to zero or more sinks with a total order.

    ``enabled`` is a plain attribute so the hot-path guard is a single
    attribute read.  ``emit`` is still safe to call while disabled (it is a
    no-op), but guarded call sites avoid even building the payload.

    With a :class:`~repro.obs.sample.TraceSampler` attached, the sampling
    decision happens *before* the event object exists and before a
    sequence number is consumed, so the kept stream is contiguous and the
    canonical trace for a given seed + sampling spec is byte-stable.

    The tracer accounts its own cost: ``events_seen`` / ``events_emitted``
    / ``events_dropped`` counters (deterministic for a given seed and
    spec) and ``overhead_s``, the cumulative wall time spent inside
    :meth:`emit` (volatile; surfaced as ``obs_overhead_seconds``).

    ``lock`` serialises :meth:`emit` (sampling, ``seq``, sinks) across
    threads; a reader of state the sinks write takes it too.
    ``span_stack`` holds the open :mod:`~repro.obs.spans`, innermost last.
    """

    def __init__(
        self,
        sinks: Iterable[TraceSink] = (),
        *,
        enabled: bool = True,
        sampler: TraceSampler | None = None,
    ) -> None:
        self.sinks: list[TraceSink] = list(sinks)
        self.enabled = enabled
        self.sampler = sampler
        self.lock = threading.Lock()
        self.span_stack: list = []
        self._seq = 0
        self.events_emitted = 0
        self.events_dropped = 0
        self.overhead_s = 0.0

    @property
    def events_seen(self) -> int:
        """Events offered to the tracer (kept + sampled out).  Derived, so
        the per-event hot paths pay for one counter update, not two."""
        return self.events_emitted + self.events_dropped

    def kind_enabled(self, kind: str) -> bool:
        """Whether events of ``kind`` can ever be emitted under the current
        sampling policy — ``False`` exactly when the policy pins the kind's
        rate to 0 (and it is not protected).

        Unlike :meth:`wants` this involves no per-event state, so a dense
        emitter (e.g. the engine's dispatch loop) may latch it once per run
        and skip its whole tracing block: suppressed-at-source events are
        not offered to the tracer and do not appear in ``events_seen``.
        Callers must re-latch per run because the ambient tracer or its
        policy can be reconfigured between runs.
        """
        if not self.enabled:
            return False
        return self.sampler is None or self.sampler.keeps(kind)

    def wants(self, kind: str, key: str | None = None) -> bool:
        """Pre-flight sampling gate for hot call sites.

        ``False`` means the event would certainly be dropped, so the
        caller can skip building the payload dict entirely — the
        difference between ~1µs and ~10µs per suppressed event, which is
        what keeps dense streams (per-task lifecycle, engine dispatch)
        within the observability budget at scale.  Suppressed events are
        still accounted in ``events_seen`` / ``events_dropped``.

        ``key`` is the event's sampling identity (what
        :meth:`TraceSampler.sample` would extract from the payload:
        app/task/container id); pass it for keyed lifecycles.  The answer
        is :meth:`TraceSampler.keeps`, the rule :meth:`emit` applies, so
        the kept stream is byte-identical whether or not a call site is
        gated; ``wants`` only changes who pays for dropped events.
        Keyless kinds are only suppressed at rate 0 — fractional keyless
        rates return ``True`` and let :meth:`emit` decide.
        """
        if not self.enabled:
            return False
        if self.sampler is None or self.sampler.keeps(kind, key):
            return True
        self.events_dropped += 1
        return False

    def add_sink(self, sink: TraceSink) -> TraceSink:
        self.sinks.append(sink)
        return sink

    def emit(
        self,
        kind: str,
        *,
        time: float | None = None,
        data: Mapping[str, Any] | None = None,
        wall: Mapping[str, Any] | None = None,
    ) -> TraceEvent | None:
        """Build and dispatch one event; returns it (``None`` if disabled
        or sampled out)."""
        if not self.enabled:
            return None
        t0 = perf_counter()
        rid = _request_id.get()
        with self.lock:
            if self.sampler is not None:
                keep, data = self.sampler.sample(kind, data or {})
                if not keep:
                    self.events_dropped += 1
                    self.overhead_s += perf_counter() - t0
                    return None
            if rid is not None and REQUEST_ID_KEY not in (data or {}):
                data = {**(data or {}), REQUEST_ID_KEY: rid}
            event = TraceEvent(
                kind=kind, seq=self._seq, time=time, data=data or {}, wall=wall
            )
            self._seq += 1
            for sink in self.sinks:
                sink.emit(event)
            self.events_emitted += 1
            self.overhead_s += perf_counter() - t0
        return event

    def self_stats(self) -> dict[str, Any]:
        """The tracer's own cost accounting (``overhead_s`` is volatile;
        the counters are deterministic for a fixed seed + sampling spec)."""
        stats: dict[str, Any] = {
            "events_seen": self.events_seen,
            "events_emitted": self.events_emitted,
            "events_dropped": self.events_dropped,
            "overhead_s": round(self.overhead_s, 6),
            "sampling": (
                self.sampler.policy.describe() if self.sampler is not None else None
            ),
        }
        return stats

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


#: Shared disabled tracer: the ambient default until configured.
_NULL_TRACER = Tracer(enabled=False)
_default_tracer: Tracer = _NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled unless configured)."""
    return _default_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the default (``None`` restores the disabled
    null tracer); returns the previous default so callers can restore it."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else _NULL_TRACER
    return previous

