"""Discrete-event simulation engine.

A minimal, deterministic event loop over a heap of ``(time, seq, event)``
tuples (``seq`` is unique, so two events never compare); callbacks receive
the engine so they can schedule follow-ups.  This is the substrate standing
in for the paper's simulator, which "executes Medea with simulated machines,
merely ignoring RPCs and task execution" (§7.1).

Observability: while the installed :class:`~repro.obs.Tracer` is enabled,
the engine emits one ``engine.dispatch`` event per callback invocation,
carrying the simulated time, the dispatch sequence number, and the
callback's qualified name — the uniform, replayable event feed
trace-driven analyses consume.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..obs.events import EventKind
from ..obs.spans import span
from ..obs.trace import get_tracer

__all__ = ["SimulationEngine", "PeriodicHandle"]

Callback = Callable[["SimulationEngine"], None]


class _Event:
    """A pending callback; cancelling it leaves it in the heap, unfired."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False


class PeriodicHandle:
    """Cancellable handle for a :meth:`SimulationEngine.schedule_periodic`
    series.

    Unlike the one-shot ``schedule_at`` / ``schedule_in`` events, a periodic
    callback reschedules itself, so cancelling any single underlying event
    is not enough — this handle tracks the *current* pending event and stops
    the series as a whole.  Accepted by :meth:`SimulationEngine.cancel`.
    """

    __slots__ = ("_event", "cancelled", "fired")

    def __init__(self) -> None:
        self._event: _Event | None = None
        self.cancelled = False
        #: Number of times the periodic callback has run.
        self.fired = 0

    def cancel(self) -> None:
        """Stop the series: the pending tick (if any) will not fire and no
        further ticks are scheduled."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled and self._event is not None


class SimulationEngine:
    """Deterministic single-threaded event loop with a simulated clock."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._running = False

    def schedule_at(self, time: float, callback: Callback) -> _Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        event = _Event(time, next(self._seq), callback)
        heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def schedule_in(self, delay: float, callback: Callback) -> _Event:
        """Schedule ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callback,
        *,
        start: float | None = None,
        until: float | None = None,
    ) -> PeriodicHandle:
        """Invoke ``callback`` every ``interval`` seconds until ``until``.

        Returns a :class:`PeriodicHandle` so the series can be torn down
        (e.g. stopping heartbeats when a simulation drains early) — like
        ``schedule_at`` / ``schedule_in``, what was scheduled can be
        cancelled, either via ``handle.cancel()`` or :meth:`cancel`.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        first = self.now + interval if start is None else start
        handle = PeriodicHandle()

        def tick(engine: "SimulationEngine") -> None:
            handle._event = None
            if handle.cancelled:
                return
            handle.fired += 1
            callback(engine)
            # Multiplicative grid (first + k*interval), not an additive
            # now+interval recurrence: tick times are a pure function of
            # the fire count, so no float drift accumulates.
            next_time = first + handle.fired * interval
            if not handle.cancelled and (until is None or next_time <= until):
                handle._event = engine.schedule_at(next_time, tick)

        if until is None or first <= until:
            handle._event = self.schedule_at(first, tick)
        return handle

    def cancel(self, event: _Event | PeriodicHandle) -> None:
        """Cancel a pending one-shot event or a whole periodic series."""
        if isinstance(event, PeriodicHandle):
            event.cancel()
        else:
            event.cancelled = True

    def pending(self) -> int:
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def _dispatch(self, event: _Event, traced: bool | None = None) -> None:
        self.now = event.time
        # ``traced`` is the run-level latch (see ``Tracer.kind_enabled``):
        # the dispatch stream is the densest in the system, so a rate-0
        # sampling policy must cost one bool check here, not a call.
        if traced is None:
            traced = get_tracer().kind_enabled(EventKind.ENGINE_DISPATCH)
        if traced:
            get_tracer().emit(
                EventKind.ENGINE_DISPATCH,
                time=event.time,
                data={
                    "event_seq": event.seq,
                    "callback": getattr(
                        event.callback, "__qualname__", type(event.callback).__name__
                    ),
                    # O(1) depth of the event queue at dispatch (includes
                    # cancelled-but-unpopped events); feeds the timeline's
                    # engine backlog series.
                    "queued": len(self._queue),
                },
            )
        event.callback(self)

    def run(self, until: float | None = None) -> float:
        """Drain events (optionally up to simulated time ``until``); returns
        the final clock value.

        Traced as an ``engine.run`` span, the root of the simulation's span
        tree: heartbeat / cycle / solver phases all nest inside it, and its
        self time is the loop's own dispatch overhead.
        """
        with span("engine.run", time=self.now):
            return self._run(until)

    def _run(self, until: float | None) -> float:
        self._running = True
        traced = get_tracer().kind_enabled(EventKind.ENGINE_DISPATCH)
        queue = self._queue
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                event = heapq.heappop(queue)[2]
                if event.cancelled:
                    continue
                self._dispatch(event, traced)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Process exactly one event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self._dispatch(event)
            return True
        return False
