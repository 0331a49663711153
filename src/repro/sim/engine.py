"""Discrete-event simulation engine.

A minimal, deterministic event loop over one heap of plain
``(time, seq, fn, arg)`` entries: popping an entry sets the clock to
``time`` and calls ``fn(arg)``.  ``seq`` comes from one counter, so it is
unique and tuple comparison never reaches ``fn``: entries dispatch in
``(time, seq)`` order — simulated time, then creation order.

There are two ways in, over that one queue and counter:

* :meth:`call_at` pushes ``(time, seq, fn, arg)`` and returns nothing.  It
  is the path of events nothing cancels and that happen once per task: a
  task completion is ``(t, seq, ClusterSimulation._finish_task, task_id)``,
  with no closure and no handle object.
* :meth:`schedule_at` / :meth:`schedule_in` wrap ``callback(engine)`` in a
  cancellable handle and push ``(time, seq, _fire, handle)``.  Cancelling
  leaves the entry in the heap; it is skipped when popped, before the clock
  moves.  Periodic series are built on these.

This is the substrate standing in for the paper's simulator, which
"executes Medea with simulated machines, merely ignoring RPCs and task
execution" (§7.1).

Observability: while the installed :class:`~repro.obs.Tracer` is enabled,
the engine emits one ``engine.dispatch`` event per callback invocation,
carrying the simulated time, the entry's sequence number, the callback's
qualified name and the queue depth — the uniform, replayable event feed
trace-driven analyses consume.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from ..obs.events import EventKind
from ..obs.spans import span
from ..obs.trace import get_tracer

__all__ = ["SimulationEngine", "PeriodicHandle"]

Callback = Callable[["SimulationEngine"], None]


class _Event:
    """The cancellable handle :meth:`SimulationEngine.schedule_at` returns;
    its queue entry is ``(time, seq, _fire, handle)``."""

    __slots__ = ("engine", "callback", "cancelled")

    def __init__(self, engine: "SimulationEngine", callback: Callback) -> None:
        self.engine = engine
        self.callback = callback
        self.cancelled = False

    def _fire(self) -> None:
        self.callback(self.engine)


#: The ``fn`` of every handle entry: the dispatch loop checks it by identity
#: to skip cancelled handles, and the dispatch event to name the callback.
_fire = _Event._fire


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
        self._queue: list[tuple[float, int, Callable, Any]] = []
        self._seq = itertools.count()
        self.now: float = 0.0

    def call_at(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` at absolute simulated time ``time``.

        The handle-free entry: nothing can cancel it, and ``fn`` receives
        ``arg``, not the engine.  It shares :meth:`schedule_at`'s queue and
        sequence counter, so it is ordered against every other event by
        ``(time, creation order)``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._queue, (time, next(self._seq), fn, arg))

    def schedule_at(self, time: float, callback: Callback) -> _Event:
        """Schedule ``callback(engine)`` at absolute simulated time ``time``;
        returns a handle :meth:`cancel` accepts."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        event = _Event(self, callback)
        heapq.heappush(self._queue, (time, next(self._seq), _fire, event))
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
        return sum(
            1 for _, _, fn, arg in self._queue if fn is not _fire or not arg.cancelled
        )

    def _emit_dispatch(self, time: float, seq: int, fn: Callable, arg: Any) -> None:
        callback = arg.callback if fn is _fire else fn
        get_tracer().emit(
            EventKind.ENGINE_DISPATCH,
            time=time,
            data={
                "event_seq": seq,
                "callback": getattr(callback, "__qualname__", type(callback).__name__),
                # O(1) depth of the event queue at dispatch (includes
                # cancelled-but-unpopped events); feeds the timeline's
                # engine backlog series.
                "queued": len(self._queue),
            },
        )

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
        # ``traced`` is the run-level latch (see ``Tracer.kind_enabled``):
        # the dispatch stream is the densest in the system, so a rate-0
        # sampling policy must cost one bool check here, not a call.
        traced = get_tracer().kind_enabled(EventKind.ENGINE_DISPATCH)
        queue = self._queue
        pop = heapq.heappop
        fire = _fire
        limit = math.inf if until is None else until
        while queue and queue[0][0] <= limit:
            time, seq, fn, arg = pop(queue)
            if fn is fire and arg.cancelled:
                continue
            self.now = time
            if traced:
                self._emit_dispatch(time, seq, fn, arg)
            fn(arg)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Process exactly one event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, seq, fn, arg = heapq.heappop(queue)
            if fn is _fire and arg.cancelled:
                continue
            self.now = time
            if get_tracer().kind_enabled(EventKind.ENGINE_DISPATCH):
                self._emit_dispatch(time, seq, fn, arg)
            fn(arg)
            return True
        return False
