"""Discrete-event simulation engine.

A minimal, deterministic event loop over one heap of plain
``(time, seq, fn, arg)`` entries: popping an entry sets the clock to
``time`` and calls ``fn(arg)``.  ``seq`` comes from one counter, so it is
unique and tuple comparison never reaches ``fn``: entries dispatch in
``(time, seq)`` order — simulated time, then creation order.

:meth:`~SimulationEngine.call_at` pushes one entry; nothing removes or
skips an entry once pushed.  A task completion is
``(t, seq, ClusterSimulation._finish_task, task_id)``, with no closure and
no handle object.  :meth:`~SimulationEngine.schedule_at` is
``call_at(time, callback, engine)``, and
:meth:`~SimulationEngine.schedule_periodic` builds a series out of
``schedule_at`` calls.

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


class PeriodicHandle:
    """One :meth:`SimulationEngine.schedule_periodic` series.

    Tick ``k`` (``k = 1, 2, …``) is at ``origin + k * interval``, where
    ``origin`` is the clock when the series was made: a pure function of
    the tick count, so no float drift accumulates.  Every grid tick
    dispatches, and tick ``k+1`` is scheduled during tick ``k``'s dispatch,
    after the callback ran.  When ``demand()`` is false the callback is
    skipped — the tick costs one heap operation and a counter — but the
    tick is still scheduled exactly where an uninterrupted series would
    schedule it.  That keeps its sequence number, and so its order against
    same-time events such as task completions, independent of demand: a
    series resumed lazily when work arrives could break a tie the other
    way, and placements would diverge.

    ``ticks`` counts every grid tick dispatched, ``fired`` the ticks whose
    callback ran.  :meth:`cancel` ends the series: its pending tick still
    dispatches, as a no-op, and schedules nothing.
    """

    __slots__ = (
        "_callback", "_demand", "_origin", "_interval", "_until", "_pending",
        "cancelled", "fired", "ticks",
    )

    def __init__(
        self,
        engine: "SimulationEngine",
        interval: float,
        callback: Callback,
        until: float | None,
        demand: Callable[[], bool] | None,
    ) -> None:
        self._callback = callback
        self._demand = demand
        self._origin = engine.now
        self._interval = interval
        self._until = until
        self.cancelled = False
        self.fired = 0
        self.ticks = 0
        self._schedule_next(engine)

    def _schedule_next(self, engine: "SimulationEngine") -> None:
        next_time = self._origin + (self.ticks + 1) * self._interval
        self._pending = self._until is None or next_time <= self._until
        if self._pending:
            engine.schedule_at(next_time, self._tick)

    def _tick(self, engine: "SimulationEngine") -> None:
        self._pending = False
        if self.cancelled:
            return
        self.ticks += 1
        if self._demand is None or self._demand():
            self.fired += 1
            self._callback(engine)
        if not self.cancelled:
            self._schedule_next(engine)

    def cancel(self) -> None:
        """End the series: no callback runs and no tick is scheduled after
        this."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled and self._pending


class SimulationEngine:
    """Deterministic single-threaded event loop with a simulated clock."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable, Any]] = []
        self._seq = itertools.count()
        self.now: float = 0.0

    def call_at(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` at absolute simulated time ``time``, ordered
        against every other entry by ``(time, creation order)``."""
        # Written so that NaN fails too: a NaN entry at the heap head would
        # end ``run()`` silently (``nan <= limit`` is False).
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at {time}: in the past or not a number "
                f"(now {self.now})"
            )
        heapq.heappush(self._queue, (time, next(self._seq), fn, arg))

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Call ``callback(engine)`` at absolute simulated time ``time``."""
        self.call_at(time, callback, self)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callback,
        *,
        until: float | None = None,
        demand: Callable[[], bool] | None = None,
    ) -> PeriodicHandle:
        """Call ``callback(engine)`` every ``interval`` seconds from now,
        up to ``until``, skipping the ticks at which ``demand()`` is false
        (see :class:`PeriodicHandle`)."""
        if not interval > 0:
            raise ValueError(f"interval must be positive, not {interval}")
        return PeriodicHandle(self, interval, callback, until, demand)

    def pending(self) -> int:
        return len(self._queue)

    def _emit_dispatch(self, time: float, seq: int, fn: Callable) -> None:
        get_tracer().emit(
            EventKind.ENGINE_DISPATCH,
            time=time,
            data={
                "event_seq": seq,
                "callback": getattr(fn, "__qualname__", type(fn).__name__),
                # O(1) depth of the event queue at dispatch; feeds the
                # timeline's engine backlog series.
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
        limit = math.inf if until is None else until
        while queue and queue[0][0] <= limit:
            time, seq, fn, arg = pop(queue)
            self.now = time
            if traced:
                self._emit_dispatch(time, seq, fn)
            fn(arg)
        if until is not None and until > self.now:
            self.now = until
        return self.now
