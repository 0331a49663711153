"""Streaming timeline aggregation: raw trace events → per-tick time series.

The paper's evaluation speaks in aggregates over time — node/rack
utilisation (Fig. 3), task queuing delay (Fig. 7/11c), runtime constraint
violations (Fig. 9), container churn and scheduler queue depth — while the
tracer emits individual events.  :class:`TimelineAggregator` bridges the
two: it consumes decoded event dicts — inside the one fold of a run,
:class:`~repro.obs.rollup.RollupState`, which owns the only instance — and
maintains a set of :class:`TimeSeries`, each bucketed to
:data:`DEFAULT_TICK_S` and **bounded in memory**: when a series exceeds
:data:`DEFAULT_MAX_POINTS` buckets its tick width doubles and adjacent
buckets are merged, so arbitrarily long runs keep a fixed-size,
progressively coarser summary.

Determinism: series derived from the deterministic ``data`` payload are
themselves deterministic (same-seed runs produce identical summaries);
series derived from volatile ``wall`` payloads (solver latency, cycle wall
time) are flagged ``volatile`` and segregated under the top-level ``"wall"``
key of :meth:`TimelineAggregator.summary`, mirroring the trace-level
``canonical()`` contract.
"""

from __future__ import annotations

from typing import Any, Mapping

from .events import WALL_KEY, EventKind

__all__ = ["TimeSeries", "TimelineAggregator", "DEFAULT_TICK_S", "DEFAULT_MAX_POINTS"]

#: Bucket width in simulated seconds of every timeline series.
DEFAULT_TICK_S = 1.0
#: Per-series bucket cap before tick-doubling kicks in.
DEFAULT_MAX_POINTS = 512

_AGGS = ("mean", "sum", "max", "last")


class TimeSeries:
    """One named per-tick series with an aggregation mode and bounded size.

    Buckets are keyed by tick index (``int(t // tick_s)``); out-of-order
    samples merge into their bucket wherever it is.  ``agg`` decides how
    samples within a bucket combine: ``mean`` (utilisation-style levels),
    ``sum`` (churn-style rates per tick), ``max``, or ``last``
    (monotone-state samples like violation counts).
    """

    __slots__ = ("name", "agg", "tick_s", "max_points", "volatile", "_buckets")

    def __init__(
        self,
        name: str,
        *,
        agg: str = "mean",
        tick_s: float = DEFAULT_TICK_S,
        max_points: int = DEFAULT_MAX_POINTS,
        volatile: bool = False,
    ) -> None:
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r}; expected one of {_AGGS}")
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if max_points < 2:
            raise ValueError("max_points must be at least 2")
        self.name = name
        self.agg = agg
        self.tick_s = float(tick_s)
        self.max_points = max_points
        self.volatile = volatile
        #: tick index -> [accumulator, sample count]
        self._buckets: dict[int, list[float]] = {}

    def add(self, t: float, value: float) -> None:
        index = int(t // self.tick_s)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [float(value), 1]
            if len(self._buckets) > self.max_points:
                self._coarsen()
        else:
            self._merge(bucket, float(value), 1)

    def _merge(self, bucket: list[float], acc: float, count: int) -> None:
        if self.agg == "mean" or self.agg == "sum":
            bucket[0] += acc
        elif self.agg == "max":
            bucket[0] = max(bucket[0], acc)
        else:  # last: later samples win (callers feed in event order)
            bucket[0] = acc
        bucket[1] += count

    def _coarsen(self) -> None:
        """Double the tick width and merge adjacent buckets (bounded memory)."""
        self.tick_s *= 2.0
        merged: dict[int, list[float]] = {}
        for index in sorted(self._buckets):
            acc, count = self._buckets[index]
            target = merged.get(index // 2)
            if target is None:
                merged[index // 2] = [acc, count]
            else:
                self._merge(target, acc, count)
        self._buckets = merged

    def _value(self, bucket: list[float]) -> float:
        if self.agg == "mean":
            return bucket[0] / bucket[1]
        return bucket[0]

    def __len__(self) -> int:
        return len(self._buckets)

    def points(self) -> list[tuple[float, float]]:
        """Sorted ``(bucket start time, aggregated value)`` pairs."""
        return [
            (index * self.tick_s, self._value(self._buckets[index]))
            for index in sorted(self._buckets)
        ]

    def values(self) -> list[float]:
        return [value for _, value in self.points()]

    def to_obj(self) -> dict[str, Any]:
        points = self.points()
        values = [v for _, v in points]
        obj: dict[str, Any] = {
            "agg": self.agg,
            "tick_s": self.tick_s,
            "points": [[t, round(v, 6)] for t, v in points],
        }
        if values:
            obj["min"] = round(min(values), 6)
            obj["max"] = round(max(values), 6)
            obj["mean"] = round(sum(values) / len(values), 6)
            obj["last"] = round(values[-1], 6)
        return obj


class TimelineAggregator:
    """Streaming consumer turning a trace into the paper's signal series,
    one decoded event dict per :meth:`consume` call.

    Series produced (deterministic unless noted):

    ======================================  ======  ==============================
    series                                  agg     source event
    ======================================  ======  ==============================
    ``utilization``                         mean    ``sim.state_hash``
    ``rack_utilization:<rack>``             mean    ``sim.state_hash``
    ``containers``                          mean    ``sim.state_hash``
    ``pending_tasks`` / ``pending_lras``    mean    ``sim.state_hash``
    ``queue_depth:<scheduler>``             mean    ``scheduler.queue``
    ``task_queue_depth``                    mean    ``scheduler.queue``
    ``task_queue_delay_s``                  mean    ``task.allocate``
    ``containers_started`` / ``_stopped``   sum     lra/task lifecycle
    ``violations`` / ``violation_subjects`` last    ``cycle.end``
    ``lra_placed`` / ``_rejected`` / ...    sum     ``cycle.end``
    ``nodes_down``                          last    ``sim.node_availability``
    ``engine_queue``                        mean    ``engine.dispatch``
    ``solver_latency_s:<scheduler>``        mean    ``scheduler.place`` (volatile)
    ``cycle_seconds``                       mean    ``cycle.end`` (volatile)
    ``solver_total_s:<backend>``            mean    ``solver.solve`` (volatile)
    ======================================  ======  ==============================
    """

    def __init__(self) -> None:
        self.series: dict[str, TimeSeries] = {}
        self.events = 0
        self.kind_counts: dict[str, int] = {}
        self._clock = 0.0
        self._t_min: float | None = None
        self._t_max: float | None = None
        self._down_nodes: set[str] = set()

    # -- ingestion ------------------------------------------------------------

    def _series(self, name: str, agg: str, *, volatile: bool = False) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(
                name, agg=agg, volatile=volatile
            )
        return series

    def consume(self, obj: Mapping[str, Any]) -> None:
        """Ingest one decoded JSONL event dict."""
        self.events += 1
        kind = obj.get("kind", "?")
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        t = obj.get("time")
        if t is None:
            # Clock-less emitters (e.g. solver internals) inherit the time
            # of the last stamped event, which precedes them in the stream.
            t = self._clock
        else:
            t = float(t)
            self._clock = t
            self._t_min = t if self._t_min is None else min(self._t_min, t)
            self._t_max = t if self._t_max is None else max(self._t_max, t)
        data = obj.get("data") or {}
        wall = obj.get(WALL_KEY) or {}
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, t, data, wall)

    # -- per-kind handlers ----------------------------------------------------

    def _on_state_hash(self, t: float, data: Mapping, wall: Mapping) -> None:
        if "utilization" in data:
            self._series("utilization", "mean").add(t, data["utilization"])
        for rack, util in sorted((data.get("utilization_by_rack") or {}).items()):
            self._series(f"rack_utilization:{rack}", "mean").add(t, util)
        for key, name in (
            ("containers", "containers"),
            ("pending_tasks", "pending_tasks"),
            ("pending_lras", "pending_lras"),
        ):
            if key in data:
                self._series(name, "mean").add(t, data[key])

    def _on_scheduler_queue(self, t: float, data: Mapping, wall: Mapping) -> None:
        scheduler = data.get("scheduler", "?")
        self._series(f"queue_depth:{scheduler}", "mean").add(
            t, data.get("pending_lras", 0)
        )
        if "pending_tasks" in data:
            self._series("task_queue_depth", "mean").add(t, data["pending_tasks"])

    def _on_cycle_end(self, t: float, data: Mapping, wall: Mapping) -> None:
        if "violations" in data:
            self._series("violations", "last").add(t, data["violations"])
        if "violation_subjects" in data:
            self._series("violation_subjects", "last").add(
                t, data["violation_subjects"]
            )
        self._series("lra_placed", "sum").add(t, len(data.get("placed", ())))
        self._series("lra_rejected", "sum").add(t, len(data.get("rejected", ())))
        self._series("lra_conflicted", "sum").add(t, len(data.get("conflicted", ())))
        if "solve_time_s" in wall:
            self._series("cycle_seconds", "mean", volatile=True).add(
                t, wall["solve_time_s"]
            )

    def _on_lra_place(self, t: float, data: Mapping, wall: Mapping) -> None:
        self._series("containers_started", "sum").add(t, data.get("containers", 0))

    def _on_lra_complete(self, t: float, data: Mapping, wall: Mapping) -> None:
        self._series("containers_stopped", "sum").add(t, data.get("containers", 0))

    def _on_task_allocate(self, t: float, data: Mapping, wall: Mapping) -> None:
        self._series("containers_started", "sum").add(t, 1)
        if "latency_s" in data:
            self._series("task_queue_delay_s", "mean").add(t, data["latency_s"])

    def _on_task_release(self, t: float, data: Mapping, wall: Mapping) -> None:
        self._series("containers_stopped", "sum").add(t, 1)

    def _on_node_availability(self, t: float, data: Mapping, wall: Mapping) -> None:
        node_id = data.get("node_id")
        if node_id is not None:
            if data.get("up"):
                self._down_nodes.discard(node_id)
            else:
                self._down_nodes.add(node_id)
        self._series("nodes_down", "last").add(t, len(self._down_nodes))

    def _on_engine_dispatch(self, t: float, data: Mapping, wall: Mapping) -> None:
        if "queued" in data:
            self._series("engine_queue", "mean").add(t, data["queued"])

    def _on_watchdog_trip(self, t: float, data: Mapping, wall: Mapping) -> None:
        self._series("watchdog_trips", "sum").add(t, 1)

    def _on_scheduler_place(self, t: float, data: Mapping, wall: Mapping) -> None:
        if "solve_time_s" in wall:
            scheduler = data.get("scheduler", "?")
            self._series(
                f"solver_latency_s:{scheduler}", "mean", volatile=True
            ).add(t, wall["solve_time_s"])

    def _on_solver_solve(self, t: float, data: Mapping, wall: Mapping) -> None:
        if "time_total_s" in wall:
            backend = data.get("backend", "?")
            self._series(
                f"solver_total_s:{backend}", "mean", volatile=True
            ).add(t, wall["time_total_s"])

    def _on_request_submit(self, t: float, data: Mapping, wall: Mapping) -> None:
        # Per-tick admitted-request count: divided by tick_s this is the
        # offered request rate the latency-under-load curves plot against.
        self._series("request_rate", "sum").add(t, 1)

    def _on_request_reject(self, t: float, data: Mapping, wall: Mapping) -> None:
        self._series("request_rejected", "sum").add(t, 1)

    def _on_request_done(self, t: float, data: Mapping, wall: Mapping) -> None:
        if not data.get("placed", False):
            self._series("request_unplaced", "sum").add(t, 1)
        if "latency_s" in wall:
            self._series("request_latency_s", "mean", volatile=True).add(
                t, wall["latency_s"]
            )
        if "queue_s" in wall:
            self._series("request_queue_s", "mean", volatile=True).add(
                t, wall["queue_s"]
            )

    _HANDLERS = {
        EventKind.SIM_STATE_HASH: _on_state_hash,
        EventKind.SCHEDULER_QUEUE: _on_scheduler_queue,
        EventKind.CYCLE_END: _on_cycle_end,
        EventKind.LRA_PLACE: _on_lra_place,
        EventKind.LRA_COMPLETE: _on_lra_complete,
        EventKind.TASK_ALLOCATE: _on_task_allocate,
        EventKind.TASK_RELEASE: _on_task_release,
        EventKind.NODE_AVAILABILITY: _on_node_availability,
        EventKind.ENGINE_DISPATCH: _on_engine_dispatch,
        EventKind.SCHEDULER_PLACE: _on_scheduler_place,
        EventKind.SOLVER_SOLVE: _on_solver_solve,
        EventKind.WATCHDOG_TRIP: _on_watchdog_trip,
        EventKind.REQUEST_SUBMIT: _on_request_submit,
        EventKind.REQUEST_REJECT: _on_request_reject,
        EventKind.REQUEST_DONE: _on_request_done,
    }

    # -- output ----------------------------------------------------------------

    def time_span(self) -> tuple[float, float] | None:
        if self._t_min is None or self._t_max is None:
            return None
        return (self._t_min, self._t_max)

    def summary(self) -> dict[str, Any]:
        """Deterministically ordered summary dict.

        Volatile (wall-clock-derived) series live under the top-level
        ``"wall"`` key so stripping it — exactly like the trace-level
        :func:`~repro.obs.events.canonical` — yields a byte-stable document
        for same-seed runs.
        """
        span = self.time_span()
        deterministic: dict[str, Any] = {}
        volatile: dict[str, Any] = {}
        for name in sorted(self.series):
            series = self.series[name]
            (volatile if series.volatile else deterministic)[name] = series.to_obj()
        out: dict[str, Any] = {
            "meta": {
                "events": self.events,
                "kinds": dict(sorted(self.kind_counts.items())),
                "tick_s": DEFAULT_TICK_S,
                "max_points": DEFAULT_MAX_POINTS,
                "time_span": list(span) if span is not None else None,
            },
            "series": deterministic,
        }
        if volatile:
            out[WALL_KEY] = {"series": volatile}
        return out
