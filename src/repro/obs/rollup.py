"""Streaming rollups: bounded live aggregates instead of raw event files.

At 10k-node scale a raw trace is the wrong primary artifact — even
sampled, it grows without bound and every consumer pays a full-file pass.
The rollup plane inverts the flow: a :class:`RollupSink` registered on the
tracer folds every event into a live :class:`RollupState` (a
:class:`~repro.obs.timeline.TimelineAggregator` plus the span profiler,
both already bounded in memory) and periodically rewrites one **bounded**
``ROLLUP_*.json`` document — downsampled series, top-k span stats, the
tracer's own cost accounting, and the ambient metrics snapshot.  The file
is replaced atomically on every flush, so its size is a function of
``max_points`` and the series count, never of run length.

Consumers:

* ``repro dashboard ROLLUP_run.json`` renders the full dashboard (series
  tables, charts, SLO verdicts) from the rollup alone via
  :func:`build_dashboard_from_rollup` — no raw trace needed.  Replay
  cross-checking is the one section that genuinely requires raw events;
  it is reported as skipped, not failed.
* The live ``/snapshot`` endpoint (:mod:`repro.obs.serve`) serves from
  the same :class:`RollupState`, so the in-flight view and the on-disk
  rollup are two renderings of one aggregate.

Wiring: ``--rollup PATH`` / ``MEDEA_ROLLUP`` opens the rollup plane through
one :class:`~repro.obs.session.ObsSession`, which folds every event into
the state the server reads and flushes this sink's file from it; a
standalone :class:`RollupSink` on any tracer folds and flushes by itself.
Zero-cost when unset.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping

from .events import WALL_KEY, EventKind, TraceEvent
from .hist import LatencyHistogram
from .metrics import get_metrics
from .profile import ProfileReport
from .timeline import DEFAULT_MAX_POINTS, DEFAULT_TICK_S, TimelineAggregator, TimeSeries
from .trace import get_tracer

__all__ = [
    "ROLLUP_SCHEMA",
    "RollupState",
    "RollupSink",
    "load_rollup",
    "is_rollup_doc",
    "sniff_rollup",
    "build_dashboard_from_rollup",
]

ROLLUP_SCHEMA = "medea.rollup/1"

#: Simulated seconds between on-disk flushes.
DEFAULT_INTERVAL_S = 30.0
#: Event-count flush fallback for streams without a simulated clock.
DEFAULT_EVENT_INTERVAL = 50_000
#: Span paths kept in the rollup document (top-k by sample count).
DEFAULT_TOP_K_SPANS = 64


class RollupState:
    """Live bounded aggregate of one run: timeline + span profile.

    Every ingest path is a single :meth:`observe` call, so the tracer
    sink, the telemetry server, and post-hoc converters share one code
    path.  :meth:`summary` is the dashboard-shaped view (what
    ``/snapshot`` serves); :meth:`document` wraps it with the schema tag
    and flush bookkeeping (what lands in ``ROLLUP_*.json``).
    """

    def __init__(
        self,
        *,
        tick_s: float = DEFAULT_TICK_S,
        max_points: int = DEFAULT_MAX_POINTS,
        top_k_spans: int = DEFAULT_TOP_K_SPANS,
    ) -> None:
        self.timeline = TimelineAggregator(tick_s=tick_s, max_points=max_points)
        self.profile = ProfileReport()
        self.top_k_spans = top_k_spans
        self.flushes = 0
        #: End-to-end placement-request latency distribution, folded from
        #: ``request.done`` events (bounded memory) — the p99
        #: ``repro watch`` renders and the sweep reports aggregate.
        self.request_hist = LatencyHistogram()

    def observe(self, obj: Mapping[str, Any]) -> None:
        """Fold one decoded event dict into every aggregate."""
        self.timeline.consume(obj)
        kind = obj.get("kind")
        if kind == EventKind.SPAN:
            self.profile.add(obj)
        elif kind == EventKind.REQUEST_DONE:
            latency = (obj.get(WALL_KEY) or {}).get("latency_s")
            if latency is not None:
                self.request_hist.record(latency)

    def observe_event(self, event: TraceEvent) -> None:
        self.observe(event.to_obj())

    def _profile_objs(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """(deterministic profile section, wall timings) bounded to the
        top-k spans by sample count (count-desc, then path)."""
        stats = self.profile.sorted_spans()
        kept = sorted(stats, key=lambda s: (-s.count, s.path))[: self.top_k_spans]
        kept.sort(key=lambda s: s.path)
        obj: dict[str, Any] = {
            "events": self.profile.events,
            "spans": [stat.to_obj() for stat in kept],
        }
        if len(stats) > len(kept):
            obj["spans_dropped"] = len(stats) - len(kept)
        wall = {
            stat.path: {
                "total_s": round(stat.total_s, 6),
                "self_s": round(stat.self_s, 6),
            }
            for stat in kept
        }
        return obj, wall

    def summary(self) -> dict[str, Any]:
        """Dashboard-shaped summary: the timeline's series (volatile ones
        under ``"wall"``) plus the bounded span profile."""
        out = self.timeline.summary()
        profile_obj, profile_wall = self._profile_objs()
        out["profile"] = profile_obj
        if profile_wall:
            out.setdefault(WALL_KEY, {})["profile"] = profile_wall
        if self.request_hist.count:
            out.setdefault(WALL_KEY, {})["request_latency"] = (
                self.request_hist.summary()
            )
        return out

    def document(self) -> dict[str, Any]:
        """The bounded on-disk rollup document (one JSON object)."""
        doc = self.summary()
        doc["schema"] = ROLLUP_SCHEMA
        doc["rollup"] = {
            "flushes": self.flushes,
            "events": self.timeline.events,
        }
        wall = doc.setdefault(WALL_KEY, {})
        tracer = get_tracer()
        if tracer.enabled:
            wall["tracer"] = tracer.self_stats()
        metrics = get_metrics().snapshot()
        if any(metrics.get(family) for family in ("counters", "gauges", "timers")):
            wall["metrics"] = metrics
        return doc


class RollupSink:
    """Tracer sink maintaining a :class:`RollupState` and flushing it to a
    bounded JSON file — atomically (tmp + rename), every ``interval_s`` of
    *simulated* time (or every ``event_interval`` events for clockless
    streams), and once more on close."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        state: RollupState | None = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        event_interval: int = DEFAULT_EVENT_INTERVAL,
    ) -> None:
        self.path = os.fspath(path)
        self.state = state if state is not None else RollupState()
        self.interval_s = float(interval_s)
        self.event_interval = max(1, int(event_interval))
        self._last_flush_t: float | None = None
        self._events_since_flush = 0
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        if self._closed:
            return
        self.state.observe_event(event)
        if self.due(event.time):
            self.flush()

    def due(self, t: float | None) -> bool:
        """Count one folded event at simulated time ``t``; whether a flush
        is now due."""
        self._events_since_flush += 1
        if t is not None:
            if self._last_flush_t is None:
                self._last_flush_t = t
            elif t - self._last_flush_t >= self.interval_s:
                return True
        return self._events_since_flush >= self.event_interval

    def flush(self) -> None:
        """Atomically rewrite the rollup document."""
        self.state.flushes += 1
        self._events_since_flush = 0
        self._last_flush_t = self.state.timeline._clock
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.state.document(), handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True


# -- reading rollups back -----------------------------------------------------


def is_rollup_doc(doc: Any) -> bool:
    return isinstance(doc, Mapping) and doc.get("schema") == ROLLUP_SCHEMA


def sniff_rollup(path: str) -> dict[str, Any] | None:
    """The parsed rollup document when ``path`` holds one, else ``None``
    (raw traces and anything unreadable fall through to the trace reader,
    which owns the error messages)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read(1)
            if head != "{":
                return None
            doc = json.loads(head + handle.read())
    except (OSError, ValueError):
        return None
    return doc if is_rollup_doc(doc) else None


def load_rollup(path: str | os.PathLike) -> dict[str, Any]:
    """Load and validate a ``ROLLUP_*.json`` document."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read rollup file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt rollup JSON: {exc.msg}") from exc
    if not is_rollup_doc(doc):
        raise ValueError(
            f"{path} is not a {ROLLUP_SCHEMA} rollup document (missing or "
            f"unexpected 'schema' field)"
        )
    return doc


class _RollupTimeline:
    """Timeline view reconstructed from a rollup document — just enough
    surface (``series`` with ``values()``/``volatile``) for
    :class:`~repro.obs.slo.SLOMonitor` to evaluate rules against."""

    def __init__(self, doc: Mapping[str, Any]) -> None:
        self.series: dict[str, TimeSeries] = {}
        for name, obj in (doc.get("series") or {}).items():
            self._restore(name, obj, volatile=False)
        wall_series = (doc.get(WALL_KEY) or {}).get("series") or {}
        for name, obj in wall_series.items():
            self._restore(name, obj, volatile=True)

    def _restore(self, name: str, obj: Mapping[str, Any], *, volatile: bool) -> None:
        series = TimeSeries(
            name,
            agg=obj.get("agg", "mean"),
            tick_s=float(obj.get("tick_s") or DEFAULT_TICK_S),
            volatile=volatile,
        )
        # One sample per rolled-up bucket reproduces the bucket values
        # exactly for every aggregation mode.
        for t, v in obj.get("points", ()):
            series.add(float(t), float(v))
        self.series[name] = series


def build_dashboard_from_rollup(
    doc: Mapping[str, Any],
    *,
    rules: Iterable[Any] | None = None,
) -> dict[str, Any]:
    """Assemble the dashboard summary from a rollup document alone.

    Series, meta, and the span profile come straight from the rollup;
    SLO rules are re-evaluated against the reconstructed series.  Replay
    cross-checking needs raw events by definition, so the replay section
    reports itself skipped (``ok`` with a note), never failed.
    """
    from .slo import SLOMonitor, default_smoke_slos

    summary: dict[str, Any] = {
        "meta": dict(doc.get("meta") or {}),
        "series": dict(doc.get("series") or {}),
    }
    summary["meta"]["rollup"] = dict(doc.get("rollup") or {})
    wall_in = doc.get(WALL_KEY) or {}
    wall_out: dict[str, Any] = {}
    if wall_in.get("series"):
        wall_out["series"] = dict(wall_in["series"])
    if wall_in.get("profile"):
        wall_out["profile"] = dict(wall_in["profile"])
    if wall_in.get("tracer"):
        wall_out["tracer"] = dict(wall_in["tracer"])

    summary["replay"] = {
        "ok": True,
        "events": summary["meta"].get("events", 0),
        "checks": 0,
        "allocated": 0,
        "released": 0,
        "divergences": 0,
        "warnings": [
            "replay skipped: dashboard rendered from a streaming rollup "
            "(no raw events to cross-check)"
        ],
    }

    monitor = SLOMonitor(default_smoke_slos() if rules is None else list(rules))
    summary["slo"], wall_slo = monitor.evaluate(_RollupTimeline(doc)).summary_sections()
    if wall_slo is not None:
        wall_out["slo"] = wall_slo

    summary["profile"] = dict(doc.get("profile") or {"events": 0, "spans": []})
    summary["critical_paths"] = []
    if wall_out:
        summary[WALL_KEY] = wall_out
    return summary
