"""The one fold of a run: :class:`RollupState`, and its bounded file.

Every aggregate the dashboard shows — the timeline's series, the replay
cross-check, the span profile, the per-application critical paths, the
request-latency histogram — is folded from the event stream by one
:class:`RollupState`, one :meth:`~RollupState.observe` call per event.
Every reader uses it:

* ``repro dashboard TRACE.jsonl`` (:func:`~repro.obs.report.build_dashboard`)
  reads the trace into one state and renders :meth:`~RollupState.summary`;
* the live ``/snapshot`` endpoint (:mod:`repro.obs.serve`) serves the
  summary of the session's state mid-run;
* a :class:`RollupSink` rewrites :meth:`~RollupState.document` — the
  summary plus the schema tag, flush bookkeeping and the tracer's and
  metrics' wall-clock blocks — to one ``ROLLUP_*.json`` file, atomically,
  every :data:`INTERVAL_S` simulated seconds and once more on close;
* ``repro dashboard ROLLUP.json`` renders that document as it stands
  (:func:`rejudge_slos` re-judges ``--slo`` rules from its stored series),
  so a rollup's dashboard is the trace's dashboard.

The document is bounded: its size is the series cap
(:data:`~repro.obs.timeline.DEFAULT_MAX_POINTS` points per series) plus
one row per span path plus one critical-path row per LRA, never a
function of how many events the run emitted.

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
from .profile import CriticalPathBuilder, ProfileReport
from .replay import ReplayState
from .slo import SLOMonitor, SLORule, default_smoke_slos
from .timeline import TimelineAggregator
from .trace import get_tracer

__all__ = [
    "ROLLUP_SCHEMA",
    "RollupState",
    "RollupSink",
    "sniff_rollup",
    "rejudge_slos",
]

ROLLUP_SCHEMA = "medea.rollup/1"

#: Simulated seconds between on-disk flushes.
INTERVAL_S = 30.0
#: Event-count flush fallback for streams without a simulated clock.
EVENT_INTERVAL = 50_000


def _judge(
    series: Mapping[str, tuple[list[float], bool]],
    rules: Iterable[SLORule] | None,
) -> tuple[dict[str, Any], dict[str, Any] | None]:
    monitor = SLOMonitor(default_smoke_slos() if rules is None else rules)
    return monitor.evaluate(series).summary_sections()


class RollupState:
    """Every aggregate of one run, folded from its event stream.

    :meth:`observe` is the only way events get in; :meth:`summary` is the
    dashboard summary; :meth:`document` is what lands in
    ``ROLLUP_*.json``.
    """

    def __init__(self) -> None:
        self.timeline = TimelineAggregator()
        self.replay = ReplayState()
        self.profile = ProfileReport()
        self.paths = CriticalPathBuilder()
        #: End-to-end placement-request latency, folded from
        #: ``request.done`` events — the p50/p95/p99 ``repro watch`` shows.
        self.request_hist = LatencyHistogram()
        self.flushes = 0

    def observe(self, obj: Mapping[str, Any]) -> None:
        """Fold one decoded event dict into every aggregate."""
        self.timeline.consume(obj)
        self.replay.feed(obj)
        kind = obj.get("kind")
        if kind == EventKind.SPAN:
            self.profile.add(obj)
            return
        self.paths.feed(obj)
        if kind == EventKind.REQUEST_DONE:
            latency = (obj.get(WALL_KEY) or {}).get("latency_s")
            if latency is not None:
                self.request_hist.record(latency)

    def observe_event(self, event: TraceEvent) -> None:
        self.observe(event.to_obj())

    def summary(self, rules: Iterable[SLORule] | None = None) -> dict[str, Any]:
        """The dashboard summary as of the events observed so far: the
        timeline's series, the replay outcome, SLO verdicts (the default
        smoke rules unless ``rules`` is given), the span profile and the
        critical paths.  Deterministic content sits at the top level and
        everything derived from wall-clock measurements under ``"wall"``,
        so same-seed summaries are byte-identical once it is stripped.
        Pure: calling it mid-run changes nothing it later reports."""
        summary = self.timeline.summary()
        wall: dict[str, Any] = summary.pop(WALL_KEY, {})
        summary["replay"] = self.replay.finish().to_obj()
        series = {
            name: (s.values(), s.volatile)
            for name, s in self.timeline.series.items()
        }
        summary["slo"], wall_slo = _judge(series, rules)
        if wall_slo is not None:
            wall["slo"] = wall_slo
        summary["profile"] = self.profile.to_obj()
        if self.profile.spans:
            wall["profile"] = self.profile.wall_obj()
        path_objs: list[dict[str, Any]] = []
        paths_wall: dict[str, Any] = {}
        for app_path in self.paths.result():
            obj = app_path.to_obj()
            paths_wall[app_path.app_id] = obj.pop(WALL_KEY)
            path_objs.append(obj)
        summary["critical_paths"] = path_objs
        if paths_wall:
            wall["critical_paths"] = paths_wall
        if self.request_hist.count:
            wall["request_latency"] = self.request_hist.summary()
        if wall:
            summary[WALL_KEY] = wall
        return summary

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
    bounded JSON file — atomically (tmp + rename), every
    :data:`INTERVAL_S` of *simulated* time (or every
    :data:`EVENT_INTERVAL` events for clockless streams), and once more
    on close."""

    def __init__(
        self, path: str | os.PathLike, *, state: RollupState | None = None
    ) -> None:
        self.path = os.fspath(path)
        self.state = state if state is not None else RollupState()
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
            elif t - self._last_flush_t >= INTERVAL_S:
                return True
        return self._events_since_flush >= EVENT_INTERVAL

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

#: Top-level sections of a rollup document and the JSON type each must have.
_SECTIONS = {
    "meta": dict, "series": dict, "replay": dict, "slo": dict,
    "profile": dict, "critical_paths": list, "rollup": dict, WALL_KEY: dict,
}


def _check_series(where: str, series: Any) -> None:
    if not isinstance(series, dict):
        raise ValueError(f"'{where}' must be an object")
    for name, obj in series.items():
        points = obj.get("points") if isinstance(obj, dict) else None
        if not isinstance(points, list) or not all(
            isinstance(point, list) and len(point) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in point)
            for point in points
        ):
            raise ValueError(
                f"'{where}.{name}.points' must be a list of [time, value] "
                f"number pairs"
            )


def sniff_rollup(path: str) -> dict[str, Any] | None:
    """The rollup document in ``path``, or ``None`` when the file is not
    one (raw traces and unreadable files fall through to the trace reader,
    which owns their error messages).

    A file tagged ``"schema": "medea.rollup/1"`` whose sections do not
    have the shape the dashboard reads raises :class:`ValueError` naming
    the file and the bad field.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read(1)
            if head != "{":
                return None
            doc = json.loads(head + handle.read())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != ROLLUP_SCHEMA:
        return None
    try:
        for key, kind in _SECTIONS.items():
            if key in doc and not isinstance(doc[key], kind):
                name = "an object" if kind is dict else "a list"
                raise ValueError(f"'{key}' must be {name}")
        _check_series("series", doc.get("series", {}))
        _check_series("wall.series", doc.get(WALL_KEY, {}).get("series", {}))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed rollup document: {exc}") from None
    return doc


def rejudge_slos(
    doc: Mapping[str, Any], rules: Iterable[SLORule]
) -> dict[str, Any]:
    """A rollup document's dashboard summary under other SLO ``rules``:
    the document itself (whose stored verdicts are the default rules'),
    with its SLO sections re-judged from its stored series."""
    summary = dict(doc)
    wall = dict(summary.get(WALL_KEY) or {})
    series = {
        name: ([value for _, value in obj["points"]], volatile)
        for volatile, section in ((False, summary.get("series") or {}),
                                  (True, wall.get("series") or {}))
        for name, obj in section.items()
    }
    summary["slo"], wall_slo = _judge(series, rules)
    wall.pop("slo", None)
    if wall_slo is not None:
        wall["slo"] = wall_slo
    summary[WALL_KEY] = wall
    return summary
