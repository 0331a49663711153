"""Profile reports over span traces: flamegraphs and critical paths.

Two consumers of the ``span`` events emitted by :mod:`repro.obs.spans`:

* :class:`ProfileReport` — per-path aggregation (count, total, self time)
  of the span tree, exportable as a *collapsed-stack* file consumable by
  ``flamegraph.pl`` / speedscope (``frame;frame;frame weight`` lines).
  Weights are either self-time microseconds (``weight="time"``, the useful
  flamegraph) or sample counts (``weight="count"`` — fully deterministic:
  built from the canonical, wall-stripped trace it is byte-identical
  across same-seed runs).
* :class:`CriticalPathBuilder` — per placed application, attributes the
  end-to-end placement latency (``lra.submit`` → ``lra.place``) to queue
  wait (submission to the first scheduling cycle that considered the app),
  constraint retries (first consideration to eventual placement, covering
  rejects/conflicts/resubmits), and solver time (the wall-clock
  ``scheduler.place`` measurements of the cycles that considered it —
  volatile, so segregated under ``"wall"`` in serialised form).

Both fold decoded event dicts inside the run's one fold,
:class:`~repro.obs.rollup.RollupState`, next to the timeline aggregator
and the replayer; the two tables below render them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .events import WALL_KEY, EventKind
from .view import Table

__all__ = [
    "SpanStat",
    "ProfileReport",
    "AppCriticalPath",
    "CriticalPathBuilder",
    "span_profile_section",
    "critical_path_section",
]


@dataclass
class SpanStat:
    """Aggregate of every span sharing one stack path."""

    path: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def to_obj(self) -> dict[str, Any]:
        """Deterministic part only; times are reported separately."""
        return {"path": self.path, "count": self.count}


class ProfileReport:
    """Per-path span aggregation over one trace.

    Robust to zero observations everywhere: a trace with no span events
    yields an empty report whose renderers and exporters return defined
    values instead of raising.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStat] = {}
        self.events = 0

    def add(self, obj: Mapping[str, Any]) -> None:
        """Ingest one decoded ``span`` event dict."""
        data = obj.get("data") or {}
        path = data.get("path")
        if not path:
            return
        self.events += 1
        stat = self.spans.get(path)
        if stat is None:
            stat = self.spans[path] = SpanStat(path)
        stat.count += int(data.get("count", 1))
        wall = obj.get(WALL_KEY) or {}
        dur = float(wall.get("dur_s", 0.0))
        stat.total_s += dur
        stat.self_s += float(wall.get("self_s", dur))

    def __len__(self) -> int:
        return len(self.spans)

    def sorted_spans(self) -> list[SpanStat]:
        """Stats in deterministic (path-lexicographic) order."""
        return [self.spans[path] for path in sorted(self.spans)]

    def collapsed(self, *, weight: str = "time") -> str:
        """Collapsed-stack text (``flamegraph.pl`` / speedscope input).

        One ``frame;frame;frame weight`` line per path, path-sorted.
        ``weight="time"`` uses integer self-time microseconds;
        ``weight="count"`` uses the deterministic sample count.  Empty
        report → empty string.
        """
        if weight not in ("time", "count"):
            raise ValueError(f"unknown weight {weight!r}; expected time|count")
        lines = []
        for stat in self.sorted_spans():
            value = (
                stat.count if weight == "count" else int(round(stat.self_s * 1e6))
            )
            lines.append(f"{stat.path} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_obj(self) -> dict[str, Any]:
        """Deterministic summary: span identities and counts, path-sorted."""
        return {
            "events": self.events,
            "spans": [stat.to_obj() for stat in self.sorted_spans()],
        }

    def wall_obj(self) -> dict[str, Any]:
        """Volatile per-path timings (for the dashboard's ``wall`` section)."""
        return {
            stat.path: {
                "total_s": round(stat.total_s, 6),
                "self_s": round(stat.self_s, 6),
            }
            for stat in self.sorted_spans()
        }


# -- critical-path analysis ---------------------------------------------------


@dataclass
class AppCriticalPath:
    """End-to-end placement latency breakdown for one application.

    All times are on the simulated clock (deterministic) except
    ``solver_wall_s``, which sums volatile ``scheduler.place`` wall
    measurements and is therefore serialised under ``"wall"``.
    """

    app_id: str
    submit_time: float
    #: First scheduling cycle that had the app in its batch (``None`` if it
    #: was never considered before the trace ended).
    first_considered_time: float | None = None
    placed_time: float | None = None
    attempts: int = 0
    rejections: int = 0
    conflicts: int = 0
    #: Scheduling cycles whose batch contained the app.
    cycles: int = 0
    dropped: bool = False
    #: Sum of the wall-clock solver latency of the considering cycles.
    solver_wall_s: float = 0.0

    @property
    def latency_s(self) -> float | None:
        if self.placed_time is None:
            return None
        return self.placed_time - self.submit_time

    @property
    def queue_wait_s(self) -> float | None:
        """Submission → first consideration (batching/interval delay)."""
        if self.first_considered_time is None:
            return None
        return self.first_considered_time - self.submit_time

    @property
    def retry_wait_s(self) -> float | None:
        """First consideration → placement (0 unless rejected/conflicted)."""
        if self.placed_time is None or self.first_considered_time is None:
            return None
        return self.placed_time - self.first_considered_time

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "app_id": self.app_id,
            "submit_time": self.submit_time,
            "first_considered_time": self.first_considered_time,
            "placed_time": self.placed_time,
            "latency_s": self.latency_s,
            "queue_wait_s": self.queue_wait_s,
            "retry_wait_s": self.retry_wait_s,
            "attempts": self.attempts,
            "rejections": self.rejections,
            "conflicts": self.conflicts,
            "cycles": self.cycles,
            "dropped": self.dropped,
            WALL_KEY: {"solver_wall_s": round(self.solver_wall_s, 6)},
        }
        return obj


class CriticalPathBuilder:
    """Streaming per-application latency attribution.

    Feed decoded event dicts in stream order (:meth:`feed`) and collect
    the app-sorted paths with :meth:`result`.  Needs the Medea facade's
    lifecycle events (``lra.submit``, ``cycle.start`` with its ``batch``,
    ``scheduler.place`` with its wall solve time, ``lra.place`` /
    ``lra.reject`` / ``lra.conflict`` / ``lra.drop``); batch-harness
    traces without them yield no paths.  Memory is bounded by the number
    of applications, not the trace length.
    """

    def __init__(self) -> None:
        self.apps: dict[str, AppCriticalPath] = {}
        self._current_batch: list[str] = []

    def feed(self, obj: Mapping[str, Any]) -> None:
        kind = obj.get("kind")
        data = obj.get("data") or {}
        t = obj.get("time")
        apps = self.apps
        if kind == EventKind.LRA_SUBMIT:
            app_id = data.get("app_id")
            if app_id is not None and app_id not in apps:
                apps[app_id] = AppCriticalPath(
                    app_id=app_id, submit_time=float(t or 0.0)
                )
        elif kind == EventKind.CYCLE_START:
            self._current_batch = [a for a in data.get("batch", ()) if a in apps]
            for app_id in self._current_batch:
                path = apps[app_id]
                path.cycles += 1
                if path.first_considered_time is None:
                    path.first_considered_time = float(t or 0.0)
        elif kind == EventKind.SCHEDULER_PLACE:
            wall = obj.get(WALL_KEY) or {}
            solve = wall.get("solve_time_s")
            if solve is not None:
                for app_id in self._current_batch:
                    apps[app_id].solver_wall_s += float(solve)
        elif kind == EventKind.LRA_PLACE:
            app_id = data.get("app_id")
            path = apps.get(app_id)
            if path is not None:
                path.placed_time = float(t or 0.0)
                path.attempts = int(data.get("attempt", path.attempts + 1))
        elif kind == EventKind.LRA_REJECT:
            path = apps.get(data.get("app_id"))
            if path is not None:
                path.rejections += 1
                path.attempts = max(path.attempts, int(data.get("attempt", 0)))
        elif kind == EventKind.LRA_CONFLICT:
            path = apps.get(data.get("app_id"))
            if path is not None:
                path.conflicts += 1
                path.attempts = max(path.attempts, int(data.get("attempt", 0)))
        elif kind == EventKind.LRA_DROP:
            path = apps.get(data.get("app_id"))
            if path is not None:
                path.dropped = True
        elif kind == EventKind.CYCLE_END:
            self._current_batch = []

    def result(self) -> list[AppCriticalPath]:
        return [self.apps[app_id] for app_id in sorted(self.apps)]


# -- the dashboard's profile tables ------------------------------------------


def _fmt_ms(seconds: Any) -> str:
    return "-" if seconds is None else f"{float(seconds) * 1000:.2f}"


def _fmt_s(seconds: Any) -> str:
    return "-" if seconds is None else f"{float(seconds):.3f}"


def span_profile_section(summary: Mapping[str, Any]) -> Table:
    """Span-profile table (path order, so the tree reads top-down) of a
    dashboard summary: deterministic counts joined with the wall-clock
    timings under ``"wall"``."""
    times = (summary.get(WALL_KEY) or {}).get("profile", {})
    total_self = sum(t.get("self_s", 0.0) for t in times.values())
    rows = []
    for obj in summary.get("profile", {}).get("spans", ()):
        path = obj.get("path", "")
        stat = times.get(path, {})
        self_s = stat.get("self_s")
        share = 100.0 * self_s / total_self if self_s and total_self > 0 else 0.0
        rows.append([
            "  " * path.count(";") + path.rsplit(";", 1)[-1],
            obj.get("count", 0),
            _fmt_ms(stat.get("total_s")),
            _fmt_ms(self_s),
            "-" if self_s is None else f"{share:.1f}%",
        ])
    return Table(
        "Span profile",
        ["span", "count", "total ms", "self ms", "self %"],
        rows,
        note="times are wall clock (volatile); counts are deterministic",
        empty="(no spans recorded; run with MEDEA_TRACE=1 to collect them)",
    )


def critical_path_section(summary: Mapping[str, Any]) -> Table:
    """Per-application latency attribution table of a dashboard summary
    (solver times hoisted under its ``"wall"``)."""
    hoisted = (summary.get(WALL_KEY) or {}).get("critical_paths", {})
    rows = []
    for obj in summary.get("critical_paths", ()):
        app_id = obj.get("app_id", "?")
        if obj.get("dropped"):
            status = "dropped"
        else:
            status = "placed" if obj.get("placed_time") is not None else "pending"
        wall = hoisted.get(app_id) or {}
        rows.append([
            app_id,
            status,
            _fmt_s(obj.get("latency_s")),
            _fmt_s(obj.get("queue_wait_s")),
            _fmt_s(obj.get("retry_wait_s")),
            _fmt_ms(wall.get("solver_wall_s")),
            obj.get("attempts", 0),
            obj.get("cycles", 0),
            obj.get("rejections", 0),
            obj.get("conflicts", 0),
        ])
    return Table(
        "Critical paths (per application)",
        ["app", "status", "e2e s", "queue s", "retry s", "solver ms",
         "attempts", "cycles", "rejects", "conflicts"],
        rows,
        empty="(no LRA lifecycle events recorded; critical paths need a "
              "simulation/Medea trace)",
    )
