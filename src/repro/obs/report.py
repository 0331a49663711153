"""Render traces and metric snapshots as reports.

Reuses :mod:`repro.reporting` so observability output matches the benchmark
tables (grep-able fixed-width columns).  Used by ``python -m repro.cli
trace-report`` / ``dashboard`` and the harness's ``SOLVER_STATS=1`` /
``MEDEA_TRACE=1`` paths.

JSONL trace files are read through :func:`iter_trace` (streaming —
constant memory however large the trace) or :func:`read_trace` (eager
list), both of which turn every failure mode (missing file, empty file,
undecodable bytes, corrupt JSON mid-file) into a typed
:class:`TraceFileError`, and *tolerate a trailing partial line* — the
normal shape of a trace from a crashed run.

The dashboard pipeline (:func:`build_dashboard` →
:func:`render_dashboard` / :func:`render_dashboard_html`) combines the
timeline aggregator, the trace replayer and the SLO monitor into one
summary document; volatile (wall-derived) content is segregated under the
``"wall"`` key so same-seed summaries are byte-identical after stripping
it, exactly like :func:`repro.obs.events.canonical`.
"""

from __future__ import annotations

import html as _html
import json
import os
from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..reporting import banner, render_table
from .events import WALL_KEY, TraceEvent

__all__ = [
    "TraceFileError",
    "TraceFile",
    "TraceReader",
    "iter_trace",
    "read_trace",
    "event_counts",
    "render_event_counts",
    "render_metrics",
    "render_timers",
    "render_trace_report",
    "build_dashboard",
    "render_dashboard",
    "render_dashboard_html",
]


class TraceFileError(ValueError):
    """A trace file could not be used: missing, empty, not UTF-8 text, or
    corrupt JSON.

    Subclasses :class:`ValueError` (like :class:`json.JSONDecodeError`) so
    pre-existing ``except ValueError`` call sites keep working while the
    CLI can report a clear message and a non-zero exit instead of a bare
    traceback.
    """


@dataclass
class TraceFile:
    """A parsed trace plus parse provenance."""

    path: str
    events: list[dict[str, Any]] = field(default_factory=list)
    #: True when a trailing partial line was ignored (crashed run).
    truncated: bool = False


#: Whole-file diagnosis cap: a mixed-up ROLLUP_*.json document is
#: re-parsed in full for a precise error message only below this size.
_DIAGNOSIS_MAX_BYTES = 64 * 1024 * 1024


class TraceReader:
    """Streaming iterator over a JSONL trace file's decoded event dicts
    (one event per line).  Memory stays constant regardless of file size:
    one line is resident at a time.

    Error contract (matching the historical :func:`read_trace`):

    * missing/unreadable file, a directory, an empty trace, or bytes that
      are not UTF-8 text (a binary file) → :class:`TraceFileError`
    * corrupt data before the tail → :class:`TraceFileError`; a
      ``ROLLUP_*.json`` rollup file passed by mistake gets a specific
      diagnosis
    * a corrupt *trailing* line is tolerated as a partial write from
      a crashed run: iteration ends cleanly with :attr:`truncated` set
      (unless ``allow_partial_tail=False``)

    Errors surface lazily, during iteration; construction only rejects
    directories.
    """

    def __init__(self, path: str, *, allow_partial_tail: bool = True) -> None:
        self.path = os.fspath(path)
        self.allow_partial_tail = allow_partial_tail
        self.truncated = False
        self.events_read = 0
        if os.path.isdir(self.path):
            raise TraceFileError(
                f"{self.path} is a directory, not a trace file — pass the "
                f"JSONL file written by MEDEA_TRACE_OUT / --trace-out"
            )

    def __iter__(self):
        try:
            yield from self._iter_jsonl()
        except UnicodeDecodeError as exc:
            raise TraceFileError(
                f"{self.path}: not UTF-8 text, so not a JSONL trace — pass "
                f"the file written by MEDEA_TRACE_OUT / --trace-out"
            ) from exc
        if self.events_read == 0:
            raise TraceFileError(f"{self.path}: trace contains no events")

    def _iter_jsonl(self):
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except OSError as exc:
            raise TraceFileError(
                f"cannot read trace file {self.path}: {exc}"
            ) from exc
        with handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    # Tolerate a corrupt *final* line (crashed run); a
                    # corrupt line with more data after it is an error.
                    if self.allow_partial_tail and not any(
                        rest.strip() for rest in handle
                    ):
                        self.truncated = True
                        return
                    self._diagnose_document()
                    raise TraceFileError(
                        f"{self.path}: corrupt JSON on line {number}: {exc.msg}"
                    ) from exc
                if not isinstance(event, dict) or "kind" not in event:
                    self._diagnose_event(event, number)
                self.events_read += 1
                yield event

    def _diagnose_document(self) -> None:
        """Raise a mix-up-specific error when the whole file is one JSON
        document (pretty-printed, so its lines are not valid JSONL)."""
        try:
            if os.path.getsize(self.path) > _DIAGNOSIS_MAX_BYTES:
                return
            with open(self.path, "r", encoding="utf-8") as handle:
                doc = json.loads(handle.read())
        except (OSError, ValueError):
            return
        self._raise_for_mixup(doc)

    def _diagnose_event(self, event: Any, number: int) -> None:
        if isinstance(event, dict):
            self._raise_for_mixup(event)
        raise TraceFileError(
            f"{self.path}: line {number} is valid JSON but not a trace event "
            f"(no 'kind' field) — this is not a MEDEA_TRACE event stream"
        )

    def _raise_for_mixup(self, doc: Any) -> None:
        if not isinstance(doc, dict):
            return
        from .rollup import ROLLUP_SCHEMA

        if doc.get("schema") == ROLLUP_SCHEMA:
            raise TraceFileError(
                f"{self.path} is a ROLLUP_*.json streaming-rollup document, "
                f"not a raw trace — pass it to 'repro dashboard' directly"
            )


def iter_trace(path: str, *, allow_partial_tail: bool = True) -> TraceReader:
    """Streaming reader over a recorded JSONL trace."""
    return TraceReader(path, allow_partial_tail=allow_partial_tail)


def read_trace(path: str, *, allow_partial_tail: bool = True) -> TraceFile:
    """Parse a trace file eagerly into a list (see :class:`TraceReader`
    for the error contract; prefer :func:`iter_trace` for large files)."""
    reader = TraceReader(path, allow_partial_tail=allow_partial_tail)
    events = list(reader)
    return TraceFile(path=path, events=events, truncated=reader.truncated)


def event_counts(events: Iterable[TraceEvent | Mapping[str, Any]]) -> dict[str, int]:
    """Events per kind, sorted by kind."""
    counts: _Counter[str] = _Counter()
    for event in events:
        kind = event.kind if isinstance(event, TraceEvent) else event.get("kind", "?")
        counts[kind] += 1
    return dict(sorted(counts.items()))


def render_event_counts(events: Iterable[TraceEvent | Mapping[str, Any]]) -> str:
    counts = event_counts(events)
    rows = [[kind, count] for kind, count in counts.items()]
    rows.append(["TOTAL", sum(counts.values())])
    return render_table(["event kind", "count"], rows)


def render_metrics(snapshot: Mapping[str, Any]) -> str:
    """Counters and gauges of a :meth:`repro.obs.Metrics.snapshot` dump."""
    rows = []
    for family in ("counters", "gauges"):
        for name, by_label in snapshot.get(family, {}).items():
            for label_key, value in by_label.items():
                rows.append([name, label_key or "-", value])
    if not rows:
        return "(no counters or gauges recorded)"
    return render_table(["metric", "labels", "value"], rows)


def render_timers(snapshot: Mapping[str, Any]) -> str:
    """Timer aggregates of a metrics snapshot."""
    rows = []
    for name, by_label in snapshot.get("timers", {}).items():
        for label_key, stat in by_label.items():
            rows.append([
                name,
                label_key or "-",
                stat["count"],
                stat["total_s"] * 1000.0,
                stat["mean_s"] * 1000.0,
                stat.get("p99_s", 0.0) * 1000.0,
                stat["max_s"] * 1000.0,
            ])
    if not rows:
        return "(no timers recorded)"
    return render_table(
        ["timer", "labels", "count", "total ms", "mean ms", "p99 ms", "max ms"],
        rows,
    )


def render_trace_report(path: str) -> str:
    """Full report for a JSONL trace file: per-kind counts plus the
    span of simulated time covered and how many events carry
    wall-clock data.  Streams the file — a million-event trace is never
    resident in memory."""
    reader = iter_trace(path)
    counts: _Counter[str] = _Counter()
    t_min: float | None = None
    t_max: float | None = None
    with_wall = 0
    total = 0
    for event in reader:
        total += 1
        counts[event.get("kind", "?")] += 1
        t = event.get("time")
        if t is not None:
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
        if WALL_KEY in event:
            with_wall += 1
    parts = [banner(f"trace report: {path}")]
    rows = [[kind, count] for kind, count in sorted(counts.items())]
    rows.append(["TOTAL", total])
    parts.append(render_table(["event kind", "count"], rows))
    if t_min is not None:
        parts.append(f"\nsimulated time span: {t_min:.3f}s .. {t_max:.3f}s")
    parts.append(f"events: {total} total, {with_wall} with wall-clock fields")
    if reader.truncated:
        parts.append("warning: trailing partial line ignored (crashed run?)")
    return "\n".join(parts)


# -- dashboard --------------------------------------------------------------


def build_dashboard(
    trace_path: str,
    *,
    tick_s: float | None = None,
    max_points: int | None = None,
    rules: Sequence[Any] | None = None,
) -> dict[str, Any]:
    """Assemble the full dashboard summary for one trace file.

    Runs the timeline aggregator, the replayer, the span profiler, the
    critical-path builder, and the SLO monitor (the default smoke rules
    unless ``rules`` is given) over a **single streaming pass** of the
    JSONL trace — resident memory is bounded by the aggregates, not the
    trace length.  Deterministic results (series from
    ``data`` payloads, SLO verdicts over them, replay outcome) sit at the
    top level; anything derived from wall-clock measurements sits under
    ``"wall"``.
    """
    from .events import EventKind
    from .profile import CriticalPathBuilder, ProfileReport
    from .replay import ReplayState
    from .slo import SLOMonitor, default_smoke_slos
    from .timeline import DEFAULT_MAX_POINTS, DEFAULT_TICK_S, TimelineAggregator

    reader = iter_trace(trace_path)
    timeline = TimelineAggregator(
        tick_s=DEFAULT_TICK_S if tick_s is None else tick_s,
        max_points=DEFAULT_MAX_POINTS if max_points is None else max_points,
    )
    replay_state = ReplayState()
    profile = ProfileReport()
    path_builder = CriticalPathBuilder()
    span_kind = EventKind.SPAN
    for obj in reader:
        timeline.consume(obj)
        replay_state.feed(obj)
        if obj.get("kind") == span_kind:
            profile.add(obj)
        else:
            path_builder.feed(obj)
    replay = replay_state.finish()
    if reader.truncated:
        replay.warnings.append("trailing partial line ignored (crashed run?)")
    monitor = SLOMonitor(default_smoke_slos() if rules is None else list(rules))
    slo_report = monitor.evaluate(timeline)

    summary = timeline.summary()
    summary["replay"] = replay.to_obj()
    deterministic, volatile = slo_report.split()
    summary["slo"] = {
        "verdict": "fail" if any(r.status == "FAIL" for r in deterministic) else "pass",
        "rules": [r.to_obj() for r in deterministic],
    }
    if volatile:
        wall = summary.setdefault(WALL_KEY, {})
        wall["slo"] = {
            "verdict": "fail" if any(r.status == "FAIL" for r in volatile) else "pass",
            "rules": [r.to_obj() for r in volatile],
        }

    # Span profile + per-app critical paths.  Identities/counts and the
    # simulated-clock attribution are deterministic and sit at the top
    # level; every wall-clock timing (span durations, per-app solver time)
    # is hoisted under the summary's single top-level "wall" key so the
    # byte-determinism contract over the stripped summary keeps holding.
    summary["profile"] = profile.to_obj()
    path_objs: list[dict[str, Any]] = []
    paths_wall: dict[str, Any] = {}
    for app_path in path_builder.result():
        obj = app_path.to_obj()
        paths_wall[app_path.app_id] = obj.pop(WALL_KEY)
        path_objs.append(obj)
    summary["critical_paths"] = path_objs
    if profile.spans or paths_wall:
        wall = summary.setdefault(WALL_KEY, {})
        if profile.spans:
            wall["profile"] = profile.wall_obj()
        if paths_wall:
            wall["critical_paths"] = paths_wall
    return summary


def _slo_rows(summary: Mapping[str, Any]) -> list[list[Any]]:
    rows: list[list[Any]] = []
    sections = [("", summary.get("slo", {}))]
    wall_slo = (summary.get(WALL_KEY) or {}).get("slo")
    if wall_slo:
        sections.append(("(wall)", wall_slo))
    for marker, section in sections:
        for rule in section.get("rules", ()):
            observed = rule.get("observed")
            rows.append([
                rule.get("name", "?"),
                f"{rule.get('agg')}({rule.get('series')}) "
                f"{rule.get('op')} {rule.get('threshold')}",
                "-" if observed is None else observed,
                (rule.get("status", "?") + (" " + marker if marker else "")).strip(),
            ])
    return rows


def dashboard_verdict(summary: Mapping[str, Any]) -> str:
    """Overall SLO verdict across deterministic and wall-derived rules."""
    verdicts = [summary.get("slo", {}).get("verdict", "pass")]
    wall_slo = (summary.get(WALL_KEY) or {}).get("slo")
    if wall_slo:
        verdicts.append(wall_slo.get("verdict", "pass"))
    return "fail" if "fail" in verdicts else "pass"


def _series_rows(series: Mapping[str, Any]) -> list[list[Any]]:
    rows = []
    for name, obj in series.items():
        rows.append([
            name,
            obj.get("agg", "?"),
            obj.get("tick_s", 0.0),
            len(obj.get("points", ())),
            obj.get("min", "-"),
            obj.get("mean", "-"),
            obj.get("max", "-"),
            obj.get("last", "-"),
        ])
    return rows


_SERIES_HEADERS = ["series", "agg", "tick s", "pts", "min", "mean", "max", "last"]

_PROFILE_HEADERS = ["span", "count", "total ms", "self ms"]
_CRITICAL_PATH_HEADERS = [
    "app", "status", "e2e s", "queue s", "retry s", "solver ms",
    "attempts", "cycles",
]


def _profile_rows(summary: Mapping[str, Any]) -> list[list[Any]]:
    """Span-profile rows joining the deterministic identities/counts with
    the wall-clock timings hoisted under the summary's ``wall`` key."""
    wall_times = (summary.get(WALL_KEY) or {}).get("profile", {})
    rows: list[list[Any]] = []
    for span_obj in summary.get("profile", {}).get("spans", ()):
        path = span_obj.get("path", "")
        times = wall_times.get(path, {})
        indent = "  " * path.count(";")
        rows.append([
            indent + path.rsplit(";", 1)[-1],
            span_obj.get("count", 0),
            _fmt_opt_ms(times.get("total_s")),
            _fmt_opt_ms(times.get("self_s")),
        ])
    return rows


def _fmt_opt_ms(seconds: Any) -> str:
    return "-" if seconds is None else f"{float(seconds) * 1000:.2f}"


def _fmt_opt_s(seconds: Any) -> str:
    return "-" if seconds is None else f"{float(seconds):.3f}"


def _critical_path_rows(summary: Mapping[str, Any]) -> list[list[Any]]:
    wall_paths = (summary.get(WALL_KEY) or {}).get("critical_paths", {})
    rows: list[list[Any]] = []
    for obj in summary.get("critical_paths", ()):
        app_id = obj.get("app_id", "?")
        if obj.get("dropped"):
            status = "dropped"
        elif obj.get("placed_time") is not None:
            status = "placed"
        else:
            status = "pending"
        solver = (wall_paths.get(app_id) or {}).get("solver_wall_s")
        rows.append([
            app_id,
            status,
            _fmt_opt_s(obj.get("latency_s")),
            _fmt_opt_s(obj.get("queue_wait_s")),
            _fmt_opt_s(obj.get("retry_wait_s")),
            _fmt_opt_ms(solver),
            obj.get("attempts", 0),
            obj.get("cycles", 0),
        ])
    return rows


def render_dashboard(summary: Mapping[str, Any], *, title: str = "dashboard") -> str:
    """Terminal rendering of a :func:`build_dashboard` summary."""
    parts = [banner(title)]
    meta = summary.get("meta", {})
    span = meta.get("time_span")
    span_text = (
        f"{span[0]:.3f}s .. {span[1]:.3f}s" if span else "(no simulated clock)"
    )
    parts.append(
        f"events: {meta.get('events', 0)} across {len(meta.get('kinds', {}))} kinds; "
        f"time span: {span_text}"
    )

    replay = summary.get("replay", {})
    status = "OK" if replay.get("ok", True) else "DIVERGED"
    parts.append(
        f"replay: {status} — {replay.get('checks', 0)} state-hash checks, "
        f"{replay.get('divergences', 0)} divergences, "
        f"{replay.get('allocated', 0)} allocations / "
        f"{replay.get('released', 0)} releases reconstructed"
    )
    first = replay.get("first_divergence")
    if first:
        parts.append(
            f"  first divergence: seq {first.get('seq')} at t={first.get('time')} "
            f"(recorded {first.get('expected')}, replayed {first.get('actual')})"
        )
    for warning in replay.get("warnings", ()):
        parts.append(f"  note: {warning}")

    series = summary.get("series", {})
    if series:
        parts.append("")
        parts.append(render_table(_SERIES_HEADERS, _series_rows(series)))
    wall_series = (summary.get(WALL_KEY) or {}).get("series", {})
    if wall_series:
        parts.append("wall-clock series (volatile):")
        parts.append(render_table(_SERIES_HEADERS, _series_rows(wall_series)))

    profile_rows = _profile_rows(summary)
    if profile_rows:
        parts.append("")
        parts.append("span profile (times are wall clock, volatile):")
        parts.append(render_table(_PROFILE_HEADERS, profile_rows))
    cp_rows = _critical_path_rows(summary)
    if cp_rows:
        parts.append("")
        parts.append("critical paths (per application):")
        parts.append(render_table(_CRITICAL_PATH_HEADERS, cp_rows))

    slo_rows = _slo_rows(summary)
    if slo_rows:
        parts.append("")
        parts.append(render_table(["SLO", "check", "observed", "status"], slo_rows))
    parts.append(f"SLO verdict: {dashboard_verdict(summary)}")
    return "\n".join(parts)


# -- HTML dashboard ---------------------------------------------------------

#: Charts rendered per section before folding the rest into a note.
_MAX_CHARTS = 16


def _fmt_num(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    return str(value)


def _svg_line_chart(
    points: Sequence[Sequence[float]], *, color: str, width: int = 520, height: int = 130
) -> str:
    """A minimal single-series SVG line chart: 2px line, three hairline
    gridlines with muted min/mid/max labels, a direct last-value label in
    text ink, and native ``<title>`` hover tooltips per point."""
    pad_left, pad_right, pad_top, pad_bottom = 8, 64, 10, 18
    plot_w = width - pad_left - pad_right
    plot_h = height - pad_top - pad_bottom
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return pad_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return pad_top + (1 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    for frac, value in ((0.0, y_hi), (0.5, (y_lo + y_hi) / 2), (1.0, y_lo)):
        y = pad_top + frac * plot_h
        parts.append(
            f'<line x1="{pad_left}" y1="{y:.1f}" x2="{pad_left + plot_w}" '
            f'y2="{y:.1f}" class="grid"/>'
        )
        parts.append(
            f'<text x="{pad_left + plot_w + 4}" y="{y + 3.5:.1f}" '
            f'class="axis">{_fmt_num(value)}</text>'
        )
    coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    if len(points) == 1:
        parts.append(
            f'<circle cx="{sx(xs[0]):.1f}" cy="{sy(ys[0]):.1f}" r="3" '
            f'fill="var({color})"/>'
        )
    else:
        parts.append(f'<polyline points="{coords}" class="line" '
                     f'style="stroke: var({color})"/>')
    # Direct last-value label (text ink, never series color).
    parts.append(
        f'<text x="{sx(xs[-1]) + 5:.1f}" y="{max(sy(ys[-1]) - 5, 10):.1f}" '
        f'class="label">{_fmt_num(ys[-1])}</text>'
    )
    parts.append(
        f'<text x="{pad_left}" y="{height - 4}" class="axis">'
        f'{_fmt_num(x_lo)}s</text>'
    )
    parts.append(
        f'<text x="{pad_left + plot_w}" y="{height - 4}" class="axis" '
        f'text-anchor="end">{_fmt_num(max(xs))}s</text>'
    )
    # Hover layer: invisible fat hit targets with native tooltips.
    hover_points = points if len(points) <= 200 else points[:: len(points) // 200 + 1]
    for x, y in hover_points:
        parts.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="7" class="hit">'
            f"<title>t={_fmt_num(x)}s\nvalue={_fmt_num(y)}</title></circle>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _chart_figure(name: str, obj: Mapping[str, Any], *, color: str) -> str:
    points = obj.get("points") or []
    if not points:
        return ""
    caption = (
        f"{_html.escape(name)} <span class='agg'>{_html.escape(str(obj.get('agg')))}"
        f" / tick {_fmt_num(obj.get('tick_s', 0.0))}s</span>"
    )
    table_rows = "".join(
        f"<tr><td>{_fmt_num(t)}</td><td>{_fmt_num(v)}</td></tr>"
        for t, v in points
    )
    table = (
        "<details><summary>data table</summary><table>"
        "<thead><tr><th>t (s)</th><th>value</th></tr></thead>"
        f"<tbody>{table_rows}</tbody></table></details>"
    )
    return (
        f"<figure><figcaption>{caption}</figcaption>"
        f"{_svg_line_chart(points, color=color)}{table}</figure>"
    )


_HTML_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5;
  --series-2: #d95926;
}
.viz-root {
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px; line-height: 1.45;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .meta { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.viz-root .badge {
  display: inline-block; padding: 1px 8px; border-radius: 9px;
  font-size: 12px; font-weight: 600; border: 1px solid var(--border);
}
.viz-root .badge.pass { color: var(--status-good); }
.viz-root .badge.fail { color: var(--status-critical); }
.viz-root table {
  border-collapse: collapse; font-size: 13px; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 6px;
}
.viz-root th, .viz-root td {
  text-align: left; padding: 4px 10px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root pre.cell { margin: 0; font: inherit; white-space: pre; }
.viz-root .charts {
  display: grid; grid-template-columns: repeat(auto-fill, minmax(340px, 1fr));
  gap: 16px; margin-top: 8px;
}
.viz-root figure {
  margin: 0; padding: 10px 12px; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px;
}
.viz-root figcaption { font-size: 13px; font-weight: 600; margin-bottom: 4px; }
.viz-root figcaption .agg { color: var(--muted); font-weight: 400; font-size: 12px; }
.viz-root svg { width: 100%; height: auto; display: block; }
.viz-root svg .grid { stroke: var(--grid); stroke-width: 1; }
.viz-root svg .axis { fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }
.viz-root svg .label { fill: var(--text-secondary); font-size: 11px; font-variant-numeric: tabular-nums; }
.viz-root svg .line { fill: none; stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
.viz-root svg .hit { fill: transparent; }
.viz-root details { margin-top: 6px; font-size: 12px; }
.viz-root details summary { color: var(--muted); cursor: pointer; }
.viz-root .note { color: var(--muted); font-size: 12px; }
"""


#: Public alias: the shared self-contained stylesheet every HTML report in
#: this repo embeds (dashboard here, ``repro diff`` in ``obs/diff.py``),
#: so cross-artifact styling stays consistent by construction.
HTML_STYLE = _HTML_STYLE


def render_dashboard_html(
    summary: Mapping[str, Any], *, title: str = "Medea run dashboard"
) -> str:
    """Self-contained HTML report: SLO verdicts, replay outcome, and one
    small-multiple line chart per time series (deterministic series in the
    palette's slot-1 blue, wall-clock series in slot-2 orange; each chart
    carries a single series, so the title names it and no legend is
    needed).  No external assets, light/dark via CSS custom properties."""
    meta = summary.get("meta", {})
    replay = summary.get("replay", {})
    verdict = dashboard_verdict(summary)
    span = meta.get("time_span")
    span_text = (
        f"{_fmt_num(span[0])}s – {_fmt_num(span[1])}s" if span else "no simulated clock"
    )

    slo_rows = "".join(
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>".format(
            *(_html.escape(str(cell)) for cell in row)
        )
        for row in _slo_rows(summary)
    )
    replay_status = "OK" if replay.get("ok", True) else "DIVERGED"
    first = replay.get("first_divergence")
    first_text = ""
    if first:
        first_text = (
            f"<p class='note'>first divergence: seq {first.get('seq')} at "
            f"t={_html.escape(str(first.get('time')))} (recorded "
            f"{_html.escape(str(first.get('expected')))}, replayed "
            f"{_html.escape(str(first.get('actual')))})</p>"
        )
    warnings = "".join(
        f"<p class='note'>note: {_html.escape(str(w))}</p>"
        for w in replay.get("warnings", ())
    )

    def charts_for(series: Mapping[str, Any], color: str) -> str:
        figures = []
        names = list(series)
        for name in names[:_MAX_CHARTS]:
            figures.append(_chart_figure(name, series[name], color=color))
        note = ""
        if len(names) > _MAX_CHARTS:
            note = (
                f"<p class='note'>{len(names) - _MAX_CHARTS} more series in "
                f"the JSON summary (chart cap {_MAX_CHARTS}).</p>"
            )
        return f"<div class='charts'>{''.join(figures)}</div>{note}"

    series = summary.get("series", {})
    wall_series = (summary.get(WALL_KEY) or {}).get("series", {})
    wall_block = ""
    if wall_series:
        wall_block = (
            "<h2>Wall-clock series (volatile)</h2>"
            + charts_for(wall_series, "--series-2")
        )

    def table_block(heading: str, headers: list[str], rows: list[list[Any]],
                    note: str = "") -> str:
        if not rows:
            return ""
        head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
        body = "".join(
            "<tr>" + "".join(
                # Preserve the profile tree's indentation in HTML cells.
                "<td><pre class='cell'>{}</pre></td>".format(
                    _html.escape(str(cell))
                )
                for cell in row
            ) + "</tr>"
            for row in rows
        )
        note_html = f"<p class='note'>{note}</p>" if note else ""
        return (
            f"<h2>{_html.escape(heading)}</h2>{note_html}"
            f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        )

    profile_block = table_block(
        "Span profile",
        _PROFILE_HEADERS,
        _profile_rows(summary),
        note="times are wall clock (volatile); counts are deterministic",
    )
    critical_path_block = table_block(
        "Critical paths (per application)",
        _CRITICAL_PATH_HEADERS,
        _critical_path_rows(summary),
    )

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_html.escape(title)}</title>
<style>{_HTML_STYLE}</style>
</head>
<body class="viz-root">
<h1>{_html.escape(title)}</h1>
<p class="meta">{meta.get("events", 0)} events across
{len(meta.get("kinds", {}))} kinds &middot; time span {span_text} &middot;
SLO verdict <span class="badge {verdict}">{verdict.upper()}</span> &middot;
replay <span class="badge {'pass' if replay.get('ok', True) else 'fail'}">
{replay_status}</span></p>
<h2>SLOs</h2>
<table><thead><tr><th>SLO</th><th>check</th><th>observed</th><th>status</th></tr>
</thead><tbody>{slo_rows}</tbody></table>
<h2>Replay</h2>
<p class="meta">{replay.get("checks", 0)} state-hash checks,
{replay.get("divergences", 0)} divergences,
{replay.get("allocated", 0)} allocations / {replay.get("released", 0)}
releases reconstructed from events.</p>
{first_text}{warnings}
<h2>Time series</h2>
{charts_for(series, "--series-1")}
{wall_block}
{profile_block}
{critical_path_block}
</body>
</html>
"""
