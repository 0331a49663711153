"""Render traces and metric snapshots as reports.

Reuses :mod:`repro.reporting` so observability output matches the benchmark
tables (grep-able fixed-width columns).  Used by ``python -m repro.cli
dashboard`` and the harness's ``SOLVER_STATS=1`` / ``MEDEA_TRACE=1`` paths.

JSONL trace files are read through :func:`iter_trace` (streaming —
constant memory however large the trace), which turns every failure mode
(missing file, empty file, undecodable bytes, corrupt JSON mid-file) into
a typed :class:`TraceFileError` and *tolerates a trailing partial line* —
the normal shape of a trace from a crashed run.

The dashboard pipeline (:func:`build_dashboard` → :func:`dashboard_view`,
rendered by :mod:`repro.obs.view`) is the one reader of a single run: it
reads the trace into the run's one fold,
:class:`~repro.obs.rollup.RollupState`, and renders its summary — the same
document ``/snapshot`` serves and a ``ROLLUP_*.json`` file holds.
Volatile (wall-derived) content is segregated under the ``"wall"`` key so
same-seed summaries are byte-identical after stripping it, exactly like
:func:`repro.obs.events.canonical`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Mapping, Sequence

from .events import WALL_KEY
from .profile import ProfileReport, critical_path_section, span_profile_section
from .view import Badge, SeriesGroup, Table, View

__all__ = [
    "TraceFileError",
    "TraceReader",
    "iter_trace",
    "metrics_view",
    "build_dashboard",
    "dashboard_verdict",
    "dashboard_view",
]


class TraceFileError(ValueError):
    """A trace file could not be used: missing, empty, not UTF-8 text, or
    corrupt JSON.

    Subclasses :class:`ValueError` (like :class:`json.JSONDecodeError`) so
    pre-existing ``except ValueError`` call sites keep working while the
    CLI can report a clear message and a non-zero exit instead of a bare
    traceback.
    """


#: Whole-file diagnosis cap: a mixed-up ROLLUP_*.json document is
#: re-parsed in full for a precise error message only below this size.
_DIAGNOSIS_MAX_BYTES = 64 * 1024 * 1024


class TraceReader:
    """Streaming iterator over a JSONL trace file's decoded event dicts
    (one event per line).  Memory stays constant regardless of file size:
    one line is resident at a time.

    Error contract:

    * missing/unreadable file, a directory, an empty trace, or bytes that
      are not UTF-8 text (a binary file) → :class:`TraceFileError`
    * corrupt data before the tail → :class:`TraceFileError`; a
      ``ROLLUP_*.json`` rollup file passed by mistake gets a specific
      diagnosis
    * a corrupt *trailing* line is tolerated as a partial write from
      a crashed run: iteration ends cleanly with :attr:`truncated` set

    Errors surface lazily, during iteration; construction only rejects
    directories.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
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
                    if not any(rest.strip() for rest in handle):
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


def iter_trace(path: str) -> TraceReader:
    """Streaming reader over a recorded JSONL trace."""
    return TraceReader(path)


def metrics_view(snapshot: Mapping[str, Any]) -> View:
    """Counters, gauges and timer aggregates of a
    :meth:`repro.obs.Metrics.snapshot` dump."""
    values = []
    for family in ("counters", "gauges"):
        for name, by_label in snapshot.get(family, {}).items():
            for label_key, value in by_label.items():
                values.append([name, label_key or "-", value])
    timers = []
    for name, by_label in snapshot.get("timers", {}).items():
        for label_key, stat in by_label.items():
            timers.append([
                name,
                label_key or "-",
                stat["count"],
                stat["total_s"] * 1000.0,
                stat["mean_s"] * 1000.0,
                stat.get("p99_s", 0.0) * 1000.0,
                stat["max_s"] * 1000.0,
            ])
    return View("metrics", sections=[
        Table("Counters and gauges", ["metric", "labels", "value"], values,
              empty="(no counters or gauges recorded)"),
        Table("Timers", ["timer", "labels", "count", "total ms", "mean ms",
                         "p99 ms", "max ms"], timers),
    ])


# -- dashboard --------------------------------------------------------------


def build_dashboard(
    trace_path: str,
    *,
    rules: Sequence[Any] | None = None,
    profile: ProfileReport | None = None,
) -> dict[str, Any]:
    """The dashboard summary of one trace file: one streaming pass of the
    JSONL trace into one :class:`~repro.obs.rollup.RollupState`, then its
    :meth:`~repro.obs.rollup.RollupState.summary` under ``rules`` (the
    default smoke rules unless given).  Resident memory is bounded by the
    aggregates, not the trace length.  Span events fold into ``profile``
    when one is given, so the caller can export its collapsed stacks.
    """
    from .rollup import RollupState

    state = RollupState()
    if profile is not None:
        state.profile = profile
    reader = iter_trace(trace_path)
    for obj in reader:
        state.observe(obj)
    summary = state.summary(rules)
    if reader.truncated:
        summary["replay"]["warnings"].append(
            "trailing partial line ignored (crashed run?)"
        )
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


def dashboard_view(summary: Mapping[str, Any], *, title: str = "dashboard") -> View:
    """The dashboard page of a :func:`build_dashboard` (or rollup)
    summary: replay and SLO verdicts, the deterministic series (palette
    slot 1) and wall-clock series (slot 2), the span profile, the
    per-application critical paths, the SLO rules and the event count of
    each kind."""
    meta = summary.get("meta", {})
    span = meta.get("time_span")
    span_text = (
        f"{span[0]:.3f}s .. {span[1]:.3f}s" if span else "(no simulated clock)"
    )
    replay = summary.get("replay", {})
    replay_ok = replay.get("ok", True)
    headline: list[Any] = [
        f"events: {meta.get('events', 0)} across {len(meta.get('kinds', {}))} "
        f"kinds; time span: {span_text}",
        Badge(
            "replay",
            "OK" if replay_ok else "DIVERGED",
            replay_ok,
            f"{replay.get('checks', 0)} state-hash checks, "
            f"{replay.get('divergences', 0)} divergences, "
            f"{replay.get('allocated', 0)} allocations / "
            f"{replay.get('released', 0)} releases reconstructed",
        ),
    ]
    first = replay.get("first_divergence")
    if first:
        headline.append(
            f"  first divergence: seq {first.get('seq')} at t={first.get('time')} "
            f"(recorded {first.get('expected')}, replayed {first.get('actual')})"
        )
    headline.extend(f"  note: {warning}" for warning in replay.get("warnings", ()))
    verdict = dashboard_verdict(summary)
    headline.append(Badge("SLO verdict", verdict, verdict == "pass"))
    wall_series = (summary.get(WALL_KEY) or {}).get("series", {})
    kinds = [[kind, count] for kind, count in sorted(meta.get("kinds", {}).items())]
    kinds.append(["TOTAL", meta.get("events", 0)])
    return View(title, headline, [
        SeriesGroup("Time series", summary.get("series", {})),
        SeriesGroup("Wall-clock series (volatile)", wall_series, slot=2),
        span_profile_section(summary),
        critical_path_section(summary),
        Table("SLO rules", ["SLO", "check", "observed", "status"], _slo_rows(summary)),
        Table("Events by kind", ["event kind", "count"], kinds),
    ])
