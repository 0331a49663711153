"""``repro.obs`` — the unified observability layer.

One subsystem, three capabilities (ISSUE 2 / the paper's §7 evaluation
substrate):

* **Tracing** — :class:`Tracer` emits typed, deterministic
  :class:`TraceEvent` records (simulated-time ordered, volatile wall-clock
  fields segregated under ``"wall"``) to :class:`JsonlSink` /
  :class:`MemorySink` sinks.  Zero-cost when disabled: call sites guard on
  ``tracer.enabled``.
* **Metrics** — a :class:`Metrics` registry of labelled counters, gauges,
  timers and histograms with a deterministic :meth:`~Metrics.snapshot`
  API.  Every timer and histogram label set is one
  :class:`LatencyHistogram`, the only latency record.  It holds only what
  no other record does (a count the trace carries is not counted again);
  :class:`SolverStats` travels with each solve's result instead.
* **Decision audit** — :class:`DecisionAudit` attached to
  ``PlacementResult`` explains each placement: candidates considered,
  constraints that pruned them, and the winning score/objective terms.

Built on top of those (ISSUE 3 / the paper's §7 evaluation signals):

* **Timeline** — :class:`TimelineAggregator` folds an event stream into
  bounded-memory per-tick series: utilization, queue depths, container
  churn, solver latency, violations.
* **SLO monitor** — :class:`SLOMonitor` judges declarative
  :class:`SLORule` thresholds against those series and returns a
  per-rule report with a run-level verdict.
* **Replay** — :class:`ReplayState` reconstructs cluster state from the
  event stream and cross-checks every recorded ``sim.state_hash``,
  reporting the first divergent tick.

All of these, with the span profile and critical paths below, are folded
by one :class:`RollupState` (``repro.obs.rollup``), one ``observe`` call
per event: the dashboard of a trace, ``/snapshot`` and a
``ROLLUP_*.json`` file are readings of that one fold.

The **live plane** (ISSUE 5) — the same signals while the run is still
in flight, zero-cost when disabled like everything else:

* **Telemetry endpoint** — :class:`TelemetryServer` (``repro.obs.serve``)
  serves ``/metrics`` (Prometheus text exposition of the live
  :class:`Metrics` registry), ``/healthz`` (503 once run progress stalls
  past a wall-clock deadline) and ``/snapshot`` (the dashboard summary of
  the session's live :class:`RollupState`); ``MEDEA_SERVE=port`` /
  ``--serve``, polled by ``repro watch``.
* **Watchdog** — :class:`Watchdog` (``repro.obs.watchdog``) re-derives
  conservation invariants (per-node resources and availability against the
  container map and the machines, violation-audit consistency) on every engine heartbeat and
  emits typed ``watchdog.trip`` events — replay's corruption detection
  moved to the moment of corruption; ``abort`` mode exits non-zero.

And the profiling layer (ISSUE 4 / the paper's §7.3–§7.5 latency
attribution):

* **Spans** — :func:`span` / :func:`span_phase` record hierarchical,
  zero-cost-when-disabled phase timings as ``span`` trace events; a
  :class:`ProfileReport` folds them into self/total time per path, with
  collapsed-stack export for flamegraphs (``repro dashboard --collapsed``).
* **Critical paths** — :class:`CriticalPathBuilder` attributes each placed
  app's end-to-end latency to queue wait → constraint retries → solver
  time.  Both are part of the one fold, so every dashboard has them.

The **scale plane** (ISSUE 8) — observing 10k-node runs without the
telemetry dominating the run:

* **Sampling tracer** — :class:`SamplingPolicy` / :class:`TraceSampler`
  (``repro.obs.sample``): deterministic head-based per-event-type
  sampling keyed on app/task identity, so kept lifecycles stay complete
  and same-seed canonical traces stay byte-identical
  (``MEDEA_TRACE_SAMPLE`` / ``--trace-sample``).
* **Streaming rollups** — :class:`RollupSink` (``repro.obs.rollup``)
  periodically flushes the live :class:`RollupState` to an atomic,
  bounded ``ROLLUP_*.json``; the dashboard of that document equals the
  dashboard of the run's trace, and ``/snapshot`` serves from the same
  state (``MEDEA_ROLLUP`` / ``--rollup``).
* **Self-telemetry** — the tracer accounts its own cost
  (``events_seen/emitted/dropped``, ``overhead_s``); the
  ``benchmarks/test_obs_overhead.py`` gate asserts total observability
  overhead against its CPU-ratio budget.

The **diff plane** (ISSUE 9) — cross-run differential observability:

* **Trace diff** — :func:`diff_traces` / :func:`diff_events`
  (``repro.obs.diff``) compare two recorded runs in one streaming pass
  per side: structural alignment of the deterministic decision stream
  with first-divergence localization, replay-backed placement-fingerprint
  cross-checks and causal placement-flip explanations from the recorded
  ``scheduler.audit`` payloads — decisions only (series, spans and wall
  time are each run's own dashboard's).  Four-way verdict
  (``IDENTICAL`` / ``EQUIVALENT`` / ``DIVERGED`` / ``INCOMPARABLE``),
  rendered from :func:`diff_view` by :func:`to_text` / :func:`to_html`;
  ``repro diff A B --fail-on-divergence`` gates CI on it.

Run-time configuration is one session: :class:`ObsConfig` reads the six
``MEDEA_*`` variables (a flag that is set wins over its variable) and
:class:`ObsSession` installs the tracer, telemetry server, rollup sink and
watchdog default for the run, then tears them down in one fixed order::

    from repro import obs
    with obs.ObsSession(obs.ObsConfig.from_env(trace_out="trace.jsonl")):
        ... run a simulation ...
    print(obs.to_text(obs.report.metrics_view(obs.get_metrics().snapshot())))
"""

from __future__ import annotations

from . import report, stats
from .audit import (
    PRUNE_CANDIDATE_POOL,
    PRUNE_CAPACITY,
    PRUNE_CONSTRAINT,
    PRUNE_UNAVAILABLE,
    CandidatePruned,
    ContainerDecision,
    DecisionAudit,
    explain_placement_flip,
)
from .diff import (
    STRUCTURAL_KINDS,
    VERDICT_DIVERGED,
    VERDICT_EQUIVALENT,
    VERDICT_IDENTICAL,
    VERDICT_INCOMPARABLE,
    DiffReport,
    PlacementFlip,
    StructuralDivergence,
    diff_events,
    diff_traces,
    diff_view,
)
from .events import WALL_KEY, EventKind, TraceEvent, canonical
from .hist import DEFAULT_MIN_VALUE_S, DEFAULT_SUBBUCKETS, LatencyHistogram
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    SolverStats,
    Timer,
    get_metrics,
    set_metrics,
)
from .profile import AppCriticalPath, CriticalPathBuilder, ProfileReport, SpanStat
from .replay import ReplayDivergence, ReplayReport, ReplayState
from .report import TraceFileError, TraceReader, build_dashboard, iter_trace
from .rollup import ROLLUP_SCHEMA, RollupSink, RollupState
from .sample import SamplingPolicy, TraceSampler, parse_sample_spec
from .serve import HealthState, TelemetryServer, render_prometheus
from .session import ObsConfig, ObsSession, current_session
from .slo import (
    SLOMonitor,
    SLOReport,
    SLOResult,
    SLORule,
    default_smoke_slos,
    load_slo_rules,
)
from .spans import Span, current_span_path, span, span_phase
from .timeline import TimelineAggregator, TimeSeries
from .view import to_html, to_text
from .violations import ViolationRecord, ViolationReport, evaluate_violations
from .watchdog import Watchdog, WatchdogError, WatchdogTrip
from .trace import (
    JsonlSink,
    MemorySink,
    Tracer,
    TraceSink,
    current_request_id,
    get_tracer,
    request_context,
    set_tracer,
)

__all__ = [
    # events
    "EventKind",
    "TraceEvent",
    "canonical",
    "WALL_KEY",
    # tracer + sinks
    "Tracer",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "get_tracer",
    "set_tracer",
    "request_context",
    "current_request_id",
    # latency histograms
    "DEFAULT_MIN_VALUE_S",
    "DEFAULT_SUBBUCKETS",
    "LatencyHistogram",
    # sampling
    "SamplingPolicy",
    "TraceSampler",
    "parse_sample_spec",
    # streaming rollups
    "ROLLUP_SCHEMA",
    "RollupState",
    "RollupSink",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Metrics",
    "SolverStats",
    "get_metrics",
    "set_metrics",
    # decision audit
    "DecisionAudit",
    "ContainerDecision",
    "CandidatePruned",
    "PRUNE_CAPACITY",
    "PRUNE_UNAVAILABLE",
    "PRUNE_CONSTRAINT",
    "PRUNE_CANDIDATE_POOL",
    "explain_placement_flip",
    # cross-run diff plane
    "VERDICT_IDENTICAL",
    "VERDICT_EQUIVALENT",
    "VERDICT_DIVERGED",
    "VERDICT_INCOMPARABLE",
    "STRUCTURAL_KINDS",
    "DiffReport",
    "PlacementFlip",
    "StructuralDivergence",
    "diff_traces",
    "diff_events",
    "diff_view",
    # timeline
    "TimeSeries",
    "TimelineAggregator",
    # SLO monitor
    "SLORule",
    "SLOResult",
    "SLOReport",
    "SLOMonitor",
    "default_smoke_slos",
    "load_slo_rules",
    # replay
    "ReplayDivergence",
    "ReplayReport",
    "ReplayState",
    # spans + profiles
    "span",
    "span_phase",
    "Span",
    "current_span_path",
    "SpanStat",
    "ProfileReport",
    "AppCriticalPath",
    "CriticalPathBuilder",
    # trace files + dashboard
    "TraceFileError",
    "TraceReader",
    "iter_trace",
    "build_dashboard",
    # violations audit
    "ViolationRecord",
    "ViolationReport",
    "evaluate_violations",
    # live telemetry endpoint
    "TelemetryServer",
    "HealthState",
    "render_prometheus",
    # online watchdog
    "Watchdog",
    "WatchdogError",
    "WatchdogTrip",
    # the one run-time session
    "ObsConfig",
    "ObsSession",
    "current_session",
    # the report model's renderers + moved stats helpers
    "to_text",
    "to_html",
    "report",
    "stats",
]
