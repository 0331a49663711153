"""Benchmark-session observability hooks.

When ``MEDEA_TRACE`` is set, the whole benchmark session records the
structured event trace to ``MEDEA_TRACE_OUT`` (default
``medea_trace.jsonl``); at session end the trace file is flushed and the
ambient metrics registry is dumped next to it as
``<trace stem>.metrics.json`` — the pair CI uploads as build artifacts.

The live plane rides the same hooks: ``MEDEA_SERVE=port`` starts the
in-process telemetry endpoint for the session (CI curls ``/metrics`` and
``/healthz`` mid-run) and ``MEDEA_ROLLUP=file`` streams bounded
``ROLLUP_*.json`` aggregates for the whole session.

Self-telemetry: before the metrics snapshot is dumped, the tracer's own
cost accounting (events seen/emitted/dropped, sampling overhead seconds)
is folded into the ambient registry as ``obs_events_*_total`` counters
and the ``obs_overhead_seconds`` gauge, so the observability layer's
cost shows up in the same artifact that CI uploads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.obs.metrics import get_metrics
from repro.obs.rollup import rollup_from_env, shutdown_rollup
from repro.obs.serve import serve_from_env, shutdown_server
from repro.obs.trace import ENV_TRACE, ENV_TRACE_OUT, configure_from_env, get_tracer


def fold_tracer_self_stats() -> None:
    """Mirror the tracer's self-accounting into the metrics registry."""
    tracer = get_tracer()
    stats = tracer.self_stats()
    metrics = get_metrics()
    metrics.counter(
        "obs_events_seen_total", "events offered to the tracer"
    ).inc(stats["events_seen"])
    metrics.counter(
        "obs_events_emitted_total", "events written to trace sinks"
    ).inc(stats["events_emitted"])
    metrics.counter(
        "obs_events_dropped_total", "events sampled out before any sink"
    ).inc(stats["events_dropped"])
    metrics.gauge(
        "obs_overhead_seconds", "wall time spent inside the tracer itself"
    ).set(stats["overhead_s"])


@pytest.fixture(scope="session", autouse=True)
def _medea_trace_session():
    configure_from_env()
    serve_from_env()
    rollup_from_env()
    yield
    tracer = get_tracer()
    if tracer.enabled:
        fold_tracer_self_stats()
    shutdown_rollup()
    shutdown_server()
    if not tracer.enabled:
        return
    tracer.close()
    if os.environ.get(ENV_TRACE):
        trace_path = Path(os.environ.get(ENV_TRACE_OUT, "medea_trace.jsonl"))
        snapshot_path = trace_path.with_suffix(".metrics.json")
        snapshot_path.write_text(
            json.dumps(get_metrics().snapshot(), indent=2, sort_keys=True) + "\n"
        )
