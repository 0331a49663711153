"""Benchmark-session observability hooks.

The whole benchmark session runs inside one
:class:`~repro.obs.session.ObsSession` configured from the environment.
``MEDEA_TRACE`` records the structured event trace to ``MEDEA_TRACE_OUT``
(default ``medea_trace.jsonl``); at session end the ambient metrics
registry is dumped next to it as ``<trace stem>.metrics.json`` — the pair
CI uploads as build artifacts.

The live plane rides the same session: ``MEDEA_SERVE=port`` starts the
in-process telemetry endpoint (CI curls ``/metrics`` and ``/healthz``
mid-run), ``MEDEA_ROLLUP=file`` streams bounded ``ROLLUP_*.json``
aggregates, and ``MEDEA_WATCHDOG`` arms every ``ClusterSimulation`` the
benchmarks build.

Self-telemetry: the session's teardown folds the tracer's own cost
accounting (events seen/emitted/dropped, overhead seconds) into the
ambient registry as ``obs_events_*_total`` counters and the
``obs_overhead_seconds`` gauge before the snapshot is dumped, so the
observability layer's cost shows up in the same artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.metrics import get_metrics
from repro.obs.session import ObsConfig, ObsSession


@pytest.fixture(scope="session", autouse=True)
def _medea_trace_session():
    with ObsSession(ObsConfig.from_env()) as session:
        yield
    if session.config.trace_out is not None:
        snapshot_path = Path(session.config.trace_out).with_suffix(".metrics.json")
        snapshot_path.write_text(
            json.dumps(get_metrics().snapshot(), indent=2, sort_keys=True) + "\n"
        )
