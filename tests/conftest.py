"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from repro import ClusterState, ConstraintManager, build_cluster
from repro.obs.metrics import Metrics, set_metrics
from repro.obs.session import current_session
from repro.obs.trace import Tracer, set_tracer

# Hypothesis' explain phase re-runs a failing example under tracing and
# formats every candidate's traceback; for a failure raised deep inside
# nested callbacks (the engine model) that took minutes per report.  Every
# other phase, and each test's own ``max_examples``, stays as it is.
settings.register_profile(
    "repro", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("repro")


@pytest.fixture
def isolate_obs():
    """A disabled ambient tracer and a fresh metrics registry for one test;
    afterwards, close every observability session the test left open and
    restore both."""
    prev_tracer = set_tracer(None)
    prev_metrics = set_metrics(Metrics())
    yield
    while (session := current_session()) is not None:
        session.close()
    set_tracer(prev_tracer)
    set_metrics(prev_metrics)


@pytest.fixture
def install_tracer(isolate_obs):
    """``install_tracer(tracer)`` makes ``tracer`` the one every component
    emits through for the rest of the test and returns it; ``isolate_obs``
    restores the previous tracer afterwards."""

    def install(tracer: Tracer) -> Tracer:
        set_tracer(tracer)
        return tracer

    return install


@pytest.fixture
def small_topology():
    """Ten nodes, two racks, 16 GB / 8 cores each."""
    return build_cluster(10, racks=2, memory_mb=16 * 1024, vcores=8)


@pytest.fixture
def state(small_topology):
    return ClusterState(small_topology)


@pytest.fixture
def manager(small_topology):
    return ConstraintManager(small_topology)
