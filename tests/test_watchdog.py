"""Tests for the online invariant watchdog (``repro.obs.watchdog``).

The interesting cases corrupt the cluster state's ledger mid-run — record
a container in the map without charging the node's free columns, drop one
from the map without refunding them, shave a node's free memory, mark a
node down in the ledger while the machine stays up — and
assert the watchdog fires at the corrupting tick with a deterministic,
actionable diagnosis.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro import SerialScheduler, build_cluster
from repro.cluster.resources import Resource
from repro.cluster.state import Allocation, PlacedContainer
from repro.obs.events import EventKind
from repro.obs.metrics import Metrics, set_metrics
from repro.obs.trace import MemorySink, Tracer
from repro.obs.session import ObsConfig, ObsSession
from repro.obs.watchdog import CHECKS, Watchdog, WatchdogError
from repro.sim import ClusterSimulation, SimConfig
from tests.helpers import make_lra


def _make_sim(watchdog, horizon=20.0):
    topo = build_cluster(6, racks=2, memory_mb=8 * 1024, vcores=8)
    sim = ClusterSimulation(
        topo, SerialScheduler(),
        config=SimConfig(scheduling_interval_s=5.0, horizon_s=horizon),
        watchdog=watchdog,
    )
    sim.submit_lra(make_lra("web", containers=2, tags={"web"}), at=1.0)
    return sim


def _leak_container(sim, node_index=0, container_id="leak-1"):
    """Record a container in the state's map behind the ledger's back: the
    node's free columns are not charged for it."""
    state = sim.state
    node_id = state.topology.node_ids()[node_index]
    state._containers[container_id] = PlacedContainer(
        container_id, node_id,
        Allocation(container_id, Resource(memory_mb=256, vcores=1),
                   frozenset(), "ghost"),
    )
    return node_id


class TestCleanRuns:
    def test_no_trips_on_healthy_simulation(self, isolate_obs):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        sim.run(20.0)
        assert watchdog.trips == []
        assert watchdog.checks_run > 0

    def test_checks_catalogue(self):
        assert CHECKS == ("node_conservation", "violation_consistency")


class TestContainerLeak:
    def test_map_leak_trips_node_conservation_at_corrupting_tick(
        self, isolate_obs
    ):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        leaked_node = {}
        sim.engine.schedule_at(
            7.0, lambda _e: leaked_node.setdefault("id", _leak_container(sim))
        )
        sim.run(20.0)
        trip = next(t for t in watchdog.trips if t.check == "node_conservation")
        # Heartbeats run every 1.0s, so the first check after the t=7.0
        # corruption is the t=7.0 heartbeat itself (corrupting event was
        # scheduled first, same tick).
        assert trip.time == 7.0
        assert trip.diagnosis["node_id"] == leaked_node["id"]
        assert trip.diagnosis["expected_free_memory_mb"] == (
            trip.diagnosis["free_memory_mb"] - 256
        )

    def test_consecutive_identical_diagnosis_reported_once(self, isolate_obs):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        sim.engine.schedule_at(7.0, lambda _e: _leak_container(sim))
        sim.run(20.0)
        conservation_trips = [
            t for t in watchdog.trips if t.check == "node_conservation"
        ]
        # ~13 more heartbeats see the same leak; only the first is recorded.
        assert len(conservation_trips) == 1


class TestDoubleFree:
    def test_missing_container_diagnosed(self, isolate_obs):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        dropped = {}

        def double_free(_engine):
            # Drop a placed container from the map without refunding its
            # node: the free columns still pay for a container the map lost.
            container_id = next(iter(sim.state.containers))
            dropped["placed"] = sim.state._containers.pop(container_id)

        sim.engine.schedule_at(8.0, double_free)
        sim.run(20.0)
        trip = next(t for t in watchdog.trips if t.check == "node_conservation")
        placed = dropped["placed"]
        assert trip.time == 8.0
        assert trip.diagnosis["node_id"] == placed.node_id
        assert trip.diagnosis["free_memory_mb"] == (
            trip.diagnosis["expected_free_memory_mb"]
            - placed.allocation.resource.memory_mb
        )


class TestTripEvent:
    def test_trip_event_emitted_and_canonical_deterministic(
        self, install_tracer
    ):
        def run_once():
            sink = MemorySink()
            install_tracer(Tracer([sink]))
            set_metrics(Metrics())
            watchdog = Watchdog(mode="warn")
            sim = _make_sim(watchdog)
            sim.engine.schedule_at(7.0, lambda _e: _leak_container(sim))
            sim.run(20.0)
            return [
                e.canonical_json() for e in sink.events
                if e.kind == EventKind.WATCHDOG_TRIP
            ]

        first = run_once()
        second = run_once()
        assert first, "expected watchdog.trip events"
        payload = json.loads(first[0])["data"]
        assert payload["check"] == "node_conservation"
        assert payload["node_id"] == "n00000"
        assert first == second

    def test_trips_counted_in_metrics(self, isolate_obs):
        metrics = Metrics()
        set_metrics(metrics)
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        sim.engine.schedule_at(7.0, lambda _e: _leak_container(sim))
        sim.run(20.0)
        counts = metrics.snapshot()["counters"]["watchdog_trips_total"]
        assert counts["check=node_conservation"] >= 1


class TestAbortMode:
    def test_abort_raises_watchdog_error(self, isolate_obs):
        watchdog = Watchdog(mode="abort")
        sim = _make_sim(watchdog)
        sim.engine.schedule_at(7.0, lambda _e: _leak_container(sim))
        with pytest.raises(WatchdogError) as excinfo:
            sim.run(20.0)
        assert excinfo.value.trip.time == 7.0
        assert "node_id=n00000" in str(excinfo.value)

    @pytest.mark.parametrize("mode, exit_code", [("abort", 1), ("warn", 0)])
    def test_cli_trip_reaches_stderr(self, tmp_path, mode, exit_code):
        """End-to-end: a corrupted simulate run must print the diagnosis in
        either watchdog mode; abort exits non-zero, warn runs to the end
        (run in a subprocess so the exit code is the real contract)."""
        script = tmp_path / "corrupt_run.py"
        script.write_text(
            """
import sys
from repro.cli import main
import repro.sim.cluster_sim as cluster_sim

original_init = cluster_sim.ClusterSimulation.__init__

def corrupting_init(self, *args, **kwargs):
    original_init(self, *args, **kwargs)
    def corrupt(_engine):
        self.state.arrays.free_mem[0] -= 256
    self.engine.schedule_at(5.0, corrupt)

cluster_sim.ClusterSimulation.__init__ = corrupting_init
sys.exit(main(["simulate", "--nodes", "8", "--horizon", "15",
               "--lras", "1", "--tasks", "5", "--watchdog", sys.argv[1]]))
"""
        )
        result = subprocess.run(
            [sys.executable, str(script), mode],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == exit_code
        assert "watchdog tripped" in result.stderr
        assert "node_conservation" in result.stderr

    def test_warn_mode_keeps_running(self, isolate_obs):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        sim.engine.schedule_at(7.0, lambda _e: _leak_container(sim))
        final = sim.run(20.0)
        assert final == 20.0
        assert watchdog.trips


class TestNodeConservation:
    def test_direct_free_tamper_detected(self, isolate_obs):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)

        def tamper(_engine):
            sim.state.arrays.free_mem[1] -= 512

        sim.engine.schedule_at(6.0, tamper)
        sim.run(20.0)
        trip = next(
            t for t in watchdog.trips if t.check == "node_conservation"
        )
        assert trip.time == 6.0
        assert trip.diagnosis["free_memory_mb"] == (
            trip.diagnosis["expected_free_memory_mb"] - 512
        )


class TestAvailabilityDesync:
    @staticmethod
    def _desync(sim):
        # The ledger's availability column says down; the machine is up.
        sim.engine.schedule_at(
            6.0, lambda _e: sim.state.arrays.avail.__setitem__(1, False)
        )

    def test_warn_trips_node_conservation(self, isolate_obs):
        watchdog = Watchdog(mode="warn")
        sim = _make_sim(watchdog)
        self._desync(sim)
        sim.run(20.0)
        trips = [t for t in watchdog.trips if t.check == "node_conservation"]
        assert [(t.time, t.diagnosis) for t in trips] == [
            (6.0, {"availability_desync": {"n00001": True}})
        ]

    def test_abort_raises(self, isolate_obs):
        sim = _make_sim(Watchdog(mode="abort"))
        self._desync(sim)
        with pytest.raises(WatchdogError) as excinfo:
            sim.run(20.0)
        assert excinfo.value.trip.time == 6.0
        assert excinfo.value.trip.check == "node_conservation"
        assert "availability_desync" in str(excinfo.value)


class TestEnvConstruction:
    def test_unset_and_falsy_disable(self):
        for value in ({}, {"MEDEA_WATCHDOG": ""}, {"MEDEA_WATCHDOG": "0"},
                      {"MEDEA_WATCHDOG": "off"}, {"MEDEA_WATCHDOG": " False "},
                      {"MEDEA_WATCHDOG": "no"}):
            assert ObsConfig.from_env(value).watchdog is None

    def test_modes(self):
        for raw, mode in (("1", "warn"), ("warn", "warn"), ("on", "warn"),
                          ("abort", "abort"), (" ABORT ", "abort")):
            assert ObsConfig.from_env({"MEDEA_WATCHDOG": raw}).watchdog == mode
        # A --watchdog flag wins over the variable.
        assert ObsConfig.from_env(
            {"MEDEA_WATCHDOG": "abort"}, watchdog="warn"
        ).watchdog == "warn"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Watchdog(mode="panic")

    def test_sim_defaults_to_no_watchdog(self, isolate_obs, monkeypatch):
        """Only the open session arms a default watchdog; the simulation
        does not read the environment itself."""
        monkeypatch.setenv("MEDEA_WATCHDOG", "abort")
        assert _make_sim(None).watchdog is None
        with ObsSession(ObsConfig(watchdog="abort")):
            first, second = _make_sim(None).watchdog, _make_sim(None).watchdog
        assert first.mode == "abort" and first is not second
        assert _make_sim(None).watchdog is None
