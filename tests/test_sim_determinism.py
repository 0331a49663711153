"""Simulation determinism and event-loop semantics.

The paper's evaluation leans on simulation replays being comparable across
runs (§7.1); that only holds if the discrete-event engine is fully
deterministic.  These tests run the same seeded workload twice and require
*byte-identical* traces — scheduling-cycle events, completed-container
latencies, and the final container→node mapping — plus pin down the
engine's edge semantics: past scheduling is rejected, and cancellation is
honoured whether it happens before, during, or after the event fires.
"""

from __future__ import annotations

import pytest

from repro import (
    ConstraintUnawareScheduler,
    NodeCandidatesScheduler,
    Resource,
    build_cluster,
)
from repro.core.requests import TaskRequest
from repro.sim import ClusterSimulation, SimConfig
from repro.sim.engine import SimulationEngine
from tests.helpers import make_lra


def run_traced_simulation(seed: int) -> str:
    """One full simulated run, serialized into a canonical trace string."""
    topology = build_cluster(8, racks=2, memory_mb=8 * 1024, vcores=8)
    sim = ClusterSimulation(
        topology,
        ConstraintUnawareScheduler(seed=seed),
        config=SimConfig(scheduling_interval_s=10.0, heartbeat_interval_s=1.0,
                         horizon_s=200.0),
    )
    trace: list[str] = []
    sim.cycle_observers.append(
        lambda s, result: trace.append(
            f"t={s.engine.now:.3f} placed={sorted(p.container_id + '@' + p.node_id for p in result.placements)}"
            f" rejected={sorted(result.rejected_apps)}"
        )
    )
    for i in range(6):
        sim.submit_lra(
            make_lra(f"lra-{i}", containers=2, memory_mb=1024),
            at=float(3 * i),
            # Half tear down mid-run, half outlive the horizon.
            duration_s=60.0 if i % 2 == 0 else None,
        )
    for i in range(10):
        sim.submit_task(
            TaskRequest(f"task-{i}", f"job-{i % 3}", Resource(512, 1),
                        duration_s=5.0 + i),
            at=float(i),
        )
    sim.run()
    trace.append(f"task_latencies={sim.task_latencies()}")
    trace.append(f"lra_latencies={sim.lra_latencies()}")
    final = sorted(
        (cid, placed.node_id) for cid, placed in sim.state.containers.items()
    )
    trace.append(f"final={final}")
    return "\n".join(trace)


def test_same_seed_runs_are_byte_identical() -> None:
    first = run_traced_simulation(seed=42)
    second = run_traced_simulation(seed=42)
    assert first.encode() == second.encode()
    # Sanity: the trace is non-trivial (cycles fired, containers placed).
    assert "placed=" in first and "final=[(" in first


def test_deterministic_across_scheduler_types() -> None:
    """The engine itself is deterministic regardless of scheduler choice."""

    def run_once() -> str:
        topology = build_cluster(6, racks=2)
        sim = ClusterSimulation(
            topology,
            NodeCandidatesScheduler(),
            config=SimConfig(horizon_s=100.0),
        )
        events: list[str] = []
        sim.cycle_observers.append(
            lambda s, r: events.append(f"{s.engine.now}:{len(r.placements)}")
        )
        for i in range(4):
            sim.submit_lra(make_lra(f"d-{i}", containers=3), at=float(i))
        sim.run()
        return "|".join(events)

    assert run_once() == run_once()


def run_large_cluster() -> tuple[str, int, int]:
    """A seeded 1000-node run; returns (canonical trace, heartbeat ticks
    that did work, heartbeat grid ticks).

    The trace records only scheduling cycles that placed or rejected
    something; no-op ticks are skipped.
    """
    topology = build_cluster(1000, racks=20, memory_mb=16 * 1024, vcores=16)
    sim = ClusterSimulation(
        topology,
        ConstraintUnawareScheduler(seed=7),
        config=SimConfig(scheduling_interval_s=10.0, heartbeat_interval_s=1.0,
                         horizon_s=120.0),
    )
    trace: list[str] = []
    sim.cycle_observers.append(
        lambda s, r: trace.append(
            f"t={s.engine.now:.3f}"
            f" placed={sorted(p.container_id + '@' + p.node_id for p in r.placements)}"
            f" rejected={sorted(r.rejected_apps)}"
        )
        if r.placements or r.rejected_apps
        else None
    )
    for i in range(40):
        sim.submit_lra(
            make_lra(f"big-{i:03d}", containers=4, memory_mb=2048),
            at=1.5 * i,
            duration_s=50.0 if i % 4 == 0 else None,
        )
    for i in range(150):
        sim.submit_task(
            TaskRequest(f"bigtask-{i:04d}", f"bigjob-{i % 7}",
                        Resource(1024, 1), duration_s=3.0 + (i % 11)),
            at=float(i % 90),
        )
    sim.run()
    trace.append(
        "latencies="
        + repr([
            (a.task_id, a.latency_s)
            for a in sim.task_scheduler.completed_allocations
        ])
    )
    final = sorted(
        (cid, placed.node_id) for cid, placed in sim.state.containers.items()
    )
    trace.append(f"final={final}")
    trace.append(f"fingerprint={sim.state.fingerprint()}")
    canon = "\n".join(line for line in trace if line is not None)
    return canon, sim.heartbeat_handle.fired, sim.heartbeat_handle.ticks


def test_same_seed_byte_identical_at_scale() -> None:
    """Two same-seed runs of a seeded 1k-node cluster: identical
    observables, with idle heartbeat ticks skipped."""
    first, fired, ticks = run_large_cluster()
    second, fired_again, _ = run_large_cluster()
    assert first.encode() == second.encode()
    assert "placed=" in first and "fingerprint=" in first
    assert fired == fired_again
    # Idle heartbeats never fire.
    assert fired < ticks


def test_tracing_does_not_perturb_the_run(install_tracer) -> None:
    """MEDEA_TRACE-style tracing must be write-only: enabling an event
    tracer cannot change placements, latencies, or fingerprints."""
    from repro.obs.trace import MemorySink, Tracer

    quiet, _, _ = run_large_cluster()
    sink = MemorySink()
    install_tracer(Tracer([sink]))
    traced, _, _ = run_large_cluster()
    assert quiet.encode() == traced.encode()
    assert len(sink) > 0  # the tracer actually captured the run


class TestScheduleAtSemantics:
    def test_past_scheduling_rejected(self) -> None:
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda e: None)
        engine.run()
        assert engine.now == 5.0
        with pytest.raises(ValueError, match="past"):
            engine.schedule_at(4.999, lambda e: None)

    def test_present_scheduling_allowed(self) -> None:
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda e: None)
        engine.run()
        fired = []
        engine.schedule_at(5.0, lambda e: fired.append(e.now))
        engine.run()
        assert fired == [5.0]
