"""Online invariant watchdogs: corruption detection at the moment of
corruption.

The trace replayer (:mod:`repro.obs.replay`) already proves, *post
mortem*, that a run's event stream is a faithful account of its state.
On a shared production cluster that is too late — a 400-node run that
silently leaks containers produces garbage for hours before anyone reads
the trace.  The :class:`Watchdog` moves those checks online: hooked into
the simulation's engine heartbeat, it re-derives the cluster's conserved
quantities from first principles every few ticks and trips the moment the
authoritative state stops agreeing with itself.

Checks (every heartbeat, except the violation audit: every
:data:`VIOLATIONS_INTERVAL`-th):

* ``node_conservation`` — per node, the ledger's free columns must equal
  capacity minus the containers its map places there, and never go
  negative; and the ledger's availability column must equal the
  machines' own ``Node.available``.
* ``violation_consistency`` — :func:`repro.obs.violations
  .evaluate_violations` must be internally consistent (violating ⊆
  subject, records ↔ counts, non-negative extent) and its evaluation
  counter monotone.

The placement fingerprint is not checked live: the state digests the same
container map and availability column these checks read, so a recomputed
digest could only agree.  The trace replayer (:mod:`repro.obs.replay`)
recomputes it from the events instead.

A tripped watchdog emits a typed ``watchdog.trip`` trace event whose
``data`` payload is fully deterministic (check name, tick, structured
diagnosis naming nodes/containers), bumps ``watchdog_trips_total``, and
— in ``abort`` mode — raises :class:`WatchdogError` so the run exits
non-zero instead of continuing on corrupt state.

Zero-cost when off: the simulation holds ``watchdog=None`` unless an
explicit instance or the open :class:`~repro.obs.session.ObsSession`
(``--watchdog`` / ``MEDEA_WATCHDOG``) arms one, so disabled runs execute no checks and emit no events.  When
armed it counts as demand for the heartbeat series: ticks with no queued
tasks, which the simulation otherwise skips, still run the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .events import EventKind
from .metrics import get_metrics
from .trace import get_tracer

if TYPE_CHECKING:  # annotation-only; the watchdog works on duck-typed sims
    from ..sim.cluster_sim import ClusterSimulation

__all__ = [
    "Watchdog",
    "WatchdogError",
    "WatchdogTrip",
    "CHECKS",
]

#: The check catalogue, in evaluation order.
CHECKS = (
    "node_conservation",
    "violation_consistency",
)

_MODES = ("warn", "abort")

#: Run the (expensive) violation audit every N-th heartbeat.
VIOLATIONS_INTERVAL = 5


class WatchdogError(RuntimeError):
    """A watchdog tripped in ``abort`` mode; the run must not continue."""

    def __init__(self, trip: "WatchdogTrip") -> None:
        super().__init__(
            f"watchdog tripped at t={trip.time}: {trip.check}: {trip.summary()}"
        )
        self.trip = trip


@dataclass
class WatchdogTrip:
    """One detected invariant violation."""

    check: str
    time: float
    #: Deterministic structured diagnosis (sorted ids, expected/actual).
    diagnosis: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        parts = [f"{key}={self.diagnosis[key]}" for key in sorted(self.diagnosis)]
        return " ".join(parts) if parts else "(no diagnosis)"

    def to_data(self) -> dict[str, Any]:
        """``watchdog.trip`` event payload (deterministic)."""
        return {"check": self.check, **self.diagnosis}


class Watchdog:
    """Online invariant monitor over a :class:`ClusterSimulation`.

    ``mode`` decides what a trip does: ``warn`` records it and keeps
    running (the trip event and :attr:`trips` are the alert), ``abort``
    raises :class:`WatchdogError` after recording.  Identical consecutive
    diagnoses for a check are emitted once, so a persistent corruption
    does not flood the trace — the first trip pins the corrupting tick.
    Trips go to the ambient tracer and metrics registry.
    """

    def __init__(self, *, mode: str = "warn") -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown watchdog mode {mode!r}; expected {_MODES}")
        self.mode = mode
        self.trips: list[WatchdogTrip] = []
        self.checks_run = 0
        #: check -> last emitted diagnosis, for consecutive-trip dedup.
        self._last_diagnosis: dict[str, dict[str, Any]] = {}
        #: High-water mark of the violations evaluation counter.
        self._violation_evals = 0.0

    # -- the heartbeat hook --------------------------------------------------

    def check(self, sim: "ClusterSimulation", *, now: float) -> list[WatchdogTrip]:
        """Run the due checks against ``sim`` at simulated time ``now``.

        Returns the trips detected *this call* (also appended to
        :attr:`trips`).  Raises :class:`WatchdogError` on the first trip
        when in ``abort`` mode.
        """
        self.checks_run += 1
        new_trips: list[WatchdogTrip] = []
        state = sim.state
        new_trips.extend(self._check_node_conservation(state, now))
        if self.checks_run % VIOLATIONS_INTERVAL == 0:
            new_trips.extend(self._check_violation_consistency(sim, now))
        for trip in new_trips:
            self._record(trip)
        if new_trips and self.mode == "abort":
            raise WatchdogError(new_trips[0])
        return new_trips

    # -- individual invariants ----------------------------------------------

    def _check_node_conservation(self, state, now: float) -> list[WatchdogTrip]:
        """Per-node resource accounting: free == capacity − Σ the node's
        containers in the map, both components non-negative; and the
        availability column agrees with every ``Node.available`` (one trip
        naming each disagreeing node with the machine's own flag)."""
        arrays = state.arrays
        index_of = arrays.index_of
        used = [[0, 0, 0] for _ in arrays.node_ids]
        for placed in state.containers.values():
            row = used[index_of[placed.node_id]]
            row[0] += placed.allocation.resource.memory_mb
            row[1] += placed.allocation.resource.vcores
            row[2] += 1
        trips = []
        for i, node in enumerate(state.topology):
            allocated_mem, allocated_vcores, container_count = used[i]
            free_mem, free_vcores = int(arrays.free_mem[i]), int(arrays.free_vc[i])
            capacity = node.capacity
            expected_mem = capacity.memory_mb - allocated_mem
            expected_vcores = capacity.vcores - allocated_vcores
            drift = free_mem != expected_mem or free_vcores != expected_vcores
            negative = free_mem < 0 or free_vcores < 0
            over = allocated_mem > capacity.memory_mb or (
                allocated_vcores > capacity.vcores
            )
            if drift or negative or over:
                trips.append(
                    WatchdogTrip(
                        "node_conservation",
                        now,
                        {
                            "node_id": node.node_id,
                            "containers": container_count,
                            "free_memory_mb": free_mem,
                            "free_vcores": free_vcores,
                            "expected_free_memory_mb": expected_mem,
                            "expected_free_vcores": expected_vcores,
                            "negative_free": negative,
                            "over_capacity": over,
                        },
                    )
                )
        topology_up = np.fromiter(
            (node.available for node in state.topology), dtype=bool,
            count=len(arrays.node_ids),
        )
        desync = np.flatnonzero(topology_up != arrays.avail).tolist()
        if desync:
            trips.append(
                WatchdogTrip(
                    "node_conservation",
                    now,
                    {"availability_desync": {
                        arrays.node_ids[i]: bool(topology_up[i]) for i in desync
                    }},
                )
            )
        return trips

    def _check_violation_consistency(self, sim, now: float) -> list[WatchdogTrip]:
        """The violation auditor must agree with itself, and its evaluation
        counter must be monotone."""
        from .violations import evaluate_violations

        metrics = get_metrics()
        report = evaluate_violations(
            sim.state, manager=sim.medea.manager, metrics=metrics
        )
        distinct_violating = len({r.container_id for r in report.records})
        problems: dict[str, Any] = {}
        if report.violating_containers > report.subject_containers:
            problems["violating"] = report.violating_containers
            problems["subjects"] = report.subject_containers
        if report.total_extent < 0:
            problems["total_extent"] = report.total_extent
        # Compound constraints contribute to the violating count without a
        # per-record entry, so records can only undercount — never exceed.
        if distinct_violating > report.violating_containers:
            problems["record_containers"] = distinct_violating
            problems["violating"] = report.violating_containers
        evals = metrics.counter("violations_evaluations_total").total()
        if evals < self._violation_evals:
            problems["evaluations"] = evals
            problems["previous_evaluations"] = self._violation_evals
        self._violation_evals = max(self._violation_evals, evals)
        if not problems:
            return []
        return [WatchdogTrip("violation_consistency", now, problems)]

    # -- trip plumbing -------------------------------------------------------

    def _record(self, trip: WatchdogTrip) -> None:
        if self._last_diagnosis.get(trip.check) == trip.diagnosis:
            return  # same persistent corruption; already reported
        self._last_diagnosis[trip.check] = dict(trip.diagnosis)
        self.trips.append(trip)
        get_metrics().counter("watchdog_trips_total").inc(check=trip.check)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.WATCHDOG_TRIP, time=trip.time, data=trip.to_data()
            )

