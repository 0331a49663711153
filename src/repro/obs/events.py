"""Typed trace events: the vocabulary of the observability layer.

Every instrumented component emits :class:`TraceEvent` records through a
:class:`~repro.obs.trace.Tracer`.  An event separates its payload into two
parts so traces stay *replayable*:

* ``data`` — deterministic fields (simulated time, ids, counts, decisions).
  Two runs with the same seed must produce byte-identical ``data``.
* ``wall`` — volatile wall-clock measurements (solve times, phase timings).
  These are carried in the JSONL output under the reserved ``"wall"`` key
  and stripped by :func:`canonical` / :meth:`TraceEvent.canonical_json` so
  determinism checks and trace diffs ignore them.

Event kinds are dotted strings namespaced by subsystem (``engine.*``,
``sim.*``, ``lra.*``, ``task.*``, ``cycle.*``, ``scheduler.*``,
``solver.*``); the full catalogue lives in :class:`EventKind`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["EventKind", "TraceEvent", "canonical", "WALL_KEY"]

#: Reserved JSON key holding volatile wall-clock fields.
WALL_KEY = "wall"


class EventKind:
    """Catalogue of event kinds emitted by the instrumented components."""

    # -- simulation engine ---------------------------------------------------
    ENGINE_DISPATCH = "engine.dispatch"

    # -- cluster simulation --------------------------------------------------
    NODE_AVAILABILITY = "sim.node_availability"
    #: Periodic fingerprint of the authoritative cluster state (placement
    #: map + down nodes) plus utilisation aggregates; the anchor replay
    #: validation cross-checks against.
    SIM_STATE_HASH = "sim.state_hash"

    # -- LRA lifecycle (Medea facade) ----------------------------------------
    LRA_SUBMIT = "lra.submit"
    LRA_PLACE = "lra.place"
    LRA_REJECT = "lra.reject"
    LRA_CONFLICT = "lra.conflict"
    LRA_RESUBMIT = "lra.resubmit"
    LRA_DROP = "lra.drop"
    LRA_COMPLETE = "lra.complete"

    # -- scheduling cycles ---------------------------------------------------
    CYCLE_START = "cycle.start"
    CYCLE_END = "cycle.end"

    # -- task-based scheduler ------------------------------------------------
    TASK_SUBMIT = "task.submit"
    TASK_ALLOCATE = "task.allocate"
    TASK_RELEASE = "task.release"
    TASK_FINISH = "task.finish"

    # -- LRA schedulers ------------------------------------------------------
    SCHEDULER_PLACE = "scheduler.place"
    SCHEDULER_AUDIT = "scheduler.audit"
    #: Pending-queue depths sampled at the top of every scheduling cycle.
    SCHEDULER_QUEUE = "scheduler.queue"

    # -- placement requests (serve path, repro.core.scheduler.PlacementService)
    #: Request admitted into the placement queue (``data``: request_id,
    #: app_id, containers).  The whole ``request.*`` lifecycle carries the
    #: ``request_id`` the tracer's request context injects.
    REQUEST_SUBMIT = "request.submit"
    #: Request refused at admission (queue depth / malformed payload).
    REQUEST_REJECT = "request.reject"
    #: Lifecycle complete; ``wall`` carries the latency breakdown
    #: (admission/queue/place/total seconds).
    REQUEST_DONE = "request.done"

    # -- online invariant watchdog (repro.obs.watchdog) ----------------------
    #: An invariant monitor detected state corruption: ``data`` carries the
    #: check name and a deterministic structured diagnosis (nodes,
    #: containers, expected/actual values) at the corrupting tick.
    WATCHDOG_TRIP = "watchdog.trip"

    # -- hierarchical spans (repro.obs.spans) --------------------------------
    #: One closed span: ``data`` carries the deterministic identity (name,
    #: ``;``-joined ancestor path, depth, sample count), ``wall`` the
    #: volatile duration / self-time measurements.
    SPAN = "span"

    # -- benchmark harness ---------------------------------------------------
    #: Start of a fresh-cluster placement experiment; replay resets its
    #: reconstructed state here (experiments in one session share a trace).
    BENCH_EXPERIMENT = "bench.experiment"

    # -- MILP solver ---------------------------------------------------------
    SOLVER_PRESOLVE = "solver.presolve"
    SOLVER_SOLVE = "solver.solve"


@dataclass(frozen=True)
class TraceEvent:
    """One structured, deterministic trace record.

    ``time`` is the *simulated* clock when the emitter runs inside a
    simulation (or the logical cycle clock in batch experiments); ``None``
    for emitters with no meaningful logical clock.  ``seq`` is assigned by
    the tracer and totally orders the stream.
    """

    kind: str
    seq: int
    time: float | None = None
    data: Mapping[str, Any] = field(default_factory=dict)
    #: Volatile wall-clock measurements, excluded from canonical output.
    wall: Mapping[str, Any] | None = None

    def to_obj(self, *, include_wall: bool = True) -> dict[str, Any]:
        obj: dict[str, Any] = {"kind": self.kind, "seq": self.seq}
        if self.time is not None:
            obj["time"] = self.time
        if self.data:
            obj["data"] = dict(self.data)
        if include_wall and self.wall:
            obj[WALL_KEY] = dict(self.wall)
        return obj

    def to_json(self) -> str:
        """Full JSONL line (including wall-clock fields)."""
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def canonical_json(self) -> str:
        """Deterministic JSONL line: the ``wall`` key is stripped."""
        return json.dumps(
            self.to_obj(include_wall=False), sort_keys=True, separators=(",", ":")
        )


def canonical(jsonl: str) -> str:
    """Strip volatile fields from raw JSONL text.

    Accepts the output of a :class:`~repro.obs.trace.JsonlSink` (one JSON
    object per line) and returns the same stream with every ``"wall"`` key
    removed — the form determinism assertions compare.
    """
    lines = []
    for line in jsonl.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        obj.pop(WALL_KEY, None)
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
