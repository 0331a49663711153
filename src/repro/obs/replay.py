"""Trace replay: reconstruct cluster state from events, verify state hashes.

The simulation periodically records a fingerprint of its authoritative
state (``sim.state_hash``: the container → node map plus the down-node
set, digested by
:func:`~repro.cluster.state.placement_fingerprint`).  The replayer walks a
recorded trace, rebuilds the same placement map purely from lifecycle
events — ``lra.place`` (its ``placements`` list), ``lra.complete``
(``released``), ``task.allocate`` / ``task.release``, and
``sim.node_availability`` — and recomputes the fingerprint at every
checkpoint.  A mismatch pinpoints the first tick where the trace stops
being a faithful account of the run: a corrupted/edited file, a
non-deterministic emitter, or an instrumentation gap.

Sampled traces (``MEDEA_TRACE_SAMPLE``) cannot satisfy the full-state
hash — dropped lifecycle events are missing from the reconstruction by
design.  The sampling tracer therefore enriches each checkpoint with a
``sampled_hash`` over the *kept* lifecycle events only
(:mod:`repro.obs.sample`); when present it is checked instead of the full
``hash``, so sampled traces cross-check without false divergence while
still catching corruption of the kept stream.

:class:`ReplayState` is the streaming replayer — feed it decoded event
dicts one at a time (:meth:`ReplayState.feed`) and read
:meth:`ReplayState.finish` whenever a report is wanted.  The dashboard's
one fold (:class:`~repro.obs.rollup.RollupState`) owns one; the sampling
tracer owns another behind ``sampled_hash``.  Batch traces
(``timed_place`` driven, no simulation) contain no checkpoints; they
replay trivially with ``checks == 0`` and ``ok == True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..cluster.state import placement_fingerprint
from .events import EventKind

__all__ = [
    "ReplayDivergence",
    "ReplayReport",
    "ReplayState",
]

#: Divergences stored in full before the report only counts them.
MAX_RECORDED_DIVERGENCES = 16


@dataclass(frozen=True)
class ReplayDivergence:
    """One failed state-hash cross-check."""

    seq: int
    time: float | None
    expected: str
    actual: str
    containers: int

    def describe(self) -> str:
        when = "?" if self.time is None else f"{self.time:.3f}s"
        return (
            f"tick {when} (seq {self.seq}): recorded hash {self.expected} != "
            f"replayed {self.actual} ({self.containers} containers in replayed state)"
        )


@dataclass
class ReplayReport:
    """Outcome of replaying one trace."""

    events: int = 0
    checks: int = 0
    #: Checkpoints verified against the sampling tracer's ``sampled_hash``
    #: (kept-lifecycle fingerprint) rather than the full-state ``hash``.
    sampled_checks: int = 0
    allocated: int = 0
    released: int = 0
    divergence_count: int = 0
    divergences: list[ReplayDivergence] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence_count == 0

    @property
    def first_divergence(self) -> ReplayDivergence | None:
        return self.divergences[0] if self.divergences else None

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "ok": self.ok,
            "events": self.events,
            "checks": self.checks,
            "allocated": self.allocated,
            "released": self.released,
            "divergences": self.divergence_count,
            "warnings": list(self.warnings),
        }
        if self.sampled_checks:
            obj["sampled_checks"] = self.sampled_checks
        first = self.first_divergence
        if first is not None:
            obj["first_divergence"] = {
                "seq": first.seq,
                "time": first.time,
                "expected": first.expected,
                "actual": first.actual,
            }
        return obj


class ReplayState:
    """Streaming replayer: feed events one at a time, memory bounded by the
    number of *concurrently placed* containers, not trace length."""

    def __init__(self) -> None:
        self.report = ReplayReport()
        self._placements: dict[str, str] = {}
        self._down: set[str] = set()
        self._missing_placements_warned = False

    def feed(self, obj: Mapping[str, Any]) -> None:
        """Ingest one decoded event dict."""
        report = self.report
        report.events += 1
        kind = obj.get("kind")
        data = obj.get("data") or {}
        if kind == EventKind.LRA_PLACE:
            recorded = data.get("placements")
            if recorded is None:
                if not self._missing_placements_warned:
                    self._missing_placements_warned = True
                    report.warnings.append(
                        "lra.place events carry no 'placements' map (trace "
                        "predates replay support); state reconstruction is "
                        "incomplete"
                    )
            else:
                placements = self._placements
                for container_id, node_id in recorded:
                    placements[container_id] = node_id
                    report.allocated += 1
        elif kind == EventKind.LRA_COMPLETE:
            for container_id in data.get("released", ()):
                if self._placements.pop(container_id, None) is not None:
                    report.released += 1
        elif kind == EventKind.TASK_ALLOCATE:
            task_id = data.get("task_id")
            node_id = data.get("node_id")
            if task_id is not None and node_id is not None:
                self._placements[task_id] = node_id
                report.allocated += 1
        elif kind == EventKind.TASK_RELEASE:
            task_id = data.get("task_id")
            if task_id is not None and self._placements.pop(task_id, None) is not None:
                report.released += 1
        elif kind == EventKind.BENCH_EXPERIMENT:
            # Fresh cluster: experiments in one session share a trace file.
            self._placements.clear()
            self._down.clear()
        elif kind == EventKind.NODE_AVAILABILITY:
            node_id = data.get("node_id")
            if node_id is not None:
                if data.get("up"):
                    self._down.discard(node_id)
                else:
                    self._down.add(node_id)
        elif kind == EventKind.SIM_STATE_HASH:
            sampled = data.get("sampled_hash")
            expected = sampled if sampled is not None else data.get("hash")
            if expected is None:
                return
            report.checks += 1
            if sampled is not None:
                report.sampled_checks += 1
            actual = placement_fingerprint(self._placements, self._down)
            if actual != expected:
                report.divergence_count += 1
                if len(report.divergences) < MAX_RECORDED_DIVERGENCES:
                    report.divergences.append(
                        ReplayDivergence(
                            seq=obj.get("seq", -1),
                            time=obj.get("time"),
                            expected=expected,
                            actual=actual,
                            containers=len(self._placements),
                        )
                    )

    def fingerprint(self) -> str:
        """Fingerprint of the *current* reconstructed state — after the
        last fed event this is the run's final placement fingerprint,
        which ``repro diff`` cross-checks between two runs."""
        return placement_fingerprint(self._placements, self._down)

    def finish(self) -> ReplayReport:
        """The report as of the events fed so far, plus the end-of-stream
        notes.  Pure — the notes go on a copy — so a mid-run summary leaves
        no stale note behind for the next one."""
        report = replace(
            self.report,
            divergences=list(self.report.divergences),
            warnings=list(self.report.warnings),
        )
        if report.checks == 0:
            report.warnings.append(
                "trace contains no sim.state_hash checkpoints (batch trace?); "
                "replay is vacuously valid"
            )
        if report.sampled_checks:
            report.warnings.append(
                f"{report.sampled_checks}/{report.checks} checkpoints verified "
                "against sampled_hash (sampled trace; kept lifecycles only)"
            )
        return report
