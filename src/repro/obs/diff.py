"""Cross-run differential observability: the ``repro diff`` forensics plane.

Did two recorded runs make the same decisions?  Answering that rarely
needs a human to eyeball ten thousand JSONL lines; it needs a *verdict*
and, when the runs disagree, the first place and the reason why.  This
module compares two JSONL traces (read by
:func:`~repro.obs.report.iter_trace`) in one streaming pass per side and
reports along two axes:

* **Structural diff** — the deterministic decision stream (LRA/task
  lifecycle, scheduling cycles, node availability …) is aligned event by
  event on canonical identity (kind + simulated time + wall-stripped
  payload).  The first divergent event is localized with a context window
  of the common prefix and each side's following events.  Placement
  fingerprints are cross-checked through the existing replay machinery:
  common-time ``sim.state_hash`` checkpoints and the final reconstructed
  placement fingerprint must agree.
* **Causal placement diff** — for every container that landed on a
  different node, the recorded :class:`~repro.obs.audit.DecisionAudit`
  payloads (``scheduler.audit`` events) explain *why* the decision
  flipped: the candidate one side pruned (capacity / availability / the
  attributed constraint), or the score terms that ranked another node
  first.

Only decisions are compared.  A run's series and span profile are on its
own dashboard (``repro dashboard``), and wall-clock timings are the
benchmark gate's question (``benchmarks/compare_commits.py``), not this
one's.

The outcome is a four-way verdict:

* ``IDENTICAL`` — the canonical (wall-stripped) streams are byte-identical.
* ``EQUIVALENT`` — the structural streams and every placement fingerprint
  match; only non-structural cadence (heartbeats, queue samples, engine
  dispatch, spans) and wall-clock data differ — e.g. an armed watchdog
  fires the idle heartbeat ticks an unarmed run skips: same decisions,
  different bookkeeping.
* ``DIVERGED`` — a structural event or a placement fingerprint differs;
  ``tick`` localizes the first divergence.
* ``INCOMPARABLE`` — the inputs cannot be meaningfully aligned (a side
  with no events, no shared structural vocabulary).

Only raw traces are compared: a ``ROLLUP_*.json`` document carries
aggregates, not decisions, and the trace reader rejects it.

Entry points: :func:`diff_traces` (two paths), :func:`diff_events` (two
decoded event iterables, e.g. :class:`~repro.obs.trace.MemorySink`
captures), and the page builder :func:`diff_view`; ``repro diff A B``
wraps them.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .audit import explain_placement_flip
from .events import WALL_KEY, EventKind, TraceEvent
from .replay import ReplayState
from .view import Badge, Table, View

__all__ = [
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
]

VERDICT_IDENTICAL = "IDENTICAL"
VERDICT_EQUIVALENT = "EQUIVALENT"
VERDICT_DIVERGED = "DIVERGED"
VERDICT_INCOMPARABLE = "INCOMPARABLE"

#: Event kinds that constitute the deterministic decision stream.  Two
#: same-seed runs must agree on these exactly; everything else is
#: cadence/telemetry whose presence and count legitimately vary (idle
#: heartbeats and queue samples are skipped unless a watchdog is armed,
#: sampling policies thin lifecycles, spans follow the callbacks that
#: actually fired).
STRUCTURAL_KINDS = frozenset({
    EventKind.LRA_SUBMIT,
    EventKind.LRA_PLACE,
    EventKind.LRA_REJECT,
    EventKind.LRA_CONFLICT,
    EventKind.LRA_RESUBMIT,
    EventKind.LRA_DROP,
    EventKind.LRA_COMPLETE,
    EventKind.CYCLE_START,
    EventKind.CYCLE_END,
    EventKind.TASK_SUBMIT,
    EventKind.TASK_ALLOCATE,
    EventKind.TASK_RELEASE,
    EventKind.TASK_FINISH,
    EventKind.SCHEDULER_PLACE,
    EventKind.SCHEDULER_AUDIT,
    EventKind.NODE_AVAILABILITY,
    EventKind.WATCHDOG_TRIP,
    EventKind.BENCH_EXPERIMENT,
    EventKind.SOLVER_PRESOLVE,
    EventKind.SOLVER_SOLVE,
})

#: Structural events kept as post-divergence context per side.
DEFAULT_CONTEXT = 5

#: Placement flips explained in full before the report only counts them.
MAX_RECORDED_FLIPS = 12

#: Checkpoint mismatches recorded in full.
MAX_RECORDED_CHECKPOINT_MISMATCHES = 8


@dataclass(frozen=True)
class StructuralDivergence:
    """The first point where the two decision streams stop agreeing."""

    #: Position in the structural substream (0-based).
    index: int
    #: Simulated time of the divergence (first side that has an event).
    time: float | None
    #: The two canonical structural events (``None`` when a side's stream
    #: ended early — a missing-tail divergence).
    a: Mapping[str, Any] | None
    b: Mapping[str, Any] | None
    #: Common structural prefix immediately before the divergence.
    context: list[Mapping[str, Any]]
    #: Each side's next structural events after the divergence point.
    after_a: list[Mapping[str, Any]]
    after_b: list[Mapping[str, Any]]
    reason: str

    def to_obj(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "time": self.time,
            "reason": self.reason,
            "a": self.a,
            "b": self.b,
            "context": list(self.context),
            "after_a": list(self.after_a),
            "after_b": list(self.after_b),
        }


@dataclass(frozen=True)
class PlacementFlip:
    """One container that landed on different nodes in the two runs."""

    container_id: str
    app_id: str | None
    node_a: str
    node_b: str
    time_a: float | None
    time_b: float | None
    #: Human-readable causal explanation derived from the recorded
    #: decision audits (empty when neither run carried them).
    explanation: list[str]

    def to_obj(self) -> dict[str, Any]:
        return {
            "container": self.container_id,
            "app": self.app_id,
            "node_a": self.node_a,
            "node_b": self.node_b,
            "time_a": self.time_a,
            "time_b": self.time_b,
            "explanation": list(self.explanation),
        }


@dataclass
class DiffReport:
    """Outcome of comparing two runs."""

    verdict: str
    #: Simulated time of the first divergence (``DIVERGED`` only).
    tick: float | None = None
    #: One-line rationale for the verdict.
    reason: str = ""
    label_a: str = "A"
    label_b: str = "B"
    sides: dict[str, Any] = field(default_factory=dict)
    structural: dict[str, Any] = field(default_factory=dict)
    divergence: StructuralDivergence | None = None
    checkpoints: dict[str, Any] = field(default_factory=dict)
    placements: dict[str, Any] = field(default_factory=dict)
    flips: list[PlacementFlip] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the runs agree (identical or equivalent)."""
        return self.verdict in (VERDICT_IDENTICAL, VERDICT_EQUIVALENT)

    @property
    def comparable(self) -> bool:
        return self.verdict != VERDICT_INCOMPARABLE

    def headline(self) -> str:
        """``DIVERGED@12.0`` style one-token verdict."""
        if self.verdict == VERDICT_DIVERGED and self.tick is not None:
            return f"{VERDICT_DIVERGED}@{_fmt_tick(self.tick)}"
        return self.verdict

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "verdict": self.verdict,
            "headline": self.headline(),
            "tick": self.tick,
            "reason": self.reason,
            "labels": {"a": self.label_a, "b": self.label_b},
            "sides": dict(self.sides),
            "structural": dict(self.structural),
            "checkpoints": dict(self.checkpoints),
            "placements": dict(self.placements),
            "flips": [f.to_obj() for f in self.flips],
            "notes": list(self.notes),
        }
        if self.divergence is not None:
            obj["divergence"] = self.divergence.to_obj()
        return obj


def _fmt_tick(tick: float) -> str:
    return f"{tick:g}"


def _canonical_line(obj: Mapping[str, Any]) -> bytes:
    """Full canonical JSONL line (seq kept, ``wall`` stripped) — the
    byte-identity the determinism contract is stated over."""
    stripped = {k: v for k, v in obj.items() if k != WALL_KEY}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()


def _structural_identity(obj: Mapping[str, Any]) -> dict[str, Any]:
    """Equivalence identity of a structural event: kind + simulated time +
    deterministic payload.  ``seq`` is deliberately excluded — sequence
    numbers shift with non-structural traffic (engine cadence, sampling),
    which must not read as divergence."""
    ident: dict[str, Any] = {"kind": obj.get("kind")}
    if obj.get("time") is not None:
        ident["time"] = obj["time"]
    data = obj.get("data")
    if data:
        ident["data"] = dict(data)
    return ident


class _Side:
    """Single-pass accumulator for one trace: event counts per kind, the
    replayed placement state, canonical hash, structural substream,
    checkpoints, placements and audits.  Memory is bounded by the
    placement maps plus the unmatched structural window, not the trace
    length."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.replay = ReplayState()
        self.events = 0
        self.kind_counts: dict[str, int] = {}
        self.structural_events = 0
        self.sha = hashlib.sha256()
        self.checkpoints: dict[float, str] = {}
        #: container → (node, simulated time), over the whole run (released
        #: containers stay; a flip anywhere in the run is still a flip).
        self.placements: dict[str, tuple[str, float | None]] = {}
        self.apps: dict[str, str] = {}
        #: container → latest recorded decision payload.
        self.audit: dict[str, Mapping[str, Any]] = {}
        self.audit_events = 0
        self.pending: deque[dict[str, Any]] = deque()
        #: Set by the driver after the first divergence: cap the pending
        #: window to the context size instead of buffering the whole tail.
        self.pending_limit: int | None = None
        self.truncated = False

    def feed(self, obj: Mapping[str, Any]) -> None:
        self.events += 1
        kind = obj.get("kind", "?")
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.replay.feed(obj)
        self.sha.update(_canonical_line(obj))
        self.sha.update(b"\n")
        data = obj.get("data") or {}
        if kind == EventKind.SIM_STATE_HASH:
            digest = data.get("hash")
            t = obj.get("time")
            if digest is not None and t is not None:
                self.checkpoints[float(t)] = digest
        elif kind == EventKind.LRA_PLACE:
            app_id = data.get("app_id")
            for container_id, node_id in data.get("placements") or ():
                self.placements[container_id] = (node_id, obj.get("time"))
                if app_id is not None:
                    self.apps[container_id] = app_id
        elif kind == EventKind.TASK_ALLOCATE:
            task_id = data.get("task_id")
            node_id = data.get("node_id")
            if task_id is not None and node_id is not None:
                self.placements[task_id] = (node_id, obj.get("time"))
        elif kind == EventKind.SCHEDULER_AUDIT:
            self.audit_events += 1
            for decision in data.get("decisions") or ():
                container_id = decision.get("container")
                if container_id is not None:
                    self.audit[container_id] = decision
        if kind in STRUCTURAL_KINDS:
            self.structural_events += 1
            if self.pending_limit is None or len(self.pending) < self.pending_limit:
                self.pending.append(_structural_identity(obj))

    def structural_kinds(self) -> set[str]:
        return {k for k in self.kind_counts if k in STRUCTURAL_KINDS}

    def summary_obj(self, path: str | None) -> dict[str, Any]:
        replay = self.replay.finish().to_obj()
        obj: dict[str, Any] = {
            "label": self.label,
            "events": self.events,
            "structural_events": self.structural_events,
            "checkpoints": len(self.checkpoints),
            "placements": len(self.placements),
            "audited_containers": len(self.audit),
            "kinds": dict(sorted(self.kind_counts.items())),
            "replay": replay,
        }
        if path is not None:
            obj["path"] = path
        if self.truncated:
            obj["truncated_tail"] = True
        return obj


def _iter_objs(
    events: Iterable[Mapping[str, Any] | TraceEvent],
) -> Iterable[Mapping[str, Any]]:
    for event in events:
        yield event.to_obj() if isinstance(event, TraceEvent) else event


def diff_events(
    events_a: Iterable[Mapping[str, Any] | TraceEvent],
    events_b: Iterable[Mapping[str, Any] | TraceEvent],
    *,
    label_a: str = "A",
    label_b: str = "B",
    path_a: str | None = None,
    path_b: str | None = None,
    context: int = DEFAULT_CONTEXT,
) -> DiffReport:
    """Diff two decoded event streams (dicts or :class:`TraceEvent`).

    Both streams are consumed exactly once, interleaved; see the module
    docstring for the verdict semantics.
    """
    side_a = _Side(label_a)
    side_b = _Side(label_b)
    iter_a = iter(_iter_objs(events_a))
    iter_b = iter(_iter_objs(events_b))
    context = max(1, int(context))

    divergence: StructuralDivergence | None = None
    matched = 0
    prefix: deque[dict[str, Any]] = deque(maxlen=context)
    done_a = done_b = False
    while not (done_a and done_b):
        if not done_a:
            try:
                side_a.feed(next(iter_a))
            except StopIteration:
                done_a = True
        if not done_b:
            try:
                side_b.feed(next(iter_b))
            except StopIteration:
                done_b = True
        if divergence is None:
            while side_a.pending and side_b.pending:
                ea = side_a.pending.popleft()
                eb = side_b.pending.popleft()
                if ea == eb:
                    matched += 1
                    prefix.append(ea)
                    continue
                divergence = StructuralDivergence(
                    index=matched,
                    time=ea.get("time", eb.get("time")),
                    a=ea,
                    b=eb,
                    context=list(prefix),
                    after_a=[],
                    after_b=[],
                    reason=(
                        "first structural event mismatch"
                        if ea.get("kind") == eb.get("kind")
                        else (
                            f"event kind flipped: {ea.get('kind')} vs "
                            f"{eb.get('kind')}"
                        )
                    ),
                )
                side_a.pending_limit = context
                side_b.pending_limit = context
                break

    # Structural tail imbalance: one stream ended while the other still
    # has decisions (only meaningful when no earlier divergence was found).
    extra_a = len(side_a.pending)
    extra_b = len(side_b.pending)
    if divergence is None and (side_a.pending or side_b.pending):
        longer, shorter = (
            (side_a, side_b) if side_a.pending else (side_b, side_a)
        )
        head = longer.pending.popleft()
        divergence = StructuralDivergence(
            index=matched,
            time=head.get("time"),
            a=head if longer is side_a else None,
            b=head if longer is side_b else None,
            context=list(prefix),
            after_a=list(side_a.pending)[:context],
            after_b=list(side_b.pending)[:context],
            reason=(
                f"{shorter.label} ended after {matched} structural events; "
                f"{longer.label} has "
                f"{max(extra_a, extra_b)} more"
            ),
        )
    elif divergence is not None:
        divergence = StructuralDivergence(
            index=divergence.index,
            time=divergence.time,
            a=divergence.a,
            b=divergence.b,
            context=divergence.context,
            after_a=list(side_a.pending)[:context],
            after_b=list(side_b.pending)[:context],
            reason=divergence.reason,
        )

    return _assemble(
        side_a, side_b, divergence, matched,
        path_a=path_a, path_b=path_b,
    )


def _checkpoint_section(side_a: _Side, side_b: _Side) -> dict[str, Any]:
    """Cross-check the recorded state fingerprints at every common tick,
    plus the final replay-reconstructed placement fingerprint."""
    common = sorted(set(side_a.checkpoints) & set(side_b.checkpoints))
    mismatches = [
        {
            "time": t,
            "hash_a": side_a.checkpoints[t],
            "hash_b": side_b.checkpoints[t],
        }
        for t in common
        if side_a.checkpoints[t] != side_b.checkpoints[t]
    ]
    section: dict[str, Any] = {
        "common": len(common),
        "only_a": len(side_a.checkpoints) - len(common),
        "only_b": len(side_b.checkpoints) - len(common),
        "mismatched": len(mismatches),
        "mismatches": mismatches[:MAX_RECORDED_CHECKPOINT_MISMATCHES],
    }
    final_a = side_a.replay.fingerprint()
    final_b = side_b.replay.fingerprint()
    section["final_fingerprint_a"] = final_a
    section["final_fingerprint_b"] = final_b
    section["final_match"] = final_a == final_b
    return section


def _placement_section(
    side_a: _Side, side_b: _Side
) -> tuple[dict[str, Any], list[PlacementFlip]]:
    a_map, b_map = side_a.placements, side_b.placements
    common = set(a_map) & set(b_map)
    flipped = sorted(
        (cid for cid in common if a_map[cid][0] != b_map[cid][0]),
        key=lambda cid: (
            a_map[cid][1] if a_map[cid][1] is not None else float("inf"),
            cid,
        ),
    )
    flips: list[PlacementFlip] = []
    for container_id in flipped[:MAX_RECORDED_FLIPS]:
        node_a, time_a = a_map[container_id]
        node_b, time_b = b_map[container_id]
        explanation = explain_placement_flip(
            container_id,
            node_a,
            node_b,
            side_a.audit.get(container_id),
            side_b.audit.get(container_id),
            label_a=side_a.label,
            label_b=side_b.label,
        )
        flips.append(PlacementFlip(
            container_id=container_id,
            app_id=side_a.apps.get(container_id) or side_b.apps.get(container_id),
            node_a=node_a,
            node_b=node_b,
            time_a=time_a,
            time_b=time_b,
            explanation=explanation,
        ))
    section = {
        "common": len(common),
        "flipped": len(flipped),
        "only_a": len(a_map) - len(common),
        "only_b": len(b_map) - len(common),
    }
    return section, flips


def _assemble(
    side_a: _Side,
    side_b: _Side,
    divergence: StructuralDivergence | None,
    matched: int,
    *,
    path_a: str | None,
    path_b: str | None,
) -> DiffReport:
    checkpoints = _checkpoint_section(side_a, side_b)
    placement_section, flips = _placement_section(side_a, side_b)
    report = DiffReport(
        verdict=VERDICT_INCOMPARABLE,
        label_a=side_a.label,
        label_b=side_b.label,
        sides={
            "a": side_a.summary_obj(path_a),
            "b": side_b.summary_obj(path_b),
        },
        structural={
            "matched": matched,
            "a_total": side_a.structural_events,
            "b_total": side_b.structural_events,
            "kinds_only_a": sorted(
                side_a.structural_kinds() - side_b.structural_kinds()
            ),
            "kinds_only_b": sorted(
                side_b.structural_kinds() - side_a.structural_kinds()
            ),
        },
        divergence=divergence,
        checkpoints=checkpoints,
        placements=placement_section,
        flips=flips,
    )

    kinds_a, kinds_b = side_a.structural_kinds(), side_b.structural_kinds()
    identical = (
        side_a.sha.digest() == side_b.sha.digest()
        and side_a.events == side_b.events
    )
    if identical:
        report.verdict = VERDICT_IDENTICAL
        report.reason = (
            f"canonical streams are byte-identical "
            f"({side_a.events} events)"
        )
        return report
    if side_a.events == 0 or side_b.events == 0:
        report.verdict = VERDICT_INCOMPARABLE
        empty = side_a.label if side_a.events == 0 else side_b.label
        report.reason = f"side {empty} contains no events"
        return report
    if kinds_a and kinds_b and not (kinds_a & kinds_b):
        report.verdict = VERDICT_INCOMPARABLE
        report.reason = (
            "no shared structural event kinds — the traces come from "
            "different harnesses"
        )
        return report
    if not kinds_a and not kinds_b and not side_a.checkpoints:
        report.verdict = VERDICT_INCOMPARABLE
        report.reason = (
            "neither trace carries structural events or checkpoints to "
            "align on"
        )
        return report

    if divergence is not None:
        report.verdict = VERDICT_DIVERGED
        report.tick = divergence.time
        report.reason = divergence.reason
        return report
    if checkpoints["mismatched"]:
        first = checkpoints["mismatches"][0]
        report.verdict = VERDICT_DIVERGED
        report.tick = first["time"]
        report.reason = (
            "structural streams match but recorded state fingerprints "
            f"disagree at t={_fmt_tick(first['time'])}"
        )
        return report
    if not checkpoints["final_match"]:
        report.verdict = VERDICT_DIVERGED
        report.reason = (
            "structural streams match but the final reconstructed "
            "placement fingerprints disagree"
        )
        return report
    report.verdict = VERDICT_EQUIVALENT
    report.reason = (
        f"{matched} structural events and {checkpoints['common']} "
        "common-tick fingerprints match; only cadence/wall-clock data "
        "differ"
    )
    return report


# -- file-level entry ---------------------------------------------------------


def diff_traces(
    path_a: str,
    path_b: str,
    *,
    label_a: str | None = None,
    label_b: str | None = None,
    context: int = DEFAULT_CONTEXT,
) -> DiffReport:
    """Diff two recorded JSONL traces by path.

    Unreadable files — and a ``ROLLUP_*.json`` document, which holds no
    decisions to align — raise :class:`~repro.obs.report.TraceFileError`;
    the CLI maps that to the data-error exit code.
    """
    from .report import iter_trace

    reader_a = iter_trace(path_a)
    reader_b = iter_trace(path_b)
    report = diff_events(
        reader_a,
        reader_b,
        label_a=path_a if label_a is None else label_a,
        label_b=path_b if label_b is None else label_b,
        path_a=path_a,
        path_b=path_b,
        context=context,
    )
    for reader, key in ((reader_a, "a"), (reader_b, "b")):
        if reader.truncated:
            report.sides[key]["truncated_tail"] = True
            report.notes.append(
                f"side {report.sides[key]['label']}: trailing partial "
                "line/chunk ignored (crashed run?)"
            )
    return report


# -- the diff page ------------------------------------------------------------


def _fmt_event(obj: Mapping[str, Any] | None) -> str:
    if obj is None:
        return "(stream ended)"
    t = obj.get("time")
    when = "t=?" if t is None else f"t={_fmt_tick(float(t))}"
    data = json.dumps(obj.get("data", {}), sort_keys=True)
    if len(data) > 120:
        data = data[:117] + "..."
    return f"{when} {obj.get('kind')} {data}"


def diff_view(report: DiffReport) -> View:
    """The ``repro diff`` page: verdict, one-line axis summaries, then the
    runs, the first divergence with its context, fingerprint mismatches
    and explained placement flips."""
    label_a, label_b = report.label_a, report.label_b
    headline: list[Any] = [
        Badge("verdict", report.headline(), report.ok, report.reason)
    ]
    headline.extend(f"note: {note}" for note in report.notes)
    cp, pl = report.checkpoints, report.placements
    if cp:
        status = "match" if not cp.get("mismatched") else (
            f"{cp['mismatched']} MISMATCHED"
        )
        headline.append(
            f"fingerprints: {cp.get('common', 0)} common ticks ({status}); "
            f"final placement fingerprints "
            f"{'match' if cp.get('final_match') else 'DIFFER'}"
        )
    if pl:
        headline.append(
            f"placements: {pl.get('common', 0)} common containers, "
            f"{pl.get('flipped', 0)} flipped, "
            f"{pl.get('only_a', 0)} only-{label_a}, "
            f"{pl.get('only_b', 0)} only-{label_b}"
        )

    sides = [(label_a, report.sides.get("a", {})), (label_b, report.sides.get("b", {}))]
    sections: list[Any] = [Table(
        "Runs",
        ["side", "path", "events", "structural", "checkpoints", "placements"],
        [
            [label, side.get("path", "-"), side.get("events", 0),
             side.get("structural_events", "-"), side.get("checkpoints", "-"),
             side.get("placements", "-")]
            for label, side in sides if side.get("events") is not None
        ],
    )]
    div = report.divergence
    if div is not None:
        rows = [["=", _fmt_event(ctx)] for ctx in div.context]
        rows.append([f"{label_a} >", _fmt_event(div.a)])
        rows.append([f"{label_b} >", _fmt_event(div.b)])
        rows.extend([f"{label_a} +", _fmt_event(e)] for e in div.after_a)
        rows.extend([f"{label_b} +", _fmt_event(e)] for e in div.after_b)
        sections.append(Table(
            f"First divergent structural event (#{div.index})",
            ["", "event"], rows, note=div.reason,
        ))
    sections.append(Table(
        "Fingerprint mismatches",
        ["t", label_a, label_b],
        [[_fmt_tick(m["time"]), m["hash_a"], m["hash_b"]]
         for m in cp.get("mismatches", ())],
    ))
    hidden = pl.get("flipped", 0) - len(report.flips)
    sections.append(Table(
        "Flipped placements (earliest first)",
        ["container", "app", "t", label_a, label_b, "why"],
        [
            [flip.container_id, flip.app_id or "task",
             "?" if flip.time_a is None else _fmt_tick(float(flip.time_a)),
             flip.node_a, flip.node_b, "\n".join(flip.explanation) or "-"]
            for flip in report.flips
        ],
        note=f"... {hidden} more flips not shown" if hidden > 0 else "",
    ))
    return View(f"repro diff — {label_a} vs {label_b}", headline, sections)
