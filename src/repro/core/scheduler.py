"""LRA scheduler interface and shared result types.

Every LRA placement algorithm in this repo — Medea-ILP, the Medea-NC /
Medea-TP / Serial heuristics, J-Kube and J-Kube++ — implements
:class:`LRAScheduler`.  A scheduler *proposes* placements; it never performs
the actual allocation (that is the task-based scheduler's job, step 2→3 in
Fig. 4).  To let greedy algorithms see their own in-flight decisions, the
:class:`ScratchPlacements` helper tentatively applies placements to the live
cluster state and rolls every one of them back on exit.
"""

from __future__ import annotations

import abc
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..cluster.resources import Resource
from ..cluster.state import ClusterState
from ..obs.audit import DecisionAudit
from ..obs.events import EventKind
from ..obs.metrics import Metrics, SolverStats, get_metrics
from ..obs.spans import span
from ..obs.trace import get_tracer, request_context
from .constraint_manager import ConstraintManager
from .requests import ContainerRequest, LRARequest

__all__ = [
    "ContainerPlacement",
    "PlacementResult",
    "PlacementResponse",
    "PlacementService",
    "LRAScheduler",
    "ScratchPlacements",
    "feasible_nodes",
]


def feasible_nodes(state: ClusterState, demand: Resource) -> list[str]:
    """Ids of available nodes that can fit ``demand``, in topology order.

    One vectorised compare over the state's free-capacity arrays instead
    of a full topology scan, but returning exactly the list the scan
    ``[n.node_id for n in state.topology if state.can_fit(n.node_id, demand)]``
    would — order included — so selection tie-breaks are unchanged.
    """
    return state.candidate_index().fit_node_ids(demand)


@dataclass(frozen=True)
class ContainerPlacement:
    """A proposed (container → node) decision."""

    app_id: str
    container_id: str
    node_id: str
    resource: Resource
    tags: frozenset[str]


@dataclass
class PlacementResult:
    """Outcome of one scheduler invocation over a batch of LRAs."""

    placements: list[ContainerPlacement] = field(default_factory=list)
    #: Applications that could not be fully placed this round (all-or-nothing
    #: semantics: none of their containers appear in ``placements``).
    rejected_apps: list[str] = field(default_factory=list)
    solve_time_s: float = 0.0
    #: Scheduler-reported objective value, if the algorithm computes one.
    objective: float | None = None
    #: MILP effort breakdown when an ILP backend produced this result
    #: (``None`` for the heuristic schedulers).
    solver_stats: SolverStats | None = None
    #: Decision audit (candidates considered, constraints that pruned them,
    #: objective terms) when the scheduler ran with auditing enabled.
    audit: DecisionAudit | None = None

    def placed_apps(self) -> set[str]:
        return {p.app_id for p in self.placements}

    def __len__(self) -> int:
        return len(self.placements)


class LRAScheduler(abc.ABC):
    """Base class for LRA placement algorithms."""

    #: Human-readable algorithm name used in benchmark tables.
    name: str = "abstract"

    #: When True, :meth:`place` implementations that support auditing attach
    #: a :class:`~repro.obs.DecisionAudit` to their result.
    audit_enabled: bool = False

    @abc.abstractmethod
    def place(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        *,
        now: float = 0.0,
    ) -> PlacementResult:
        """Compute placements for a batch of newly submitted LRAs.

        ``now`` is the logical submission clock of the invoking cycle,
        keyword-only by the unified clock-argument convention; pure batch
        algorithms may ignore it (it stamps trace events).

        Implementations must not leave any tentative allocation behind in
        ``state``; the returned placements are applied later by the
        task-based scheduler.
        """

    def timed_place(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        *,
        now: float = 0.0,
        metrics: Metrics | None = None,
    ) -> PlacementResult:
        """:meth:`place` wrapped with wall-clock measurement.

        The measurement is also recorded into the ambient (or given)
        :class:`~repro.obs.Metrics` registry under the
        ``scheduler_place_seconds`` timer, labelled with the algorithm name
        — the uniform channel Fig. 11a-style latency studies read — and a
        ``scheduler.place`` trace event is emitted when tracing is on.
        """
        start = time.perf_counter()
        with span(f"place:{self.name}", time=now):
            result = self.place(requests, state, manager, now=now)
        result.solve_time_s = time.perf_counter() - start
        registry = metrics if metrics is not None else get_metrics()
        registry.timer("scheduler_place_seconds").observe(
            result.solve_time_s, scheduler=self.name
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.SCHEDULER_PLACE,
                time=now,
                data={
                    "scheduler": self.name,
                    "batch": len(requests),
                    "placements": len(result.placements),
                    "rejected": sorted(result.rejected_apps),
                },
                wall={"solve_time_s": result.solve_time_s},
            )
            if result.audit is not None:
                # The full decision audit rides the trace so post-hoc
                # forensics (repro diff's causal placement axis) can
                # explain why a placement flipped between two runs.  The
                # payload is deterministic: candidates, prune reasons,
                # and score terms all derive from simulated state.
                tracer.emit(
                    EventKind.SCHEDULER_AUDIT,
                    time=now,
                    data=result.audit.to_dict(),
                )
        return result


#: Reason strings :class:`PlacementService` reports for refused requests.
REJECT_OVERLOAD = "overload"
REJECT_UNPLACEABLE = "unplaceable"

#: The one metric the placement-request path records: a per-outcome
#: latency histogram, whose counts are also the request counts (the
#: latency-under-load plane's gated series come from it).
PLACE_REQUEST_HISTOGRAM = "place_request_seconds"


@dataclass
class PlacementResponse:
    """Outcome of one placement request through :class:`PlacementService`."""

    request_id: str
    app_id: str
    placed: bool
    #: ``container_id -> node_id`` for a placed request (empty otherwise).
    nodes: dict[str, str] = field(default_factory=dict)
    #: Why the request was refused (``None`` when placed):
    #: :data:`REJECT_OVERLOAD` at admission, :data:`REJECT_UNPLACEABLE`
    #: when the scheduler could not fit it.
    reason: str | None = None
    #: End-to-end wall latency (admission -> response), seconds.
    latency_s: float = 0.0
    #: Phase breakdown: ``queue_s`` (waiting for the placement lock) and
    #: ``place_s`` (inside the scheduler).
    queue_s: float = 0.0
    place_s: float = 0.0


class PlacementService:
    """The placement-request hot path: admission → queue → placement.

    One request = one LRA submission placed synchronously by an
    :class:`LRAScheduler` over a shared :class:`ClusterState`.  Placement
    is serialized by a lock (the paper's hot path is a single heuristic
    pass; queue time under contention is part of the latency being
    measured), admission refuses work beyond ``max_pending`` waiters, and
    every request runs inside a :func:`~repro.obs.trace.request_context`
    so its ``request.*`` lifecycle events and nested spans (placement →
    solver) all carry the request id.

    Latency telemetry goes to the ``place_request_seconds``
    :class:`~repro.obs.metrics.Histogram` (per-outcome label; its count
    per outcome is the request count); ``/metrics`` exposes it as
    Prometheus cumulative buckets.

    ``retain=False`` (default) measures placement latency over a static
    cluster: proposals are not applied, so offered load can run
    indefinitely without filling the cluster.  ``retain=True`` commits
    each placement (fill-up experiments).
    """

    def __init__(
        self,
        state: ClusterState,
        scheduler: LRAScheduler,
        manager: ConstraintManager | None = None,
        *,
        max_pending: int = 128,
        retain: bool = False,
        metrics: Metrics | None = None,
    ) -> None:
        self.state = state
        self.scheduler = scheduler
        self.manager = (
            manager if manager is not None else ConstraintManager(state.topology)
        )
        self.max_pending = max_pending
        self.retain = retain
        self.metrics = metrics
        self._place_lock = threading.Lock()
        self._meta_lock = threading.Lock()
        self._pending = 0
        self._ids = itertools.count(1)
        self._start = time.perf_counter()

    def _finish(
        self,
        response: PlacementResponse,
        *,
        now: float,
        t_admitted: float,
    ) -> PlacementResponse:
        response.latency_s = time.perf_counter() - t_admitted
        registry = self.metrics if self.metrics is not None else get_metrics()
        outcome = "placed" if response.placed else (response.reason or "rejected")
        registry.histogram(PLACE_REQUEST_HISTOGRAM).observe(
            response.latency_s, outcome=outcome
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.REQUEST_DONE,
                time=now,
                data={
                    "app_id": response.app_id,
                    "placed": response.placed,
                    "reason": response.reason,
                },
                wall={
                    "latency_s": response.latency_s,
                    "queue_s": response.queue_s,
                    "place_s": response.place_s,
                },
            )
        return response

    def handle(
        self, request: LRARequest, *, now: float | None = None
    ) -> PlacementResponse:
        """Admit, queue, and place one request; never raises for
        placement-level failures (the response carries the outcome).

        ``now`` is the request's logical arrival clock (the load
        generator passes its deterministic scheduled arrival time);
        defaults to wall seconds since service start.
        """
        t_admitted = time.perf_counter()
        if now is None:
            now = t_admitted - self._start
        with self._meta_lock:
            request_id = f"req-{next(self._ids):08d}"
            admitted = self._pending < self.max_pending
            if admitted:
                self._pending += 1
        tracer = get_tracer()
        with request_context(request_id):
            if not admitted:
                if tracer.enabled:
                    tracer.emit(
                        EventKind.REQUEST_REJECT,
                        time=now,
                        data={
                            "app_id": request.app_id,
                            "reason": REJECT_OVERLOAD,
                            "pending": self.max_pending,
                        },
                    )
                return self._finish(
                    PlacementResponse(
                        request_id=request_id,
                        app_id=request.app_id,
                        placed=False,
                        reason=REJECT_OVERLOAD,
                    ),
                    now=now,
                    t_admitted=t_admitted,
                )
            try:
                if tracer.enabled:
                    tracer.emit(
                        EventKind.REQUEST_SUBMIT,
                        time=now,
                        data={
                            "app_id": request.app_id,
                            "containers": len(request.containers),
                        },
                    )
                t_queue = time.perf_counter()
                with self._place_lock:
                    queue_s = time.perf_counter() - t_queue
                    t_place = time.perf_counter()
                    placed = False
                    with span("request", time=now):
                        self.manager.register_application(request)
                        try:
                            result = self.scheduler.timed_place(
                                [request],
                                self.state,
                                self.manager,
                                now=now,
                                metrics=self.metrics,
                            )
                            placed = request.app_id in result.placed_apps()
                            if placed and self.retain:
                                for p in result.placements:
                                    self.state.allocate(
                                        p.container_id,
                                        p.node_id,
                                        p.resource,
                                        p.tags,
                                        p.app_id,
                                        long_running=True,
                                    )
                        finally:
                            # Retained+placed apps keep their constraints
                            # registered (they now occupy the cluster);
                            # everything else leaves no residue.
                            if not (placed and self.retain):
                                self.manager.unregister_application(
                                    request.app_id
                                )
                    place_s = time.perf_counter() - t_place
            finally:
                with self._meta_lock:
                    self._pending -= 1
            nodes = {
                p.container_id: p.node_id
                for p in result.placements
                if p.app_id == request.app_id
            }
            return self._finish(
                PlacementResponse(
                    request_id=request_id,
                    app_id=request.app_id,
                    placed=placed,
                    nodes=nodes,
                    reason=None if placed else REJECT_UNPLACEABLE,
                    queue_s=queue_s,
                    place_s=place_s,
                ),
                now=now,
                t_admitted=t_admitted,
            )


class ScratchPlacements:
    """Tentative allocations on the live state, rolled back on exit.

    Greedy schedulers place containers one at a time and need each decision
    to be visible to the next (tag cardinalities, free resources).  Rather
    than duplicating the cluster's incremental tag bookkeeping in an overlay,
    they apply decisions directly to the state under this guard::

        with ScratchPlacements(state) as scratch:
            scratch.place(request_container, node_id, app_id)
            ...
        # state is pristine again here

    ``commit=False`` is unconditional: even on success the allocations are
    rolled back, and the caller re-derives the proposal list from
    :attr:`placements`.
    """

    def __init__(self, state: ClusterState) -> None:
        self._state = state
        self.placements: list[ContainerPlacement] = []

    def __enter__(self) -> "ScratchPlacements":
        return self

    def place(self, container: ContainerRequest, node_id: str, app_id: str) -> None:
        self._state.allocate(
            container.container_id,
            node_id,
            container.resource,
            container.tags,
            app_id,
            long_running=True,
        )
        self.placements.append(
            ContainerPlacement(
                app_id=app_id,
                container_id=container.container_id,
                node_id=node_id,
                resource=container.resource,
                tags=container.tags,
            )
        )

    def unplace_app(self, app_id: str) -> None:
        """Roll back every tentative placement of one application (used when
        all-or-nothing placement fails midway)."""
        keep = []
        for placement in self.placements:
            if placement.app_id == app_id:
                self._state.release(placement.container_id)
            else:
                keep.append(placement)
        self.placements = keep

    def __exit__(self, exc_type, exc, tb) -> None:
        for placement in self.placements:
            self._state.release(placement.container_id)
