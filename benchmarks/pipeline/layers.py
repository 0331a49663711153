"""The layer boundaries the traced repeat wraps, and the metrics read off them.

``TARGETS`` is the complete list of callables of the program under test
that the benchmark replaces with timing wrappers (``span name ->
"module:Attr.path"``).  ``SPAN_METRICS`` says how each span-derived
per-layer metric is summed from the per-name totals: ``calls`` counts
calls, ``self_s`` adds self time (exclusive of nested wrapped calls, so the
numbers of different layers never count the same interval twice), and
``total_s`` adds inclusive time.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["TARGETS", "SPAN_METRICS", "derive"]

_INDEX = "repro.cluster.index:CandidateIndex."
_STATE = "repro.cluster.state:ClusterState."
_MANAGER = "repro.core.constraint_manager:ConstraintManager."
_TASKS = "repro.taskscheduler.base:TaskBasedScheduler."

TARGETS: dict[str, str] = {
    "cluster.index.fit_node_indices": _INDEX + "fit_node_indices",
    "cluster.index.fit_node_ids": _INDEX + "fit_node_ids",
    "cluster.index.nodes_with_tag": _INDEX + "nodes_with_tag",
    "cluster.index.nodes_with_any_tag": _INDEX + "nodes_with_any_tag",
    "cluster.index.signatures": _INDEX + "signatures",
    "cluster.state.check_placement": _STATE + "check_placement",
    "cluster.state.placement_delta_violations": _STATE + "placement_delta_violations",
    "cluster.state.gamma": _STATE + "gamma",
    "cluster.state.allocate": _STATE + "allocate",
    "cluster.state.release": _STATE + "release",
    "cluster.state.release_application": _STATE + "release_application",
    "core.constraint_manager.constraints_applying_to": _MANAGER + "constraints_applying_to",
    "core.constraint_manager.active_constraints": _MANAGER + "active_constraints",
    "core.constraint_manager.constraints_of": _MANAGER + "constraints_of",
    "core.constraint_manager.register_application": _MANAGER + "register_application",
    "core.constraint_manager.unregister_application": _MANAGER + "unregister_application",
    "core.heuristics.place": "repro.core.heuristics:GreedyScheduler.place",
    "core.heuristics.pick_node": "repro.core.heuristics:GreedyScheduler.pick_node",
    "core.ilp.build": "repro.core.ilp:IlpFormulation.build",
    "core.ilp.extract": "repro.core.ilp:IlpFormulation.extract",
    "core.ilp_scheduler.place": "repro.core.ilp_scheduler:IlpScheduler.place",
    # The name ``IlpScheduler.place`` calls the solver through.
    "solver.solve": "repro.core.ilp_scheduler:solve",
    "core.scheduler.handle": "repro.core.scheduler:PlacementService.handle",
    "core.medea.run_cycle": "repro.core.medea:MedeaScheduler.run_cycle",
    "core.medea.heartbeat_all": "repro.core.medea:MedeaScheduler.heartbeat_all",
    "taskscheduler.handle_heartbeat": _TASKS + "handle_heartbeat",
    "taskscheduler.submit": _TASKS + "submit",
    "taskscheduler.release_task": _TASKS + "release_task",
    "sim.engine.run": "repro.sim.engine:SimulationEngine.run",
    "sim.engine.schedule_at": "repro.sim.engine:SimulationEngine.schedule_at",
    "obs.metrics.counter_inc": "repro.obs.metrics:Counter.inc",
    "obs.metrics.timer_observe": "repro.obs.metrics:Timer.observe",
    "obs.metrics.histogram_observe": "repro.obs.metrics:Histogram.observe",
}


def _group(prefix: str) -> tuple[str, ...]:
    return tuple(name for name in TARGETS if name.startswith(prefix))


_INDEX_QUERY = _group("cluster.index.")
_STATE_READ = (
    "cluster.state.check_placement",
    "cluster.state.placement_delta_violations",
    "cluster.state.gamma",
)
_STATE_WRITE = (
    "cluster.state.allocate",
    "cluster.state.release",
    "cluster.state.release_application",
)
_LOOKUP = (
    "core.constraint_manager.constraints_applying_to",
    "core.constraint_manager.active_constraints",
    "core.constraint_manager.constraints_of",
)
_REGISTER = (
    "core.constraint_manager.register_application",
    "core.constraint_manager.unregister_application",
)
_RECORD = _group("obs.metrics.")

#: per-layer metric -> (field of the span totals, span names summed).
#: ``bench.generator`` and ``obs.violations.evaluate`` are spans the
#: benchmark opens around its own calls (see ``workloads.py``).
SPAN_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cluster.index.query_calls": ("calls", _INDEX_QUERY),
    "cluster.index.query_s": ("self_s", _INDEX_QUERY),
    "cluster.state.read_calls": ("calls", _STATE_READ),
    "cluster.state.read_s": ("self_s", _STATE_READ),
    "cluster.state.write_calls": ("calls", _STATE_WRITE),
    "cluster.state.write_s": ("self_s", _STATE_WRITE),
    "core.constraint_manager.lookup_calls": ("calls", _LOOKUP),
    "core.constraint_manager.lookup_s": ("self_s", _LOOKUP),
    "core.constraint_manager.register_calls": ("calls", _REGISTER),
    "core.constraint_manager.register_s": ("self_s", _REGISTER),
    "core.heuristics.place_self_s": (
        "self_s", ("core.heuristics.place", "core.heuristics.pick_node"),
    ),
    "core.heuristics.pick_node_calls": ("calls", ("core.heuristics.pick_node",)),
    "core.ilp.build_s": ("self_s", ("core.ilp.build",)),
    "core.ilp.extract_s": ("self_s", ("core.ilp.extract",)),
    "core.ilp_scheduler.self_s": ("self_s", ("core.ilp_scheduler.place",)),
    "solver.solve_calls": ("calls", ("solver.solve",)),
    "solver.solve_s": ("self_s", ("solver.solve",)),
    "core.medea.run_cycle_calls": ("calls", ("core.medea.run_cycle",)),
    "core.medea.run_cycle_s": ("total_s", ("core.medea.run_cycle",)),
    "core.medea.heartbeat_all_self_s": ("self_s", ("core.medea.heartbeat_all",)),
    "taskscheduler.heartbeat_calls": ("calls", ("taskscheduler.handle_heartbeat",)),
    "taskscheduler.heartbeat_s": ("self_s", ("taskscheduler.handle_heartbeat",)),
    "taskscheduler.submit_s": ("self_s", ("taskscheduler.submit",)),
    "taskscheduler.release_s": ("self_s", ("taskscheduler.release_task",)),
    "sim.engine.events": ("calls", ("sim.engine.schedule_at",)),
    "sim.engine.dispatch_self_s": (
        "self_s", ("sim.engine.run", "sim.engine.schedule_at"),
    ),
    "obs.metrics.record_calls": ("calls", _RECORD),
    "obs.metrics.record_s": ("self_s", _RECORD),
    "obs.violations.evaluate_s": ("self_s", ("obs.violations.evaluate",)),
}


def derive(totals: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Span-derived per-layer metrics from :meth:`SpanRecorder.totals`.

    A span that never ran — not on this workload's path, or its target is
    gone — contributes 0.
    """
    out: dict[str, float] = {}
    for metric, (field, names) in SPAN_METRICS.items():
        out[metric] = sum(totals[n][field] for n in names if n in totals)
    return out
