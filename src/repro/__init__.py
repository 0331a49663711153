"""Medea: scheduling of long-running applications in shared production clusters.

A full Python reproduction of the EuroSys 2018 paper.  The public API
re-exports the pieces a downstream user needs to build and place LRAs::

    from repro import (
        build_cluster, ClusterState, Resource,
        LRARequest, ContainerRequest,
        affinity, anti_affinity, cardinality,
        IlpScheduler, MedeaScheduler, CapacityScheduler,
    )

See README.md for a quickstart and DESIGN.md for the system inventory.
The ILP names are lazy exports (see :mod:`repro.core`): SciPy loads on
their first use, not on ``import repro``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import core
from .cluster import (
    Allocation,
    ClusterState,
    ClusterTopology,
    Node,
    NodeGroup,
    Resource,
    build_cluster,
)
from .core import (
    NODE_SCOPE,
    RACK_SCOPE,
    UNBOUNDED,
    CompoundConstraint,
    ConstraintManager,
    ConstraintUnawareScheduler,
    ContainerPlacement,
    ContainerRequest,
    JKubePlusPlusScheduler,
    JKubeScheduler,
    LRARequest,
    LRAScheduler,
    MedeaScheduler,
    Migration,
    MigrationPlan,
    MigrationPlanner,
    NodeCandidatesScheduler,
    PlacementConstraint,
    PlacementResult,
    SerialScheduler,
    TagConstraint,
    TagExpression,
    TagPopularityScheduler,
    TaskRequest,
    affinity,
    anti_affinity,
    cardinality,
    format_constraint,
    next_app_id,
    parse_constraint,
)
from .obs import (
    DecisionAudit,
    JsonlSink,
    MemorySink,
    Metrics,
    SolverStats,
    TraceEvent,
    Tracer,
)
from .obs.stats import BoxStats
from .obs.violations import evaluate_violations
from .taskscheduler import CapacityScheduler, FairScheduler, FifoScheduler
from .version import get_version

if TYPE_CHECKING:
    from .core import GroundedViolation, IlpFormulation, IlpScheduler, IlpWeights

__version__ = get_version()

__all__ = [
    "__version__",
    # cluster
    "Allocation",
    "ClusterState",
    "ClusterTopology",
    "Node",
    "NodeGroup",
    "Resource",
    "build_cluster",
    # constraints
    "NODE_SCOPE",
    "RACK_SCOPE",
    "UNBOUNDED",
    "CompoundConstraint",
    "PlacementConstraint",
    "TagConstraint",
    "TagExpression",
    "affinity",
    "anti_affinity",
    "cardinality",
    "format_constraint",
    "parse_constraint",
    # requests
    "ContainerRequest",
    "LRARequest",
    "TaskRequest",
    "next_app_id",
    # schedulers
    "ConstraintManager",
    "ConstraintUnawareScheduler",
    "ContainerPlacement",
    "GroundedViolation",
    "IlpFormulation",
    "IlpScheduler",
    "IlpWeights",
    "JKubePlusPlusScheduler",
    "JKubeScheduler",
    "LRAScheduler",
    "MedeaScheduler",
    "Migration",
    "MigrationPlan",
    "MigrationPlanner",
    "NodeCandidatesScheduler",
    "PlacementResult",
    "SerialScheduler",
    "TagPopularityScheduler",
    "CapacityScheduler",
    "FairScheduler",
    "FifoScheduler",
    # metrics
    "BoxStats",
    "evaluate_violations",
    # observability
    "DecisionAudit",
    "JsonlSink",
    "MemorySink",
    "Metrics",
    "SolverStats",
    "TraceEvent",
    "Tracer",
]


def __getattr__(name: str):
    if name not in core.LAZY_ILP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(core, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(core.LAZY_ILP_NAMES))
