"""Medea's core contribution: constraints, constraint manager, schedulers.

The ILP names (:data:`LAZY_ILP_NAMES`) are lazy exports: ``repro.core.ilp``
imports :mod:`repro.solver` and so SciPy, which the heuristic, task,
simulator and serving paths never use, so they load on first access.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from .capabilities import TABLE_1, SchedulerCapabilities, Support, render_table1
from .constraint_manager import ConstraintManager, ConstraintValidationError
from .dsl import ConstraintSyntaxError, format_constraint, parse_constraint
from .constraints import (
    NODE_SCOPE,
    RACK_SCOPE,
    UNBOUNDED,
    CompoundConstraint,
    PlacementConstraint,
    TagConstraint,
    TagExpression,
    affinity,
    anti_affinity,
    cardinality,
)
from .heuristics import (
    ConstraintUnawareScheduler,
    NodeCandidatesScheduler,
    SerialScheduler,
    TagPopularityScheduler,
)
from .jkube import JKubePlusPlusScheduler, JKubeScheduler
from .medea import LraOutcome, MedeaScheduler
from .migration import Migration, MigrationPlan, MigrationPlanner
from .requests import ContainerRequest, LRARequest, TaskRequest, next_app_id
from .scheduler import ContainerPlacement, LRAScheduler, PlacementResult
from ..tags import app_id_tag

if TYPE_CHECKING:
    from .ilp import GroundedViolation, IlpFormulation, IlpWeights
    from .ilp_scheduler import IlpScheduler

#: Lazy export name -> the submodule that defines it.
LAZY_ILP_NAMES = {
    "GroundedViolation": ".ilp",
    "IlpFormulation": ".ilp",
    "IlpWeights": ".ilp",
    "IlpScheduler": ".ilp_scheduler",
}

__all__ = [
    "NODE_SCOPE",
    "RACK_SCOPE",
    "UNBOUNDED",
    "TABLE_1",
    "SchedulerCapabilities",
    "Support",
    "render_table1",
    "ConstraintManager",
    "ConstraintSyntaxError",
    "format_constraint",
    "parse_constraint",
    "ConstraintValidationError",
    "CompoundConstraint",
    "PlacementConstraint",
    "TagConstraint",
    "TagExpression",
    "affinity",
    "anti_affinity",
    "cardinality",
    "ConstraintUnawareScheduler",
    "NodeCandidatesScheduler",
    "SerialScheduler",
    "TagPopularityScheduler",
    "GroundedViolation",
    "IlpFormulation",
    "IlpWeights",
    "IlpScheduler",
    "JKubePlusPlusScheduler",
    "JKubeScheduler",
    "LraOutcome",
    "MedeaScheduler",
    "Migration",
    "MigrationPlan",
    "MigrationPlanner",
    "ContainerRequest",
    "LRARequest",
    "TaskRequest",
    "next_app_id",
    "ContainerPlacement",
    "LRAScheduler",
    "PlacementResult",
    "app_id_tag",
]


def __getattr__(name: str):
    module = LAZY_ILP_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(LAZY_ILP_NAMES))
