"""The Fig. 5 MILP pinned across commits, field for field.

``tests/test_pipeline_fingerprints.py`` pins what the ILP *decides*; this
test pins the model it decides on.  ``tests/fixtures/ilp_models.json`` holds,
per model, a SHA-256 over canonical JSON of

* the variables in column order: name, lower, upper, integrality;
* the rows in order: name, lower, upper, and the row's (column, value)
  pairs sorted by column;
* the objective's (column, value) pairs sorted by column;

with every float written with ``repr``, plus ``num_variables`` and
``num_constraints`` in clear so a mismatch says which half moved.  A
rewrite of ``IlpFormulation.build`` or ``MilpModel`` that is meant to be
behaviour-preserving must leave every digest unchanged.

Scenarios: the first :data:`PINNED_BATCHES` full-size ``lra_ilp`` benchmark
batches of two seeds (500 nodes, candidate pool, models captured exactly as
the benchmark builds them, batches committed one after another, every batch
solved by HiGHS so that the committed placements — and with them the next
batch's model — do not depend on the scheduler's default solver), and small
unpooled formulations that between them reach every grounding path the
benchmark does not: a DNF compound constraint, the ``w4_machines``
objective, a tag-conjunction target, anti-affinity (``cmax = 0``),
deployed-app ``dep[...]`` rows, and a node group registered after
placements.

Run as a module, this file writes the fixture; that is only ever done from
a checkout of the commit the pinned behaviour comes from (the command is
recorded in CHANGES.md)::

    PYTHONPATH=src:. python -m tests.test_ilp_model_pinned OUT.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from benchmarks.pipeline.workloads import BATCH, Window, make_workload
from repro import (
    ClusterState,
    CompoundConstraint,
    ConstraintManager,
    ContainerRequest,
    IlpWeights,
    LRARequest,
    PlacementConstraint,
    Resource,
    TagConstraint,
    TagExpression,
    UNBOUNDED,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
)
from repro.core.ilp import IlpFormulation
from tests.helpers import make_lra

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ilp_models.json")
PINNED_BATCHES = 8
SEEDS = (0, 1)


def _row_names(model) -> list[str]:
    if hasattr(model, "constraint_name"):
        return [model.constraint_name(r) for r in range(model.num_constraints)]
    # Models that keep one object per row (the layout the fixture may have
    # been written from) expose the names only there.
    return [row.name for row in model._constraints]


def model_digest(model) -> dict:
    """SHA-256 of the canonical JSON form of ``model`` (see module doc)."""
    n, m = model.num_variables, model.num_constraints
    lower, upper = model.variable_bounds()
    integer = model.integrality()
    variables = [
        [model.variable_name(i), repr(float(lower[i])), repr(float(upper[i])),
         bool(integer[i])]
        for i in range(n)
    ]
    matrix, lb, ub = model.constraint_matrix()
    rows = []
    for r, name in enumerate(_row_names(model)):
        lo, hi = matrix.indptr[r], matrix.indptr[r + 1]
        pairs = sorted(zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()))
        rows.append([name, repr(float(lb[r])), repr(float(ub[r])),
                     [[col, repr(value)] for col, value in pairs]])
    c = model.objective_vector()
    objective = [[int(i), repr(float(c[i]))] for i in np.flatnonzero(c)]
    blob = json.dumps(
        {"variables": variables, "rows": rows, "objective": objective},
        separators=(",", ":"),
    )
    return {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "num_variables": n,
        "num_constraints": m,
    }


# -- scenarios ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def lra_ilp_batches(seed: int) -> tuple:
    """The benchmark's first batches as ``(model, objective)`` pairs, each
    model as built and its objective as committed.  HiGHS solves every
    batch, so the sequence pins ``IlpFormulation.build``, not the solver
    choice."""
    workload = make_workload("lra_ilp", seed)
    state, manager, apps, scheduler = workload._setup(Window(), workload.make_scheduler)
    scheduler.backend = "highs"
    out = []
    for start in range(0, PINNED_BATCHES * BATCH, BATCH):
        result, _, _ = workload._place_batch(
            state, manager, scheduler, apps[start:start + BATCH], float(start)
        )
        out.append((scheduler.last_formulation.model, result.objective))
    return tuple(out)


def lra_ilp_models(seed: int) -> list[dict]:
    """The benchmark's first batches, each model digested as built."""
    return [model_digest(model) for model, _ in lra_ilp_batches(seed)]


def _cluster(nodes=8, racks=2, memory_mb=8 * 1024):
    topo = build_cluster(nodes, racks=racks, memory_mb=memory_mb, vcores=8)
    return topo, ClusterState(topo), ConstraintManager(topo)


def _build(requests, state, manager, **kw) -> dict:
    for request in requests:
        manager.register_application(request)
    formulation = IlpFormulation(requests, state, manager, **kw)
    return model_digest(formulation.build())


def _single(app_id, tags, memory_mb=1024, **kw) -> LRARequest:
    return LRARequest(
        app_id,
        [ContainerRequest(f"{app_id}/c", Resource(memory_mb, 1), frozenset(tags))],
        **kw,
    )


def scenario_dnf() -> dict:
    _, state, manager = _cluster(racks=2, memory_mb=2 * 1024)
    state.allocate("cache/c", "n00000", Resource(1536, 1), ("cache",), "cache")
    state.allocate("cache/d", "n00005", Resource(512, 1), ("cache", "hot"), "cache")
    dnf = CompoundConstraint(
        (
            (affinity("w", "cache", "node"),),
            (affinity("w", "cache", "rack"), anti_affinity("w", "w", "node")),
        ),
        weight=0.5,
    )
    # A deployed app under the same DNF: its rows gain the selection binary.
    deployed = _single("dep", {"w"}, compound_constraints=[dnf])
    manager.register_application(deployed)
    state.allocate("dep/c", "n00004", Resource(1024, 1), ("w", "appID:dep"), "dep")
    comp = LRARequest(
        "comp",
        [ContainerRequest(f"comp/w{i}", Resource(1024, 1), frozenset({"w"}))
         for i in range(2)],
        compound_constraints=[dnf],
    )
    return _build([comp, make_lra("other", containers=2, tags={"w"})], state, manager)


def scenario_machines() -> dict:
    _, state, manager = _cluster(nodes=6)
    state.allocate("bg", "n00001", Resource(6 * 1024, 1), ("task",), "bg")
    state.allocate("full", "n00002", Resource(8 * 1024, 8), ("task",), "bg")
    requests = [make_lra("pack", containers=3), make_lra("wide", containers=2,
                                                        memory_mb=3 * 1024)]
    return _build(requests, state, manager,
                  weights=IlpWeights(w3_fragmentation=0.1, w4_machines=0.5))


def scenario_conjunction() -> dict:
    _, state, manager = _cluster()
    state.allocate("e/c0", "n00000", Resource(1024, 1), ("hb", "mem"), "e")
    state.allocate("e/c1", "n00000", Resource(1024, 1), ("hb",), "e")
    state.allocate("e/c2", "n00003", Resource(1024, 1), ("mem", "noisy"), "e")
    c = PlacementConstraint(
        TagExpression("w"),
        (
            TagConstraint(TagExpression(["hb", "mem"]), 1, UNBOUNDED),
            TagConstraint(TagExpression("noisy"), 0, 0),
            TagConstraint(TagExpression(["w", "x"]), 0, 2),
        ),
        "rack",
    )
    new_hb = LRARequest(
        "hbm",
        [ContainerRequest("hbm/c", Resource(1024, 1), frozenset({"hb", "mem"})),
         ContainerRequest("hbm/d", Resource(2048, 2), frozenset({"hb", "mem", "w", "x"}))],
    )
    app = make_lra("app", containers=3, tags={"w", "x"}, constraints=[c])
    return _build([new_hb, app], state, manager)


def scenario_anti_affinity() -> dict:
    _, state, manager = _cluster()
    state.allocate("e/c0", "n00001", Resource(1024, 1), ("w",), "e")
    state.allocate("e/c1", "n00004", Resource(1024, 1), ("w", "appID:e"), "e")
    requests = [
        make_lra("spread", containers=4, tags={"w"},
                 constraints=[anti_affinity("w", "w", "node"),
                              anti_affinity("w", "w", "rack", hard=True, weight=2.0)]),
        make_lra("cap", containers=2, tags={"w", "q"},
                 constraints=[cardinality("q", "w", 1, 3, "node")]),
    ]
    return _build(requests, state, manager)


def scenario_deployed() -> dict:
    topo, state, manager = _cluster()
    old = make_lra(
        "old", containers=3, tags={"quiet", "w"},
        constraints=[anti_affinity("quiet", "noisy", "node"),
                     affinity("quiet", "w", "rack", min_count=2),
                     cardinality("quiet", "quiet", 0, 1, "rack")],
    )
    manager.register_application(old)
    for i, node in enumerate(("n00000", "n00000", "n00005")):
        state.allocate(f"old/c{i}", node, Resource(1024, 1),
                       ("quiet", "w", "appID:old"), "old")
    new = [make_lra("new", containers=2, tags={"noisy", "w"}),
           make_lra("q", containers=1, tags={"quiet"})]
    return _build(new, state, manager)


def scenario_late_group() -> dict:
    topo, state, manager = _cluster()
    state.allocate("e/c0", "n00000", Resource(1024, 1), ("db",), "e")
    state.allocate("e/c1", "n00006", Resource(1024, 1), ("db", "w"), "e")
    topo.register_group(
        "upgrade",
        [("n00000", "n00001", "n00002"), ("n00002", "n00003", "n00006"),
         ("n00004", "n00005"), ("n00007",)],
    )
    app = make_lra(
        "app", containers=3, tags={"w"},
        constraints=[anti_affinity("w", "db", "upgrade"),
                     cardinality("w", "w", 1, 2, "upgrade")],
    )
    return _build([app], state, manager)


UNPOOLED = {
    "dnf": scenario_dnf,
    "machines": scenario_machines,
    "conjunction": scenario_conjunction,
    "anti_affinity": scenario_anti_affinity,
    "deployed": scenario_deployed,
    "late_group": scenario_late_group,
}


def collect() -> dict:
    return {
        "lra_ilp": {str(seed): lra_ilp_models(seed) for seed in SEEDS},
        "unpooled": {name: build() for name, build in UNPOOLED.items()},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", SEEDS)
def test_lra_ilp_models_pinned(pinned, seed):
    assert lra_ilp_models(seed) == pinned["lra_ilp"][str(seed)]


@pytest.mark.parametrize("name", sorted(UNPOOLED))
def test_unpooled_model_pinned(pinned, name):
    assert UNPOOLED[name]() == pinned["unpooled"][name]


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
