"""Property-based tests over all LRA schedulers.

For randomly generated clusters and LRA batches, every scheduler must
uphold the scheduling contract: capacity safety, all-or-nothing placement,
unique assignments, and a pristine state after placement (proposals only).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ClusterState,
    ConstraintManager,
    ConstraintUnawareScheduler,
    ContainerRequest,
    IlpScheduler,
    JKubePlusPlusScheduler,
    JKubeScheduler,
    LRARequest,
    NodeCandidatesScheduler,
    Resource,
    SerialScheduler,
    TagPopularityScheduler,
    anti_affinity,
    build_cluster,
    cardinality,
)
from tests.helpers import make_lra, recount_free

SCHEDULER_FACTORIES = [
    lambda: IlpScheduler(time_limit_s=10.0, mip_rel_gap=0.05),
    SerialScheduler,
    TagPopularityScheduler,
    NodeCandidatesScheduler,
    JKubeScheduler,
    JKubePlusPlusScheduler,
    lambda: ConstraintUnawareScheduler(seed=0),
]


@st.composite
def cluster_and_batch(draw):
    num_nodes = draw(st.integers(2, 5))
    num_apps = draw(st.integers(1, 3))
    apps = []
    for a in range(num_apps):
        n_containers = draw(st.integers(1, 4))
        mem = draw(st.sampled_from([512, 1024, 2048]))
        tag = draw(st.sampled_from(["w", "v"]))
        constraints = []
        if draw(st.booleans()):
            constraints.append(
                draw(st.sampled_from([
                    anti_affinity(tag, tag, "node"),
                    cardinality(tag, tag, 0, 1, "node"),
                    cardinality(tag, tag, 0, 2, "rack"),
                ]))
            )
        apps.append(
            LRARequest(
                f"p-{a}",
                [
                    ContainerRequest(f"p-{a}/c{i}", Resource(mem, 1), frozenset({tag}))
                    for i in range(n_containers)
                ],
                constraints,
            )
        )
    return num_nodes, apps


@pytest.mark.parametrize("factory", SCHEDULER_FACTORIES)
@settings(max_examples=12, deadline=None)
@given(data=cluster_and_batch())
def test_scheduler_contract(factory, data):
    num_nodes, apps = data
    topo = build_cluster(num_nodes, racks=2, memory_mb=4 * 1024, vcores=4)
    state = ClusterState(topo)
    manager = ConstraintManager(topo)
    for app in apps:
        manager.register_application(app)
    scheduler = factory()
    result = scheduler.place(apps, state, manager)

    # 1. Proposal only: state untouched.
    assert len(state.containers) == 0
    assert all(state.free_resources(n.node_id) == n.capacity for n in topo)

    # 2. Unique container assignments on existing nodes.
    ids = [p.container_id for p in result.placements]
    assert len(ids) == len(set(ids))
    node_ids = set(topo.node_ids())
    assert all(p.node_id in node_ids for p in result.placements)

    # 3. All-or-nothing per app, and placed/rejected partition the batch.
    placed_apps = result.placed_apps()
    by_app = {app.app_id: 0 for app in apps}
    for p in result.placements:
        by_app[p.app_id] += 1
    for app in apps:
        if app.app_id in placed_apps:
            assert by_app[app.app_id] == len(app.containers)
            assert app.app_id not in result.rejected_apps
        else:
            assert by_app[app.app_id] == 0
            assert app.app_id in result.rejected_apps

    # 4. Capacity safety: the proposal can actually be applied.
    for p in result.placements:
        state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    for free in recount_free(state).values():
        assert free.memory_mb >= 0 and free.vcores >= 0


def batch_relevant(constraints, tags):
    """``BatchConstraints.relevant`` with ``constraints`` registered."""
    manager = ConstraintManager(build_cluster(2))
    manager.register_application(make_lra(constraints=constraints))
    return manager.batch([]).relevant(tags)


class TestRelevantConstraints:
    def test_subject_match_kept(self):
        c = anti_affinity("w", "x", "node")
        assert batch_relevant([c], frozenset({"w"})) == [c]

    def test_target_match_kept(self):
        c = anti_affinity("w", "x", "node")
        assert batch_relevant([c], frozenset({"x"})) == [c]

    def test_unrelated_dropped(self):
        c = anti_affinity("w", "x", "node")
        assert batch_relevant([c], frozenset({"z"})) == []

    def test_conjunction_target_requires_all_tags(self):
        c = anti_affinity("w", ["x", "y"], "node")
        assert batch_relevant([c], frozenset({"x"})) == []
        assert batch_relevant([c], frozenset({"x", "y"})) == [c]
