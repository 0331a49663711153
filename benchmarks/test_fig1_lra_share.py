"""Figure 1 — machines used for LRAs across six analytics clusters.

The paper's Fig. 1 is Microsoft telemetry: across six clusters, at least 10%
of machines host LRAs and two clusters are LRA-only.  We reproduce the
*measurement* on six synthetic clusters whose LRA populations are sized to
those observations, exercising the placement path plus a machines-hosting-
LRAs metric.
"""

from __future__ import annotations

from repro import ClusterState, ConstraintManager, build_cluster
from repro.core.heuristics import GreedyScheduler
from repro.reporting import banner, render_table
from repro.workloads import population_for_utilization


class BestFitScheduler(GreedyScheduler):
    """Greedy placement that packs (least free memory first) the way
    operators consolidate LRAs onto a slice of the cluster — so the
    machines-hosting-LRAs share tracks the LRA memory share."""

    name = "best-fit"

    def pick_node(self, container, constraints, state, *, decision=None):
        best_node, best_key = None, None
        for node in state.topology:
            if not state.can_fit(node.node_id, container.resource):
                continue
            delta = state.placement_delta_violations(
                constraints, node.node_id, container.tags
            )
            # Pack the tightest-fitting node.
            key = (delta, state.free_resources(node.node_id).memory_mb)
            if best_key is None or key < best_key:
                best_key, best_node = key, node.node_id
        return best_node

#: Target LRA *memory* share per synthetic cluster; C5 and C6 are the two
#: clusters used exclusively for LRAs.
CLUSTER_PROFILES = {
    "C1": 0.12,
    "C2": 0.25,
    "C3": 0.40,
    "C4": 0.60,
    "C5": 0.93,
    "C6": 0.93,
}


def machines_hosting_lras(state: ClusterState) -> float:
    hosts = {
        placed.node_id
        for placed in state.containers.values()
        if placed.allocation.long_running
    }
    return len(hosts) / len(state.topology)


def run_fig1() -> dict[str, float]:
    shares: dict[str, float] = {}
    scheduler = BestFitScheduler()
    for cluster, target in CLUSTER_PROFILES.items():
        topology = build_cluster(60, racks=6, memory_mb=16 * 1024, vcores=8)
        state = ClusterState(topology)
        manager = ConstraintManager(topology)
        population = population_for_utilization(
            topology, target, max_rs_per_node=8, prefix=cluster
        )
        for request in population:
            manager.register_application(request)
        result = scheduler.place(population, state, manager)
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
        shares[cluster] = machines_hosting_lras(state)
    return shares


def test_fig1_lra_share(benchmark):
    shares = benchmark.pedantic(run_fig1, rounds=1, iterations=1)
    print(banner("Figure 1: machines used for LRAs (%)"))
    print(render_table(
        ["cluster", "machines used for LRAs (%)"],
        [[c, 100 * v] for c, v in shares.items()],
    ))
    # Paper shape: every cluster >= 10%, and the two LRA-only clusters near 100%.
    assert all(v >= 0.10 for v in shares.values())
    assert shares["C5"] >= 0.9 and shares["C6"] >= 0.9
    assert shares["C1"] < shares["C4"] < shares["C5"]
