"""Figure 7 — application performance under four schedulers (§7.2).

TensorFlow and HBase instances plus GridMix background load are placed by
MEDEA (ILP), J-KUBE, J-KUBE++ and YARN; per-instance runtimes come from the
interference/locality performance model applied to the *actual* placements
each scheduler produced.

Shape targets (paper): Medea's median runtime beats J-Kube by ~30% and YARN
by ~2x for the LRA workloads; J-Kube++ sits between Medea and J-Kube with a
much fatter p99 than Medea; GridMix task runtimes are essentially identical
across schedulers (Fig. 7d).
"""

from __future__ import annotations

from repro import (
    ClusterState,
    ConstraintManager,
    ConstraintUnawareScheduler,
    IlpScheduler,
    JKubePlusPlusScheduler,
    JKubeScheduler,
    build_cluster,
)
from repro.apps import hbase_instance, tensorflow_instance
from repro.obs.stats import BoxStats
from repro.perf import extract_features, iterative_runtime, serving_runtime
from repro.reporting import banner, render_table
from repro.workloads import fill_cluster

NUM_TF = 12      # paper: 45 on 400 nodes; we run 12 on 100 nodes
NUM_HBASE = 13   # paper: 50
TF_BASE_MIN = 380.0
HB_INSERT_BASE_S = 290.0
HB_WLA_BASE_S = 180.0
GRIDMIX_BASE_S = 42.0


def schedulers():
    return {
        "MEDEA": IlpScheduler(max_candidate_nodes=60, time_limit_s=5.0, mip_rel_gap=0.02),
        "J-KUBE": JKubeScheduler(),
        "J-KUBE++": JKubePlusPlusScheduler(),
        "YARN": ConstraintUnawareScheduler(seed=7),
    }


def deploy(scheduler):
    topology = build_cluster(100, racks=10, memory_mb=16 * 1024, vcores=8)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    fill_cluster(state, 0.50)
    requests = []
    for i in range(NUM_TF):
        requests.append(tensorflow_instance(f"tf-{i}", max_workers_per_node=4))
    for i in range(NUM_HBASE):
        requests.append(hbase_instance(f"hb-{i}", max_rs_per_node=2))
    for start in range(0, len(requests), 2):
        batch = requests[start:start + 2]
        for request in batch:
            manager.register_application(request)
        result = scheduler.place(batch, state, manager)
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    return state


def measure(state) -> dict[str, list[float]]:
    tf_runtimes, hb_insert, hb_wla = [], [], []
    for i in range(NUM_TF):
        feats = extract_features(state, f"tf-{i}", "tf_w")
        if feats.total_workers:
            tf_runtimes.append(iterative_runtime(TF_BASE_MIN, feats))
    for i in range(NUM_HBASE):
        feats = extract_features(state, f"hb-{i}", "hb_rs")
        if feats.total_workers:
            hb_insert.append(serving_runtime(HB_INSERT_BASE_S, feats))
            hb_wla.append(serving_runtime(HB_WLA_BASE_S, feats))
    # GridMix: short tasks see only their own node's pressure, which is the
    # same background fill in every deployment — runtimes barely move.
    gridmix = []
    for placed in state.containers.values():
        if placed.allocation.long_running:
            continue
        capacity_mb = state.topology.node(placed.node_id).capacity.memory_mb
        free_mb = state.free_resources(placed.node_id).memory_mb
        utilization = 1.0 - free_mb / capacity_mb
        overcommit = 1.0 + 0.1 * max(0.0, utilization - 0.9)
        gridmix.append(GRIDMIX_BASE_S * overcommit)
    return {
        "tf": tf_runtimes, "hb_insert": hb_insert,
        "hb_wla": hb_wla, "gridmix": gridmix,
    }


def run_fig7():
    return {name: measure(deploy(s)) for name, s in schedulers().items()}


def test_fig7_performance(benchmark):
    results = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    stats = {
        name: {k: BoxStats.from_values_or_empty(v) for k, v in series.items()}
        for name, series in results.items()
    }
    for panel, title, unit in (
        ("tf", "Figure 7a: TensorFlow runtime", "min"),
        ("hb_insert", "Figure 7b: HBase insert runtime", "sec"),
        ("hb_wla", "Figure 7c: HBase workload A runtime", "sec"),
        ("gridmix", "Figure 7d: GridMix task runtime", "sec"),
    ):
        print(banner(f"{title} ({unit})"))
        print(render_table(
            ["system", "p5", "p25", "median", "p75", "p99"],
            [
                [name, s[panel].p5, s[panel].p25, s[panel].median,
                 s[panel].p75, s[panel].p99]
                for name, s in stats.items()
            ],
        ))

    for panel in ("tf", "hb_insert", "hb_wla"):
        medea = stats["MEDEA"][panel]
        jkube = stats["J-KUBE"][panel]
        jkubepp = stats["J-KUBE++"][panel]
        yarn = stats["YARN"][panel]
        # Medea wins the median against every baseline.
        assert medea.median < jkube.median
        assert medea.median <= jkubepp.median
        assert medea.median < yarn.median
        # YARN is far worse (paper: ~2x median for TF).
        assert yarn.median / medea.median > 1.3
        # Predictability: Medea's p99 beats J-Kube++'s.
        assert medea.p99 <= jkubepp.p99

    # Fig. 7d: task runtimes are scheduler-independent (within 10%).
    gridmix_medians = [s["gridmix"].median for s in stats.values()]
    assert max(gridmix_medians) / min(gridmix_medians) < 1.1
