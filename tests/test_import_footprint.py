"""SciPy and the ILP load only when an ILP runs.

``repro.core.ilp`` and ``repro.core.ilp_scheduler`` import
:mod:`repro.solver`, the only importer of SciPy (about 45 MB and half a
second).  The heuristic, task-scheduler, simulator and serving paths must
run without them, and the ILP names stay reachable as lazy exports of
``repro`` and ``repro.core``.  Each check runs in a fresh interpreter, since
this test session has long since imported the ILP.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

#: The modules a non-ILP run must leave out of ``sys.modules``.
HEAVY = ("scipy", "repro.solver", "repro.core.ilp", "repro.core.ilp_scheduler")

_PRELUDE = """
import contextlib, io, json, sys
HEAVY = %r
def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)
def quiet_main(argv):
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)
""" % (HEAVY,)


def _run(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; it ends by printing one JSON
    object, which is returned."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_non_ilp_paths_leave_scipy_and_the_ilp_unloaded():
    out = _run(
        """
        steps = {}
        import repro
        steps["import repro"] = loaded()

        from repro import (
            ClusterState, ConstraintManager, TagPopularityScheduler, build_cluster,
        )
        from repro.apps import hbase_instance
        topology = build_cluster(20, racks=2, memory_mb=16 * 1024, vcores=8)
        state = ClusterState(topology)
        result = TagPopularityScheduler().place(
            [hbase_instance("hb", region_servers=4, max_rs_per_node=2)],
            state, ConstraintManager(topology),
        )
        assert result.placed_apps() == {"hb"}, result
        steps["heuristic batch"] = loaded()

        from repro.sim import ClusterSimulation, SimConfig
        from repro.workloads import GridMixConfig, generate_tasks
        sim = ClusterSimulation(
            build_cluster(10, memory_mb=16 * 1024, vcores=8),
            TagPopularityScheduler(),
            config=SimConfig(scheduling_interval_s=5.0, horizon_s=30.0),
        )
        sim.submit_lra(hbase_instance("hb", region_servers=2), at=1.0)
        for arrival, task in generate_tasks(GridMixConfig(seed=3), count=10):
            sim.submit_task(task, at=arrival)
        sim.run(30.0)
        assert sim.lra_latencies() and sim.task_latencies()
        steps["simulation"] = loaded()

        from repro.core.scheduler import PlacementService
        from repro.obs.load import RequestTemplate
        service = PlacementService(
            ClusterState(topology), TagPopularityScheduler(),
            ConstraintManager(topology),
        )
        assert service.handle(RequestTemplate().build(0), now=1.0).placed
        steps["service request"] = loaded()

        assert quiet_main([
            "simulate", "--nodes", "10", "--horizon", "30", "--lras", "2",
            "--tasks", "10", "--scheduler", "tp",
        ]) == 0
        steps["cli simulate --scheduler tp"] = loaded()
        print(json.dumps(steps))
        """
    )
    assert out == {step: [] for step in out}
    assert len(out) == 5


def test_ilp_names_are_lazy_exports():
    out = _run(
        """
        import repro
        import repro.core
        before = loaded()
        names = ("GroundedViolation", "IlpFormulation", "IlpScheduler", "IlpWeights")
        listed = all(n in dir(repro) and n in dir(repro.core) for n in names)
        exported = all(n in repro.__all__ and n in repro.core.__all__ for n in names)
        unknown = not hasattr(repro, "NoSuchName") and not hasattr(repro.core, "NoSuchName")
        namespace = {}
        exec("from repro import *", namespace)
        unbound = sorted(set(repro.__all__) - set(namespace))
        from repro.core import ilp, ilp_scheduler
        same = (
            repro.IlpScheduler is repro.core.IlpScheduler is ilp_scheduler.IlpScheduler
            and repro.IlpWeights is ilp.IlpWeights
            and repro.core.IlpFormulation is ilp.IlpFormulation
            and repro.GroundedViolation is ilp.GroundedViolation
        )
        print(json.dumps(dict(
            before=before, listed=listed, exported=exported, unknown=unknown,
            unbound=unbound, same=same, after=loaded(),
        )))
        """
    )
    assert out["before"] == []
    assert out["listed"] and out["exported"] and out["unknown"] and out["same"]
    assert out["unbound"] == []
    assert out["after"] == sorted(HEAVY)


def test_cli_ilp_scheduler_loads_the_solver_stack():
    out = _run(
        """
        status = quiet_main([
            "simulate", "--nodes", "10", "--horizon", "30", "--lras", "1",
            "--tasks", "5", "--scheduler", "ilp",
        ])
        print(json.dumps(dict(status=status, after=loaded())))
        """
    )
    assert out == {"status": 0, "after": sorted(HEAVY)}
