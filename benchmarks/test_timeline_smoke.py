"""Timeline telemetry smoke — two cheap traced placement experiments.

Runs one heuristic and one small ILP placement experiment through
:func:`benchmarks.harness.run_placement_experiment`.  Under ``MEDEA_TRACE``
their ``bench.experiment`` / ``lra.place`` / ``sim.state_hash`` events are
what CI's ``dashboard --fail-on-breach --collapsed`` step replays, judges
and profiles.
"""

from __future__ import annotations

from repro import IlpScheduler, SerialScheduler
from repro.workloads import hbase_population

from .harness import run_placement_experiment, scaled


def _run(scheduler, label: str):
    population = hbase_population(scaled(8), max_rs_per_node=3)
    return run_placement_experiment(
        scheduler,
        population,
        num_nodes=scaled(40),
        racks=4,
        experiment=label,
    )


def test_timeline_smoke_serial():
    result = _run(SerialScheduler(), "timeline-smoke-serial")
    assert result.placed_apps > 0


def test_timeline_smoke_ilp():
    scheduler = IlpScheduler(
        max_candidate_nodes=16, time_limit_s=2.0, mip_rel_gap=0.05
    )
    result = _run(scheduler, "timeline-smoke-ilp")
    assert result.placed_apps > 0
