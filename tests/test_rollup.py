"""Streaming rollups (``repro.obs.rollup``).

The rollup plane's contract: bounded ``ROLLUP_*.json`` files whose size
is a function of configuration (not run length), atomic flushes, a full
dashboard renderable from the rollup alone, shared state with the live
``/snapshot`` endpoint, and the ambient install/env wiring.
"""

from __future__ import annotations

import json

import pytest

from repro import Resource, TagPopularityScheduler, build_cluster
from repro.core.requests import TaskRequest
from repro.obs.events import EventKind
from repro.obs.metrics import Metrics, set_metrics
from repro.obs.rollup import (
    ENV_ROLLUP,
    ROLLUP_SCHEMA,
    RollupSink,
    RollupState,
    build_dashboard_from_rollup,
    get_rollup,
    install_rollup,
    is_rollup_doc,
    load_rollup,
    rollup_from_env,
    shutdown_rollup,
)
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.lra_gen import hbase_population


@pytest.fixture()
def isolate_obs():
    prev_tracer = set_tracer(None)
    prev_metrics = set_metrics(Metrics())
    yield
    shutdown_rollup()
    set_tracer(prev_tracer)
    set_metrics(prev_metrics)


def _run_sim(tracer, *, horizon=50.0, tasks_per_s=8):
    topology = build_cluster(24, racks=3, memory_mb=8 * 1024, vcores=8)
    sim = ClusterSimulation(
        topology,
        TagPopularityScheduler(),
        config=SimConfig(
            scheduling_interval_s=10.0,
            heartbeat_interval_s=1.0,
            horizon_s=horizon,
        ),
        tracer=tracer,
    )
    for i, lra in enumerate(hbase_population(1)):
        sim.submit_lra(lra, at=float(2 * i))

    def submit(engine):
        second = int(engine.now)
        for j in range(tasks_per_s):
            sim.submit_task_now(
                TaskRequest(
                    task_id=f"s{second}-{j}",
                    app_id=f"job-{second % 3}",
                    resource=Resource(512, 1),
                    duration_s=3.0,
                )
            )

    sim.engine.schedule_periodic(1.0, submit, until=20.0)
    sim.run()
    return sim


class TestRollupSink:
    def test_flushes_during_run_and_on_close(self, tmp_path):
        path = tmp_path / "ROLLUP_run.json"
        sink = RollupSink(path, interval_s=10.0)
        tracer = Tracer([sink])
        _run_sim(tracer)
        tracer.close()
        doc = load_rollup(path)
        assert doc["schema"] == ROLLUP_SCHEMA
        # Periodic flushes (50 sim-s / 10 s interval) plus the final one.
        assert doc["rollup"]["flushes"] >= 4
        assert doc["rollup"]["events"] > 100
        assert "utilization" in doc["series"]

    def test_file_size_bounded_by_config_not_run_length(self, tmp_path):
        """Twice the events must not mean twice the rollup: the document
        holds aggregates (downsampled series), not raw events."""
        sizes = {}
        for name, horizon in (("short", 40.0), ("long", 400.0)):
            path = tmp_path / f"ROLLUP_{name}.json"
            tracer = Tracer([RollupSink(path, interval_s=10.0)])
            _run_sim(tracer, horizon=horizon)
            tracer.close()
            sizes[name] = (path.stat().st_size,
                           load_rollup(path)["rollup"]["events"])
        short_size, short_events = sizes["short"]
        long_size, long_events = sizes["long"]
        assert long_events > short_events  # genuinely more events
        assert long_size < short_size * 3  # ...but not proportionally bigger

    def test_event_interval_flush_for_clockless_streams(self, tmp_path):
        path = tmp_path / "ROLLUP_ec.json"
        sink = RollupSink(path, event_interval=10)
        tracer = Tracer([sink])
        for i in range(25):  # no time= → event-count fallback drives flushes
            tracer.emit("task.submit", data={"task_id": f"t-{i}"})
        assert path.exists()  # flushed mid-stream, before close
        tracer.close()
        assert load_rollup(path)["rollup"]["events"] == 25

    def test_flush_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "ROLLUP_a.json"
        sink = RollupSink(path, event_interval=5)
        tracer = Tracer([sink])
        for i in range(23):
            tracer.emit("task.submit", data={"task_id": f"t-{i}"})
            if path.exists():
                load_rollup(path)  # every observable state parses cleanly
        tracer.close()
        assert not list(tmp_path.glob("*.tmp*"))  # no temp litter


class TestRollupDashboard:
    def test_dashboard_renders_from_rollup_alone(self, tmp_path):
        path = tmp_path / "ROLLUP_d.json"
        tracer = Tracer([RollupSink(path)])
        _run_sim(tracer)
        tracer.close()
        dash = build_dashboard_from_rollup(load_rollup(path))
        assert dash["series"]["utilization"]["points"]
        assert dash["slo"]["verdict"] in ("pass", "fail")
        assert dash["profile"]["spans"]  # span tree survives aggregation
        assert dash["meta"]["events"] > 0
        # Replay is explicitly marked skipped, not silently absent.
        assert dash["replay"]["ok"]
        assert any("rollup" in w for w in dash["replay"]["warnings"])

    def test_dashboard_cli_accepts_rollup_doc(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ROLLUP_cli.json"
        tracer = Tracer([RollupSink(path)])
        _run_sim(tracer)
        tracer.close()
        json_out = tmp_path / "dash.json"
        assert main(["dashboard", str(path), "--json", str(json_out)]) == 0
        assert "SLO" in capsys.readouterr().out
        assert json.loads(json_out.read_text())["series"]

    def test_load_rollup_error_contract(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_rollup(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_rollup(bad)
        other = tmp_path / "other.json"
        other.write_text('{"schema": "something/else"}')
        with pytest.raises(ValueError, match="rollup document"):
            load_rollup(other)
        assert not is_rollup_doc({"schema": "x"})


class TestAmbientWiring:
    def test_install_is_idempotent_and_shutdown_flushes(
        self, isolate_obs, tmp_path
    ):
        path = tmp_path / "ROLLUP_amb.json"
        sink = install_rollup(path)
        assert install_rollup(tmp_path / "other.json") is sink
        assert get_rollup() is sink
        get_tracer().emit(
            EventKind.SIM_STATE_HASH, time=1.0,
            data={"hash": "h", "containers": 1, "utilization": 0.5,
                  "utilization_by_rack": {}, "pending_tasks": 0,
                  "pending_lras": 0, "nodes_down": 0},
        )
        shutdown_rollup()
        assert get_rollup() is None
        assert load_rollup(path)["rollup"]["events"] == 1
        # Second shutdown is a no-op, not an error.
        shutdown_rollup()

    def test_install_enables_sink_only_tracer(self, isolate_obs, tmp_path):
        assert not get_tracer().enabled
        install_rollup(tmp_path / "ROLLUP_x.json")
        assert get_tracer().enabled  # rollups work without a trace file

    def test_rollup_from_env(self, isolate_obs, tmp_path):
        assert rollup_from_env({}) is None
        assert rollup_from_env({ENV_ROLLUP: "off"}) is None
        path = tmp_path / "ROLLUP_env.json"
        sink = rollup_from_env({ENV_ROLLUP: str(path)})
        assert sink is not None and sink.path == str(path)

    def test_snapshot_and_rollup_share_state(self, isolate_obs, tmp_path):
        """The live endpoint and the on-disk rollup are two views of one
        RollupState: what /snapshot serves is what the file gets."""
        from repro.obs.serve import install as install_server, shutdown_server

        server = install_server(0)
        try:
            path = tmp_path / "ROLLUP_share.json"
            sink = install_rollup(path)
            assert sink.state is server.rollup
        finally:
            shutdown_rollup()
            shutdown_server()


class TestRollupState:
    def test_sampling_composes_with_rollups(self, tmp_path):
        """Rollups aggregate the *kept* stream; sampling out lifecycles
        shrinks counts but keeps the protected anchors driving the
        headline series."""
        from repro.obs.sample import SamplingPolicy, TraceSampler

        path = tmp_path / "ROLLUP_s.json"
        tracer = Tracer(
            [RollupSink(path)],
            sampler=TraceSampler(
                SamplingPolicy.parse("task=0.2,dispatch=0,seed=7")
            ),
        )
        _run_sim(tracer)
        tracer.close()
        doc = load_rollup(path)
        assert doc["series"]["utilization"]["points"]  # protected anchors
        kinds = doc["meta"]["kinds"]
        assert EventKind.ENGINE_DISPATCH not in kinds
        assert doc["rollup"]["events"] < 1000

    def test_state_to_doc_shape(self):
        state = RollupState()
        doc = state.document()
        assert doc["schema"] == ROLLUP_SCHEMA
        assert doc["rollup"]["events"] == 0
