"""Streaming rollups (``repro.obs.rollup``).

The rollup plane's contract: bounded ``ROLLUP_*.json`` files whose size
is a function of configuration (not run length), atomic flushes, a full
dashboard renderable from the rollup alone, shared state with the live
``/snapshot`` endpoint, and the session/env wiring.
"""

from __future__ import annotations

import json

import pytest

from repro import Resource, TagPopularityScheduler, build_cluster
from repro.core.requests import TaskRequest
from repro.obs.events import EventKind
from repro.obs.rollup import (
    ROLLUP_SCHEMA,
    RollupSink,
    RollupState,
    build_dashboard_from_rollup,
    is_rollup_doc,
    load_rollup,
)
from repro.obs.serve import fetch_snapshot
from repro.obs.session import ObsConfig, ObsSession, current_session
from repro.obs.trace import Tracer, get_tracer
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.lra_gen import hbase_population


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


def _emit_state_hash(time=1.0):
    get_tracer().emit(
        EventKind.SIM_STATE_HASH, time=time,
        data={"hash": "h", "containers": 1, "utilization": 0.5,
              "utilization_by_rack": {}, "pending_tasks": 0,
              "pending_lras": 0, "nodes_down": 0},
    )


class TestAmbientWiring:
    def test_install_is_idempotent_and_shutdown_flushes(
        self, isolate_obs, tmp_path
    ):
        path = tmp_path / "ROLLUP_amb.json"
        session = ObsSession(ObsConfig(rollup=str(path)))
        with session:
            assert current_session() is session
            assert session.rollup.path == str(path)
            _emit_state_hash()
        assert current_session() is None
        assert load_rollup(path)["rollup"]["events"] == 1
        # Second close is a no-op, not an error.
        session.close()

    def test_install_enables_sink_only_tracer(self, isolate_obs, tmp_path):
        assert not get_tracer().enabled
        with ObsSession(ObsConfig(rollup=str(tmp_path / "ROLLUP_x.json"))):
            assert get_tracer().enabled  # rollups work without a trace file
        assert not get_tracer().enabled

    def test_rollup_env_values(self, tmp_path):
        for off in ({}, {"MEDEA_ROLLUP": "off"}, {"MEDEA_ROLLUP": " "},
                    {"MEDEA_ROLLUP": "0"}, {"MEDEA_ROLLUP": "FALSE"},
                    {"MEDEA_ROLLUP": "no"}):
            assert ObsConfig.from_env(off).rollup is None
        path = tmp_path / "ROLLUP_env.json"
        assert ObsConfig.from_env({"MEDEA_ROLLUP": f" {path} "}).rollup == str(path)
        # A --rollup flag wins over the variable.
        assert ObsConfig.from_env(
            {"MEDEA_ROLLUP": str(path)}, rollup="flag.json"
        ).rollup == "flag.json"

    def test_snapshot_and_rollup_share_state(self, isolate_obs, tmp_path):
        """The live endpoint and the on-disk rollup are two views of one
        RollupState, fed once per event: what /snapshot serves is what the
        file gets."""
        path = tmp_path / "ROLLUP_share.json"
        with ObsSession(ObsConfig(serve=0, rollup=str(path))) as session:
            assert session.rollup.state is session.server.rollup
            _emit_state_hash()
            snapshot = fetch_snapshot(str(session.server.port))
        assert snapshot["meta"]["events"] == 1
        assert load_rollup(path)["rollup"]["events"] == 1

    def test_snapshot_readers_race_the_fold(self, isolate_obs, tmp_path):
        """HTTP readers polling /snapshot while the run emits (and the
        rollup flushes every 30 simulated seconds) lose no update."""
        import sys
        import threading

        path = tmp_path / "ROLLUP_race.json"
        errors: list[BaseException] = []
        seen: list[int] = []
        done = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ObsSession(ObsConfig(serve=0, rollup=str(path))) as session:
                port = str(session.server.port)

                def poll():
                    try:
                        while not done.is_set():
                            seen.append(fetch_snapshot(port)["meta"]["events"])
                    except BaseException as exc:  # reported below
                        errors.append(exc)

                readers = [threading.Thread(target=poll) for _ in range(4)]
                for reader in readers:
                    reader.start()
                for i in range(600):
                    _emit_state_hash(float(i))
                done.set()
                for reader in readers:
                    reader.join(timeout=30)
                    assert not reader.is_alive()
                final = fetch_snapshot(port)["meta"]["events"]
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert seen and max(seen) <= 600
        assert final == 600
        doc = load_rollup(path)
        assert doc["rollup"]["events"] == 600 and doc["rollup"]["flushes"] > 1


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
