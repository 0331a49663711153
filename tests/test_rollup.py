"""Streaming rollups (``repro.obs.rollup``).

The rollup plane's contract: bounded ``ROLLUP_*.json`` files whose size
is a function of configuration (not run length), atomic flushes, a
rollup whose dashboard is the dashboard of the run's trace, a summary
that calls mid-run cannot change, shared state with the live
``/snapshot`` endpoint, and the session/env wiring.
"""

from __future__ import annotations

import json

import pytest

from repro import Resource, TagPopularityScheduler, build_cluster
from repro.core.requests import TaskRequest
from repro.obs import rollup
from repro.obs.events import WALL_KEY, EventKind
from repro.obs.report import build_dashboard, iter_trace
from repro.obs.rollup import ROLLUP_SCHEMA, RollupSink, RollupState, sniff_rollup
from repro.obs.sample import SamplingPolicy, TraceSampler, parse_sample_spec
from repro.obs.serve import fetch_snapshot
from repro.obs.session import ObsConfig, ObsSession, current_session
from repro.obs.trace import Tracer, get_tracer
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.lra_gen import hbase_population


def _run_sim(*, horizon=50.0, tasks_per_s=8):
    topology = build_cluster(24, racks=3, memory_mb=8 * 1024, vcores=8)
    sim = ClusterSimulation(
        topology,
        TagPopularityScheduler(),
        config=SimConfig(
            scheduling_interval_s=10.0,
            heartbeat_interval_s=1.0,
            horizon_s=horizon,
        ),
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


def _rollup_doc(path):
    doc = sniff_rollup(path)
    assert doc is not None, f"{path} holds no rollup document"
    return doc


class TestRollupSink:
    def test_flushes_during_run_and_on_close(
        self, install_tracer, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(rollup, "INTERVAL_S", 10.0)
        path = tmp_path / "ROLLUP_run.json"
        sink = RollupSink(path)
        tracer = install_tracer(Tracer([sink]))
        _run_sim()
        tracer.close()
        doc = _rollup_doc(path)
        assert doc["schema"] == ROLLUP_SCHEMA
        # Periodic flushes (50 sim-s / 10 s interval) plus the final one.
        assert doc["rollup"]["flushes"] >= 4
        assert doc["rollup"]["events"] > 100
        assert "utilization" in doc["series"]

    def test_file_size_bounded_by_config_not_run_length(
        self, install_tracer, tmp_path, monkeypatch
    ):
        """Twice the events must not mean twice the rollup: the document
        holds aggregates (downsampled series), not raw events."""
        monkeypatch.setattr(rollup, "INTERVAL_S", 10.0)
        sizes = {}
        for name, horizon in (("short", 40.0), ("long", 400.0)):
            path = tmp_path / f"ROLLUP_{name}.json"
            tracer = install_tracer(Tracer([RollupSink(path)]))
            _run_sim(horizon=horizon)
            tracer.close()
            sizes[name] = (path.stat().st_size,
                           _rollup_doc(path)["rollup"]["events"])
        short_size, short_events = sizes["short"]
        long_size, long_events = sizes["long"]
        assert long_events > short_events  # genuinely more events
        assert long_size < short_size * 3  # ...but not proportionally bigger

    def test_event_interval_flush_for_clockless_streams(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(rollup, "EVENT_INTERVAL", 10)
        path = tmp_path / "ROLLUP_ec.json"
        sink = RollupSink(path)
        tracer = Tracer([sink])
        for i in range(25):  # no time= → event-count fallback drives flushes
            tracer.emit("task.submit", data={"task_id": f"t-{i}"})
        assert path.exists()  # flushed mid-stream, before close
        tracer.close()
        assert _rollup_doc(path)["rollup"]["events"] == 25

    def test_flush_is_atomic_replacement(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rollup, "EVENT_INTERVAL", 5)
        path = tmp_path / "ROLLUP_a.json"
        sink = RollupSink(path)
        tracer = Tracer([sink])
        for i in range(23):
            tracer.emit("task.submit", data={"task_id": f"t-{i}"})
            if path.exists():
                _rollup_doc(path)  # every observable state parses cleanly
        tracer.close()
        assert not list(tmp_path.glob("*.tmp*"))  # no temp litter


class TestRollupDashboard:
    def test_dashboard_renders_from_rollup_alone(
        self, install_tracer, tmp_path
    ):
        path = tmp_path / "ROLLUP_d.json"
        tracer = install_tracer(Tracer([RollupSink(path)]))
        _run_sim()
        tracer.close()
        dash = _rollup_doc(path)
        assert dash["series"]["utilization"]["points"]
        assert dash["slo"]["verdict"] in ("pass", "fail")
        assert dash["profile"]["spans"]  # span tree survives aggregation
        assert dash["meta"]["events"] > 0
        # The live fold replays and builds critical paths too.
        assert dash["replay"]["ok"] and dash["replay"]["checks"] > 0
        assert not dash["replay"]["warnings"]
        assert [p["app_id"] for p in dash["critical_paths"]]

    def test_dashboard_cli_accepts_rollup_doc(
        self, install_tracer, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "ROLLUP_cli.json"
        tracer = install_tracer(Tracer([RollupSink(path)]))
        _run_sim()
        tracer.close()
        json_out = tmp_path / "dash.json"
        assert main(["dashboard", str(path), "--json", str(json_out)]) == 0
        assert "SLO" in capsys.readouterr().out
        assert json.loads(json_out.read_text())["series"]

    def test_sniff_rollup_error_contract(self, tmp_path):
        """Files that are not rollup documents are ``None`` (the trace
        reader owns their errors); a rollup-tagged file of the wrong shape
        is a ``ValueError`` naming the file and the field."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        other = tmp_path / "other.json"
        other.write_text('{"schema": "something/else"}')
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"kind": "a", "seq": 0}\n')
        for path in (tmp_path / "missing.json", bad, other, trace):
            assert sniff_rollup(path) is None, path
        good = tmp_path / "good.json"
        good.write_text(json.dumps(RollupState().document()))
        assert sniff_rollup(good)["schema"] == ROLLUP_SCHEMA
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"schema": ROLLUP_SCHEMA,
                                         "meta": []}))
        with pytest.raises(ValueError, match=(
            f"^{malformed}: malformed rollup document: 'meta' must be an object$"
        )):
            sniff_rollup(malformed)


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
        assert _rollup_doc(path)["rollup"]["events"] == 1
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
        assert _rollup_doc(path)["rollup"]["events"] == 1

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
        doc = _rollup_doc(path)
        assert doc["rollup"]["events"] == 600 and doc["rollup"]["flushes"] > 1


class TestRollupState:
    def test_sampling_composes_with_rollups(self, install_tracer, tmp_path):
        """Rollups aggregate the *kept* stream; sampling out lifecycles
        shrinks counts but keeps the protected anchors driving the
        headline series."""
        path = tmp_path / "ROLLUP_s.json"
        tracer = Tracer(
            [RollupSink(path)],
            sampler=TraceSampler(
                SamplingPolicy.parse("task=0.2,dispatch=0,seed=7")
            ),
        )
        install_tracer(tracer)
        _run_sim()
        tracer.close()
        doc = _rollup_doc(path)
        assert doc["series"]["utilization"]["points"]  # protected anchors
        kinds = doc["meta"]["kinds"]
        assert EventKind.ENGINE_DISPATCH not in kinds
        assert doc["rollup"]["events"] < 1000

    def test_state_to_doc_shape(self):
        state = RollupState()
        doc = state.document()
        assert doc["schema"] == ROLLUP_SCHEMA
        assert doc["rollup"]["events"] == 0

    def test_summary_is_pure_mid_run(self, install_tracer):
        """``/snapshot`` and every flush call ``summary()`` mid-run; that
        must leave nothing behind — twice in a row reads the same, and the
        end-of-run summary is the one a fold that was never read gives."""
        from repro.obs.trace import MemorySink

        sink = MemorySink()
        tracer = Tracer([sink], sampler=TraceSampler(
            SamplingPolicy.parse("task=0.2,dispatch=0,seed=7")))
        install_tracer(tracer)
        _run_sim()
        tracer.close()
        events = [e.to_obj() for e in sink.events]
        read, unread = RollupState(), RollupState()
        for index, obj in enumerate(events):
            read.observe(obj)
            unread.observe(obj)
            if index in (len(events) // 3, len(events) // 2):
                first, second = read.summary(), read.summary()
                assert first["replay"]["warnings"] == second["replay"]["warnings"]
                assert first == second
        assert read.summary() == unread.summary()
        assert read.summary()["replay"]["sampled_checks"] > 0


def _strip(doc, *keys):
    return {k: v for k, v in doc.items() if k not in (WALL_KEY, *keys)}


@pytest.mark.parametrize("spec", [None, "engine.dispatch=0,task=0.2,seed=7"],
                         ids=["unsampled", "sampled"])
def test_rollup_dashboard_is_trace_dashboard(isolate_obs, tmp_path, spec):
    """One run, one session recording a trace and a rollup: the rollup
    document is the trace's dashboard (wall-clock blocks and the rollup's
    own bookkeeping aside), replay and critical paths included."""
    trace, path = tmp_path / "t.jsonl", tmp_path / "ROLLUP_t.json"
    config = ObsConfig(trace_out=str(trace), rollup=str(path),
                       sample=parse_sample_spec(spec))
    with ObsSession(config) as session:
        _run_sim()
    doc = _rollup_doc(path)
    dash = build_dashboard(str(trace))
    assert doc["rollup"]["events"] == sum(1 for _ in iter_trace(str(trace)))
    assert _strip(doc, "schema", "rollup") == _strip(dash)
    assert dash["replay"]["ok"] and dash["replay"]["checks"] > 0
    assert dash["critical_paths"]
    assert ("sampled_checks" in dash["replay"]) == (spec is not None)
