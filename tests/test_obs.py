"""Tests for the ``repro.obs`` observability subsystem.

Covers the tentpole guarantees of the obs redesign: deterministic trace
streams (same seed ⇒ byte-identical canonical JSONL), metrics snapshot
correctness, decision-audit contents for affinity / anti-affinity pruning,
the disabled-tracer no-op, and the keyword-only clock convention.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import (
    IlpScheduler,
    Resource,
    SerialScheduler,
    TaskRequest,
    build_cluster,
)
from repro.apps import hbase_instance
from repro.core.constraints import affinity, anti_affinity
from repro.obs import (
    EventKind,
    JsonlSink,
    MemorySink,
    Metrics,
    TraceEvent,
    Tracer,
    canonical,
)
from repro.obs.session import ObsConfig, ObsSession
from repro.obs.trace import get_tracer
from repro.obs.metrics import get_metrics, set_metrics
from repro.sim import ClusterSimulation, SimConfig
from tests.helpers import make_lra


def _make_sim(metrics=None):
    topo = build_cluster(6, racks=2, memory_mb=8 * 1024, vcores=8)
    config = SimConfig(scheduling_interval_s=5.0, horizon_s=60.0)
    return ClusterSimulation(topo, SerialScheduler(), config=config,
                             metrics=metrics)


def _drive(sim):
    sim.submit_lra(
        make_lra(
            "web", containers=2, tags={"web"},
            constraints=(anti_affinity("web", "web", "node"),),
        ),
        at=1.0,
    )
    sim.submit_lra(make_lra("db", containers=1, tags={"db"}), at=2.0,
                   duration_s=20.0)
    for i in range(5):
        sim.submit_task(
            TaskRequest(f"t{i}", "batch", Resource(512, 1), duration_s=4.0),
            at=0.5 + i,
        )
    sim.run(40.0)


class TestTraceEvent:
    def test_to_json_is_sorted_and_compact(self):
        event = TraceEvent(kind="lra.submit", seq=3, time=1.5,
                           data={"b": 1, "a": 2})
        text = event.to_json()
        assert text.index('"a"') < text.index('"b"')
        assert ", " not in text

    def test_canonical_json_strips_wall(self):
        event = TraceEvent(kind="solver.solve", seq=0, time=None,
                           data={"nodes": 4}, wall={"time_total_s": 0.123})
        assert "wall" in event.to_json()
        assert "wall" not in event.canonical_json()
        assert json.loads(event.canonical_json())["data"] == {"nodes": 4}

    def test_canonical_module_fn_strips_wall_from_jsonl(self):
        tracer = Tracer([sink := MemorySink()])
        tracer.emit("x", time=1.0, data={"k": 1}, wall={"elapsed": 9.9})
        tracer.emit("y", time=2.0, data={"k": 2})
        raw = sink.jsonl()
        assert "elapsed" in raw
        stripped = canonical(raw)
        assert "elapsed" not in stripped and "wall" not in stripped
        assert stripped == sink.jsonl(canonical=True)


class TestTracer:
    def test_disabled_tracer_is_noop(self):
        sink = MemorySink()
        tracer = Tracer([sink], enabled=False)
        assert tracer.emit("x", data={"heavy": 1}) is None
        assert len(sink) == 0

    def test_ambient_default_is_disabled(self):
        assert get_tracer().enabled is False

    def test_seq_gives_total_order(self):
        tracer = Tracer([sink := MemorySink()])
        for _ in range(5):
            tracer.emit("x")
        assert [e.seq for e in sink.events] == [0, 1, 2, 3, 4]

    def test_concurrent_emits_keep_the_trace_whole(self, tmp_path):
        """16 threads x 2,000 emits into one JSONL file: every line parses
        and the seqs are exactly 0 ... 31,999 (placement requests emit
        from worker threads)."""
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonlSink(path)])

        def work(worker: int) -> None:
            for i in range(2000):
                tracer.emit("x", time=float(i), data={"w": worker, "i": i})

        threads = [threading.Thread(target=work, args=(n,)) for n in range(16)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        tracer.close()
        lines = path.read_text().splitlines()
        assert sorted(json.loads(line)["seq"] for line in lines) == list(
            range(32000)
        )

    def test_jsonl_sink_writes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonlSink(path)])
        tracer.emit("a", time=0.0, data={"n": 1})
        tracer.emit("b", time=1.0)
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "a"

    def test_trace_env_off_values_install_nothing(self, isolate_obs):
        for off in ("", "0", "false", "No", " off "):
            config = ObsConfig.from_env(
                {"MEDEA_TRACE": off, "MEDEA_TRACE_OUT": "never.jsonl"}
            )
            assert config == ObsConfig()
            with ObsSession(config) as session:
                assert session.tracer is None
                assert get_tracer().enabled is False

    def test_trace_env_values(self):
        on = ObsConfig.from_env({"MEDEA_TRACE": "1"})
        assert on.trace_out == "medea_trace.jsonl" and on.sample is None
        assert ObsConfig.from_env(
            {"MEDEA_TRACE": "yes", "MEDEA_TRACE_OUT": "x.jsonl"}
        ).trace_out == "x.jsonl"
        # A --trace-out flag wins whether or not MEDEA_TRACE is set.
        assert ObsConfig.from_env(
            {"MEDEA_TRACE": "1"}, trace_out="flag.jsonl"
        ).trace_out == "flag.jsonl"
        sampled = ObsConfig.from_env({"MEDEA_TRACE_SAMPLE": "task=0.5,seed=3"})
        assert sampled.sample.describe() == "task=0.5,seed=3"
        assert ObsConfig.from_env({"MEDEA_TRACE_SAMPLE": "  "}).sample is None


class TestDisabledTracingSim:
    def test_sim_with_disabled_tracer_emits_nothing(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink], enabled=False))
        _drive(_make_sim())
        assert len(sink) == 0


class TestTraceDeterminism:
    def test_same_seed_runs_are_byte_identical(self, install_tracer):
        streams = []
        for _ in range(2):
            sink = MemorySink()
            install_tracer(Tracer([sink]))
            _drive(_make_sim(metrics=Metrics()))
            assert len(sink) > 0
            streams.append(sink.jsonl(canonical=True))
        assert streams[0] == streams[1]

    def test_solver_events_and_spans_stay_in_the_run_trace(
        self, install_tracer
    ):
        """The solver emits through the tracer the run installed: its
        events land in the same stream, its span under the placement."""
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        sim = ClusterSimulation(
            build_cluster(24, racks=4, memory_mb=16 * 1024, vcores=8),
            IlpScheduler(),
            config=SimConfig(scheduling_interval_s=5.0, horizon_s=20.0),
        )
        sim.submit_lra(hbase_instance("hb-0"), at=1.0)
        sim.run(20.0)
        kinds = set(sink.kinds())
        assert {EventKind.SOLVER_PRESOLVE, EventKind.SOLVER_SOLVE} <= kinds
        paths = {e.data["path"] for e in sink.of_kind(EventKind.SPAN)}
        assert any("place:MEDEA-ILP;solver.bnb" in p for p in paths)

    def test_env_configured_runs_are_byte_identical(self, isolate_obs, tmp_path):
        texts = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            config = ObsConfig.from_env(
                {"MEDEA_TRACE": "1", "MEDEA_TRACE_OUT": str(path)}
            )
            metrics = set_metrics(Metrics())
            try:
                with ObsSession(config) as session:
                    assert get_tracer() is session.tracer
                    _drive(_make_sim())
            finally:
                set_metrics(metrics)
            texts.append(canonical(path.read_text()))
        assert texts[0] and texts[0] == texts[1]

    def test_lifecycle_kinds_present(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        kinds = set(sink.kinds())
        for expected in (
            EventKind.ENGINE_DISPATCH,
            EventKind.SIM_STATE_HASH,
            EventKind.CYCLE_START,
            EventKind.CYCLE_END,
            EventKind.LRA_SUBMIT,
            EventKind.LRA_PLACE,
            EventKind.LRA_COMPLETE,
            EventKind.SCHEDULER_PLACE,
            EventKind.TASK_SUBMIT,
            EventKind.TASK_ALLOCATE,
            EventKind.TASK_RELEASE,
        ):
            assert expected in kinds, f"missing {expected}"

    def test_wall_fields_segregated(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        for event in sink.of_kind(EventKind.CYCLE_END):
            assert "solve_time_s" in (event.wall or {})
            assert "solve_time_s" not in event.data


class TestMetrics:
    def test_counter_labels_and_totals(self):
        metrics = Metrics()
        metrics.counter("c").inc(2, q="a")
        metrics.counter("c").inc(q="a")
        metrics.counter("c").inc(5, q="b")
        counter = metrics.counter("c")
        assert counter.value(q="a") == 3
        assert counter.total() == 8
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_memoised_write_keys_equal_derived_keys(self):
        """Writes memoise the label key; reads derive it.  They must agree
        for repeated writes, any keyword order, values needing escapes, and
        equal-but-differently-rendered values (1, 1.0, True)."""
        counter = Metrics().counter("c")
        for _ in range(3):
            counter.inc(q="a,b", rack="r=1")
            counter.inc(rack="r=1", q="a,b")
        assert counter.value(q="a,b", rack="r=1") == 6
        for n in (1, 1.0, True):
            counter.inc(n=n)
            counter.inc(n=n)
        assert counter.snapshot() == {
            "n=1": 2, "n=1.0": 2, "n=True": 2, "q=a\\,b,rack=r\\=1": 6,
        }
        timer = Metrics().timer("t")
        timer.observe(0.5, q="x")
        timer.observe(1.5, q="x")
        assert timer.stat(q="x").count == 2

    def test_gauge_set_last_write_wins(self):
        gauge = Metrics().gauge("g")
        gauge.set(4.0)
        gauge.set(1.5)
        assert gauge.value() == 1.5

    def test_timer_observe(self):
        metrics = Metrics()
        timer = metrics.timer("t")
        timer.observe(0.5, phase="x")
        timer.observe(1.5, phase="x")
        stat = timer.stat(phase="x")
        assert stat.count == 2
        assert stat.mean_s == pytest.approx(1.0)
        assert stat.min_s == 0.5 and stat.max_s == 1.5

    def test_snapshot_shape(self):
        metrics = Metrics()
        metrics.counter("n").inc(3, scheduler="Serial")
        metrics.gauge("g").set(7)
        metrics.timer("t").observe(0.25)
        snap = metrics.snapshot()
        assert snap["counters"]["n"] == {"scheduler=Serial": 3}
        assert snap["gauges"]["g"] == {"": 7.0}
        assert snap["timers"]["t"][""]["count"] == 1
        # Snapshot is JSON-serialisable as-is (the CI artifact format).
        json.dumps(snap)

    def test_sim_records_lifecycle_counters(self, isolate_obs):
        metrics = Metrics()
        sim = _make_sim(metrics=metrics)
        _drive(sim)
        snap = metrics.snapshot()
        latency = snap["timers"]["task_queue_latency_seconds"]
        assert latency["queue=default"]["count"] == 5
        assert snap["counters"]["task_released_total"][""] == 5
        place_stats = snap["timers"]["scheduler_place_seconds"]
        assert place_stats["scheduler=Serial"]["count"] >= 1
        # LRA outcomes are the facade's own record (and the trace's), not
        # registry counters.
        outcomes = sim.medea.outcomes.values()
        assert sum(o.placed_time is not None for o in outcomes) == 2

    def test_sim_writes_only_families_with_a_reader(self, install_tracer):
        """One record per number: a traced simulation writes the families
        a benchmark, CI step or safety check reads by name, and none whose
        number an event or another family already holds."""
        metrics = Metrics()
        install_tracer(Tracer([MemorySink()]))
        _drive(_make_sim(metrics=metrics))
        families = {
            name for section in metrics.snapshot().values() for name in section
        }
        assert families == {
            "scheduler_place_seconds",
            "task_queue_latency_seconds",
            "task_released_total",
            "violations_containers",
            "violations_evaluations_total",
            "violations_total_extent",
        }


class TestDecisionAudit:
    def _place(self, scheduler, lra, nodes=4):
        from repro import ClusterState, ConstraintManager

        topo = build_cluster(nodes, racks=2, memory_mb=8 * 1024, vcores=8)
        state = ClusterState(topo)
        manager = ConstraintManager(topo)
        manager.register_application(lra)
        return scheduler.place([lra], state, manager)

    def test_affinity_pruning_recorded(self):
        # Affinity toward a tag hosted nowhere: every candidate violates.
        lra = make_lra(
            "aff", containers=1, tags={"s"},
            constraints=(affinity("s", "hb", "node"),),
        )
        result = self._place(SerialScheduler(audit=True), lra)
        audit = result.audit
        assert audit is not None and audit.scheduler == "Serial"
        decision = audit.decision_for("aff/c0")
        assert decision.considered == 4
        assert decision.feasible == 0
        pruned = decision.pruned_by("constraint")
        assert len(pruned) == 4
        assert all("hb" in p.constraint for p in pruned)
        assert all(p.extent > 0 for p in pruned)
        # Soft constraints: still placed, on a least-bad node.
        assert decision.chosen_node is not None
        assert decision.score_terms["violation_delta"] > 0

    def test_anti_affinity_pruning_recorded(self):
        lra = make_lra(
            "anti", containers=2, tags={"a"},
            constraints=(anti_affinity("a", "a", "node"),),
        )
        result = self._place(SerialScheduler(audit=True), lra)
        audit = result.audit
        first, second = audit.decisions_of("anti")
        assert first.chosen_node is not None
        # The second container must avoid the first one's node...
        conflicted = second.pruned_by("constraint")
        assert [p.node_id for p in conflicted] == [first.chosen_node]
        assert second.chosen_node != first.chosen_node
        # ...and the responsible constraint is named in canonical notation.
        assert second.pruning_constraints() == [p.constraint for p in conflicted][:1]

    def test_audit_off_by_default(self):
        lra = make_lra("plain", containers=1)
        result = self._place(SerialScheduler(), lra)
        assert result.audit is None

    def test_capacity_pruning_recorded(self):
        lra = make_lra("big", containers=1, memory_mb=7 * 1024)
        scheduler = SerialScheduler(audit=True)
        from repro import ClusterState, ConstraintManager

        topo = build_cluster(2, racks=1, memory_mb=8 * 1024, vcores=8)
        state = ClusterState(topo)
        manager = ConstraintManager(topo)
        # Pre-load node 0 so it cannot fit the big container.
        state.allocate("filler", "n00000", Resource(4 * 1024, 1),
                       frozenset({"f"}), "fill")
        result = scheduler.place([lra], state, manager)
        decision = result.audit.decision_for("big/c0")
        assert [p.node_id for p in decision.pruned_by("capacity")] == ["n00000"]
        assert decision.chosen_node == "n00001"


class TestClockConvention:
    def test_positional_now_rejected(self):
        """Clock arguments are keyword-only; there is no positional form."""
        from repro import CapacityScheduler, ClusterState, MedeaScheduler

        state = ClusterState(build_cluster(2))
        medea = MedeaScheduler(
            state, SerialScheduler(), CapacityScheduler(state),
            metrics=Metrics(),
        )
        with pytest.raises(TypeError):
            medea.submit_lra(make_lra("x", containers=1), 3.0)
        with pytest.raises(TypeError):
            medea.run_cycle(4.0)
        medea.submit_lra(make_lra("x", containers=1), now=3.0)
        medea.run_cycle(now=4.0)
        assert medea.outcomes["x"].submit_time == 3.0
        assert medea.outcomes["x"].placed_time == 4.0


class TestPublicApi:
    def test_top_level_reexports(self):
        import repro

        for name in ("Tracer", "Metrics", "TraceEvent", "MemorySink",
                     "JsonlSink", "SolverStats", "DecisionAudit"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_report_renders_trace(self, tmp_path, install_tracer):
        from repro.obs.report import build_dashboard, dashboard_view
        from repro.obs.view import to_text

        path = tmp_path / "t.jsonl"
        tracer = install_tracer(Tracer([JsonlSink(path)]))
        _drive(_make_sim())
        tracer.close()
        text = to_text(dashboard_view(build_dashboard(str(path))))
        assert "lra.place" in text
        assert "TOTAL" in text

    def test_cli_trace_report(self, tmp_path, capsys, install_tracer):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        tracer = install_tracer(Tracer([JsonlSink(path)]))
        _drive(_make_sim())
        tracer.close()
        assert main(["dashboard", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.dispatch" in out

    def test_cli_trace_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["dashboard", str(tmp_path / "nope.jsonl")]) == 1
        assert "dashboard: cannot read trace file" in capsys.readouterr().err
