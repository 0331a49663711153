"""Tests for the timeline / SLO / replay layer (``repro.obs`` part 2).

Covers the evaluation-signal tentpole: bounded-memory time-series
aggregation, declarative SLO monitoring with typed breach events, trace
replay with state-hash cross-checking (including corruption detection),
dashboard byte-determinism for same-seed runs, timer percentiles, the
``repro.obs.stats`` summaries, and the hardened trace-file reader behind
``repro dashboard`` / ``diff``.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import (
    Resource,
    SerialScheduler,
    TaskRequest,
    build_cluster,
)
from repro.core.constraints import anti_affinity
from repro.obs import (
    JsonlSink,
    MemorySink,
    Metrics,
    ReplayState,
    SLOMonitor,
    SLORule,
    TimelineAggregator,
    TraceFileError,
    Tracer,
    TimeSeries,
    build_dashboard,
    default_smoke_slos,
    iter_trace,
)
from repro.sim import ClusterSimulation, SimConfig
from tests.helpers import make_lra


def _make_sim():
    topo = build_cluster(6, racks=2, memory_mb=8 * 1024, vcores=8)
    config = SimConfig(scheduling_interval_s=5.0, horizon_s=60.0)
    return ClusterSimulation(topo, SerialScheduler(), config=config)


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


def _traced_run(install_tracer, path):
    tracer = install_tracer(Tracer([JsonlSink(path)]))
    _drive(_make_sim())
    tracer.close()
    return path


def _timeline(events):
    timeline = TimelineAggregator()
    for obj in events:
        timeline.consume(obj)
    return timeline


def _replay(events):
    state = ReplayState()
    for obj in events:
        state.feed(obj)
    return state.finish()


def _series(timeline):
    return {name: (s.values(), s.volatile) for name, s in timeline.series.items()}


class TestTimeSeries:
    def test_mean_buckets(self):
        s = TimeSeries("x", agg="mean", tick_s=1.0)
        s.add(0.2, 1.0)
        s.add(0.8, 3.0)
        s.add(2.5, 5.0)
        assert s.points() == [(0.0, 2.0), (2.0, 5.0)]

    def test_sum_max_last(self):
        for agg, expect in (("sum", 4.0), ("max", 3.0), ("last", 3.0)):
            s = TimeSeries("x", agg=agg)
            s.add(0.1, 1.0)
            s.add(0.2, 3.0)
            assert s.values() == [expect], agg

    def test_out_of_order_samples_merge(self):
        s = TimeSeries("x", agg="sum", tick_s=1.0)
        s.add(5.0, 1.0)
        s.add(0.5, 1.0)
        s.add(5.9, 1.0)
        assert s.points() == [(0.0, 1.0), (5.0, 2.0)]

    def test_downsampling_bounds_memory(self):
        s = TimeSeries("x", agg="sum", tick_s=1.0, max_points=8)
        for t in range(100):
            s.add(float(t), 1.0)
        assert len(s) <= 8
        assert s.tick_s > 1.0  # tick width doubled at least once
        # No samples were lost: the per-tick sums still total 100.
        assert sum(s.values()) == pytest.approx(100.0)

    def test_mean_survives_coarsening(self):
        s = TimeSeries("x", agg="mean", tick_s=1.0, max_points=4)
        for t in range(16):
            s.add(float(t), 2.0)
        assert all(v == pytest.approx(2.0) for v in s.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries("x", agg="median")
        with pytest.raises(ValueError):
            TimeSeries("x", tick_s=0.0)


class TestTimelineAggregator:
    def test_sim_trace_produces_paper_series(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        timeline = _timeline(e.to_obj() for e in sink.events)
        for name in ("utilization", "containers", "pending_lras",
                     "task_queue_delay_s", "containers_started",
                     "violations", "queue_depth:Serial"):
            assert name in timeline.series, name
            assert timeline.series[name].values(), name
        assert any(n.startswith("rack_utilization:") for n in timeline.series)
        span = timeline.time_span()
        assert span is not None and span[1] <= 40.0

    def test_live_sink_equals_posthoc(self, install_tracer, tmp_path):
        from repro.obs import RollupSink

        live = RollupSink(tmp_path / "ROLLUP_live.json")
        sink = MemorySink()
        install_tracer(Tracer([sink, live]))
        _drive(_make_sim())
        posthoc = _timeline(e.to_obj() for e in sink.events)
        assert live.state.timeline.summary() == posthoc.summary()

    def test_volatile_series_segregated_under_wall(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        summary = _timeline(e.to_obj() for e in sink.events).summary()
        assert "solver_latency_s:Serial" in summary["wall"]["series"]
        assert not any(
            name.startswith("solver_latency_s") for name in summary["series"]
        )

    def test_from_jsonl(self, tmp_path, install_tracer):
        path = _traced_run(install_tracer, tmp_path / "t.jsonl")
        timeline = _timeline(iter_trace(str(path)))
        assert timeline.series["utilization"].values()


class TestReplay:
    def test_sim_trace_replays_clean(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        report = _replay(e.to_obj() for e in sink.events)
        assert report.ok
        assert report.checks > 0
        assert report.allocated > 0 and report.released > 0
        assert not report.warnings

    def test_corrupted_trace_detected_with_first_divergent_tick(
        self, tmp_path, install_tracer
    ):
        path = _traced_run(install_tracer, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        corrupted_at = None
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj["kind"] == "task.allocate":
                obj["data"]["node_id"] += "-tampered"
                lines[i] = json.dumps(obj, sort_keys=True)
                corrupted_at = obj["time"]
                break
        assert corrupted_at is not None
        path.write_text("\n".join(lines) + "\n")
        report = _replay(iter_trace(str(path)))
        assert not report.ok
        first = report.first_divergence
        assert first is not None
        # The first divergent checkpoint is the first one at/after the edit.
        assert first.time >= corrupted_at
        assert first.expected != first.actual
        assert str(first.seq) in first.describe()

    def test_batch_trace_vacuously_valid(self):
        events = [{"kind": "lra.place", "seq": 0, "time": 0.0,
                   "data": {"placements": [["c1", "n1"]]}}]
        report = _replay(events)
        assert report.ok and report.checks == 0
        assert any("no sim.state_hash" in w for w in report.warnings)


class TestSLO:
    def _timeline(self, **series_values):
        return {name: (values, False) for name, values in series_values.items()}

    def test_pass_fail_skip(self):
        timeline = self._timeline(queue=[1.0, 2.0, 3.0])
        monitor = SLOMonitor([
            SLORule(name="ok", series="queue", agg="max", threshold=5.0),
            SLORule(name="bad", series="queue", agg="max", threshold=2.0),
            SLORule(name="absent", series="nope", agg="max", threshold=1.0),
        ])
        report = monitor.evaluate(timeline)
        by_name = {r.rule.name: r for r in report.results}
        assert by_name["ok"].status == "pass"
        assert by_name["bad"].status == "FAIL"
        assert by_name["absent"].status == "skip"
        assert report.verdict == "fail"
        assert [b.rule.name for b in report.breaches] == ["bad"]

    def test_glob_takes_worst_series(self):
        timeline = self._timeline(**{"q:a": [1.0], "q:b": [9.0]})
        rule = SLORule(name="r", series="q:*", agg="max", threshold=5.0)
        result = SLOMonitor([rule]).evaluate(timeline).results[0]
        assert result.status == "FAIL"
        assert result.observed == pytest.approx(9.0)
        assert result.matched_series == ("q:a", "q:b")

    def test_percentile_agg(self):
        timeline = self._timeline(lat=[float(i) for i in range(1, 101)])
        rule = SLORule(name="p99", series="lat", agg="p99", threshold=98.0)
        result = SLOMonitor([rule]).evaluate(timeline).results[0]
        assert result.status == "FAIL"
        assert result.observed > 98.0

    def test_rule_validation_and_roundtrip(self):
        with pytest.raises(ValueError):
            SLORule(name="x", series="s", threshold=1.0, agg="p999")
        with pytest.raises(ValueError):
            SLORule(name="x", series="s", threshold=1.0, op="==")
        with pytest.raises(ValueError, match="threshold must be a number"):
            SLORule(name="x", series="s", threshold="abc")
        with pytest.raises(ValueError, match="threshold must be a number"):
            SLORule(name="x", series="s", threshold=True)
        with pytest.raises(ValueError, match="must be strings"):
            SLORule(name="x", series=5, threshold=1.0)
        with pytest.raises(ValueError, match="unknown op"):
            SLORule(name="x", series="s", threshold=1.0, op=[])
        rule = SLORule(name="x", series="s", threshold=1.0, op=">", agg="min")
        assert SLORule.from_obj(rule.to_obj()) == rule
        with pytest.raises(ValueError, match="missing"):
            SLORule.from_obj({"name": "x"})

    def test_default_smoke_rules_pass_on_sim_trace(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        timeline = _timeline(e.to_obj() for e in sink.events)
        report = SLOMonitor(default_smoke_slos()).evaluate(_series(timeline))
        assert report.ok, [r.to_obj() for r in report.results if not r.ok]


class TestDashboardDeterminism:
    def test_same_seed_summaries_byte_identical(
        self, tmp_path, install_tracer
    ):
        a = _traced_run(install_tracer, tmp_path / "a.jsonl")
        b = _traced_run(install_tracer, tmp_path / "b.jsonl")
        summaries = []
        for path in (a, b):
            summary = build_dashboard(str(path))
            summary.pop("wall", None)  # volatile wall-clock content
            summaries.append(json.dumps(summary, sort_keys=True))
        assert summaries[0] == summaries[1]

    def test_replay_section_validates(self, tmp_path, install_tracer):
        path = _traced_run(install_tracer, tmp_path / "t.jsonl")
        summary = build_dashboard(str(path))
        assert summary["replay"]["ok"] is True
        assert summary["replay"]["checks"] > 0
        assert summary["slo"]["verdict"] == "pass"


class TestTimerPercentiles:
    def test_bounded_error_on_uniform_ramp(self):
        metrics = Metrics()
        timer = metrics.timer("lat")
        for v in range(1, 101):
            timer.observe(float(v))
        stat = timer.stat()
        # Histogram-backed: nearest-rank within the bucket relative error.
        assert stat.quantile(50) == pytest.approx(50.0, rel=0.01)
        assert stat.quantile(99) == pytest.approx(99.0, rel=0.01)
        assert stat.sum_s == 5050.0

    def test_snapshot_includes_percentiles(self):
        metrics = Metrics()
        metrics.timer("lat").observe(2.0)
        stat = metrics.snapshot()["timers"]["lat"][""]
        for key in ("p50_s", "p95_s", "p99_s"):
            assert stat[key] == pytest.approx(2.0)

    def test_histogram_backed_bounded_and_deterministic(self):
        stats = []
        for _ in range(2):
            metrics = Metrics()
            timer = metrics.timer("lat")
            for v in range(10_000):
                timer.observe(float(v))
            stats.append(timer.stat())
        # Same observation sequence ⇒ byte-identical histogram state, and
        # the bucket count is bounded regardless of observation count.
        assert stats[0].to_obj() == stats[1].to_obj()
        assert len(stats[0].to_obj()["buckets"]) < 2_000
        assert stats[0].quantile(90) == pytest.approx(9_000, rel=0.01)
        assert stats[0].summary() == stats[1].summary()


class TestStatsMove:
    def test_repro_package_import_warns_nothing(self):
        """The supported spelling is ``from repro import BoxStats``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import BoxStats, evaluate_violations  # noqa: F401

    def test_violations_recorded_into_registry(self, isolate_obs):
        from repro import ClusterState, ConstraintManager, evaluate_violations

        topo = build_cluster(4)
        state = ClusterState(topo)
        manager = ConstraintManager(topo)
        metrics = Metrics()
        evaluate_violations(state, manager=manager, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["counters"]["violations_evaluations_total"][""] == 1
        assert "violations_containers" in snap["gauges"]


class TestTraceFileReading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFileError, match="cannot read"):
            list(iter_trace(str(tmp_path / "nope.jsonl")))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFileError, match="no events"):
            list(iter_trace(str(path)))

    def test_corrupt_mid_file_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "a", "seq": 0}\nnot json\n{"kind": "b"}\n')
        with pytest.raises(TraceFileError, match="line 2"):
            list(iter_trace(str(path)))

    def test_trailing_partial_line_tolerated(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"kind": "a", "seq": 0}\n{"kind": "b", "se')
        reader = iter_trace(str(path))
        assert [e["kind"] for e in reader] == ["a"]
        assert reader.truncated

    def test_directory_gets_actionable_error(self, tmp_path):
        with pytest.raises(TraceFileError, match="is a directory"):
            list(iter_trace(str(tmp_path)))

    def test_bench_json_gets_actionable_error(self, tmp_path):
        path = tmp_path / "BENCH_timeline.json"
        path.write_text(json.dumps(
            {"schema": 2, "benchmarks": {"fig11a": {"series": {}}}},
            indent=2,
        ))
        with pytest.raises(TraceFileError, match="corrupt JSON on line 1"):
            list(iter_trace(str(path)))

    def test_non_event_json_gets_actionable_error(self, tmp_path):
        path = tmp_path / "notatrace.jsonl"
        path.write_text('{"kind": "a", "seq": 0}\n{"hello": "world"}\n')
        with pytest.raises(TraceFileError, match="no 'kind' field"):
            list(iter_trace(str(path)))

    @pytest.mark.parametrize("name", ["random.bin", "legacy.mtrc"])
    def test_binary_file_is_trace_error(self, tmp_path, capsys, name):
        """Bytes that are not UTF-8 — random data, or a legacy columnar
        trace (magic + zlib chunks) — are a typed error, and every trace
        command exits 1 with a one-line message instead of a traceback."""
        import random
        import zlib

        from repro.cli import main

        path = tmp_path / name
        if name == "random.bin":
            path.write_bytes(b"\xff\xfe" + random.Random(0).randbytes(4096))
        else:
            chunk = zlib.compress(json.dumps([{"kind": "a"}] * 50).encode())
            path.write_bytes(b"MTRC\x01\x00\x00\x00"
                             + len(chunk).to_bytes(4, "little") + chunk)
        with pytest.raises(TraceFileError, match="not UTF-8"):
            list(iter_trace(str(path)))
        good = tmp_path / "good.jsonl"
        good.write_text('{"kind": "a", "seq": 0}\n')
        for argv in (["dashboard", str(path)], ["diff", str(good), str(path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "not UTF-8" in err and "Traceback" not in err

    def test_cli_dashboard_actionable_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["dashboard", str(tmp_path)]) == 1
        assert "is a directory" in capsys.readouterr().err

    def test_cli_trace_report_bench_file_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"benchmarks": {}}, indent=2))
        assert main(["dashboard", str(path)]) == 1
        assert "dashboard:" in capsys.readouterr().err


class TestCli:
    def test_trace_report_empty_file_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["dashboard", str(path)]) == 1
        assert "no events" in capsys.readouterr().err

    def test_trace_report_tolerates_truncated(self, tmp_path, capsys,
                                              install_tracer):
        path = _traced_run(install_tracer, tmp_path / "t.jsonl")
        text = path.read_text()
        path.write_text(text[:-20])  # cut into the final line
        from repro.cli import main

        assert main(["dashboard", str(path)]) == 0
        assert "note: trailing partial line ignored" in capsys.readouterr().out

    def test_dashboard_end_to_end(self, tmp_path, capsys, install_tracer):
        from repro.cli import main

        path = _traced_run(install_tracer, tmp_path / "t.jsonl")
        json_out = tmp_path / "dash.json"
        html_out = tmp_path / "dash.html"
        status = main([
            "dashboard", str(path), "--json", str(json_out),
            "--html", str(html_out), "--fail-on-breach",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "SLO verdict: pass" in out
        assert "replay: OK" in out
        summary = json.loads(json_out.read_text())
        assert summary["series"]["utilization"]["points"]
        html = html_out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html and "utilization" in html

    def test_dashboard_missing_trace_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["dashboard", str(tmp_path / "nope.jsonl")]) == 1
        assert "dashboard:" in capsys.readouterr().err

    def test_dashboard_fail_on_breach(self, tmp_path, capsys, install_tracer):
        from repro.cli import main

        path = _traced_run(install_tracer, tmp_path / "t.jsonl")
        rules = tmp_path / "slo.json"
        rules.write_text(json.dumps([
            {"name": "impossible", "series": "utilization",
             "agg": "max", "op": "<=", "threshold": -1.0},
        ]))
        assert main(["dashboard", str(path), "--slo", str(rules)]) == 0
        assert main([
            "dashboard", str(path), "--slo", str(rules), "--fail-on-breach",
        ]) == 3
        assert "failing on SLO breach" in capsys.readouterr().err
