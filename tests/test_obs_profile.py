"""Tests for the span profiler and critical-path analyzer (ISSUE 4).

Covers the span model itself (nesting, self-time, synthetic phases, the
disabled no-op), the profile aggregation and its collapsed-stack export
(including the determinism contract: count-weighted stacks built from the
canonical, wall-stripped stream are byte-identical across same-seed runs),
the per-app critical-path attribution, the dashboard embedding (profile
timings stay under the summary's top-level ``"wall"`` key), and the
``repro dashboard --collapsed`` export.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    Resource,
    SerialScheduler,
    TaskRequest,
    build_cluster,
)
from repro.cli import main as cli_main
from repro.core.constraints import anti_affinity
from repro.obs import (
    EventKind,
    JsonlSink,
    MemorySink,
    Tracer,
    canonical,
    span,
    span_phase,
)
from repro.obs.profile import CriticalPathBuilder, ProfileReport
from repro.obs.report import build_dashboard, dashboard_view, iter_trace
from repro.obs.spans import _NULL_SPAN, current_span_path
from repro.obs.view import to_html, to_text
from repro.sim import ClusterSimulation, SimConfig
from tests.helpers import make_lra, span_profile


def _traced(install_tracer):
    """Install a tracer capturing into a fresh memory sink; return it."""
    sink = MemorySink()
    install_tracer(Tracer([sink]))
    return sink


def _span_events(sink):
    return [e for e in sink.events if e.kind == EventKind.SPAN]


def _page(report):
    """The dashboard page of a summary holding only ``report``'s spans."""
    summary = {"profile": report.to_obj(), "wall": {"profile": report.wall_obj()}}
    return to_text(dashboard_view(summary))


class TestSpans:
    def test_nesting_builds_paths_and_depths(self, install_tracer):
        sink = _traced(install_tracer)
        with span("root", time=3.0):
            with span("child"):
                with span("leaf"):
                    assert current_span_path() == "root;child;leaf"
        events = _span_events(sink)
        # Spans close inside-out.
        assert [e.data["path"] for e in events] == [
            "root;child;leaf", "root;child", "root",
        ]
        assert [e.data["depth"] for e in events] == [2, 1, 0]
        assert events[2].time == 3.0
        for event in events:
            assert event.wall["dur_s"] >= 0.0
            assert event.wall["self_s"] >= 0.0

    def test_self_time_excludes_children(self, install_tracer):
        sink = _traced(install_tracer)
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = _span_events(sink)
        assert outer.data["name"] == "outer"
        assert outer.wall["self_s"] <= outer.wall["dur_s"]
        assert outer.wall["dur_s"] >= inner.wall["dur_s"]

    def test_disabled_tracer_returns_shared_noop(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink], enabled=False))
        ctx = span("anything")
        assert ctx is _NULL_SPAN
        assert span("other") is ctx
        with ctx:
            pass
        span_phase("phase", 0.5)  # must be a silent no-op
        assert sink.events == []

    def test_span_emits_even_on_exception(self, install_tracer):
        sink = _traced(install_tracer)
        with pytest.raises(RuntimeError):
            with span("crashy"):
                raise RuntimeError("boom")
        events = _span_events(sink)
        assert [e.data["name"] for e in events] == ["crashy"]
        assert current_span_path() is None

    def test_span_phase_charges_parent(self, install_tracer):
        sink = _traced(install_tracer)
        with span("solve"):
            span_phase("lp", 0.25, count=12)
        lp, solve = _span_events(sink)
        assert lp.data == {
            "name": "lp", "path": "solve;lp", "depth": 1,
            "count": 12, "synthetic": True,
        }
        assert lp.wall == {"dur_s": 0.25, "self_s": 0.25}
        # The parent's self time excludes the synthetic child's duration
        # (clamped at zero because real elapsed time is far below 0.25s).
        assert solve.wall["self_s"] == 0.0

    def test_extra_labels_land_in_data(self, install_tracer):
        sink = _traced(install_tracer)
        with span("place", scheduler="Serial"):
            pass
        (event,) = _span_events(sink)
        assert event.data["scheduler"] == "Serial"


class TestProfileReport:
    def _report(self, install_tracer):
        sink = _traced(install_tracer)
        with span("run"):
            for _ in range(3):
                with span("cycle"):
                    span_phase("lp", 0.01, count=4)
        return span_profile(sink.events)

    def test_aggregates_by_path(self, install_tracer):
        report = self._report(install_tracer)
        assert set(report.spans) == {"run", "run;cycle", "run;cycle;lp"}
        assert report.spans["run;cycle"].count == 3
        assert report.spans["run;cycle;lp"].count == 12
        assert report.spans["run;cycle;lp"].total_s == pytest.approx(0.03)

    def test_collapsed_stack_format(self, install_tracer):
        report = self._report(install_tracer)
        lines = report.collapsed(weight="count").splitlines()
        assert lines == ["run 1", "run;cycle 3", "run;cycle;lp 12"]
        time_lines = report.collapsed(weight="time").splitlines()
        assert [ln.rsplit(" ", 1)[0] for ln in time_lines] == [
            "run", "run;cycle", "run;cycle;lp",
        ]
        for line in time_lines:
            int(line.rsplit(" ", 1)[1])  # integer microseconds
        with pytest.raises(ValueError):
            report.collapsed(weight="bogus")

    def test_zero_observation_guards(self):
        report = ProfileReport()
        assert report.collapsed() == ""
        assert report.collapsed(weight="count") == ""
        assert report.to_obj() == {"events": 0, "spans": []}
        assert report.wall_obj() == {}
        text = _page(report)
        assert "no spans recorded" in text
        assert "no LRA lifecycle events" in text

    def test_to_obj_is_deterministic_and_wall_free(self, install_tracer):
        report = self._report(install_tracer)
        obj = report.to_obj()
        assert "wall" not in json.dumps(obj)
        assert [s["path"] for s in obj["spans"]] == sorted(
            s["path"] for s in obj["spans"]
        )

    def test_accepts_decoded_dicts(self, install_tracer):
        sink = _traced(install_tracer)
        with span("a"):
            pass
        decoded = [json.loads(line) for line in sink.jsonl().splitlines()]
        report = span_profile(decoded)
        assert report.spans["a"].count == 1

    def test_render_profile_indents_tree(self, install_tracer):
        text = _page(self._report(install_tracer))
        assert "run" in text
        assert "  cycle" in text
        assert "    lp" in text


class TestTimerStatZeroObservations:
    """Percentile queries on an empty timer stat (a
    :class:`~repro.obs.hist.LatencyHistogram`) must return a defined value
    (0.0), never raise — matching the profile report's empty-trace
    behaviour above."""

    def test_percentile_on_empty_stat_returns_zero(self):
        from repro.obs.metrics import Timer

        stat = Timer("t").stat()
        for q in (0, 50, 95, 99, 100):
            assert stat.quantile(q) == 0.0

    def test_to_dict_on_empty_stat_is_defined(self):
        from repro.obs.metrics import Timer

        snapshot = Timer("t").stat().summary()
        assert snapshot["count"] == 0
        assert snapshot["mean_s"] == 0.0
        assert snapshot["min_s"] == 0.0
        assert snapshot["p50_s"] == 0.0
        assert snapshot["p95_s"] == 0.0

    def test_unobserved_label_set_is_empty_stat(self):
        from repro.obs.metrics import Timer

        stat = Timer("t").stat(scheduler="never-used")
        assert stat.count == 0
        assert stat.sum_s == 0.0
        assert stat.quantile(95) == 0.0


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


class TestSimulationSpans:
    def test_sim_emits_span_tree(self, install_tracer):
        sink = _traced(install_tracer)
        _drive(_make_sim())
        report = span_profile(sink.events)
        paths = set(report.spans)
        assert "engine.run" in paths
        assert "engine.run;sim.cycle" in paths
        assert "engine.run;sim.cycle;medea.cycle" in paths
        assert "engine.run;sim.cycle;medea.cycle;place:Serial" in paths
        assert "engine.run;sim.heartbeat" in paths
        # Parent totals dominate child totals.
        assert (
            report.spans["engine.run"].total_s
            >= report.spans["engine.run;sim.cycle"].total_s
        )

    def test_count_collapsed_stack_deterministic_across_runs(
        self, install_tracer
    ):
        stacks = []
        for _ in range(2):
            sink = _traced(install_tracer)
            _drive(_make_sim())
            # Build from the canonical (wall-stripped) stream: exactly what
            # the acceptance criterion compares.
            decoded = [
                json.loads(line)
                for line in canonical(sink.jsonl()).splitlines()
            ]
            stacks.append(span_profile(decoded).collapsed(weight="count"))
        assert stacks[0] == stacks[1]

    def test_disabled_tracing_emits_nothing(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink], enabled=False))
        _drive(_make_sim())
        assert sink.events == []


def _critical_paths(events):
    builder = CriticalPathBuilder()
    for event in events:
        builder.feed(event.to_obj())
    return builder.result()


class TestCriticalPaths:
    def _traced_events(self, install_tracer):
        sink = _traced(install_tracer)
        _drive(_make_sim())
        return sink.events

    def test_attribution_for_placed_apps(self, install_tracer):
        paths = _critical_paths(self._traced_events(install_tracer))
        by_app = {p.app_id: p for p in paths}
        assert set(by_app) == {"web", "db"}
        web = by_app["web"]
        assert web.placed_time is not None
        assert web.latency_s == pytest.approx(
            web.queue_wait_s + web.retry_wait_s
        )
        assert web.queue_wait_s >= 0.0
        assert web.cycles >= 1
        assert web.attempts >= 1
        assert not web.dropped
        assert web.solver_wall_s >= 0.0

    def test_to_obj_segregates_solver_wall(self, install_tracer):
        paths = _critical_paths(self._traced_events(install_tracer))
        obj = paths[0].to_obj()
        assert "solver_wall_s" in obj["wall"]
        assert "solver_wall_s" not in {k for k in obj if k != "wall"}

    def test_empty_trace_yields_no_paths(self):
        assert _critical_paths([]) == []


class TestDashboardProfileEmbedding:
    def _summary(self, install_tracer, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(trace_path))
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        sink.close()
        return build_dashboard(str(trace_path))

    def test_profile_and_critical_paths_sections(
        self, install_tracer, tmp_path
    ):
        summary = self._summary(install_tracer, tmp_path)
        assert summary["profile"]["spans"]
        assert summary["critical_paths"]
        # Every wall-clock timing is hoisted under the top-level wall key;
        # stripping it must leave no volatile numbers behind.
        wall = summary["wall"]
        assert set(wall["profile"]) == {
            s["path"] for s in summary["profile"]["spans"]
        }
        assert set(wall["critical_paths"]) == {
            p["app_id"] for p in summary["critical_paths"]
        }
        for entry in summary["critical_paths"]:
            assert "wall" not in entry
            assert "solver_wall_s" not in entry

    def test_summary_stays_byte_deterministic(self, install_tracer, tmp_path):
        dumps = []
        for run in range(2):
            subdir = tmp_path / f"r{run}"
            subdir.mkdir()
            summary = self._summary(install_tracer, subdir)
            summary.pop("wall", None)
            dumps.append(json.dumps(summary, sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_renderers_include_sections(self, install_tracer, tmp_path):
        summary = self._summary(install_tracer, tmp_path)
        text = to_text(dashboard_view(summary))
        assert "span profile" in text
        assert "critical paths" in text
        html = to_html(dashboard_view(summary))
        assert "Span profile" in html
        assert "Critical paths" in html


class TestProfileCli:
    def _trace(self, install_tracer, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(trace_path))
        install_tracer(Tracer([sink]))
        _drive(_make_sim())
        sink.close()
        return trace_path

    def test_profile_command(self, install_tracer, tmp_path, capsys):
        trace_path = self._trace(install_tracer, tmp_path)
        collapsed = tmp_path / "stacks.txt"
        summary_json = tmp_path / "dashboard.json"
        status = cli_main([
            "dashboard", str(trace_path),
            "--collapsed", str(collapsed), "--weight", "count",
            "--json", str(summary_json),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "span profile:" in out
        assert "critical paths (per application):" in out
        assert f"collapsed stacks (count) written to {collapsed}" in out
        stacks = collapsed.read_text()
        assert any(
            line.startswith("engine.run ") for line in stacks.splitlines()
        )
        payload = json.loads(summary_json.read_text())
        assert payload["profile"]["spans"]
        assert payload["critical_paths"]

    @pytest.mark.parametrize("weight", ["time", "count"])
    def test_collapsed_file_is_the_profile_of_the_trace(
        self, install_tracer, tmp_path, capsys, weight
    ):
        """``--collapsed`` writes exactly the collapsed stacks of the
        trace's own span events, for either weight."""
        trace_path = self._trace(install_tracer, tmp_path)
        collapsed = tmp_path / "stacks.txt"
        assert cli_main([
            "dashboard", str(trace_path), "--collapsed", str(collapsed),
            "--weight", weight,
        ]) == 0
        profile = span_profile(iter_trace(str(trace_path)))
        expected = profile.collapsed(weight=weight).encode("utf-8")
        assert expected
        assert collapsed.read_bytes() == expected

    def test_collapsed_needs_a_raw_trace(self, isolate_obs, tmp_path, capsys):
        rollup = tmp_path / "ROLLUP_run.json"
        assert cli_main([
            "simulate", "--nodes", "10", "--horizon", "20", "--lras", "1",
            "--tasks", "5", "--scheduler", "nc", "--rollup", str(rollup),
        ]) == 0
        capsys.readouterr()
        status = cli_main([
            "dashboard", str(rollup), "--collapsed", str(tmp_path / "s.txt"),
        ])
        assert status == 2
        assert "--collapsed needs the raw JSONL trace" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()

    def test_unwritable_collapsed_file_is_one_line(
        self, install_tracer, tmp_path, capsys
    ):
        trace_path = self._trace(install_tracer, tmp_path)
        target = tmp_path / "no" / "such" / "stacks.txt"
        assert cli_main([
            "dashboard", str(trace_path), "--collapsed", str(target),
        ]) == 1
        err = capsys.readouterr().err
        assert f"dashboard: cannot write {target}:" in err
        assert "Traceback" not in err

    def test_profile_command_missing_file(self, tmp_path, capsys):
        status = cli_main(["dashboard", str(tmp_path / "nope.jsonl")])
        assert status == 1
        assert "dashboard:" in capsys.readouterr().err
