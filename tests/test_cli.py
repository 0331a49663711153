"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_USAGE, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.nodes == 60 and args.instances == 8


@pytest.mark.parametrize("argv, line", [
    (["simulate", "--nodes", "0"], "simulate: --nodes must be >= 1"),
    (["simulate", "--horizon", "-5"], "simulate: --horizon must be > 0"),
    (["compare", "--nodes", "0"], "compare: --nodes must be >= 1"),
    (["compare", "--racks", "0"], "compare: --racks must be >= 1"),
    (["compare", "--max-rs-per-node", "0"],
     "compare: --max-rs-per-node must be >= 1"),
    (["simulate", "--horizon", "inf"], "simulate: --horizon must be finite"),
    (["loadgen", "--rate", "inf"], "loadgen: --rate must be finite"),
], ids=["simulate-nodes", "simulate-horizon", "compare-nodes", "compare-racks",
        "compare-max-rs-per-node", "simulate-horizon-inf", "loadgen-rate-inf"])
def test_size_flag_out_of_range_is_usage_error(
    argv, line, tmp_path, capsys, monkeypatch
):
    """A size the run cannot have is one usage line and exit 2 before
    anything runs — no traceback, no silently empty run, no trace file."""
    trace = tmp_path / "t.jsonl"
    # ``loadgen`` has no ``--trace-out``; it reads the variable.
    monkeypatch.setenv("MEDEA_TRACE_OUT", str(trace))
    flags = [] if argv[0] == "loadgen" else ["--trace-out", str(trace)]
    assert main([*argv, *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == "" and not trace.exists()


class TestTable1:
    def test_prints_matrix(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Medea" in out and "Kubernetes" in out


class TestParse:
    def test_valid_constraint(self, capsys):
        assert main(["parse", "{storm, {hb & mem, 1, inf}, node}"]) == 0
        out = capsys.readouterr().out
        assert "affinity" in out and "node" in out

    def test_anti_affinity_kind(self, capsys):
        assert main(["parse", "{a, {b, 0, 0}, rack}"]) == 0
        assert "anti-affinity" in capsys.readouterr().out

    def test_invalid_constraint(self, capsys):
        assert main(["parse", "not a constraint"]) == 1
        assert "invalid" in capsys.readouterr().err


class TestCompare:
    def test_small_comparison_runs(self, capsys):
        assert main([
            "compare", "--nodes", "12", "--racks", "2",
            "--instances", "2", "--max-rs-per-node", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "MEDEA-ILP" in out and "YARN" in out
        assert "violations" in out


class TestSimulate:
    def test_short_simulation_runs(self, capsys):
        assert main([
            "simulate", "--nodes", "12", "--horizon", "30",
            "--lras", "1", "--tasks", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "LRAs placed" in out
        assert "tasks allocated" in out


class TestTraceSampleFlag:
    def test_simulate_with_sampled_jsonl_trace(self, tmp_path, capsys):
        from repro.obs.report import iter_trace

        out = tmp_path / "run.jsonl"
        assert main([
            "simulate", "--nodes", "12", "--horizon", "30",
            "--lras", "1", "--tasks", "20",
            "--trace-out", str(out),
            "--trace-sample", "task=0.5,dispatch=0,seed=3",
        ]) == 0
        events = list(iter_trace(str(out)))
        assert events
        assert all(e["kind"] != "engine.dispatch" for e in events)

    def test_trace_sample_requires_destination(self):
        with pytest.raises(SystemExit, match="trace destination"):
            main(["simulate", "--nodes", "8", "--horizon", "10",
                  "--lras", "0", "--tasks", "0",
                  "--trace-sample", "task=0.5"])

    def test_malformed_sample_spec_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-sample"):
            main(["simulate", "--nodes", "8", "--horizon", "10",
                  "--lras", "0", "--tasks", "0",
                  "--trace-out", str(tmp_path / "t.jsonl"),
                  "--trace-sample", "task=nope"])


#: A small traced-run argv shared by the session tests below.
SMALL_SIM = ["simulate", "--nodes", "12", "--horizon", "30",
             "--lras", "1", "--tasks", "20"]


class TestObsSession:
    """Every run command opens one observability session: a flag that is
    set wins over its variable, and nothing outlives the call."""

    def test_trace_out_flag_wins_over_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MEDEA_TRACE", "1")
        monkeypatch.chdir(tmp_path)
        assert main([*SMALL_SIM, "--trace-out", "x.jsonl"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.jsonl"]

    def test_trace_sample_flag_wins_over_env(self, tmp_path, monkeypatch, capsys):
        from repro.obs.report import iter_trace

        monkeypatch.setenv("MEDEA_TRACE", "1")
        monkeypatch.chdir(tmp_path)
        assert main([*SMALL_SIM, "--trace-sample", "task=0"]) == 0
        assert "(0 sampled out)" not in capsys.readouterr().out
        kinds = [e["kind"] for e in iter_trace("medea_trace.jsonl")]
        assert kinds
        assert not [k for k in kinds if k.startswith("task.")]

    @pytest.mark.parametrize("flag", ["--trace-out", "--rollup", "loadgen"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys,
                                                    monkeypatch, flag):
        """A trace or rollup path in a missing directory is one stderr line
        and exit 1 before any simulated work or load, never a traceback
        (``loadgen`` takes its trace path from the variables)."""
        path = tmp_path / "no" / "such" / "dir" / "out.json"
        if flag == "loadgen":
            monkeypatch.setenv("MEDEA_TRACE", "1")
            monkeypatch.setenv("MEDEA_TRACE_OUT", str(path))
            argv = ["loadgen", "--nodes", "12", "--rate", "200",
                    "--requests", "4"]
        else:
            argv = [*SMALL_SIM, flag, str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro: cannot write {path}: No such file or directory"
        ]
        assert "Traceback" not in captured.err

    def test_serve_and_rollup_count_each_event_once(self, tmp_path, capsys):
        import json

        trace, rollup = tmp_path / "t.jsonl", tmp_path / "R.json"
        assert main([*SMALL_SIM, "--trace-out", str(trace),
                     "--rollup", str(rollup), "--serve", "0"]) == 0
        lines = len(trace.read_text().splitlines())
        assert json.loads(rollup.read_text())["rollup"]["events"] == lines

    def test_no_tracer_outlives_a_call(self, tmp_path, capsys):
        from repro.obs.trace import get_tracer

        assert main([*SMALL_SIM, "--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert not get_tracer().enabled and not get_tracer().sinks
        assert "tracer:" in capsys.readouterr().out
        assert main(SMALL_SIM) == 0
        assert not get_tracer().enabled and not get_tracer().sinks
        assert "tracer:" not in capsys.readouterr().out

    def test_loadgen_traces_requests_from_env(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.obs.report import iter_trace
        from repro.obs.trace import get_tracer

        out = tmp_path / "load.jsonl"
        monkeypatch.setenv("MEDEA_TRACE", "1")
        monkeypatch.setenv("MEDEA_TRACE_OUT", str(out))
        assert main(["loadgen", "--rate", "200", "--requests", "4",
                     "--nodes", "12", "--concurrency", "2"]) == 0
        assert not get_tracer().enabled and not get_tracer().sinks
        events = list(iter_trace(str(out)))
        for kind in ("request.submit", "request.done"):
            of_kind = [e for e in events if e["kind"] == kind]
            assert len(of_kind) == 4, kind
            assert all(e["data"]["request_id"] for e in of_kind), kind


class TestTraceTools:
    @pytest.fixture()
    def trace(self, tmp_path):
        """A small simulated trace recorded through --trace-out."""
        out = tmp_path / "run.jsonl"
        assert main([*SMALL_SIM, "--trace-out", str(out)]) == 0
        return out

    def test_trace_report_reads_trace(self, trace, capsys):
        """The dashboard is the one report of a single trace: its page
        ends with the event count of every kind."""
        capsys.readouterr()
        assert main(["dashboard", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events by kind:" in out
        assert "task.allocate" in out and "TOTAL" in out

    def test_dashboard_reads_trace(self, trace, tmp_path, capsys):
        json_out = tmp_path / "dash.json"
        assert main(["dashboard", str(trace),
                     "--json", str(json_out)]) == 0
        assert "SLO" in capsys.readouterr().out
        import json as _json

        assert _json.loads(json_out.read_text())["series"]

    @pytest.mark.parametrize("command", ["dashboard", "diff", "loadgen"])
    def test_unwritable_artifact_is_one_line(self, trace, tmp_path, capsys,
                                             command):
        """A report artifact that cannot be written is one stderr line and
        exit 1, after the page, never a traceback."""
        missing = tmp_path / "no" / "such" / "dir"
        argv = {
            "dashboard": ["dashboard", str(trace), "--json",
                          str(missing / "x.json")],
            "diff": ["diff", str(trace), str(trace), "--html",
                     str(missing / "x.html")],
            "loadgen": ["loadgen", "--rate", "200", "--requests", "4",
                        "--nodes", "12", "--json", str(missing / "x.json")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out  # the page was printed first
        assert f"{command}: cannot write {missing}" in captured.err
        assert "No such file or directory" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("rules, reason", [
        ("[1]", "{path}: SLO rule 0 must be a JSON object, got 1"),
        ('[{"name": "x", "series": "utilization", "threshold": "abc"}]',
         "SLO rule 'x': threshold must be a number, got 'abc'"),
    ], ids=["non-object-entry", "non-numeric-threshold"])
    def test_malformed_slo_file_is_one_line(self, trace, tmp_path, capsys,
                                            rules, reason):
        """A malformed ``--slo`` file is one stderr line and exit 1 before
        any page is drawn, never a traceback."""
        slo = tmp_path / "slo.json"
        slo.write_text(rules)
        capsys.readouterr()
        assert main(["dashboard", str(trace), "--slo", str(slo)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "dashboard: cannot load SLO rules: " + reason.format(path=slo)
        ]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("doc, field", [
        ({"series": 5}, "'series' must be an object"),
        ({"series": {"a": {"points": [["a", 1]]}}},
         "'series.a.points' must be a list of [time, value] number pairs"),
        ({"replay": "ok"}, "'replay' must be an object"),
    ], ids=["series-not-object", "point-not-number", "replay-not-object"])
    def test_malformed_rollup_is_one_line(self, tmp_path, capsys, doc, field):
        """A rollup-tagged document of the wrong shape is one stderr line
        naming the bad field and exit 1, never a traceback."""
        import json as _json

        path = tmp_path / "ROLLUP_bad.json"
        path.write_text(_json.dumps({"schema": "medea.rollup/1", **doc}))
        assert main(["dashboard", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"dashboard: {path}: malformed rollup document: {field}"
        ]
        assert "Traceback" not in captured.err

    def test_streaming_ingest_memory_is_bounded(self, tmp_path):
        """The trace reader must not load the whole file: peak ingest
        allocation stays far below the trace's size (satellite: a
        1M-event JSONL must not be read into memory — scaled down here,
        the bound is what matters)."""
        import json as _json
        import tracemalloc

        from repro.obs.report import iter_trace

        path = tmp_path / "big.jsonl"
        with open(path, "w") as handle:
            for i in range(120_000):
                handle.write(_json.dumps({
                    "kind": "task.allocate", "seq": i, "time": float(i),
                    "data": {"task_id": f"t-{i}", "node_id": f"n-{i % 50}",
                             "mem_mb": 1024},
                }) + "\n")
        file_size = path.stat().st_size
        assert file_size > 10 * 1024 * 1024  # a genuinely big input

        tracemalloc.start()
        count = sum(1 for _ in iter_trace(str(path)))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 120_000
        assert peak < file_size / 4, (
            f"ingest peak {peak}B vs file {file_size}B — not streaming"
        )


def test_retired_ledger_stays_retired():
    """The schema-2 bench gate, the run log, the per-plane env/install
    wiring the observability session replaced, the parked serving stack
    (HTTP and virtual load targets, closed loop, the HTTP placement
    endpoint), the single-run readers the dashboard absorbed
    (``trace-report``, ``profile``), diff's wall-clock and rollup paths,
    every fold of an event stream but ``RollupState`` (with the settings
    and test-only entry points they carried), and the metric writers and
    diff sections that copied a number another record holds are deleted;
    their commands, flags and exports must not regrow."""
    import dataclasses
    import inspect

    import repro
    import repro.cli
    import repro.obs
    import repro.core.scheduler
    import repro.obs.load
    import repro.obs.metrics
    import repro.obs.stats
    import repro.solver.presolve

    for argv in (
        ["bench-compare", "A", "B"],
        ["simulate", "--log", "x"],
        ["compare", "--log", "x"],
        ["loadgen", "--bench-out", "x"],
        ["loadgen", "--place-delay", "1"],
        ["loadgen", "--mode", "closed"],
        ["loadgen", "--target", "http://127.0.0.1:1"],
        ["loadgen", "--http"],
        ["loadgen", "--virtual"],
        ["loadgen", "--service-time", "0.01"],
        ["loadgen", "--servers", "2"],
        ["loadgen", "--scheduler", "node-candidates"],
        ["trace-report", "t.jsonl"],
        ["profile", "t.jsonl"],
        ["dashboard", "t.jsonl", "--memory"],
        ["dashboard", "t.jsonl", "--tick", "2"],
        ["dashboard", "t.jsonl", "--max-points", "64"],
        ["diff", "a.jsonl", "b.jsonl", "--ratio", "2"],
        ["diff", "a.jsonl", "b.jsonl", "--abs-floor", "0.1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == EXIT_USAGE, argv
    assert not set(repro.obs.__all__) & {
        "compare_bench", "compare_bench_files", "load_bench", "BenchCheck",
        "BenchComparison", "RunLogger", "get_run_logger", "set_run_logger",
        "configure_log", "configure_log_from_env",
        "configure", "configure_from_env", "install_server", "serve_from_env",
        "get_server", "shutdown_server", "install_rollup", "get_rollup",
        "shutdown_rollup", "rollup_from_env", "watchdog_from_env",
        "diff_rollups", "summary_series", "build_profile", "critical_paths",
        "span_deltas", "build_dashboard_from_rollup", "load_rollup",
        "replay_events", "replay_jsonl", "read_trace", "TraceFile",
    }
    retired = {
        repro.obs.trace: ("configure", "configure_from_env"),
        repro.obs.serve: ("install", "get_server", "shutdown_server",
                          "serve_from_env", "_TelemetrySink", "_active_server"),
        repro.obs.rollup: ("install_rollup", "get_rollup", "shutdown_rollup",
                           "rollup_from_env", "_active_rollup",
                           "summary_series", "build_dashboard_from_rollup",
                           "_RollupTimeline", "load_rollup", "is_rollup_doc",
                           "DEFAULT_TOP_K_SPANS", "DEFAULT_INTERVAL_S",
                           "DEFAULT_EVENT_INTERVAL"),
        repro.obs.RollupState: ("_profile_objs",),
        repro.obs.replay: ("replay_events", "replay_jsonl"),
        repro.obs.ReplayState: ("placement_map", "down_nodes"),
        repro.obs.TimelineAggregator: ("emit", "close", "consume_all",
                                       "from_jsonl"),
        repro.obs.watchdog: ("watchdog_from_env",),
        # The serving stack's names are assembled, not spelled out, so a
        # source grep for them finds nothing once they are gone.
        repro.obs.load: ("request_from_obj", "request_to_obj",
                         *(f"{kind}Target" for kind in ("Http", "Virtual"))),
        repro.obs.serve.TelemetryServer: ("attach_" + "placement",),
        repro.cli: ("_configure_tracing", "_configure_live_plane",
                    "_finish_live_plane", "_cmd_trace_report", "_cmd_profile"),
        repro.obs.report: ("trace_report_view", "read_trace", "TraceFile"),
        repro.obs.profile: ("profile_summary", "profile_view", "span_deltas",
                            "build_profile", "critical_paths"),
        repro.obs.diff: ("diff_rollups", "_first_delta_tick", "_stat_delta",
                         "_series_section", "_profile_section"),
        # One record per number: the registry keeps no copy of a count
        # or duration another record holds.
        repro.obs.metrics.Timer: ("time",),
        repro.obs.metrics: ("_TimerContext",),
        repro.obs.metrics.Gauge: ("add",),
        repro.obs.SolverStats: ("record_to", "_COUNTER_FIELDS",
                                "_TIMER_FIELDS"),
        repro.obs.stats.BoxStats: ("record_to",),
        repro.core.scheduler: ("PLACE_REQUEST_COUNTER",),
        # Unread signals: no emitter, no reader outside their own tests.
        repro.obs.EventKind: ("SLO_BREACH", "MIGRATION_PLAN", "all_kinds"),
        repro.obs.Tracer: ("remove_sink",),
        repro.obs.TraceSampler: ("stats", "prefilter", "decide"),
        repro.obs.slo: ("SLOBreach",),
        repro.ClusterState: ("iter_nodes",),
        repro.PlacementResult: ("placements_of",),
        repro.solver.presolve: ("_identity_result",),
    }
    for module, names in retired.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # A dataclass field with a default factory leaves no class attribute.
    diff_fields = {f.name for f in dataclasses.fields(repro.obs.DiffReport)}
    assert not diff_fields & {"series", "profile"}
    # The folds' settings are module constants now, not arguments.
    settings = {
        repro.obs.RollupState: (),
        repro.obs.TimelineAggregator: (),
        repro.obs.RollupSink: ("path", "state"),
        repro.obs.TraceReader: ("path",),
        repro.obs.iter_trace: ("path",),
    }
    for obj, expected in settings.items():
        init = obj.__init__ if isinstance(obj, type) else obj
        params = tuple(inspect.signature(init).parameters)
        assert params[1 if isinstance(obj, type) else 0:] == expected, obj


def test_only_the_session_reads_the_environment():
    """Every ``MEDEA_*`` setting is read in one place."""
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    readers = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if "os.environ" in path.read_text() or "getenv" in path.read_text()
    )
    assert readers == ["obs/session.py"]
