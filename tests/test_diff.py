"""Cross-run differential observability: ``repro.obs.diff`` + ``repro diff``.

Covers the diff plane's contract end to end: the backend × engine
same-seed equivalence matrix, first-divergence localization, causal
placement-flip explanations from decision audits, the INCOMPARABLE
guard rails, exit-code semantics, artifact outputs, and the JSONL
read-back of sampled traces the diff relies on.
"""

from __future__ import annotations

import json

from repro import NodeCandidatesScheduler, SerialScheduler, build_cluster
from repro.apps import hbase_instance, tensorflow_instance
from repro.cli import EXIT_DATA_ERROR, EXIT_GATE, EXIT_OK, main
from repro.obs import (
    STRUCTURAL_KINDS,
    VERDICT_DIVERGED,
    VERDICT_EQUIVALENT,
    VERDICT_IDENTICAL,
    VERDICT_INCOMPARABLE,
    MemorySink,
    Tracer,
    diff_events,
    diff_view,
    to_html,
    to_text,
)
from repro.obs.metrics import Metrics
from repro.obs.sample import SamplingPolicy, TraceSampler
from repro.obs.watchdog import Watchdog
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads import GridMixConfig, generate_tasks


def _run_events(
    install_tracer,
    *,
    seed: int = 5,
    scheduler=None,
    audit: bool = False,
    horizon: float = 40.0,
    sample: str | None = None,
    watchdog: Watchdog | None = None,
):
    """Run a small mixed workload and return the decoded trace objects."""
    sink = MemorySink()
    sampler = TraceSampler(SamplingPolicy.parse(sample)) if sample else None
    tracer = install_tracer(Tracer([sink], sampler=sampler))
    scheduler = scheduler or NodeCandidatesScheduler()
    if audit:
        scheduler.audit_enabled = True
    topo = build_cluster(10, racks=2, memory_mb=16 * 1024, vcores=8)
    sim = ClusterSimulation(
        topo,
        scheduler,
        config=SimConfig(scheduling_interval_s=5.0, horizon_s=horizon),
        metrics=Metrics(),
        watchdog=watchdog,
    )
    sim.submit_lra(hbase_instance("lra-0"), at=2.0)
    sim.submit_lra(tensorflow_instance("lra-1"), at=9.0)
    for arrival, task in generate_tasks(GridMixConfig(seed=seed), count=20):
        if arrival < horizon:
            sim.submit_task(task, at=arrival)
    sim.run(horizon)
    tracer.close()
    return [e.to_obj() for e in sink.events]


class TestVerdicts:
    def test_same_stream_is_identical(self, install_tracer):
        events = _run_events(install_tracer)
        report = diff_events(events, events)
        assert report.verdict == VERDICT_IDENTICAL
        assert report.ok and report.comparable
        assert report.headline() == "IDENTICAL"
        assert not report.flips

    def test_same_seed_twice_is_identical(self, install_tracer):
        """The determinism contract: two separate same-seed runs make the
        same decisions and record the same canonical trace."""
        report = diff_events(
            _run_events(install_tracer), _run_events(install_tracer)
        )
        assert report.verdict == VERDICT_IDENTICAL
        assert report.ok

    def test_armed_watchdog_changes_cadence_not_decisions(
        self, install_tracer
    ):
        """An armed watchdog fires the idle heartbeat ticks an unarmed run
        skips: more ``sim.heartbeat``/``sim.state_hash`` events, the same
        decisions."""
        a = _run_events(install_tracer)
        b = _run_events(install_tracer, watchdog=Watchdog(mode="warn"))
        assert len(b) > len(a)
        report = diff_events(a, b, label_a="unarmed", label_b="armed")
        assert report.verdict == VERDICT_EQUIVALENT
        assert report.ok
        assert report.placements["flipped"] == 0
        assert report.checkpoints["final_match"]
        assert report.checkpoints["mismatched"] == 0

    def test_different_seed_diverges_with_localization(self, install_tracer):
        a = _run_events(install_tracer, seed=5)
        b = _run_events(install_tracer, seed=6)
        report = diff_events(a, b)
        assert report.verdict == VERDICT_DIVERGED
        assert not report.ok
        assert report.tick is not None
        assert report.headline().startswith("DIVERGED@")
        div = report.divergence
        assert div is not None
        # The first divergent pair is concrete: canonical events, a reason,
        # and each side's following structural context.
        assert div.a is not None and div.b is not None
        assert div.reason
        assert div.after_a or div.after_b

    def test_scheduler_flip_explained_from_audit(self, install_tracer):
        a = _run_events(
            install_tracer, scheduler=NodeCandidatesScheduler(), audit=True
        )
        b = _run_events(
            install_tracer, scheduler=SerialScheduler(), audit=True
        )
        report = diff_events(a, b, label_a="nc", label_b="serial")
        assert report.verdict == VERDICT_DIVERGED
        assert report.placements["flipped"] > 0
        assert report.flips
        # At least one flip carries a causal explanation derived from the
        # recorded scheduler.audit payloads.
        explained = [f for f in report.flips if f.explanation]
        assert explained
        text = "\n".join(line for f in explained for line in f.explanation)
        assert ("pruned" in text or "score terms" in text
                or "candidate" in text or "upstream decision" in text)

    def test_empty_side_is_incomparable(self, install_tracer):
        events = _run_events(install_tracer)
        report = diff_events([], events)
        assert report.verdict == VERDICT_INCOMPARABLE
        assert not report.ok and not report.comparable

    def test_disjoint_structural_kinds_are_incomparable(self):
        a = [{"kind": "lra.submit", "seq": 0, "time": 1.0,
              "data": {"app_id": "x", "containers": 1, "constraints": 0}}]
        b = [{"kind": "task.submit", "seq": 0, "time": 1.0,
              "data": {"task_id": "t", "queue": "default"}}]
        report = diff_events(a, b)
        assert report.verdict == VERDICT_INCOMPARABLE
        assert "no shared structural" in report.reason

    def test_structural_tail_imbalance_diverges(self, install_tracer):
        events = _run_events(install_tracer)
        structural = [e for e in events if e["kind"] in STRUCTURAL_KINDS]
        assert len(structural) > 3
        report = diff_events(events, events[:-len(events) // 4])
        assert report.verdict == VERDICT_DIVERGED
        assert "ended after" in report.divergence.reason

    def test_checkpoint_mismatch_alone_diverges(self):
        base = [
            {"kind": "lra.submit", "seq": 0, "time": 1.0,
             "data": {"app_id": "x", "containers": 1, "constraints": 0}},
        ]
        a = base + [{"kind": "sim.state_hash", "seq": 1, "time": 2.0,
                     "data": {"hash": "aaaa"}}]
        b = base + [{"kind": "sim.state_hash", "seq": 1, "time": 2.0,
                     "data": {"hash": "bbbb"}}]
        report = diff_events(a, b)
        assert report.verdict == VERDICT_DIVERGED
        assert report.tick == 2.0
        assert "fingerprints disagree" in report.reason


class TestRenderers:
    def test_render_diff_terminal(self, install_tracer):
        a = _run_events(install_tracer, seed=5, audit=True)
        b = _run_events(install_tracer, seed=6, audit=True)
        report = diff_events(a, b, label_a="A", label_b="B")
        text = to_text(diff_view(report))
        assert "verdict: DIVERGED@" in text
        assert "first divergent structural event" in text
        assert "A >" in text and "B >" in text

    def test_render_diff_html_self_contained(self, install_tracer):
        a = _run_events(install_tracer, seed=5, audit=True)
        b = _run_events(install_tracer, seed=6, audit=True)
        html = to_html(diff_view(diff_events(a, b)))
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "badge fail" in html
        assert "<style>" in html and "http" not in html.split("<style>")[1].split("</style>")[0]

    def test_report_keys_hold_decisions_only(self, install_tracer):
        """The report compares decisions only: no wall-clock axis, and no
        series or span-profile deltas (each run's dashboard has those)."""
        obj = diff_events(
            _run_events(install_tracer, seed=5),
            _run_events(install_tracer, seed=6),
        ).to_obj()
        assert set(obj) == {
            "verdict", "headline", "tick", "reason", "labels", "sides",
            "structural", "checkpoints", "placements", "flips", "notes",
            "divergence",
        }

    def test_report_to_obj_round_trips_json(self, install_tracer):
        a = _run_events(install_tracer, seed=5)
        b = _run_events(install_tracer, seed=6)
        obj = diff_events(a, b).to_obj()
        encoded = json.dumps(obj, sort_keys=True)
        assert json.loads(encoded)["verdict"] == VERDICT_DIVERGED
        assert json.loads(encoded)["divergence"]["reason"]


class TestDiffTraces:
    def _write_jsonl(self, path, events):
        with open(path, "w", encoding="utf-8") as handle:
            for obj in events:
                handle.write(json.dumps(obj, sort_keys=True) + "\n")
        return str(path)

    def test_sampled_trace_keeps_sampled_hash(self, install_tracer, tmp_path):
        """A sampled trace read back from JSONL keeps its canonical event
        stream, including the ``sampled_hash`` checkpoints a sampled
        replay is checked against."""
        from repro.obs.report import iter_trace

        events = _run_events(
            install_tracer, sample="span=0.25,task=0.5,seed=7"
        )
        path = self._write_jsonl(tmp_path / "sampled.jsonl", events)
        read_back = list(iter_trace(path))
        assert read_back == events
        hashes = [e for e in read_back if e["kind"] == "sim.state_hash"]
        assert hashes and any("sampled_hash" in e["data"] for e in hashes)

    def test_rollup_is_a_data_error(self, tmp_path, capsys, install_tracer):
        """A rollup holds aggregates, not decisions: the trace reader
        rejects it with its rollup message and ``diff`` exits 1."""
        events = _run_events(install_tracer)
        trace = self._write_jsonl(tmp_path / "a.jsonl", events)
        rollup = tmp_path / "roll.json"
        assert main([
            "simulate", "--nodes", "10", "--horizon", "30",
            "--lras", "1", "--tasks", "5", "--scheduler", "nc",
            "--rollup", str(rollup),
        ]) == EXIT_OK
        capsys.readouterr()
        assert main(["diff", str(rollup), trace]) == EXIT_DATA_ERROR
        captured = capsys.readouterr()
        assert captured.err == (
            f"diff: {rollup} is a ROLLUP_*.json streaming-rollup document, "
            "not a raw trace — pass it to 'repro dashboard' directly\n"
        )
        assert captured.out == ""


class TestCliDiff:
    def _trace(self, install_tracer, tmp_path, name, *, seed):
        events = _run_events(install_tracer, seed=seed)
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as handle:
            for obj in events:
                handle.write(json.dumps(obj, sort_keys=True) + "\n")
        return str(path)

    def test_equivalent_exits_zero(self, install_tracer, tmp_path, capsys):
        a = self._trace(install_tracer, tmp_path, "a.jsonl", seed=5)
        b = self._trace(install_tracer, tmp_path, "b.jsonl", seed=5)
        assert main(["diff", a, b, "--fail-on-divergence"]) == EXIT_OK
        assert "verdict: IDENTICAL" in capsys.readouterr().out

    def test_divergence_gates_with_exit_3(
        self, install_tracer, tmp_path, capsys
    ):
        a = self._trace(install_tracer, tmp_path, "a.jsonl", seed=5)
        b = self._trace(install_tracer, tmp_path, "b.jsonl", seed=6)
        assert main(["diff", a, b]) == EXIT_OK
        capsys.readouterr()
        assert main(["diff", a, b, "--fail-on-divergence"]) == EXIT_GATE
        captured = capsys.readouterr()
        assert "failing on DIVERGED@" in captured.err

    def test_missing_file_is_data_error(
        self, install_tracer, tmp_path, capsys
    ):
        a = self._trace(install_tracer, tmp_path, "a.jsonl", seed=5)
        assert main(["diff", a, str(tmp_path / "nope.jsonl")]) == EXIT_DATA_ERROR
        assert "diff:" in capsys.readouterr().err

    def test_json_and_html_artifacts(self, install_tracer, tmp_path, capsys):
        a = self._trace(install_tracer, tmp_path, "a.jsonl", seed=5)
        b = self._trace(install_tracer, tmp_path, "b.jsonl", seed=6)
        json_out = tmp_path / "diff.json"
        html_out = tmp_path / "diff.html"
        assert main([
            "diff", a, b, "--json", str(json_out), "--html", str(html_out),
        ]) == EXIT_OK
        doc = json.loads(json_out.read_text())
        assert doc["verdict"] == VERDICT_DIVERGED
        assert doc["headline"].startswith("DIVERGED@")
        # --json output is byte-stable: sorted keys, fixed indentation.
        assert json_out.read_text() == json.dumps(
            doc, indent=2, sort_keys=True
        ) + "\n"
        assert html_out.read_text().lstrip().startswith("<!DOCTYPE html>")

    def test_compare_diff_prints_pairwise_forensics(self, capsys, isolate_obs):
        assert main([
            "compare", "--nodes", "10", "--instances", "2", "--diff",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pairwise placement diff vs MEDEA-ILP" in out
        assert "DIVERGED@" in out or "EQUIVALENT" in out or "IDENTICAL" in out


class TestJsonStability:
    """Satellite: machine-readable outputs are byte-stable (sorted keys),
    so two invocations over the same inputs diff clean."""

    def test_dashboard_json_is_sorted_and_stable(self, tmp_path, capsys,
                                                 isolate_obs):
        trace = tmp_path / "t.jsonl"
        assert main([
            "simulate", "--nodes", "10", "--horizon", "30", "--lras", "1",
            "--tasks", "5", "--scheduler", "nc", "--trace-out", str(trace),
        ]) == EXIT_OK
        out1 = tmp_path / "d1.json"
        out2 = tmp_path / "d2.json"
        assert main(["dashboard", str(trace), "--json", str(out1)]) == EXIT_OK
        assert main(["dashboard", str(trace), "--json", str(out2)]) == EXIT_OK
        text = out1.read_text()
        assert text == out2.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rollup_file_is_sorted(self, tmp_path, capsys, isolate_obs):
        rollup = tmp_path / "roll.json"
        assert main([
            "simulate", "--nodes", "10", "--horizon", "30", "--lras", "1",
            "--tasks", "5", "--scheduler", "nc", "--rollup", str(rollup),
        ]) == EXIT_OK
        text = rollup.read_text()
        doc = json.loads(text)
        assert doc["schema"] == "medea.rollup/1"
        # Compact, sorted, newline-terminated — byte-stable across flushes.
        assert text == json.dumps(doc, sort_keys=True) + "\n"
