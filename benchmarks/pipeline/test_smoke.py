"""Smoke test of the pipeline benchmark at ``--smoke`` sizes (not tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.pipeline import run
from benchmarks.pipeline.spans import SpanRecorder

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Short enough for one pass per run at ``--smoke`` sizes.
SECONDS = 0.1
RUN_PY = os.path.join(run.HERE, "run.py")


@pytest.fixture(scope="module")
def runs() -> dict:
    """(workload, seed, trace) -> run, all in this process."""
    run.prepare_environment()
    started = time.perf_counter()
    out = {}
    for name in WORKLOADS:
        for seed, trace in ((0, False), (0, True), (1, False)):
            out[name, seed, trace] = run.run_single(
                name, seed, SECONDS, trace, smoke=True
            )
    out["elapsed_s"] = time.perf_counter() - started
    return out


def test_smoke_sizes_are_quick(runs) -> None:
    assert runs["elapsed_s"] < 20.0


def test_names_match_benchmark_json(runs) -> None:
    declared = {
        False: [m["name"] for m in SPEC["end_to_end"]],
        True: [m["name"] for m in SPEC["per_layer"]],
    }
    names = WORKLOADS + declared[False] + declared[True]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for name in WORKLOADS:
        for trace in (False, True):
            result = runs[name, 0, trace]["result"]
            # Both directions: nothing undeclared is computed (that would
            # make the run incorrect) and nothing declared is left out.
            assert result["correct"], runs[name, 0, trace]["detail"]["errors"]
            assert list(result["metrics"]) == declared[trace]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_values_are_finite_and_nothing_fails(runs) -> None:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key, one in runs.items():
        if key == "elapsed_s":
            continue
        result = one["result"]
        assert result["attempted"] >= 1 and result["failed"] == 0, key
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), (key, name)
            assert metric["unit"] == units[name]
        if not key[2]:
            assert all(m["value"] > 0 for m in result["metrics"].values()), key


def test_second_seed_changes_inputs_not_schema(runs) -> None:
    for name in WORKLOADS:
        first, second = runs[name, 0, False], runs[name, 1, False]
        assert first["detail"]["inputs_digest"] != second["detail"]["inputs_digest"]
        assert list(first["result"]["metrics"]) == list(second["result"]["metrics"])


def test_traced_run_reports_overhead_and_writes_trace(runs) -> None:
    for name in WORKLOADS:
        traced = runs[name, 0, True]
        assert traced["result"]["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
        assert traced["detail"]["missing_targets"] == []
        with open(os.path.join(run.OUT_DIR, f"trace_{name}.json")) as handle:
            document = json.load(handle)
        assert document["workload"] == name and document["spans"]
        assert len(document["spans"][0]) == len(document["columns"])


def test_same_seed_gives_same_outputs(runs) -> None:
    # Long enough for two passes, which must agree with each other too.
    again = run.run_single("lra_heuristic", 0, 0.4, False, smoke=True)
    assert again["detail"]["passes"] == 2 and again["result"]["correct"]
    assert again["detail"]["fingerprint"] == runs["lra_heuristic", 0, False]["detail"]["fingerprint"]
    assert again["detail"]["fingerprint"] is not None


def test_command_line_contract() -> None:
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "serve_open", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--smoke"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_fails_without_the_program(tmp_path) -> None:
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "pipeline",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "lra_ilp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_excludes_wrapped_children_and_missing_targets_are_listed() -> None:
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))

    def outer_body() -> None:
        inner()
        time.sleep(0.01)

    outer = recorder.wrap("outer", outer_body)
    outer()  # not recording yet: the call goes straight through
    assert recorder.totals() == {}
    with recorder.recording():
        outer()
    totals = recorder.totals()
    assert totals["outer"]["calls"] == 1 and totals["outer"]["total_s"] >= 0.03
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["inner"][4] == by_name["outer"][0]  # parent id

    recorder.install({"gone": "repro.cluster.state:ClusterState.no_such_method"})
    recorder.uninstall()
    assert recorder.missing == ["gone"]
