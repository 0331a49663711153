"""Tests for the latency-under-load plane: the placement request path
(``PlacementService`` + request-scoped tracing), the in-process load
generator (``repro.obs.load``), the sweep/knee analysis and the
``repro loadgen`` command."""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    ClusterState,
    ConstraintManager,
    NodeCandidatesScheduler,
    build_cluster,
)
from repro.core.scheduler import (
    PLACE_REQUEST_HISTOGRAM,
    REJECT_OVERLOAD,
    PlacementService,
)
from repro.obs.load import (
    LOADGEN_SCHEMA,
    RequestTemplate,
    StepResult,
    SweepResult,
    build_arrivals,
    burst_arrivals,
    detect_knee,
    poisson_arrivals,
    run_step,
    run_sweep,
    sweep_to_json,
    sweep_to_obj,
    sweep_view,
    uniform_arrivals,
)
from repro.obs.metrics import Metrics, get_metrics, set_metrics
from repro.obs.view import to_html, to_text
from repro.obs.trace import (
    MemorySink,
    Tracer,
    current_request_id,
    request_context,
)


def _service(nodes=40, **kwargs):
    topology = build_cluster(nodes, racks=4, memory_mb=16 * 1024, vcores=8)
    state = ClusterState(topology)
    return PlacementService(
        state, NodeCandidatesScheduler(), ConstraintManager(topology), **kwargs
    )


class TestArrivals:
    def test_poisson_seeded_and_mean_rate(self):
        a = poisson_arrivals(50.0, 2_000, random.Random(3))
        b = poisson_arrivals(50.0, 2_000, random.Random(3))
        assert a == b
        assert a == sorted(a)
        # Realized rate within a few percent of nominal at N=2000.
        assert a[-1] == pytest.approx(2_000 / 50.0, rel=0.1)

    def test_uniform_spacing(self):
        arrivals = uniform_arrivals(10.0, 5)
        assert arrivals == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_burst_stays_inside_on_windows(self):
        arrivals = burst_arrivals(
            20.0, 500, random.Random(9), period_s=2.0, duty=0.25
        )
        assert arrivals == sorted(arrivals)
        for t in arrivals:
            assert t % 2.0 <= 0.5 + 1e-9  # only the 25% on-window is populated

    def test_dispatch_and_validation(self):
        rng = random.Random(0)
        assert build_arrivals("uniform", 10, 3, rng) == uniform_arrivals(10, 3)
        with pytest.raises(ValueError, match="unknown arrival"):
            build_arrivals("fractal", 10, 3, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 3, rng)


def _step(offered, achieved, latency_s, requests=50):
    """A hand-built step: ``requests`` placed, each taking ``latency_s``."""
    step = StepResult(
        offered_rps=offered, requests=requests, effective_rps=offered,
        placed=requests, duration_s=requests / achieved,
        achieved_rps=achieved,
    )
    for _ in range(requests):
        step.hist.record(latency_s)
    return step


def _sweep(steps):
    return SweepResult(
        steps=steps,
        config={"arrival": "poisson", "mode": "open",
                "target": "in-process NodeCandidatesScheduler"},
        knee=detect_knee(steps),
    )


class TestSweepAnalysis:
    def test_knee_from_throughput(self):
        knee = detect_knee([
            _step(10, 10, 0.002), _step(20, 19.5, 0.002),
            _step(40, 30, 0.003), _step(80, 31, 0.004),
        ])
        assert knee["step"] == 2
        assert knee["reason"] == "throughput"
        assert knee["offered_rps"] == 40
        # The capacity is the last achieved rate before the knee.
        assert knee["capacity_rps"] == 19.5

    def test_knee_from_latency(self):
        knee = detect_knee([
            _step(10, 10, 0.002), _step(20, 20, 0.004),
            _step(40, 40, 0.020), _step(80, 80, 0.050),
        ])
        assert knee["step"] == 2
        assert knee["reason"] == "latency"
        assert knee["p99_s"] > 5 * 0.002
        assert knee["capacity_rps"] == 20

    def test_unsaturated_ladder_has_no_knee(self):
        sweep = _sweep([_step(r, r, 0.002) for r in (5, 10, 20)])
        assert sweep.knee is None
        assert "no saturation knee" in to_text(sweep_view(sweep))

    def test_json_byte_stable(self):
        def build(latency_s=0.003):
            return _sweep([_step(10, 10, 0.002), _step(40, 30, latency_s)])

        assert sweep_to_json(build()) == sweep_to_json(build())
        assert sweep_to_json(build()) != sweep_to_json(build(0.004))
        document = sweep_to_obj(build())
        assert document["schema"] == LOADGEN_SCHEMA
        assert document["deterministic"] is False
        assert [s["mode"] for s in document["steps"]] == ["open", "open"]

    def test_render_outputs(self):
        sweep = _sweep([_step(10, 10, 0.002), _step(40, 30, 0.003)])
        text = to_text(sweep_view(sweep))
        assert "saturation knee" in text
        assert "capacity ≈ 10 rps" in text
        assert "p99 ms" in text
        html = to_html(sweep_view(sweep))
        assert "<svg" in html and "Saturation knee" in html


class TestVirtualSweep:
    """A sweep whose latencies are drawn from a seeded rng instead of
    measured: the JSON document must be a pure function of the results,
    with no timestamp, ordering or wall-clock leak of its own."""

    RATES = [10, 20, 40]

    def _sweep(self, seed=7):
        rng = random.Random(seed)
        steps = []
        for rate in self.RATES:
            step = StepResult(
                offered_rps=rate, requests=100, effective_rps=rate,
                placed=100, duration_s=100 / rate, achieved_rps=rate,
            )
            for _ in range(step.requests):
                step.hist.record(rng.expovariate(1 / 0.005))
            steps.append(step)
        return _sweep(steps)

    def test_same_seed_json_byte_stable(self):
        assert sweep_to_json(self._sweep()) == sweep_to_json(self._sweep())

    def test_different_seed_differs(self):
        assert sweep_to_json(self._sweep(seed=7)) != sweep_to_json(
            self._sweep(seed=8)
        )


class TestPlacementService:
    def test_places_and_traces_with_request_ids(self, install_tracer):
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        service = _service()
        response = service.handle(RequestTemplate().build(0), now=1.0)
        assert response.placed
        assert response.request_id == "req-00000001"
        assert len(response.nodes) == 4
        kinds = [e.kind for e in sink.events]
        assert "request.submit" in kinds
        assert "request.done" in kinds
        for event in sink.events:
            if event.kind.startswith("request."):
                assert event.data["request_id"] == "req-00000001"
        # Spans carry the id too (admission → queue → placement → solver).
        span_events = [e for e in sink.events if e.kind == "span"]
        assert span_events
        assert all(
            e.data.get("request_id") == "req-00000001" for e in span_events
        )

    def test_steady_state_default_does_not_fill_cluster(self, isolate_obs):
        service = _service(nodes=10)
        for i in range(30):
            response = service.handle(RequestTemplate().build(i))
            assert response.placed, response.reason
        assert len(service.state.containers) == 0

    def test_retain_commits_placements(self, isolate_obs):
        service = _service(nodes=10, retain=True)
        assert service.handle(RequestTemplate().build(0)).placed
        assert len(service.state.containers) == 4

    def test_overload_rejection(self, isolate_obs):
        service = _service(max_pending=0)
        response = service.handle(RequestTemplate().build(0))
        assert not response.placed
        assert response.reason == REJECT_OVERLOAD
        hist = get_metrics().histogram(PLACE_REQUEST_HISTOGRAM)
        assert hist.stat(outcome=REJECT_OVERLOAD).count == 1

    def test_latency_lands_in_ambient_histogram(self, isolate_obs):
        metrics = Metrics()
        set_metrics(metrics)
        service = _service()
        response = service.handle(RequestTemplate().build(0))
        assert response.placed
        hist = metrics.histogram(PLACE_REQUEST_HISTOGRAM).stat(outcome="placed")
        assert hist.count == 1
        assert hist.sum_s == response.latency_s
        assert hist.quantile(100) == response.latency_s

    def test_in_process_target_step(self, isolate_obs):
        service = _service()
        step = run_step(
            service, RequestTemplate(containers=2),
            offered_rps=200.0, requests=30, concurrency=8, seed=5
        )
        assert step.placed == 30
        assert step.hist.count == 30
        assert step.achieved_rps > 0

    def test_sweep_steps_follow_each_other_in_time(self, install_tracer):
        """A sweep carries its logical clock across steps, so step k's
        events start no earlier than step k-1's end."""
        sink = MemorySink()
        install_tracer(Tracer([sink]))
        requests = 6
        run_sweep(
            _service(nodes=20), RequestTemplate(containers=2),
            rates=[400.0, 800.0, 1600.0], requests_per_step=requests,
            concurrency=2, seed=3,
        )
        times: dict[int, list[float]] = {}
        for event in sink.events:
            number = int(event.data["request_id"].rsplit("-", 1)[1])
            times.setdefault((number - 1) // requests, []).append(event.time)
        assert sorted(times) == [0, 1, 2]
        for k in (1, 2):
            assert min(times[k]) >= max(times[k - 1])


class TestRequestContext:
    def test_injection_only_inside_context(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        tracer.emit("x.out", time=0.0, data={"a": 1})
        with request_context("r-9"):
            assert current_request_id() == "r-9"
            tracer.emit("x.in", time=1.0, data={"a": 2})
            tracer.emit("x.explicit", time=2.0,
                        data={"a": 3, "request_id": "mine"})
        assert current_request_id() is None
        by_kind = {e.kind: e for e in sink.events}
        assert "request_id" not in by_kind["x.out"].data
        assert by_kind["x.in"].data["request_id"] == "r-9"
        # An explicit id is never overwritten.
        assert by_kind["x.explicit"].data["request_id"] == "mine"

    def test_canonical_events_unchanged_without_context(self):
        """With no request path in play the canonical stream is identical
        to what an un-instrumented tracer emits — the byte-stability
        guarantee for existing same-seed traces."""
        sink = MemorySink()
        tracer = Tracer([sink])
        tracer.emit("task.submit", time=1.0, data={"task_id": "t-1"})
        canonical = json.loads(sink.events[0].canonical_json())
        assert "request_id" not in canonical["data"]
        assert set(canonical) == {"kind", "seq", "time", "data"}


class TestLoadgenCli:
    SMALL = ["loadgen", "--nodes", "12", "--sweep", "50,100",
             "--requests", "20"]

    def test_sweep_json_stdout(self, capsys, isolate_obs):
        from repro.cli import main

        assert main(self.SMALL + ["--seed", "7", "--json", "-"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == LOADGEN_SCHEMA
        assert document["deterministic"] is False
        assert document["config"]["mode"] == "open"
        assert document["config"]["target"].startswith("in-process")
        assert [s["offered_rps"] for s in document["steps"]] == [50, 100]
        for step in document["steps"]:
            assert step["placed"] == 20
            for key in ("p50_s", "p95_s", "p99_s"):
                assert key in step["latency"]

    def test_outputs_written(self, tmp_path, capsys, isolate_obs):
        from repro.cli import main

        json_out = tmp_path / "curve.json"
        html_out = tmp_path / "curve.html"
        assert main(self.SMALL + [
            "--seed", "1", "--json", str(json_out), "--html", str(html_out),
        ]) == 0
        assert json.loads(json_out.read_text())["schema"] == LOADGEN_SCHEMA
        assert "<svg" in html_out.read_text()
        assert "loadgen sweep" in capsys.readouterr().out

    def test_bad_sweep_spec_is_usage_error(self, capsys, isolate_obs):
        from repro.cli import EXIT_USAGE, main

        assert main(["loadgen", "--sweep", "10,zap"]) == EXIT_USAGE
        assert main(["loadgen", "--sweep", "-5"]) == EXIT_USAGE
        assert main(["loadgen", "--rate", "0"]) == EXIT_USAGE
        for flag in ("--concurrency", "--containers", "--nodes", "--racks",
                     "--requests"):
            assert main(["loadgen", flag, "0"]) == EXIT_USAGE, flag
            assert f"loadgen: {flag} must be >= 1" in capsys.readouterr().err
