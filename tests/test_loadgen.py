"""Tests for the latency-under-load plane: the placement request path
(``PlacementService`` + request-scoped tracing), the load generator
(``repro.obs.load``), the sweep/knee analysis, and the serving-path
regression gate wiring."""

from __future__ import annotations

import json
import random
import urllib.error
import urllib.request

import pytest

from repro import (
    ClusterState,
    ConstraintManager,
    NodeCandidatesScheduler,
    build_cluster,
)
from repro.core.scheduler import (
    REJECT_OVERLOAD,
    PlacementService,
)
from repro.obs.load import (
    LOADGEN_SCHEMA,
    HttpTarget,
    InProcessTarget,
    RequestTemplate,
    VirtualTarget,
    build_arrivals,
    burst_arrivals,
    detect_knee,
    poisson_arrivals,
    request_from_obj,
    request_to_obj,
    run_step,
    run_sweep,
    sweep_to_json,
    sweep_view,
    uniform_arrivals,
)
from repro.obs.metrics import Metrics, set_metrics
from repro.obs.session import ObsConfig, ObsSession
from repro.obs.view import to_html, to_text
from repro.obs.trace import (
    MemorySink,
    Tracer,
    current_request_id,
    request_context,
    set_tracer,
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


class TestRequestCodec:
    def test_int_shorthand(self):
        request = request_from_obj(
            {"app_id": "a1", "containers": 3, "memory_mb": 512, "vcores": 2,
             "tags": ["hbase"]}
        )
        assert request.app_id == "a1"
        assert [c.container_id for c in request.containers] == [
            "a1-c0", "a1-c1", "a1-c2"
        ]
        assert request.containers[0].resource.memory_mb == 512
        assert "hbase" in request.containers[0].tags

    def test_round_trip(self):
        request = RequestTemplate(containers=2, memory_mb=2048).build(7)
        restored = request_from_obj(request_to_obj(request))
        assert restored.app_id == request.app_id
        assert [c.container_id for c in restored.containers] == [
            c.container_id for c in request.containers
        ]
        assert [c.resource for c in restored.containers] == [
            c.resource for c in request.containers
        ]

    def test_malformed_payloads_raise(self):
        with pytest.raises((KeyError, TypeError)):
            request_from_obj([1, 2, 3])
        with pytest.raises(KeyError):
            request_from_obj({"containers": 2})
        with pytest.raises(ValueError):
            request_from_obj({"app_id": "a", "containers": 0})


class TestVirtualSweep:
    RATES = [10, 20, 40, 60, 80]

    def _sweep(self, seed=7, **kwargs):
        target = VirtualTarget(service_time_s=0.02, servers=1, seed=seed)
        return run_sweep(
            target, RequestTemplate(), rates=self.RATES,
            requests_per_step=200, seed=seed, **kwargs
        )

    def test_same_seed_json_byte_stable(self):
        assert sweep_to_json(self._sweep()) == sweep_to_json(self._sweep())

    def test_different_seed_differs(self):
        assert sweep_to_json(self._sweep(seed=7)) != sweep_to_json(
            self._sweep(seed=8)
        )

    def test_knee_detected_near_theoretical_capacity(self):
        sweep = self._sweep()
        assert sweep.knee is not None
        # 1 server at 20ms mean service ⇒ ~50 rps capacity: the ladder
        # must saturate somewhere above 40 and the measured capacity land
        # below the theoretical ceiling.
        assert sweep.knee["offered_rps"] > 40
        assert sweep.knee["capacity_rps"] < 55
        assert sweep.knee["reason"] in ("throughput", "latency")
        document = sweep_to_obj_dict(sweep)
        assert document["deterministic"] is True
        assert document["schema"] == LOADGEN_SCHEMA

    def test_unsaturated_ladder_has_no_knee(self):
        target = VirtualTarget(service_time_s=0.001, servers=4, seed=1)
        sweep = run_sweep(
            target, RequestTemplate(), rates=[5, 10, 20],
            requests_per_step=150, seed=1
        )
        assert sweep.knee is None
        assert "no saturation knee" in to_text(sweep_view(sweep))

    def test_closed_loop_virtual_deterministic(self):
        def once():
            target = VirtualTarget(service_time_s=0.005, servers=2, seed=3)
            return sweep_to_json(run_sweep(
                target, RequestTemplate(), rates=[50, 400],
                requests_per_step=120, mode="closed", concurrency=8, seed=3
            ))
        assert once() == once()

    def test_latencies_rise_with_load(self):
        sweep = self._sweep()
        p99s = [s.hist.quantile(99) for s in sweep.steps]
        assert p99s[-1] > 3 * p99s[0]

    def test_render_outputs(self):
        sweep = self._sweep()
        text = to_text(sweep_view(sweep))
        assert "saturation knee" in text
        assert "p99 ms" in text
        html = to_html(sweep_view(sweep))
        assert "<svg" in html and "Saturation knee" in html


def sweep_to_obj_dict(sweep):
    from repro.obs.load import sweep_to_obj

    return sweep_to_obj(sweep)


class TestPlacementService:
    def test_places_and_traces_with_request_ids(self, isolate_obs):
        sink = MemorySink()
        set_tracer(Tracer([sink]))
        service = _service()
        response = service.handle(RequestTemplate().build(0), now=1.0)
        assert response.placed
        assert response.request_id == "req-00000001"
        assert len(response.nodes) == 4
        kinds = [e.kind for e in sink.events]
        assert "request.submit" in kinds
        assert "request.place" in kinds
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
        assert service.stats()["rejected"] == 1

    def test_latency_lands_in_ambient_histogram(self, isolate_obs):
        metrics = Metrics()
        set_metrics(metrics)
        service = _service()
        service.handle(RequestTemplate().build(0))
        merged = metrics.histograms()["place_request_seconds"].merged()
        assert merged.count == 1

    def test_in_process_target_step(self, isolate_obs):
        service = _service()
        step = run_step(
            InProcessTarget(service), RequestTemplate(containers=2),
            offered_rps=200.0, requests=30, concurrency=8, seed=5
        )
        assert step.placed == 30
        assert step.hist.count == 30
        assert step.achieved_rps > 0


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
        tracer.emit("sim.heartbeat", time=1.0, data={"allocations": 2})
        canonical = json.loads(sink.events[0].canonical_json())
        assert "request_id" not in canonical["data"]
        assert set(canonical) == {"kind", "seq", "time", "data"}


class TestServingPathHTTP:
    @pytest.fixture()
    def server(self, isolate_obs):
        with ObsSession(ObsConfig(serve=0)) as session:
            yield session.server

    def test_post_place_end_to_end(self, server):
        server.attach_placement(_service())
        body = json.dumps(request_to_obj(RequestTemplate().build(0))).encode()
        request = urllib.request.Request(
            f"{server.url}/place", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["placed"] is True
        assert payload["request_id"].startswith("req-")
        assert len(payload["nodes"]) == 4
        # The serving requests roll into the snapshot for `repro watch`.
        assert server.snapshot_doc()["wall"]["requests"]["placed"] == 1

    def test_http_target_drives_sweep(self, server):
        server.attach_placement(_service())
        step = run_step(
            HttpTarget(server.url), RequestTemplate(containers=2),
            offered_rps=100.0, requests=20, concurrency=8, seed=2
        )
        assert step.placed == 20
        assert step.errors == 0

    def test_bad_json_is_400(self, server):
        server.attach_placement(_service())
        request = urllib.request.Request(
            f"{server.url}/place", data=b"{nope", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_overload_is_503_with_retry_after(self, server):
        server.attach_placement(_service(max_pending=0))
        body = json.dumps(request_to_obj(RequestTemplate().build(0))).encode()
        request = urllib.request.Request(
            f"{server.url}/place", data=body, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] is not None
        excinfo.value.read()

    def test_no_service_attached_is_503(self, server):
        request = urllib.request.Request(
            f"{server.url}/place", data=b"{}", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 503


class TestLoadgenCli:
    def test_virtual_sweep_json_stdout_byte_stable(self, capsys):
        from repro.cli import main

        argv = ["loadgen", "--virtual", "--service-time", "0.02",
                "--sweep", "10,40,80", "--requests", "120",
                "--seed", "7", "--json", "-"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["schema"] == LOADGEN_SCHEMA
        assert document["deterministic"] is True
        assert [s["offered_rps"] for s in document["steps"]] == [10, 40, 80]
        for step in document["steps"]:
            for key in ("p50_s", "p95_s", "p99_s"):
                assert key in step["latency"]
        assert document["knee"] is not None

    def test_outputs_written(self, tmp_path, capsys):
        from repro.cli import main

        json_out = tmp_path / "curve.json"
        html_out = tmp_path / "curve.html"
        assert main([
            "loadgen", "--virtual", "--sweep", "20,200", "--requests", "80",
            "--seed", "1", "--json", str(json_out), "--html", str(html_out),
        ]) == 0
        assert json.loads(json_out.read_text())["schema"] == LOADGEN_SCHEMA
        assert "<svg" in html_out.read_text()
        assert "loadgen sweep" in capsys.readouterr().out

    def test_bad_sweep_spec_is_usage_error(self, capsys):
        from repro.cli import EXIT_USAGE, main

        assert main(["loadgen", "--virtual", "--sweep", "10,zap"]) == EXIT_USAGE
        assert main(["loadgen", "--virtual", "--sweep", "-5"]) == EXIT_USAGE
        assert main(["loadgen", "--rate", "0"]) == EXIT_USAGE
        capsys.readouterr()
