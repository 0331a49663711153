"""Tests for the live telemetry endpoint (``repro.obs.serve``)."""

from __future__ import annotations

import json
import re
import urllib.request

import pytest

from repro.obs.events import EventKind
from repro.obs.metrics import Metrics
from repro.obs.serve import (
    HealthState,
    TelemetryServer,
    fetch_snapshot,
    render_prometheus,
)
from repro.obs.session import ObsConfig, ObsSession, current_session
from repro.obs.trace import get_tracer
from repro.version import get_version, server_banner, user_agent


@pytest.fixture()
def server(isolate_obs):
    with ObsSession(ObsConfig(serve=0)) as session:
        yield session.server


def _get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
        return response.status, dict(response.headers), response.read().decode()


#: One Prometheus text-exposition sample line: name{labels} value.
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9.e+-]+)$"
)


class TestPrometheusRendering:
    def test_counters_gauges_timers(self):
        metrics = Metrics()
        metrics.counter("lra_placed_total").inc(3, scheduler="ilp")
        metrics.gauge("violations_containers").set(2.0)
        metrics.timer("scheduler_place_seconds").observe(0.25, scheduler="ilp")
        text = render_prometheus(metrics.snapshot())
        assert "# TYPE lra_placed_total counter" in text
        assert 'lra_placed_total{scheduler="ilp"} 3.0' in text
        assert "# TYPE violations_containers gauge" in text
        assert "# TYPE scheduler_place_seconds summary" in text
        assert 'scheduler_place_seconds{scheduler="ilp",quantile="0.5"}' in text
        assert 'scheduler_place_seconds_count{scheduler="ilp"} 1.0' in text
        assert 'scheduler_place_seconds_sum{scheduler="ilp"} 0.25' in text

    def test_every_line_is_valid_exposition_format(self):
        metrics = Metrics()
        metrics.counter("a_total").inc()
        metrics.counter("b_total").inc(2, k="v", other="x")
        metrics.gauge("util").set(0.5, rack="r1")
        metrics.timer("t_seconds").observe(0.1)
        for line in render_prometheus(metrics.snapshot()).splitlines():
            if line.startswith("#"):
                assert re.match(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                                r"(counter|gauge|summary)$", line), line
            else:
                assert _PROM_LINE.match(line), line

    def test_name_sanitization_and_label_escaping(self):
        metrics = Metrics()
        metrics.counter("weird.name-total").inc(tag='quo"te\nnl')
        text = render_prometheus(metrics.snapshot())
        assert "weird_name_total" in text
        assert '\\"' in text and "\\n" in text

    def test_label_values_with_separators_survive(self):
        """A label value containing ``,`` / ``=`` / ``\\`` must come out of
        /metrics as ONE label, not be split on the canonical-key
        separators (the naive-split regression)."""
        from repro.obs.metrics import parse_label_key

        metrics = Metrics()
        metrics.counter("edge_total").inc(
            rule="{hb & mem, 1, inf}", path="a\\b=c"
        )
        text = render_prometheus(metrics.snapshot())
        line = next(
            l for l in text.splitlines() if l.startswith("edge_total{")
        )
        assert _PROM_LINE.match(line), line
        # Exactly the two labels, each with its full (escaped) value.
        assert line.count("=\"") == 2
        assert 'rule="{hb & mem, 1, inf}"' in line
        assert 'path="a\\\\b=c"' in line

        # And the canonical key itself round-trips losslessly.
        from repro.obs.metrics import _label_key

        labels = {"rule": "{hb & mem, 1, inf}", "path": "a\\b=c",
                  "nl": "x\ny", "quote": 'a"b'}
        assert dict(parse_label_key(_label_key(labels))) == {
            k: str(v) for k, v in labels.items()
        }

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(Metrics().snapshot()) == ""


class TestHealthState:
    def test_waiting_before_first_beat(self):
        health = HealthState(5.0)
        alive, payload = health.status()
        assert alive and payload["status"] == "waiting"

    def test_ok_then_stalled_past_deadline(self):
        now = [100.0]
        health = HealthState(5.0, clock=lambda: now[0])
        health.beat(12.0)
        alive, payload = health.status()
        assert alive and payload["status"] == "ok"
        assert payload["last_tick"] == 12.0
        now[0] += 6.0
        alive, payload = health.status()
        assert not alive and payload["status"] == "stalled"

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            HealthState(0)


class TestEndpoints:
    def test_metrics_endpoint(self, server):
        server.metrics.counter("lra_placed_total").inc(scheduler="ilp")
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert 'lra_placed_total{scheduler="ilp"} 1.0' in body

    def test_healthz_flips_503_on_stall(self, isolate_obs):
        server = TelemetryServer(0, deadline_s=0.05)
        server.start()
        try:
            # Before any event: waiting, still 200.
            status, _, body = _get(server, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "waiting"
            # One event beats health; fresh = ok.
            server.beat(3.0)
            status, _, body = _get(server, "/healthz")
            assert status == 200
            assert json.loads(body)["last_tick"] == 3.0
            # Stall past the (artificially tiny) deadline → 503.
            import time
            time.sleep(0.1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "stalled"
        finally:
            server.stop()

    def test_snapshot_status_code_agrees_with_body(self, isolate_obs):
        """One health read picks both the status code and the body's
        health, even when the deadline passes between two reads."""
        ticks = iter([0.0, 0.5])
        server = TelemetryServer(0)
        server.health = HealthState(1.0, clock=lambda: next(ticks, 5.0))
        server.beat()  # at 0.0; the next read sees 0.5, any later one 5.0
        server.start()
        try:
            status, _, body = _get(server, "/snapshot")
        finally:
            server.stop()
        assert status == 200
        assert json.loads(body)["wall"]["health"]["status"] == "ok"

    def test_snapshot_structure_and_live_series(self, server):
        tracer = get_tracer()
        assert tracer.enabled  # the session set up a sink-only tracer
        tracer.emit(
            EventKind.SIM_STATE_HASH, time=1.0,
            data={"hash": "h", "containers": 2, "utilization": 0.25,
                  "utilization_by_rack": {}, "pending_tasks": 0,
                  "pending_lras": 1, "nodes_down": 0},
        )
        status, _, body = _get(server, "/snapshot")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["meta"]["build"]["name"] == "repro"
        assert snapshot["meta"]["build"]["version"] == get_version()
        assert snapshot["wall"]["health"]["status"] == "ok"
        assert "utilization" in snapshot["series"]

    def test_index_and_404(self, server):
        status, _, body = _get(server, "/")
        assert status == 200
        assert json.loads(body)["endpoints"] == [
            "/metrics", "/healthz", "/snapshot"
        ]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_server_banner_from_build_metadata(self, server):
        with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as r:
            banner = r.headers["Server"]
        assert banner == server_banner()
        assert banner == f"repro/{get_version()}"
        assert "Python" not in banner


class TestAmbientWiring:
    def test_install_is_idempotent_and_shutdown_detaches(self, isolate_obs):
        session = ObsSession(ObsConfig(serve=0))
        with session:
            server = session.server
            assert current_session() is session
            assert get_tracer() is session.tracer
            assert _get(server, "/healthz")[0] == 200
        assert current_session() is None
        assert not get_tracer().enabled  # the null tracer is back
        with pytest.raises(urllib.error.URLError):
            _get(server, "/healthz")  # stopped
        session.close()  # a second close is a no-op

    def test_install_attaches_sink_to_enabled_tracer(self, isolate_obs, tmp_path):
        """With a trace file and the server both on, one tracer feeds both."""
        path = tmp_path / "t.jsonl"
        config = ObsConfig(trace_out=str(path), serve=0)
        with ObsSession(config) as session:
            get_tracer().emit(EventKind.ENGINE_DISPATCH, time=2.0,
                              data={"event_seq": 0})
            assert session.server.health.beats == 1
        assert len(path.read_text().splitlines()) == 1

    def test_serve_env_values(self, isolate_obs):
        for off in ({}, {"MEDEA_SERVE": ""}, {"MEDEA_SERVE": "off"},
                    {"MEDEA_SERVE": "False"}, {"MEDEA_SERVE": "no"}):
            assert ObsConfig.from_env(off).serve is None
        with pytest.raises(ValueError, match="port"):
            ObsConfig.from_env({"MEDEA_SERVE": "not-a-port"})
        assert ObsConfig.from_env({"MEDEA_SERVE": " 8080 "}).serve == 8080
        # A --serve flag wins; the variable is then not read at all.
        assert ObsConfig.from_env({"MEDEA_SERVE": "not-a-port"}, serve=0).serve == 0
        config = ObsConfig.from_env({"MEDEA_SERVE": "0"})  # 0 = ephemeral, not off
        with ObsSession(config) as session:
            assert session.server is not None and session.server.port > 0


class TestWatchClient:
    def test_fetch_snapshot_and_user_agent(self, server):
        snapshot = fetch_snapshot(str(server.port))
        assert snapshot["meta"]["build"]["name"] == "repro"
        assert user_agent("watch") == f"repro-watch/{get_version()}"

    def test_render_watch_frame(self, server):
        from repro.obs.serve import watch_view
        from repro.obs.view import to_text

        get_tracer().emit(
            EventKind.SIM_STATE_HASH, time=1.0,
            data={"hash": "h", "containers": 2, "utilization": 0.25,
                  "utilization_by_rack": {}, "pending_tasks": 3,
                  "pending_lras": 1, "nodes_down": 0},
        )
        frame = to_text(watch_view(fetch_snapshot(str(server.port))))
        assert f"repro/{get_version()}" in frame
        assert "health=ok" in frame
        assert "utilization" in frame

    def test_cli_watch_count_one(self, server, capsys):
        from repro.cli import main

        get_tracer().emit(EventKind.ENGINE_DISPATCH, time=1.0,
                          data={"event_seq": 0})
        assert main(["watch", str(server.port), "--count", "1",
                     "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert f"repro/{get_version()}" in out

    def test_cli_watch_unreachable_exits_nonzero(self, isolate_obs, capsys):
        from repro.cli import main

        # A port with nothing listening (bind-and-close to find one).
        # --retry-for 0 disables the connection-retry grace period so the
        # failure is immediate instead of backing off for the default 10s.
        import socket
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead_port = s.getsockname()[1]
        assert main(["watch", str(dead_port), "--count", "1",
                     "--retry-for", "0"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_watch_retry_waits_for_late_endpoint(self, isolate_obs):
        """A watcher started before the endpoint binds retries with backoff
        and succeeds once the server appears (instead of crashing)."""
        import threading

        from repro.cli import _fetch_snapshot_retrying

        # Reserve a port, start the server on it shortly after the watcher
        # has already begun retrying against the refused connection.
        import socket
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]

        server = TelemetryServer(port)
        started = threading.Timer(0.6, server.start)
        started.start()
        try:
            snapshot = _fetch_snapshot_retrying(str(port), retry_for_s=10.0)
        finally:
            started.cancel()
            started.join()
            server.stop()
        assert snapshot["meta"]["build"]["name"] == "repro"

    def test_watch_retry_zero_raises_immediately(self, isolate_obs):
        from urllib.error import URLError

        from repro.cli import _fetch_snapshot_retrying

        import socket
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead_port = s.getsockname()[1]
        with pytest.raises((URLError, OSError)):
            _fetch_snapshot_retrying(str(dead_port), retry_for_s=0.0)
