"""Live telemetry endpoint: ``/metrics``, ``/healthz``, ``/snapshot``.

Everything else in ``repro.obs`` is post-hoc — traces, dashboards, SLO
verdicts you read after the run.  This module is the *live* half: a
stdlib-only HTTP server (``http.server`` on a daemon thread) an operator
or a Prometheus scraper can hit while a long run is in flight.

* ``/metrics`` — the ambient :class:`~repro.obs.metrics.Metrics` registry
  rendered as Prometheus text exposition (version 0.0.4): counters,
  gauges, and timers (as summaries with ``quantile`` labels), labels
  preserved and escaped.
* ``/healthz`` — liveness tied to run progress: the server is fed a
  heartbeat for every trace event that flows (and records the latest
  simulated tick); when no progress arrives for longer than
  ``deadline_s`` of *wall* time the endpoint flips from 200 to 503, so a
  stalled solver or a hung loop is visible to any HTTP prober.
* ``/snapshot`` — the dashboard summary of the run so far, from the
  **live** :class:`~repro.obs.rollup.RollupState` (series, replay, SLO
  verdicts, span profile, critical paths — what ``repro dashboard`` shows
  of a trace), volatile fields under ``"wall"`` as usual, plus build
  identity and health.

Wiring: ``--serve PORT`` / ``MEDEA_SERVE`` opens the endpoint through one
:class:`~repro.obs.session.ObsSession`, whose single sink folds the
simulation's existing event stream into the server's :class:`RollupState`
and beats its health under the tracer's lock, which the session hands the
server as :attr:`TelemetryServer.lock` — no engine changes, no new event
kinds.  Zero-cost when unset (nothing is started, no sink is registered,
the traced event stream is byte-identical).

``repro watch`` (:func:`fetch_snapshot` / :func:`watch_view`) polls
``/snapshot`` into a refreshing terminal view.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.request import Request, urlopen

from ..version import build_info, server_banner, user_agent
from .metrics import Metrics, get_metrics, parse_label_key
from .rollup import RollupState
from .view import SeriesGroup, View

__all__ = [
    "HealthState",
    "RETRY_AFTER_S",
    "TelemetryServer",
    "render_prometheus",
    "fetch_snapshot",
    "watch_view",
]

#: Default wall-clock stall deadline before ``/healthz`` turns 503.
DEFAULT_DEADLINE_S = 30.0

#: ``Retry-After`` (seconds) sent with the stalled ``/snapshot``'s 503 so
#: pollers (``repro watch``) back off instead of hammering a wedged server.
RETRY_AFTER_S = 5


class HealthState:
    """Liveness derived from run progress.

    :meth:`beat` is called for every observed trace event (recording the
    wall time, and the simulated tick when the event carries one);
    :meth:`status` reports ``ok`` while the last beat is younger than the
    deadline.  Before any beat the server is ``waiting`` (still 200 —
    a run that has not started is not a stalled run).
    """

    def __init__(self, deadline_s: float = DEFAULT_DEADLINE_S, *, clock=time.monotonic) -> None:
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.deadline_s = float(deadline_s)
        self._clock = clock
        self._last_beat: float | None = None
        self.last_tick: float | None = None
        self.beats = 0

    def beat(self, tick: float | None = None) -> None:
        self._last_beat = self._clock()
        if tick is not None:
            self.last_tick = tick
        self.beats += 1

    def age_s(self) -> float | None:
        """Wall seconds since the last beat (``None`` before the first)."""
        if self._last_beat is None:
            return None
        return self._clock() - self._last_beat

    def status(self) -> tuple[bool, dict[str, Any]]:
        """``(alive, payload)`` — ``alive=False`` means serve 503."""
        age = self.age_s()
        if age is None:
            return True, {
                "status": "waiting",
                "beats": 0,
                "deadline_s": self.deadline_s,
            }
        stalled = age > self.deadline_s
        return not stalled, {
            "status": "stalled" if stalled else "ok",
            "beats": self.beats,
            "deadline_s": self.deadline_s,
            "age_s": round(age, 3),
            "last_tick": self.last_tick,
        }


# -- Prometheus text exposition ----------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    name = _NAME_SANITIZE.sub("_", name)
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        name = "_" + name
    return name


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(label_key: str, extra: Mapping[str, Any] | None = None) -> str:
    """Render a canonical ``k=v,k2=v2`` label key (plus extras) as
    ``{k="v",k2="v2"}``; empty string when there are no labels.

    The key is decoded with :func:`repro.obs.metrics.parse_label_key`
    (not a naive split) so label values containing commas, equals signs,
    or backslashes survive, then re-escaped per the Prometheus 0.0.4
    exposition rules."""
    pairs: list[tuple[str, str]] = []
    for key, value in parse_label_key(label_key):
        pairs.append((_prom_name(key), _prom_escape(value)))
    for key, value in (extra or {}).items():
        pairs.append((_prom_name(key), _prom_escape(str(value))))
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`Metrics.snapshot` as Prometheus text exposition.

    Counters and gauges map directly; timers become summary-style
    families: ``<name>_count`` / ``<name>_sum`` plus ``quantile``-labelled
    sample lines from the timer's histogram percentiles.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        for label_key, value in snapshot["counters"][name].items():
            lines.append(f"{prom}{_prom_labels(label_key)} {_prom_value(value)}")
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        for label_key, value in snapshot["gauges"][name].items():
            lines.append(f"{prom}{_prom_labels(label_key)} {_prom_value(value)}")
    for name in sorted(snapshot.get("timers", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for label_key, stat in snapshot["timers"][name].items():
            for quantile, field in (("0.5", "p50_s"), ("0.95", "p95_s"), ("0.99", "p99_s")):
                lines.append(
                    f"{prom}{_prom_labels(label_key, {'quantile': quantile})} "
                    f"{_prom_value(stat[field])}"
                )
            lines.append(
                f"{prom}_count{_prom_labels(label_key)} {_prom_value(stat['count'])}"
            )
            lines.append(
                f"{prom}_sum{_prom_labels(label_key)} {_prom_value(stat['total_s'])}"
            )
    for name in sorted(snapshot.get("histograms", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        for label_key, stat in snapshot["histograms"][name].items():
            # Cumulative counts at each occupied bucket's upper bound (the
            # log-bucketed geometry of repro.obs.hist), then the mandatory
            # +Inf bucket, _count and _sum.
            for le, cum in stat.get("buckets", ()):  # already cumulative
                lines.append(
                    f"{prom}_bucket{_prom_labels(label_key, {'le': _prom_value(le)})} "
                    f"{_prom_value(cum)}"
                )
            lines.append(
                f"{prom}_bucket{_prom_labels(label_key, {'le': '+Inf'})} "
                f"{_prom_value(stat['count'])}"
            )
            lines.append(
                f"{prom}_count{_prom_labels(label_key)} {_prom_value(stat['count'])}"
            )
            lines.append(
                f"{prom}_sum{_prom_labels(label_key)} {_prom_value(stat['total_s'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# -- the server ----------------------------------------------------------------


class TelemetryServer:
    """In-process HTTP telemetry endpoint over a background thread."""

    def __init__(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        metrics: Metrics | None = None,
        deadline_s: float = DEFAULT_DEADLINE_S,
    ) -> None:
        self.host = host
        self.port = port  # requested; updated to the bound port on start()
        self._metrics = metrics
        self.health = HealthState(deadline_s)
        #: The live aggregate behind /snapshot — the session folds events
        #: into it, and flushes the on-disk rollup from it, under ``lock``
        #: (the simulation thread writes while HTTP threads read).
        self.rollup = RollupState()
        self.lock = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.started_at = time.time()

    @property
    def metrics(self) -> Metrics:
        return self._metrics if self._metrics is not None else get_metrics()

    # -- progress ---------------------------------------------------------------

    def beat(self, tick: float | None = None) -> None:
        """Direct progress heartbeat for un-traced callers."""
        with self.lock:
            self.health.beat(tick)

    # -- documents -----------------------------------------------------------

    def metrics_text(self) -> str:
        return render_prometheus(self.metrics.snapshot())

    def health_doc(self) -> tuple[int, dict[str, Any]]:
        with self.lock:
            alive, payload = self.health.status()
        return (200 if alive else 503), payload

    def snapshot_doc(self) -> tuple[bool, dict[str, Any]]:
        """``(alive, summary)`` — the live dashboard summary of the shared
        rollup state (:meth:`RollupState.summary`), plus build identity
        and the health payload (volatile → under ``"wall"``).
        ``alive`` is the flag of that same health read, so a status code
        chosen from it always agrees with the body."""
        with self.lock:
            summary = self.rollup.summary()
            alive, health = self.health.status()
        summary["meta"]["build"] = build_info()
        wall = summary.setdefault("wall", {})
        wall["health"] = health
        wall["uptime_s"] = round(time.time() - self.started_at, 3)
        return alive, summary

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        server = self

        class Handler(BaseHTTPRequestHandler):
            server_version = server_banner()
            sys_version = ""  # do not advertise the Python build

            def version_string(self) -> str:
                # The base class joins server_version + sys_version with a
                # space, leaving a trailing blank; the banner alone is the
                # whole Server header.
                return server_banner()

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/metrics":
                    body = server.metrics_text().encode("utf-8")
                    self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")
                elif path == "/healthz":
                    status, payload = server.health_doc()
                    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
                    self._reply(status, body, "application/json")
                elif path == "/snapshot":
                    # A stalled run serves its (stale) snapshot with 503 +
                    # Retry-After so pollers can tell "live data" from
                    # "last frame before the hang" — repro watch surfaces
                    # the distinction instead of silently re-rendering.
                    alive, snapshot = server.snapshot_doc()
                    body = (json.dumps(snapshot, sort_keys=True) + "\n").encode()
                    if alive:
                        self._reply(200, body, "application/json")
                    else:
                        self._reply(
                            503,
                            body,
                            "application/json",
                            headers={"Retry-After": str(RETRY_AFTER_S)},
                        )
                elif path == "/":
                    body = (
                        json.dumps(
                            {
                                "build": build_info(),
                                "endpoints": ["/metrics", "/healthz", "/snapshot"],
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    ).encode()
                    self._reply(200, body, "application/json")
                else:
                    self._reply(404, b"not found\n", "text/plain")

            def _reply(
                self,
                status: int,
                body: bytes,
                content_type: str,
                *,
                headers: Mapping[str, str] | None = None,
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: Any) -> None:
                """Silence the base handler's per-request stderr lines."""

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-telemetry-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


# -- the watch client ------------------------------------------------------------


def _normalize_target(target: str) -> str:
    """Accept a port, ``host:port``, or full URL; return a base URL."""
    if target.isdigit():
        return f"http://127.0.0.1:{target}"
    if "://" not in target:
        return f"http://{target}"
    return target.rstrip("/")


def fetch_snapshot(target: str, *, timeout_s: float = 5.0) -> dict[str, Any]:
    """GET ``/snapshot`` from a telemetry endpoint (identified User-Agent).

    A 503 with a JSON body is the server's *stalled* signal, not an error:
    the stale snapshot is returned with ``wall.http`` carrying the status
    and the advertised ``Retry-After`` so the watch loop can surface the
    health state and back off.  Other HTTP errors propagate.
    """
    from urllib.error import HTTPError

    url = _normalize_target(target).rstrip("/") + "/snapshot"
    request = Request(url, headers={"User-Agent": user_agent("watch")})
    try:
        with urlopen(request, timeout=timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))
    except HTTPError as err:
        if err.code != 503:
            raise
        try:
            snapshot = json.loads(err.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise err from None
        retry_after = err.headers.get("Retry-After")
        snapshot.setdefault("wall", {})["http"] = {
            "status": 503,
            "retry_after_s": float(retry_after) if retry_after else None,
        }
        return snapshot


def watch_view(snapshot: Mapping[str, Any]) -> View:
    """One ``repro watch`` frame of a live ``/snapshot`` document."""
    meta = snapshot.get("meta", {})
    wall = snapshot.get("wall", {})
    health = wall.get("health", {})
    build = meta.get("build", {})
    span = meta.get("time_span")
    span_txt = (
        f"t=[{span[0]:.1f}, {span[1]:.1f}]s" if span else "t=(no events yet)"
    )
    headline = []
    http = wall.get("http")
    if http and http.get("status") == 503:
        retry = http.get("retry_after_s")
        headline.append(
            "!! ENDPOINT UNHEALTHY (HTTP 503"
            + (f", retry after {retry:g}s" if retry else "")
            + ") — frame below is the last snapshot before the stall"
        )
    headline.append(
        f"{build.get('name', 'repro')}/{build.get('version', '?')}  "
        f"{span_txt}  events={meta.get('events', 0)}  "
        f"health={health.get('status', '?')}"
        + (
            f" (tick {health.get('last_tick')}, age {health.get('age_s')}s)"
            if health.get("last_tick") is not None
            else ""
        )
    )
    latency = wall.get("request_latency")
    if latency and latency.get("count"):
        headline.append(
            f"request latency: n={latency['count']} "
            f"p50={latency['p50_s'] * 1e3:.2f}ms "
            f"p95={latency['p95_s'] * 1e3:.2f}ms "
            f"p99={latency['p99_s'] * 1e3:.2f}ms"
        )
    series = snapshot.get("series", {})
    wall_series = wall.get("series", {})
    if not series and not wall_series:
        headline.append("(no series yet — is the run emitting events?)")
    return View("repro watch", headline, [
        SeriesGroup("Series", series),
        SeriesGroup("Wall-clock series (volatile)", wall_series, slot=2),
    ])
