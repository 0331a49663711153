"""One observability session: every run-time plane configured, installed
and torn down in one place.

A run can record a JSONL trace (optionally sampled), serve the live
telemetry endpoint, stream a bounded rollup document and arm the online
watchdog.  :class:`ObsConfig` holds those five settings and is the only
reader of their ``MEDEA_*`` environment variables; :class:`ObsSession`
turns a config into one tracer and tears it down again.

Precedence is one rule for every setting: a flag that is set (any value
but ``None`` passed to :meth:`ObsConfig.from_env`) wins over its
variable, and a variable counts as unset when its value is one of its
"off" values in :data:`ENV_TABLE`.

Inside the session one sink folds every event into one
:class:`~repro.obs.rollup.RollupState` under the tracer's lock, which the
server's ``/snapshot`` reads with: the rollup file is a flush of that
state, so each event is counted once.  Tracing is zero-cost when nothing
is requested: an all-off session installs no tracer and leaves the
ambient one alone.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Mapping

from .metrics import get_metrics
from .rollup import RollupSink, RollupState
from .sample import SamplingPolicy, TraceSampler, parse_sample_spec
from .serve import TelemetryServer
from .trace import JsonlSink, Tracer, get_tracer, set_tracer
from .watchdog import Watchdog

__all__ = [
    "ENV_TABLE",
    "ObsConfig",
    "ObsSession",
    "current_session",
    "default_watchdog",
]

#: Trace file written when ``MEDEA_TRACE`` is on and ``MEDEA_TRACE_OUT`` unset.
DEFAULT_TRACE_OUT = "medea_trace.jsonl"

_OFF = ("", "0", "false", "no", "off")


def _port(raw: str, env: Mapping[str, str]) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MEDEA_SERVE must be a port number, got {raw!r}") from None


#: One row per setting: (config field, variable, its "off" values, parser).
#: Values are stripped and "off" is matched case-insensitively.  ``0`` is
#: a port for ``MEDEA_SERVE`` (an ephemeral one), so it is not "off" there.
ENV_TABLE = (
    ("trace_out", "MEDEA_TRACE", _OFF,
     lambda raw, env: env.get("MEDEA_TRACE_OUT", DEFAULT_TRACE_OUT)),
    ("sample", "MEDEA_TRACE_SAMPLE", ("",), lambda raw, env: parse_sample_spec(raw)),
    ("serve", "MEDEA_SERVE", ("", "false", "no", "off"), _port),
    ("rollup", "MEDEA_ROLLUP", _OFF, lambda raw, env: raw),
    ("watchdog", "MEDEA_WATCHDOG", _OFF,
     lambda raw, env: "abort" if raw.lower() == "abort" else "warn"),
)


@dataclass(frozen=True)
class ObsConfig:
    """The five observability settings of one run (``None`` = off)."""

    #: JSONL trace file.
    trace_out: str | None = None
    #: Sampling policy of the trace (applies only when ``trace_out`` is set).
    sample: SamplingPolicy | None = None
    #: Telemetry endpoint port (``0`` binds an ephemeral one).
    serve: int | None = None
    #: Path of the bounded rollup document.
    rollup: str | None = None
    #: Watchdog mode, ``"warn"`` or ``"abort"``.
    watchdog: str | None = None

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None, **flags: Any
    ) -> ObsConfig:
        """Read every setting from its variable; a flag that is not ``None``
        overrides it (and its variable is then not read at all)."""
        env = os.environ if environ is None else environ
        values = {name: value for name, value in flags.items() if value is not None}
        for field, var, off, parse in ENV_TABLE:
            raw = env.get(var, "").strip()
            if field not in values and raw.lower() not in off:
                values[field] = parse(raw, env)
        return cls(**values)


class _Fold:
    """The session's one live sink: folds each event into the shared
    rollup state, beats the server's health and flushes the rollup file
    when due (under the tracer's lock, held by :meth:`Tracer.emit`)."""

    def __init__(self, session: ObsSession, state: RollupState) -> None:
        self.session = session
        self.state = state

    def emit(self, event) -> None:
        session = self.session
        self.state.observe_event(event)
        if session.server is not None:
            session.server.health.beat(event.time)
        if session.rollup is not None and session.rollup.due(event.time):
            session.rollup.flush()

    def close(self) -> None:
        """Teardown belongs to the session."""


#: Open sessions, innermost last.
_open: list[ObsSession] = []


def current_session() -> ObsSession | None:
    """The innermost open session, if any."""
    return _open[-1] if _open else None


def default_watchdog() -> Watchdog | None:
    """A fresh watchdog in the open session's mode (``None`` when no
    session arms one) — the default of every ``ClusterSimulation``."""
    session = current_session()
    mode = session.config.watchdog if session is not None else None
    return Watchdog(mode=mode) if mode else None


class ObsSession:
    """Context manager installing one tracer for the configured planes.

    On exit it tears down in one fixed order: final rollup flush, server
    stop, tracer close, the tracer's self-stats folded into the ambient
    metrics as ``obs_*`` series; then it restores the previous ambient
    tracer and session.  Every step runs even if an earlier one raises.
    """

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.tracer: Tracer | None = None
        self.server: TelemetryServer | None = None
        self.rollup: RollupSink | None = None
        self._stack = ExitStack()

    def __enter__(self) -> ObsSession:
        config = self.config
        live = config.serve is not None or bool(config.rollup)
        with ExitStack() as stack:
            # Callbacks run last-registered-first, which is the teardown order.
            stack.callback(self._leave, get_tracer())
            _open.append(self)
            if config.trace_out is not None or live:
                policy = config.sample if config.trace_out is not None else None
                trivial = policy is None or policy.trivial
                sampler = None if trivial else TraceSampler(policy)
                tracer = self.tracer = Tracer(sampler=sampler)
                set_tracer(tracer)
                stack.callback(_fold_self_stats, tracer)
                stack.callback(tracer.close)
                if config.trace_out is not None:
                    tracer.add_sink(JsonlSink(config.trace_out))
            if live:
                state = RollupState()
                if config.serve is not None:
                    self.server = TelemetryServer(config.serve)
                    state = self.server.rollup
                    # /snapshot reads what the fold writes: one lock.
                    self.server.lock = tracer.lock
                    self.server.start()
                    stack.callback(self.server.stop)
                if config.rollup:
                    self.rollup = RollupSink(config.rollup, state=state)
                    stack.callback(self._final_flush)
                tracer.add_sink(_Fold(self, state))
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Tear the session down (idempotent)."""
        self._stack.close()

    def _final_flush(self) -> None:
        with self.tracer.lock:
            self.rollup.close()

    def _leave(self, previous: Tracer) -> None:
        if self.tracer is not None:
            set_tracer(previous)
        _open.remove(self)


def _fold_self_stats(tracer: Tracer) -> None:
    """Mirror the tracer's self-accounting into the ambient metrics."""
    stats = tracer.self_stats()
    metrics = get_metrics()
    for key in ("seen", "emitted", "dropped"):
        metrics.counter(f"obs_events_{key}_total").inc(stats[f"events_{key}"])
    metrics.gauge("obs_overhead_seconds").set(stats["overhead_s"])
