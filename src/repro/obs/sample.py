"""Deterministic head-based trace sampling.

At 10k nodes a fully traced run emits tens of millions of events; most of
them (dispatches, spans, per-task lifecycle) are individually
uninteresting but collectively dominate tracing cost.  This module keeps
tracing affordable at scale without giving up the determinism contract:

* **Per-event-type policies** — a :class:`SamplingPolicy` is parsed from a
  compact spec string (``MEDEA_TRACE_SAMPLE`` / ``--trace-sample``), e.g.
  ``"dispatch=0.01,task=0.1,lra=1.0,seed=7"``.  Keys match an exact event
  kind (``engine.dispatch``), a glob (``task.*``), or a bare word matched
  against the kind's dot components (``dispatch`` → ``engine.dispatch``).
  ``*`` (or ``default``) sets the fallback rate; ``seed=N`` keys the hash.

* **Seeded-hash decisions** — sampling is a pure function of the policy
  seed and the event's identity, never of ``random``: an event keyed by an
  application/task/container id is kept iff ``crc32(key, seed)`` falls
  below ``rate · 2^32``.  Same seed + same spec → byte-identical canonical
  traces.  (CRC32 over short ids is uniform enough for head sampling and
  ~10× cheaper than a cryptographic hash — the decision runs once per
  lifecycle on the hot path.)

* **Complete lifecycles** — keyed events are decided *once per identity*
  (head-based sampling): the first event carrying an id fixes the keep/drop
  decision and every later event with the same id inherits it, so a kept
  lifecycle is kept whole — no orphan ``task.release`` without its
  ``task.submit``.  Decisions are evicted at terminal events
  (``lra.complete`` / ``lra.drop`` / ``task.finish``) so the decision map
  tracks *concurrent* lifecycles, not total ones.

* **Protected kinds** — the anchors the rest of the observability layer
  relies on (:data:`PROTECTED_KINDS`: state-hash checkpoints, node
  availability, experiment boundaries, watchdog trips) are never sampled
  out, whatever the policy says.

* **Sampled fingerprints** — dropping lifecycle events would make replay's
  state reconstruction diverge from the recorded full-state hash.  The
  sampler therefore feeds every *kept* event to its own
  :class:`~repro.obs.replay.ReplayState` and enriches every
  ``sim.state_hash`` event with that state's fingerprint as a
  deterministic ``sampled_hash`` field; :mod:`repro.obs.replay`
  cross-checks against it when present, so sampled traces replay without
  false divergence.
"""

from __future__ import annotations

import fnmatch
from typing import Any, Mapping
from zlib import crc32

from .events import EventKind
from .replay import ReplayState

__all__ = [
    "SamplingPolicy",
    "TraceSampler",
    "PROTECTED_KINDS",
    "parse_sample_spec",
]

#: Event kinds exempt from sampling: the structural anchors replay, the
#: timeline, and the watchdog depend on.  Low-volume by construction.
PROTECTED_KINDS = frozenset(
    {
        EventKind.SIM_STATE_HASH,
        EventKind.NODE_AVAILABILITY,
        EventKind.BENCH_EXPERIMENT,
        EventKind.WATCHDOG_TRIP,
    }
)

#: Terminal lifecycle kinds: after these the identity's sampling decision
#: can be evicted (bounds the decision map to concurrent lifecycles).
_TERMINAL_KINDS = frozenset(
    {EventKind.LRA_COMPLETE, EventKind.LRA_DROP, EventKind.TASK_FINISH}
)

_FULL = 1 << 32


class SamplingPolicy:
    """Per-event-kind sampling rates plus the hash seed.

    Rules are ``(pattern, rate)`` pairs evaluated in spec order; the first
    matching rule wins.  A pattern matches a kind when it equals the kind,
    globs it (:func:`fnmatch.fnmatchcase`), or — for bare words without
    dots or wildcards — equals one of the kind's dot components.
    """

    def __init__(
        self,
        rules: list[tuple[str, float]] | None = None,
        *,
        default: float = 1.0,
        seed: int = 0,
    ) -> None:
        for pattern, rate in rules or []:
            _check_rate(pattern, rate)
        _check_rate("default", default)
        self.rules: list[tuple[str, float]] = list(rules or [])
        self.default = float(default)
        self.seed = int(seed)
        self._rate_cache: dict[str, float] = {}

    @classmethod
    def parse(cls, spec: str) -> "SamplingPolicy":
        """Parse a ``kind=rate,...`` spec (see module docstring)."""
        rules: list[tuple[str, float]] = []
        default = 1.0
        seed = 0
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            key, sep, value = entry.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ValueError(
                    f"trace-sample: {entry!r} is not a key=value entry "
                    f"(expected e.g. 'dispatch=0.01' or 'seed=7')"
                )
            if key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise ValueError(
                        f"trace-sample: seed must be an integer, got {value!r}"
                    ) from None
                continue
            try:
                rate = float(value)
            except ValueError:
                raise ValueError(
                    f"trace-sample: rate for {key!r} must be a number, "
                    f"got {value!r}"
                ) from None
            _check_rate(key, rate)
            if key in ("*", "default"):
                default = rate
            else:
                rules.append((key, rate))
        return cls(rules, default=default, seed=seed)

    def rate_for(self, kind: str) -> float:
        """First-match rate for an event kind (cached per kind)."""
        rate = self._rate_cache.get(kind)
        if rate is None:
            rate = self.default
            components = kind.split(".")
            for pattern, rule_rate in self.rules:
                if pattern == kind:
                    rate = rule_rate
                    break
                if ("*" in pattern or "?" in pattern or "[" in pattern):
                    if fnmatch.fnmatchcase(kind, pattern):
                        rate = rule_rate
                        break
                elif "." not in pattern and pattern in components:
                    rate = rule_rate
                    break
            self._rate_cache[kind] = rate
        return rate

    @property
    def trivial(self) -> bool:
        """True when no rule can drop anything (all rates 1.0)."""
        return self.default >= 1.0 and all(r >= 1.0 for _, r in self.rules)

    def describe(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        parts = [f"{pattern}={rate:g}" for pattern, rate in self.rules]
        if self.default != 1.0:
            parts.append(f"*={self.default:g}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ",".join(parts)


def _check_rate(key: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(
            f"trace-sample: rate for {key!r} must be in [0, 1], got {rate}"
        )


def parse_sample_spec(spec: str | None) -> SamplingPolicy | None:
    """``None``/blank → no sampling; otherwise :meth:`SamplingPolicy.parse`."""
    if spec is None or not spec.strip():
        return None
    return SamplingPolicy.parse(spec)


class TraceSampler:
    """Stateful per-tracer sampler applying a :class:`SamplingPolicy`.

    :meth:`sample` is called by :meth:`repro.obs.trace.Tracer.emit` before
    an event is built (dropped events never consume a sequence number, so
    the kept stream stays contiguous and canonical).  The sampler also
    replays the kept stream behind the ``sampled_hash`` enrichment (see
    module docstring).
    """

    def __init__(self, policy: SamplingPolicy) -> None:
        self.policy = policy
        # The seed keys the hash as crc32's initial value.
        self._seed_init = policy.seed & 0xFFFFFFFF
        self._thresholds: dict[str, int] = {}
        self._decisions: dict[str, bool] = {}
        self._kind_seen: dict[str, int] = {}
        self._replay = ReplayState()

    # -- decision machinery --------------------------------------------------

    def _threshold(self, kind: str) -> int:
        threshold = self._thresholds.get(kind)
        if threshold is None:
            threshold = self._thresholds[kind] = int(
                self.policy.rate_for(kind) * _FULL
            )
        return threshold

    def _hash32(self, payload: str) -> int:
        return crc32(payload.encode("utf-8"), self._seed_init)

    def decide(self, kind: str, key: str | None) -> bool:
        """The deterministic keep/drop decision for one event."""
        if key is None:
            n = self._kind_seen.get(kind, 0) + 1
            self._kind_seen[kind] = n
            threshold = self._threshold(kind)
            if threshold >= _FULL:
                return True
            return self._hash32(f"{kind}|{n}") < threshold
        keep = self._decisions.get(key)
        if keep is None:
            threshold = self._threshold(kind)
            keep = threshold >= _FULL or self._hash32(key) < threshold
            self._decisions[key] = keep
        if kind in _TERMINAL_KINDS:
            self._decisions.pop(key, None)
        return keep

    def prefilter(self, kind: str, key: str | None) -> bool:
        """Slow path behind :meth:`repro.obs.trace.Tracer.wants`.

        Makes (and caches) the keyed decision without seeing the payload,
        so hot call sites can skip building event data for dropped
        lifecycles.  Keyless kinds are only cheap-decidable at rate 0 —
        fractional keyless sampling needs the per-kind counter, which
        stays inside :meth:`decide` so the kept stream is identical
        whether or not a call site is gated.

        Returns the keep decision; on a keyed *keep* the cached decision
        is left in place (not evicted at terminal kinds) because the
        subsequent :meth:`sample` call resolves — and evicts — it.
        """
        if kind in PROTECTED_KINDS:
            return True
        if key is not None:
            threshold = self._threshold(kind)
            keep = threshold >= _FULL or self._hash32(key) < threshold
            self._decisions[key] = keep
            return keep
        return self._threshold(kind) != 0

    # -- the tracer hook -----------------------------------------------------

    def sample(
        self, kind: str, data: Mapping[str, Any]
    ) -> tuple[bool, Mapping[str, Any]]:
        """``(keep, data)`` for one would-be event.

        ``data`` is returned unchanged except for ``sim.state_hash``
        events, which gain the deterministic ``sampled_hash`` field.
        """
        if kind == EventKind.SIM_STATE_HASH:
            return True, {**data, "sampled_hash": self._replay.fingerprint()}
        if kind == EventKind.BENCH_EXPERIMENT:
            # Fresh cluster: replay resets its state, and every lifecycle
            # is decided afresh.
            self._decisions.clear()
        elif kind not in PROTECTED_KINDS:
            key = (
                data.get("app_id") or data.get("task_id")
                or data.get("container_id")
            )
            if not self.decide(kind, key if key is None else str(key)):
                return False, data
        self._replay.feed({"kind": kind, "data": data})
        return True, data
