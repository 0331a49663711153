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

* **Complete lifecycles** — keyed events are decided *once per
  lifecycle*, at its opening event (:data:`LIFECYCLES`: ``task.submit``,
  ``lra.submit``, ``request.submit`` / ``request.reject``).  Only an
  opening event hashes its key; a kept key enters the sampler's kept set,
  every later event with that key is kept iff the key is in the set, and
  the closing event (``task.finish``, ``lra.complete`` / ``lra.drop``,
  ``request.done``) removes it.  A kept lifecycle is therefore kept whole
  — no orphan ``task.release`` without its ``task.submit``, also when the
  tracer was installed after the lifecycle opened — and the sampler holds
  one entry per *open kept* lifecycle, never a drop decision.

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

#: The keyed lifecycles: ``(opening kinds, closing kinds)`` per family.
#: An event is keyed by its payload's ``app_id`` / ``task_id`` /
#: ``container_id``; an opening kind decides its key's lifecycle and a
#: closing kind ends it.  The one place to register a keyed kind that opens
#: or closes a lifecycle; a keyed kind in between needs no entry.
LIFECYCLES = (
    ((EventKind.TASK_SUBMIT,), (EventKind.TASK_FINISH,)),
    ((EventKind.LRA_SUBMIT,), (EventKind.LRA_COMPLETE, EventKind.LRA_DROP)),
    (
        (EventKind.REQUEST_SUBMIT, EventKind.REQUEST_REJECT),
        (EventKind.REQUEST_DONE,),
    ),
)

_OPENING_KINDS = frozenset(k for opening, _ in LIFECYCLES for k in opening)
_CLOSING_KINDS = frozenset(k for _, closing in LIFECYCLES for k in closing)

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

    :meth:`keeps` is the one keep/drop rule (the tracer's call-site gates
    ask it too); :meth:`sample` applies it to each would-be event, keeps
    :attr:`kept` up to date, and replays the kept stream behind the
    ``sampled_hash`` enrichment (see module docstring).
    """

    def __init__(self, policy: SamplingPolicy) -> None:
        self.policy = policy
        # The seed keys the hash as crc32's initial value.
        self._seed_init = policy.seed & 0xFFFFFFFF
        self._thresholds: dict[str, int] = {}
        #: Keys of the open lifecycles whose opening event was kept.
        self.kept: set[str] = set()
        self._kind_seen: dict[str, int] = {}
        self._replay = ReplayState()

    def _threshold(self, kind: str) -> int:
        threshold = self._thresholds.get(kind)
        if threshold is None:
            threshold = self._thresholds[kind] = int(
                self.policy.rate_for(kind) * _FULL
            )
        return threshold

    def _hash32(self, payload: str) -> int:
        return crc32(payload.encode("utf-8"), self._seed_init)

    def keeps(self, kind: str, key: str | None = None) -> bool:
        """Whether an event of ``kind`` with sampling identity ``key`` is
        kept; changes no state, so a call-site gate may ask first.

        Protected kinds are always kept.  An opening kind keeps its key
        iff ``crc32(key, seed)`` falls below the kind's rate; any other
        keyed event iff its lifecycle's key is in :attr:`kept`.  Without a
        key the answer is whether the kind can be kept at all (its rate is
        not 0): fractional keyless sampling counts events per kind, which
        only :meth:`sample` does.
        """
        if kind in PROTECTED_KINDS:
            return True
        if key is None:
            return self._threshold(kind) != 0
        if kind in _OPENING_KINDS:
            threshold = self._threshold(kind)
            return threshold >= _FULL or self._hash32(key) < threshold
        return key in self.kept

    def sample(
        self, kind: str, data: Mapping[str, Any]
    ) -> tuple[bool, Mapping[str, Any]]:
        """``(keep, data)`` for one would-be event, called by
        :meth:`repro.obs.trace.Tracer.emit` before the event is built
        (dropped events never consume a sequence number, so the kept
        stream stays contiguous and canonical).

        ``data`` is returned unchanged except for ``sim.state_hash``
        events, which gain the deterministic ``sampled_hash`` field.
        """
        if kind == EventKind.SIM_STATE_HASH:
            return True, {**data, "sampled_hash": self._replay.fingerprint()}
        if kind == EventKind.BENCH_EXPERIMENT:
            # Fresh cluster: replay resets its state, and every lifecycle
            # opens afresh.
            self.kept.clear()
        elif kind not in PROTECTED_KINDS:
            key = (
                data.get("app_id") or data.get("task_id")
                or data.get("container_id")
            )
            if key is None:
                threshold = self._threshold(kind)
                if threshold < _FULL:
                    n = self._kind_seen.get(kind, 0) + 1
                    self._kind_seen[kind] = n
                    if self._hash32(f"{kind}|{n}") >= threshold:
                        return False, data
            else:
                key = str(key)
                if not self.keeps(kind, key):
                    return False, data
                if kind in _OPENING_KINDS:
                    self.kept.add(key)
                elif kind in _CLOSING_KINDS:
                    self.kept.discard(key)
        self._replay.feed({"kind": kind, "data": data})
        return True, data
