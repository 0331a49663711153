"""Declarative SLO monitoring over timeline series.

An :class:`SLORule` names a timeline series (glob patterns allowed, e.g.
``solver_latency_s:*``), an aggregation over its per-tick values (``max`` /
``min`` / ``mean`` / ``last`` / ``p50`` / ``p95`` / ``p99``), a comparison
operator and a threshold.  :class:`SLOMonitor` evaluates a rule set against
a :class:`~repro.obs.timeline.TimelineAggregator`, emits one typed
``slo.breach`` trace event per violated rule, and produces an
:class:`SLOReport` with a run-level pass/fail verdict.

Rules whose series does not exist in the timeline are *skipped*, not
breached — a smoke trace without task load simply has no queuing-delay
series to judge.  Percentiles are computed over the per-tick aggregated
values (the bounded-memory contract of the timeline), not raw samples.

Determinism: a rule that matched only deterministic series yields a
deterministic result; one that touched any volatile (wall-derived) series
is flagged ``volatile`` so report assembly can segregate it under the
``"wall"`` key, keeping same-seed dashboard summaries byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable, Sequence

from .events import EventKind
from .stats import percentile
from .timeline import TimelineAggregator
from .trace import Tracer

__all__ = [
    "SLORule",
    "SLOBreach",
    "SLOResult",
    "SLOReport",
    "SLOMonitor",
    "default_smoke_slos",
    "load_slo_rules",
]

_OPS = {
    "<=": lambda observed, threshold: observed <= threshold,
    "<": lambda observed, threshold: observed < threshold,
    ">=": lambda observed, threshold: observed >= threshold,
    ">": lambda observed, threshold: observed > threshold,
}
_AGGS = ("max", "min", "mean", "last", "p50", "p95", "p99")


@dataclass(frozen=True)
class SLORule:
    """One declarative threshold: ``agg(series) op threshold``."""

    name: str
    series: str
    threshold: float
    agg: str = "max"
    op: str = "<="
    description: str = ""

    def __post_init__(self) -> None:
        if self.agg not in _AGGS:
            raise ValueError(f"unknown agg {self.agg!r}; expected one of {_AGGS}")
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {tuple(_OPS)}")

    def aggregate(self, values: Sequence[float]) -> float:
        if self.agg == "max":
            return max(values)
        if self.agg == "min":
            return min(values)
        if self.agg == "mean":
            return sum(values) / len(values)
        if self.agg == "last":
            return values[-1]
        return percentile(values, float(self.agg[1:]))

    def satisfied(self, observed: float) -> bool:
        return _OPS[self.op](observed, self.threshold)

    def to_obj(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "series": self.series,
            "agg": self.agg,
            "op": self.op,
            "threshold": self.threshold,
            "description": self.description,
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "SLORule":
        known = {f: obj[f] for f in
                 ("name", "series", "threshold", "agg", "op", "description")
                 if f in obj}
        missing = {"name", "series", "threshold"} - set(known)
        if missing:
            raise ValueError(f"SLO rule missing fields: {sorted(missing)}")
        return cls(**known)


@dataclass(frozen=True)
class SLOBreach:
    """A typed breach record: which rule failed, and what was observed."""

    rule: SLORule
    observed: float
    matched_series: tuple[str, ...]

    def to_obj(self) -> dict[str, Any]:
        return {
            "rule": self.rule.name,
            "series": list(self.matched_series),
            "agg": self.rule.agg,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "observed": round(self.observed, 6),
        }


@dataclass
class SLOResult:
    """Evaluation outcome of one rule."""

    rule: SLORule
    observed: float | None
    ok: bool
    skipped: bool
    matched_series: tuple[str, ...] = ()
    #: True when any matched series derives from wall-clock measurements.
    volatile: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "skip"
        return "pass" if self.ok else "FAIL"

    def to_obj(self) -> dict[str, Any]:
        obj = self.rule.to_obj()
        obj["status"] = self.status
        obj["observed"] = (
            None if self.observed is None else round(self.observed, 6)
        )
        obj["matched_series"] = list(self.matched_series)
        return obj


@dataclass
class SLOReport:
    """All rule results plus the run-level verdict."""

    results: list[SLOResult] = field(default_factory=list)

    @property
    def breaches(self) -> list[SLOBreach]:
        return [
            SLOBreach(r.rule, r.observed, r.matched_series)
            for r in self.results
            if not r.skipped and not r.ok
        ]

    @property
    def ok(self) -> bool:
        return not self.breaches

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def summary_sections(self) -> tuple[dict[str, Any], dict[str, Any] | None]:
        """The dashboard summary's ``slo`` sections: (deterministic rules,
        wall-derived rules or ``None`` when there are none), each with its
        own verdict, so the wall-derived one can sit under ``"wall"``."""

        def section(results: list[SLOResult]) -> dict[str, Any]:
            failed = any(r.status == "FAIL" for r in results)
            return {
                "verdict": "fail" if failed else "pass",
                "rules": [r.to_obj() for r in results],
            }

        volatile = [r for r in self.results if r.volatile]
        deterministic = section([r for r in self.results if not r.volatile])
        return deterministic, (section(volatile) if volatile else None)


class SLOMonitor:
    """Evaluate a rule set against an aggregated timeline."""

    def __init__(self, rules: Iterable[SLORule]) -> None:
        self.rules = list(rules)

    def evaluate(
        self, timeline: TimelineAggregator, *, tracer: Tracer | None = None
    ) -> SLOReport:
        """Judge every rule; emit one ``slo.breach`` event per failure when
        ``tracer`` is given and enabled."""
        report = SLOReport()
        for rule in self.rules:
            report.results.append(self._evaluate_rule(rule, timeline))
        if tracer is not None and tracer.enabled:
            span = timeline.time_span()
            when = span[1] if span is not None else None
            for breach in report.breaches:
                obj = breach.to_obj()
                observed = obj.pop("observed")
                volatile = any(
                    timeline.series[name].volatile
                    for name in breach.matched_series
                    if name in timeline.series
                )
                if volatile:
                    # An observation over wall-derived series is itself
                    # volatile: keep it out of the canonical stream.
                    tracer.emit(
                        EventKind.SLO_BREACH,
                        time=when,
                        data=obj,
                        wall={"observed": observed},
                    )
                else:
                    tracer.emit(
                        EventKind.SLO_BREACH,
                        time=when,
                        data={**obj, "observed": observed},
                    )
        return report

    def _evaluate_rule(
        self, rule: SLORule, timeline: TimelineAggregator
    ) -> SLOResult:
        matched = sorted(
            name for name in timeline.series if fnmatchcase(name, rule.series)
        )
        observations: list[float] = []
        volatile = False
        names: list[str] = []
        for name in matched:
            series = timeline.series[name]
            values = series.values()
            if not values:
                continue
            names.append(name)
            volatile = volatile or series.volatile
            observations.append(rule.aggregate(values))
        if not observations:
            return SLOResult(rule, None, ok=True, skipped=True)
        # Worst case across matched series w.r.t. the comparison direction.
        observed = (
            max(observations) if rule.op in ("<=", "<") else min(observations)
        )
        return SLOResult(
            rule,
            observed,
            ok=rule.satisfied(observed),
            skipped=False,
            matched_series=tuple(names),
            volatile=volatile,
        )


def default_smoke_slos() -> list[SLORule]:
    """The CI smoke thresholds: generous bounds that catch pathologies
    (runaway queues, solver blowups, violation storms), not regressions."""
    return [
        SLORule(
            name="task-queue-delay-p99",
            series="task_queue_delay_s",
            agg="p99",
            op="<=",
            threshold=60.0,
            description="p99 per-tick mean task queuing delay (simulated s)",
        ),
        SLORule(
            name="violations-final",
            series="violations",
            agg="last",
            op="<=",
            threshold=25.0,
            description="constraint-violating containers at end of run",
        ),
        SLORule(
            name="lra-queue-max",
            series="queue_depth:*",
            agg="max",
            op="<=",
            threshold=200.0,
            description="pending LRAs at any scheduling cycle",
        ),
        SLORule(
            name="solver-latency-p99",
            series="solver_latency_s:*",
            agg="p99",
            op="<=",
            threshold=30.0,
            description="p99 per-tick mean scheduler solve wall time (s)",
        ),
    ]


def load_slo_rules(path: str) -> list[SLORule]:
    """Load rules from a JSON file: a list of rule objects (see
    :meth:`SLORule.from_obj`)."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: SLO rules file must be a JSON list")
    return [SLORule.from_obj(obj) for obj in raw]
