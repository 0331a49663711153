"""Declarative SLO monitoring over timeline series.

An :class:`SLORule` names a timeline series (glob patterns allowed, e.g.
``solver_latency_s:*``), an aggregation over its per-tick values (``max`` /
``min`` / ``mean`` / ``last`` / ``p50`` / ``p95`` / ``p99``), a comparison
operator and a threshold.  :class:`SLOMonitor` evaluates a rule set against
plain ``{name: (per-tick values, volatile)}`` series — the live fold's
unrounded :class:`~repro.obs.timeline.TimeSeries` values, or the points a
rollup document stored — and produces an :class:`SLOReport` with a
run-level pass/fail verdict.

Rules whose series does not exist are *skipped*, not
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
from typing import Any, Iterable, Mapping, Sequence

from .stats import percentile

__all__ = [
    "SLORule",
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
        if not isinstance(self.name, str) or not isinstance(self.series, str):
            raise ValueError(
                f"SLO rule name and series must be strings, got "
                f"{self.name!r} and {self.series!r}"
            )
        if isinstance(self.threshold, bool) or not isinstance(
            self.threshold, (int, float)
        ):
            raise ValueError(
                f"SLO rule {self.name!r}: threshold must be a number, got "
                f"{self.threshold!r}"
            )
        if self.agg not in _AGGS:
            raise ValueError(f"unknown agg {self.agg!r}; expected one of {_AGGS}")
        if not isinstance(self.op, str) or self.op not in _OPS:
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
    def breaches(self) -> list[SLOResult]:
        """The rules that were judged and failed."""
        return [r for r in self.results if not r.skipped and not r.ok]

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
    """Evaluate a rule set against aggregated series."""

    def __init__(self, rules: Iterable[SLORule]) -> None:
        self.rules = list(rules)

    def evaluate(
        self, series: Mapping[str, tuple[Sequence[float], bool]]
    ) -> SLOReport:
        """Judge every rule against ``{name: (per-tick values, volatile)}``."""
        return SLOReport([self._evaluate_rule(rule, series) for rule in self.rules])

    def _evaluate_rule(
        self, rule: SLORule, series: Mapping[str, tuple[Sequence[float], bool]]
    ) -> SLOResult:
        observations: list[float] = []
        volatile = False
        names: list[str] = []
        for name in sorted(n for n in series if fnmatchcase(n, rule.series)):
            values, is_volatile = series[name]
            if not values:
                continue
            names.append(name)
            volatile = volatile or is_volatile
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
    rules = []
    for index, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise ValueError(
                f"{path}: SLO rule {index} must be a JSON object, got {obj!r}"
            )
        rules.append(SLORule.from_obj(obj))
    return rules
