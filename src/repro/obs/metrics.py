"""Counters, gauges, timers and histograms with labels, plus a snapshot API.

The :class:`Metrics` registry keeps only numbers no other record holds: a
count the trace already carries (an ``lra.place`` event, a
``scheduler.place`` payload) is read from the trace, not counted twice.

Instruments are label-aware: ``metrics.timer("scheduler_place_seconds")
.observe(0.01, scheduler="MEDEA-ILP")`` keeps one value per label set.
Labels are canonicalised (sorted ``key=value`` pairs) so snapshots are
deterministic.

:class:`SolverStats` — the MILP effort breakdown both solver backends
produce — lives here too, though it travels with the solve, not through
the registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from .hist import LatencyHistogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Metrics",
    "SolverStats",
    "get_metrics",
    "set_metrics",
    "parse_label_key",
]


def _escape_label_part(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
    )


def _label_key(labels: Mapping[str, Any]) -> str:
    """Canonical string form of a label set (sorted ``k=v`` pairs).

    ``\\``, ``,`` and ``=`` inside keys or values are backslash-escaped so
    the key round-trips losslessly through :func:`parse_label_key` — a
    label value like ``rack=a,b`` must not masquerade as two labels."""
    if not labels:
        return ""
    return ",".join(
        f"{_escape_label_part(k)}={_escape_label_part(str(labels[k]))}"
        for k in sorted(labels)
    )


def parse_label_key(label_key: str) -> list[tuple[str, str]]:
    """Invert :func:`_label_key`: canonical string → ``(key, value)`` pairs
    (order preserved; unescapes ``\\\\``, ``\\,`` and ``\\=``)."""
    if not label_key:
        return []
    pairs: list[tuple[str, str]] = []
    key_parts: list[str] = []
    value_parts: list[str] = []
    current = key_parts
    chars = iter(label_key)
    for ch in chars:
        if ch == "\\":
            current.append(next(chars, ""))
        elif ch == "=" and current is key_parts:
            current = value_parts
        elif ch == ",":
            pairs.append(("".join(key_parts), "".join(value_parts)))
            key_parts, value_parts = [], []
            current = key_parts
        else:
            current.append(ch)
    pairs.append(("".join(key_parts), "".join(value_parts)))
    return pairs


class _Instrument:
    """Shared naming/labelling machinery."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: label items -> canonical key, one per label set written: deriving
        #: a key (sort, ``str``, escape) costs several times the write itself.
        self._write_keys: dict[tuple, str] = {}

    def _write_key(self, labels: dict[str, Any]) -> str:
        """:func:`_label_key`, memoised for label sets with only ``str``
        values (equal values of other types — ``1``, ``1.0``, ``True`` —
        render differently, so those are derived every time).

        The memo is probed first: only ``str``-valued sets are stored, and
        ``1``, ``1.0`` or ``True`` never equal a ``str``."""
        if not labels:
            return ""
        items = tuple(labels.items())
        try:
            key = self._write_keys.get(items)
        except TypeError:  # an unhashable label value
            key = None
        if key is not None:
            return key
        for value in labels.values():
            if type(value) is not str:
                return _label_key(labels)
        key = self._write_keys[items] = _label_key(labels)
        return key


class Counter(_Instrument):
    """Monotonically increasing value per label set."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease ({amount})")
        key = self._write_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def snapshot(self) -> dict[str, float]:
        return {k: self._values[k] for k in sorted(self._values)}


class Gauge(_Instrument):
    """Last-write-wins value per label set."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: dict[str, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._write_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, float]:
        return {k: self._values[k] for k in sorted(self._values)}


class Timer(_Instrument):
    """Duration aggregator per label set: one
    :class:`~repro.obs.hist.LatencyHistogram` each (count / total / min /
    max plus bounded-error percentiles), snapshotted as its
    :meth:`~repro.obs.hist.LatencyHistogram.summary` and exposed as a
    Prometheus summary."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._stats: dict[str, LatencyHistogram] = {}

    def observe(self, seconds: float, **labels: Any) -> None:
        self.series(**labels).record(seconds)

    def series(self, **labels: Any) -> LatencyHistogram:
        """The histogram of one label set, created on first use.  A caller
        recording many values under one label set resolves it once and
        records into it directly."""
        key = self._write_key(labels)
        hist = self._stats.get(key)
        if hist is None:  # not setdefault: that builds a histogram per call
            hist = self._stats[key] = LatencyHistogram()
        return hist

    def stat(self, **labels: Any) -> LatencyHistogram:
        return self._stats.get(_label_key(labels)) or LatencyHistogram()

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {k: self._stats[k].summary() for k in sorted(self._stats)}


class Histogram(_Instrument):
    """Log-bucketed latency distribution per label set, exposed as a
    Prometheus histogram: a snapshot entry is the timer's flat stats plus
    the cumulative ``_bucket`` counts."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._stats: dict[str, LatencyHistogram] = {}

    def observe(self, seconds: float, **labels: Any) -> None:
        key = self._write_key(labels)
        hist = self._stats.get(key)
        if hist is None:
            hist = self._stats[key] = LatencyHistogram()
        hist.record(seconds)

    def stat(self, **labels: Any) -> LatencyHistogram:
        return self._stats.get(_label_key(labels)) or LatencyHistogram()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-label-set flat stats (same shape as timer snapshots) plus
        the cumulative ``buckets`` (``[le_s, cumulative_count]`` pairs)
        behind the Prometheus ``_bucket`` exposition."""
        out: dict[str, dict[str, Any]] = {}
        for key in sorted(self._stats):
            hist = self._stats[key]
            stat: dict[str, Any] = hist.summary()
            stat["buckets"] = [
                [le, cum] for le, cum in hist.cumulative_buckets()
            ]
            out[key] = stat
        return out


class Metrics:
    """Registry of named instruments.

    ``counter`` / ``gauge`` / ``timer`` are get-or-create: repeated calls
    with the same name return the same instrument, so emitters do not need
    to share instrument handles, only the registry.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def timer(self, name: str) -> Timer:
        inst = self._timers.get(name)
        if inst is None:
            inst = self._timers[name] = Timer(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Deterministically ordered dump of every instrument.

        Shape::

            {"counters":   {name: {label_key: value}},
             "gauges":     {name: {label_key: value}},
             "timers":     {name: {label_key: {count, total_s, ...}}},
             "histograms": {name: {label_key: {count, total_s, ...}}}}

        The ``histograms`` family is omitted while empty so pre-existing
        snapshot consumers (and committed artifacts) are unchanged until a
        histogram is actually registered.
        """
        snap: dict[str, dict[str, Any]] = {
            "counters": {n: self._counters[n].snapshot() for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].snapshot() for n in sorted(self._gauges)},
            "timers": {n: self._timers[n].snapshot() for n in sorted(self._timers)},
        }
        if self._histograms:
            snap["histograms"] = {
                n: self._histograms[n].snapshot()
                for n in sorted(self._histograms)
            }
        return snap

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()


_default_metrics = Metrics()


def get_metrics() -> Metrics:
    """The process-wide default registry."""
    return _default_metrics


def set_metrics(metrics: Metrics | None) -> Metrics:
    """Install ``metrics`` as the default (``None`` installs a fresh
    registry); returns the previous default."""
    global _default_metrics
    previous = _default_metrics
    _default_metrics = metrics if metrics is not None else Metrics()
    return previous


@dataclass
class SolverStats:
    """Where a MILP solve spent its effort.

    Produced by both solver backends (branch-and-bound fills every field;
    HiGHS reports its node count, achieved gap and wall time, since its
    phases are not separable).  It travels with the solve
    (``IlpScheduler.last_stats``, ``PlacementResult.solver_stats``) and is
    not copied into the :class:`Metrics` registry.
    """

    backend: str = "bnb"
    nodes_explored: int = 0
    lp_solves: int = 0
    presolve_rows_removed: int = 0
    presolve_cols_fixed: int = 0
    presolve_bounds_tightened: int = 0
    #: Incumbents found by the rounding primal heuristic.
    heuristic_incumbents: int = 0
    time_presolve_s: float = 0.0
    time_lp_s: float = 0.0
    time_heuristic_s: float = 0.0
    time_total_s: float = 0.0
    #: Number of solves merged into this record (1 for a single solve).
    solves: int = 1
    #: Achieved relative MIP gap (incumbent vs. best bound); NaN when the
    #: solve reports none.  A merged record keeps the largest.
    gap: float = math.nan

    def merge(self, other: "SolverStats") -> None:
        """Accumulate ``other`` into this record (for per-experiment totals)."""
        if self.solves == 0:
            self.backend = other.backend
        elif other.backend not in self.backend.split("+"):
            self.backend = f"{self.backend}+{other.backend}"
        self.nodes_explored += other.nodes_explored
        self.lp_solves += other.lp_solves
        self.presolve_rows_removed += other.presolve_rows_removed
        self.presolve_cols_fixed += other.presolve_cols_fixed
        self.presolve_bounds_tightened += other.presolve_bounds_tightened
        self.heuristic_incumbents += other.heuristic_incumbents
        self.time_presolve_s += other.time_presolve_s
        self.time_lp_s += other.time_lp_s
        self.time_heuristic_s += other.time_heuristic_s
        self.time_total_s += other.time_total_s
        self.solves += other.solves
        if math.isnan(self.gap) or other.gap > self.gap:
            self.gap = other.gap

    def summary(self) -> str:
        """One line suitable for benchmark output."""
        return (
            f"solver[{self.backend}] solves={self.solves} "
            f"nodes={self.nodes_explored} lps={self.lp_solves} "
            f"presolve(rows-={self.presolve_rows_removed} "
            f"cols-={self.presolve_cols_fixed} "
            f"tighten={self.presolve_bounds_tightened}) "
            f"heur-inc={self.heuristic_incumbents} "
            f"t_presolve={self.time_presolve_s * 1000:.1f}ms "
            f"t_lp={self.time_lp_s * 1000:.1f}ms "
            f"t_heur={self.time_heuristic_s * 1000:.1f}ms "
            f"t_total={self.time_total_s * 1000:.1f}ms"
        )
