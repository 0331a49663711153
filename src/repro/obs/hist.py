"""Deterministic log-bucketed mergeable latency histograms.

The latency-under-load plane (ISSUE 10) needs one data structure every
consumer agrees on: bounded-memory, bounded-relative-error latency
distributions that merge *exactly* (bucket-count addition, associative and
commutative) so per-step / per-worker / per-process histograms compose
into cluster-wide percentiles without resampling bias.  Timer percentiles
(:class:`~repro.obs.metrics.TimerStat`) are backed by it.

:class:`LatencyHistogram` is HDR-histogram-shaped but built on
:func:`math.frexp`, which is exact IEEE-754 — bucket indices are pure
integer/float-exact arithmetic, so the same observation sequence produces
the same buckets on every platform:

* A value ``v`` (seconds) is scaled by ``1 / min_value_s`` and decomposed
  as ``m * 2**e`` (``m in [0.5, 1)``).  Each power-of-two octave is split
  into ``subbuckets`` linear sub-buckets; the index is
  ``(e - 1) * subbuckets + floor((2m - 1) * subbuckets)``.
* Reported quantiles use the bucket midpoint (clamped to the exact
  observed min/max), giving relative error ``<= 1 / (2 * subbuckets)``
  (~0.8% at the default 64) for values ``>= min_value_s``; smaller values
  collapse into bucket 0.
* Buckets live in a sparse dict — memory is O(occupied buckets), about
  ``subbuckets`` per decade of dynamic range, independent of count.

Serialization (:meth:`to_obj` / :meth:`to_json`) is byte-stable: sorted
``[index, count]`` pairs plus the bucket-geometry parameters, dumped with
sorted keys — the same histogram always serializes to the same bytes, and
a round trip through JSON (a JSONL event payload) is lossless.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping

__all__ = [
    "DEFAULT_MIN_VALUE_S",
    "DEFAULT_SUBBUCKETS",
    "LatencyHistogram",
    "merge_histograms",
]

#: Resolution floor (seconds): values below this collapse into bucket 0.
#: 1 microsecond — comfortably under any placement-path latency of note.
DEFAULT_MIN_VALUE_S = 1e-6

#: Linear sub-buckets per power-of-two octave.  64 bounds the midpoint
#: relative error at 1/128 (~0.8%) and keeps ~640 buckets per three decades.
DEFAULT_SUBBUCKETS = 64


class LatencyHistogram:
    """Sparse log-bucketed latency histogram (seconds domain).

    Two histograms are mergeable iff they share ``min_value_s`` and
    ``subbuckets``; :meth:`merge` is exact (integer bucket addition), so
    ``quantile`` over a merged histogram equals ``quantile`` over one
    histogram fed the concatenated observations.
    """

    __slots__ = (
        "min_value_s",
        "subbuckets",
        "count",
        "sum_s",
        "min_s",
        "max_s",
        "_buckets",
    )

    def __init__(
        self,
        *,
        min_value_s: float = DEFAULT_MIN_VALUE_S,
        subbuckets: int = DEFAULT_SUBBUCKETS,
    ) -> None:
        if min_value_s <= 0.0:
            raise ValueError(f"min_value_s must be > 0, got {min_value_s}")
        if subbuckets < 1:
            raise ValueError(f"subbuckets must be >= 1, got {subbuckets}")
        self.min_value_s = float(min_value_s)
        self.subbuckets = int(subbuckets)
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self._buckets: dict[int, int] = {}

    # -- bucket geometry -----------------------------------------------------

    def bucket_index(self, seconds: float) -> int:
        """Deterministic bucket index for a value (clamped below at 0)."""
        x = seconds / self.min_value_s
        if x < 1.0:
            return 0
        m, e = math.frexp(x)  # x == m * 2**e, m in [0.5, 1)
        sub = int((m * 2.0 - 1.0) * self.subbuckets)
        if sub >= self.subbuckets:  # guard the m -> 1.0 rounding edge
            sub = self.subbuckets - 1
        return (e - 1) * self.subbuckets + sub

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """``[lower, upper)`` value bounds of a bucket (seconds)."""
        if index < 0:
            raise ValueError(f"bucket index must be >= 0, got {index}")
        octave, sub = divmod(index, self.subbuckets)
        lower = math.ldexp(1.0 + sub / self.subbuckets, octave)
        upper = math.ldexp(1.0 + (sub + 1) / self.subbuckets, octave)
        return lower * self.min_value_s, upper * self.min_value_s

    def bucket_mid(self, index: int) -> float:
        """Representative (midpoint) value of a bucket (seconds)."""
        octave, sub = divmod(index, self.subbuckets)
        mid = math.ldexp(1.0 + (sub + 0.5) / self.subbuckets, octave)
        return mid * self.min_value_s

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of reported quantiles for values
        ``>= min_value_s`` (midpoint vs true value within one bucket)."""
        return 1.0 / (2.0 * self.subbuckets)

    # -- recording -----------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Record one latency observation (negative values clamp to 0)."""
        if seconds < 0.0:
            seconds = 0.0
        self.count += 1
        self.sum_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        idx = self.bucket_index(seconds)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    # -- merging -------------------------------------------------------------

    def _check_compatible(self, other: "LatencyHistogram") -> None:
        if (
            self.min_value_s != other.min_value_s
            or self.subbuckets != other.subbuckets
        ):
            raise ValueError(
                "cannot merge histograms with different bucket geometry: "
                f"(min_value_s={self.min_value_s}, subbuckets="
                f"{self.subbuckets}) vs (min_value_s={other.min_value_s}, "
                f"subbuckets={other.subbuckets})"
            )

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (exact; returns ``self``)."""
        self._check_compatible(other)
        self.count += other.count
        self.sum_s += other.sum_s
        if other.count:
            if other.min_s < self.min_s:
                self.min_s = other.min_s
            if other.max_s > self.max_s:
                self.max_s = other.max_s
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        return self

    def copy(self) -> "LatencyHistogram":
        dup = LatencyHistogram(
            min_value_s=self.min_value_s, subbuckets=self.subbuckets
        )
        dup.count = self.count
        dup.sum_s = self.sum_s
        dup.min_s = self.min_s
        dup.max_s = self.max_s
        dup._buckets = dict(self._buckets)
        return dup

    # -- reading -------------------------------------------------------------

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """q-th percentile (``q`` in [0, 100]) as a bucket midpoint clamped
        to the exact observed min/max; 0.0 when nothing was recorded.

        Uses the nearest-rank definition (rank ``ceil(q/100 * count)``), so
        against an exact sorted-sample percentile the only extra error is
        the bucket's midpoint displacement — bounded by
        :attr:`relative_error` for values ``>= min_value_s``.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min_s
        if q >= 100.0:
            return self.max_s
        target = math.ceil(q / 100.0 * self.count)
        cum = 0
        for idx in sorted(self._buckets):
            cum += self._buckets[idx]
            if cum >= target:
                value = self.bucket_mid(idx)
                return min(max(value, self.min_s), self.max_s)
        return self.max_s

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 triple (seconds)."""
        return {
            "p50_s": self.quantile(50),
            "p95_s": self.quantile(95),
            "p99_s": self.quantile(99),
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le_upper_bound_s, cumulative_count)`` per occupied bucket.

        The Prometheus cumulative-``_bucket`` view: counts at each occupied
        bucket's upper bound, monotonically non-decreasing; the implicit
        ``+Inf`` bucket is :attr:`count`.
        """
        out: list[tuple[float, int]] = []
        cum = 0
        for idx in sorted(self._buckets):
            cum += self._buckets[idx]
            out.append((self.bucket_bounds(idx)[1], cum))
        return out

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict[str, Any]:
        """JSON-safe dict; byte-stable once dumped with sorted keys."""
        return {
            "buckets": [[idx, self._buckets[idx]] for idx in sorted(self._buckets)],
            "count": self.count,
            "max_s": self.max_s,
            "min_s": self.min_s if self.count else 0.0,
            "min_value_s": self.min_value_s,
            "subbuckets": self.subbuckets,
            "sum_s": self.sum_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "LatencyHistogram":
        hist = cls(
            min_value_s=obj["min_value_s"], subbuckets=obj["subbuckets"]
        )
        hist.count = int(obj["count"])
        hist.sum_s = float(obj["sum_s"])
        hist.max_s = float(obj["max_s"])
        hist.min_s = float(obj["min_s"]) if hist.count else math.inf
        hist._buckets = {int(idx): int(n) for idx, n in obj["buckets"]}
        return hist

    @classmethod
    def from_json(cls, text: str) -> "LatencyHistogram":
        return cls.from_obj(json.loads(text))

    def summary(self) -> dict[str, float]:
        """Flat stats dict (count/total/mean/min/max + percentiles) in the
        shape :meth:`~repro.obs.metrics.TimerStat.to_dict` snapshots use."""
        return {
            "count": self.count,
            "total_s": self.sum_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            **self.percentiles(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, mean_s={self.mean_s:.6f}, "
            f"buckets={len(self._buckets)})"
        )


def merge_histograms(
    histograms: Iterable[LatencyHistogram],
) -> LatencyHistogram:
    """Exact merge of any number of compatible histograms (empty input
    yields an empty default-geometry histogram)."""
    merged: LatencyHistogram | None = None
    for hist in histograms:
        if merged is None:
            merged = hist.copy()
        else:
            merged.merge(hist)
    return merged if merged is not None else LatencyHistogram()
