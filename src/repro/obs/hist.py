"""Deterministic log-bucketed latency histograms.

:class:`LatencyHistogram` is the one latency record of ``repro.obs``:
every timer label set (:class:`~repro.obs.metrics.Timer`), every
histogram label set (:class:`~repro.obs.metrics.Histogram`) and every
loadgen step keeps one.  It gives bounded-memory, bounded-relative-error
latency distributions for arbitrarily long runs.

It is HDR-histogram-shaped but built on :func:`math.frexp`, which is exact
IEEE-754 — bucket indices are pure integer/float-exact arithmetic, so the
same observation sequence produces the same buckets on every platform:

* A value ``v`` (seconds) is scaled by ``1 / DEFAULT_MIN_VALUE_S`` and
  decomposed as ``m * 2**e`` (``m in [0.5, 1)``).  Each power-of-two octave
  is split into ``DEFAULT_SUBBUCKETS`` linear sub-buckets; the index is
  ``(e - 1) * DEFAULT_SUBBUCKETS + floor((2m - 1) * DEFAULT_SUBBUCKETS)``.
* Reported quantiles use the bucket midpoint (clamped to the exact
  observed min/max), giving relative error ``<= 1 / (2 * DEFAULT_SUBBUCKETS)``
  (~0.8%) for values ``>= DEFAULT_MIN_VALUE_S``; smaller values collapse
  into bucket 0.
* Buckets live in a sparse dict — memory is O(occupied buckets), about
  ``DEFAULT_SUBBUCKETS`` per decade of dynamic range, independent of count.

:meth:`~LatencyHistogram.to_obj` is byte-stable once dumped with sorted
keys: sorted ``[index, count]`` pairs plus the bucket geometry — the same
observation sequence always serializes to the same bytes.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "DEFAULT_MIN_VALUE_S",
    "DEFAULT_SUBBUCKETS",
    "LatencyHistogram",
]

#: Resolution floor (seconds): values below this collapse into bucket 0.
#: 1 microsecond — comfortably under any placement-path latency of note.
DEFAULT_MIN_VALUE_S = 1e-6

#: Linear sub-buckets per power-of-two octave.  64 bounds the midpoint
#: relative error at 1/128 (~0.8%) and keeps ~640 buckets per three decades.
DEFAULT_SUBBUCKETS = 64


class LatencyHistogram:
    """Sparse log-bucketed latency histogram (seconds domain) with the
    running count / sum / min / max of its observations."""

    __slots__ = ("count", "sum_s", "min_s", "max_s", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self._buckets: dict[int, int] = {}

    # -- bucket geometry -----------------------------------------------------

    @staticmethod
    def bucket_index(seconds: float) -> int:
        """Deterministic bucket index for a value (clamped below at 0)."""
        x = seconds / DEFAULT_MIN_VALUE_S
        if x < 1.0:
            return 0
        m, e = math.frexp(x)  # x == m * 2**e, m in [0.5, 1)
        sub = int((m * 2.0 - 1.0) * DEFAULT_SUBBUCKETS)
        if sub >= DEFAULT_SUBBUCKETS:  # guard the m -> 1.0 rounding edge
            sub = DEFAULT_SUBBUCKETS - 1
        return (e - 1) * DEFAULT_SUBBUCKETS + sub

    @staticmethod
    def bucket_bounds(index: int) -> tuple[float, float]:
        """``[lower, upper)`` value bounds of a bucket (seconds)."""
        if index < 0:
            raise ValueError(f"bucket index must be >= 0, got {index}")
        octave, sub = divmod(index, DEFAULT_SUBBUCKETS)
        lower = math.ldexp(1.0 + sub / DEFAULT_SUBBUCKETS, octave)
        upper = math.ldexp(1.0 + (sub + 1) / DEFAULT_SUBBUCKETS, octave)
        return lower * DEFAULT_MIN_VALUE_S, upper * DEFAULT_MIN_VALUE_S

    @staticmethod
    def bucket_mid(index: int) -> float:
        """Representative (midpoint) value of a bucket (seconds)."""
        octave, sub = divmod(index, DEFAULT_SUBBUCKETS)
        mid = math.ldexp(1.0 + (sub + 0.5) / DEFAULT_SUBBUCKETS, octave)
        return mid * DEFAULT_MIN_VALUE_S

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of reported quantiles for values
        ``>= DEFAULT_MIN_VALUE_S`` (midpoint vs true value within one
        bucket)."""
        return 1.0 / (2.0 * DEFAULT_SUBBUCKETS)

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
        :attr:`relative_error` for values ``>= DEFAULT_MIN_VALUE_S``.
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

    def summary(self) -> dict[str, float]:
        """Flat stats dict: count/total/mean/min/max plus percentiles —
        one timer label set's entry in a metrics snapshot."""
        return {
            "count": self.count,
            "total_s": self.sum_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            **self.percentiles(),
        }

    def to_obj(self) -> dict[str, Any]:
        """JSON-safe dict; byte-stable once dumped with sorted keys."""
        return {
            "buckets": [[idx, self._buckets[idx]] for idx in sorted(self._buckets)],
            "count": self.count,
            "max_s": self.max_s,
            "min_s": self.min_s if self.count else 0.0,
            "min_value_s": DEFAULT_MIN_VALUE_S,
            "subbuckets": DEFAULT_SUBBUCKETS,
            "sum_s": self.sum_s,
        }
