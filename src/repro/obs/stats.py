"""Statistical summaries (box-plot percentiles, CDFs) for the metrics layer.

The paper reports box plots with whiskers at p5/p99, boxes at p25/p75 and a
median line (Fig. 7 caption); :class:`BoxStats` mirrors exactly that.

This module is dependency-free (no ``repro`` imports) so it can be pulled
in from anywhere in the package without import cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BoxStats",
    "EmptyDataError",
    "percentile",
    "cdf_points",
    "coefficient_of_variation",
]


class EmptyDataError(ValueError):
    """A summary statistic was asked of an empty sequence.

    Subclasses :class:`ValueError` so existing ``except ValueError`` /
    ``pytest.raises(ValueError)`` call sites keep working, while letting
    benchmark drivers distinguish "no data" (a scheduler placed nothing,
    a latency series is empty) from a genuinely malformed argument.
    """


_MISSING = object()


def percentile(values: Sequence[float], q: float, *, default: float = _MISSING) -> float:
    """Linear-interpolation percentile (q in [0, 100]).

    Raises :class:`EmptyDataError` on empty input unless ``default`` is
    given, in which case it is returned instead — the escape hatch for
    benchmark tables whose series can legitimately be empty (e.g. a
    scheduler that rejected every application).
    """
    if not values:
        if default is not _MISSING:
            return default
        raise EmptyDataError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1 - frac) + ordered[high] * frac
    # Clamp away float rounding: interpolation must stay inside the bracket.
    return min(max(value, ordered[low]), ordered[high])


@dataclass(frozen=True)
class BoxStats:
    """p5 / p25 / median / p75 / p99 summary (the paper's box-plot shape)."""

    p5: float
    p25: float
    median: float
    p75: float
    p99: float
    mean: float
    count: int

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "BoxStats":
        data = list(values)
        if not data:
            raise EmptyDataError("BoxStats of empty data")
        return cls(
            p5=percentile(data, 5),
            p25=percentile(data, 25),
            median=percentile(data, 50),
            p75=percentile(data, 75),
            p99=percentile(data, 99),
            mean=sum(data) / len(data),
            count=len(data),
        )

    @classmethod
    def empty(cls) -> "BoxStats":
        """NaN-filled summary with ``count == 0`` (renders as "no data")."""
        nan = math.nan
        return cls(p5=nan, p25=nan, median=nan, p75=nan, p99=nan, mean=nan, count=0)

    @classmethod
    def from_values_or_empty(cls, values: Iterable[float]) -> "BoxStats":
        """Like :meth:`from_values` but maps empty input to :meth:`empty`,
        for benchmark series that can legitimately have no samples."""
        data = list(values)
        return cls.from_values(data) if data else cls.empty()

    def row(self, label: str, unit: str = "") -> str:
        if self.count == 0:
            return f"{label:<12} (no data)"
        return (
            f"{label:<12} p5={self.p5:8.1f}  p25={self.p25:8.1f}  "
            f"median={self.median:8.1f}  p75={self.p75:8.1f}  "
            f"p99={self.p99:8.1f} {unit}"
        )


def cdf_points(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population CV = stddev / mean (0 when the mean is 0)."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance) / mean
