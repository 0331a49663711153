"""The perf gate's decision, on synthetic values: ``verdict()`` wording for
both metric directions and its pairs-won rule, ``judge()``'s exit
status — 0 within bound or unresolved, 3 worse beyond bound, 1 on a
fingerprint mismatch — and the resolution it reports per metric.  No
benchmark run involved."""

from __future__ import annotations

import pytest

from benchmarks.compare_commits import judge, verdict

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    ]
}

TIGHT = [100.0, 101.0, 102.0]


def scaled(factor: float) -> list[float]:
    return [v * factor for v in TIGHT]


@pytest.mark.parametrize(
    "better, change, word",
    [
        ("lower", scaled(0.5), "improved"),
        ("lower", scaled(2.0), "worse"),
        ("higher", scaled(2.0), "improved"),
        ("higher", scaled(0.5), "worse"),
        ("lower", [100.5, 101.5, 102.5], "unresolved"),
        ("higher", [100.5, 101.5, 102.5], "unresolved"),
    ],
)
def test_verdict_words(better, change, word):
    assert verdict(TIGHT, change, better)[5] == word


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_improved_needs_nine_of_ten_pairs_won(better, sign):
    base = [100.0] * 10
    # Medians 100 apart, spreads 0 and 37.5: a gain by the medians alone,
    # but the change wins only 8 of the 10 pairs.
    change = [100.0 + sign * 100.0] * 8 + [100.0 - sign * 50.0] * 2
    assert verdict(base, change, better)[5:] == ("unresolved", 8)
    # A tie counts for neither side.
    assert verdict(base, change[:9] + [100.0], better)[5:] == ("unresolved", 8)
    change = [100.0 + sign * 100.0] * 10
    assert verdict(base, change, better)[5:] == ("improved", 10)


def test_judge_prints_pairs_won():
    values = {"w": {"base": {"latency_p50_ms": TIGHT, "throughput_per_s": TIGHT},
                    "change": {"latency_p50_ms": scaled(0.5), "throughput_per_s": scaled(0.5)}}}
    lines, status = judge(SPEC, values, {"w": {"base": {"f0"}, "change": {"f0"}}})
    assert status == 3
    assert any(line.endswith(" 3/3  improved") for line in lines)
    assert any(line.endswith(" 0/3  worse") for line in lines)


def collected(latency: list[float], throughput: list[float], fingerprint: str = "f0"):
    values = {
        "w": {
            "base": {"latency_p50_ms": TIGHT, "throughput_per_s": TIGHT},
            "change": {"latency_p50_ms": latency, "throughput_per_s": throughput},
        }
    }
    prints = {"w": {"base": {"f0"}, "change": {fingerprint}}}
    return values, prints


def test_worse_within_bound_passes():
    lines, status = judge(SPEC, *collected(scaled(1.2), scaled(0.8)))
    assert status == 0
    assert sum(line.endswith("worse") for line in lines) == 2


def test_worse_beyond_bound_trips_the_gate():
    lines, status = judge(SPEC, *collected(scaled(1.3), TIGHT))
    assert status == 3
    assert lines[-1].startswith("WORSE BEYOND BOUND")
    assert "w.latency_p50_ms" in lines[-1]
    assert "throughput_per_s" not in lines[-1]

    # The same rule in the other direction: throughput down by 30 %.
    lines, status = judge(SPEC, *collected(TIGHT, scaled(0.7)))
    assert status == 3
    assert "w.throughput_per_s" in lines[-1]


def test_beyond_bound_but_inside_the_spread_is_unresolved_and_passes():
    noisy = [60.0, 140.0, 220.0]  # median +39 %, quartile spread 160
    lines, status = judge(SPEC, *collected(noisy, TIGHT))
    assert status == 0
    assert any("latency_p50_ms" in line and line.endswith("unresolved") for line in lines)


def test_fingerprint_mismatch_exits_1_even_when_a_metric_is_worse():
    lines, status = judge(SPEC, *collected(scaled(2.0), TIGHT, fingerprint="f1"))
    assert status == 1
    assert any("FINGERPRINTS DIFFER" in line for line in lines)


def test_judge_prints_resolution_and_pairs_needed():
    lines, _ = judge(SPEC, *collected(scaled(0.5), scaled(2.0)))
    # Spreads 2 (base) and 1 (change) over a base median of 101.
    row = next(line for line in lines if "latency_p50_ms" in line)
    assert row.split()[-4:] == ["1±0.020", "3", "3/3", "improved"]
    assert not any(line.startswith("CANNOT CALL") for line in lines)


@pytest.mark.parametrize("n, needs", [(2, 2), (3, 3), (5, 5), (10, 9), (11, 10), (20, 18)])
def test_pairs_needed_is_the_improved_rule(n, needs):
    base = [100.0] * n
    values = {"w": {"base": {"latency_p50_ms": base, "throughput_per_s": base},
                    "change": {"latency_p50_ms": base, "throughput_per_s": base}}}
    lines, _ = judge(SPEC, values, {"w": {"base": {"f0"}, "change": {"f0"}}})
    row = next(line for line in lines if "latency_p50_ms" in line)
    assert row.split()[-3] == str(needs)
    # The same count, from the verdict itself: needs - 1 wins are not enough.
    change = [50.0] * (needs - 1) + [100.0] * (n - needs + 1)
    assert verdict(base, change, "lower")[5] != "improved"
    change = [50.0] * needs + [100.0] * (n - needs)
    assert verdict(base, change, "lower")[5:] == ("improved", needs)


def test_judge_names_metrics_too_noisy_for_their_bound():
    noisy = [60.0, 140.0, 220.0]  # spread 160 over a median of 140
    lines, status = judge(SPEC, {"w": {
        "base": {"latency_p50_ms": noisy, "throughput_per_s": TIGHT},
        "change": {"latency_p50_ms": noisy, "throughput_per_s": TIGHT},
    }}, {"w": {"base": {"f0"}, "change": {"f0"}}})
    assert status == 0
    note = next(line for line in lines if line.startswith("CANNOT CALL"))
    assert "w.latency_p50_ms (1±1.143, bound ±0.25, 3 pairs)" in note
    assert "throughput_per_s" not in note
