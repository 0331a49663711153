"""Tests for the ASCII reporting helpers and the public API surface."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.reporting import banner, render_cdf_summary, render_series, render_table


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(["name", "value"], [["a", 1.5], ["long-name", 22.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) == {"-"}
        assert "22.25" in lines[3] or "22.25" in text

    def test_float_format(self):
        text = render_table(["x"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text and "1.23" not in text

    def test_non_float_cells_passthrough(self):
        text = render_table(["x"], [["abc"], [7]])
        assert "abc" in text and "7" in text


class TestRenderSeries:
    def test_columns(self):
        text = render_series(
            "util", [10, 30], {"MEDEA": [0.0, 1.0], "J-KUBE": [5.0, 9.0]}
        )
        assert "util" in text and "MEDEA" in text and "J-KUBE" in text
        assert "9.00" in text

    def test_row_per_x(self):
        text = render_series("x", [1, 2, 3], {"s": [1.0, 2.0, 3.0]})
        assert len(text.splitlines()) == 5  # header + sep + 3 rows


class TestCdfSummaryAndBanner:
    def test_summary_percentiles(self):
        text = render_cdf_summary("lat", [1.0, 2.0, 3.0], unit="ms")
        assert text.startswith("lat:")
        assert "p50=2.00ms" in text

    def test_summary_empty(self):
        assert "(empty)" in render_cdf_summary("x", [])

    def test_banner(self):
        text = banner("Figure 9a")
        assert "Figure 9a" in text
        assert text.count("=") >= 120


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_all_exports(self):
        import repro.apps
        import repro.cluster
        import repro.core
        import repro.failures
        import repro.obs
        import repro.perf
        import repro.sim
        import repro.solver
        import repro.taskscheduler
        import repro.workloads

        for module in (
            repro.apps, repro.cluster, repro.core, repro.failures,
            repro.obs, repro.perf, repro.sim, repro.solver,
            repro.taskscheduler, repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_env_knob_ledger():
    """EXPERIMENTS.md's knob table lists exactly the ``MEDEA_*`` environment
    variables the package reads — a new knob must be documented, a retired
    one must be struck."""
    root = Path(__file__).resolve().parent.parent
    token = re.compile(r"MEDEA_[A-Z_]+")
    in_src = {
        name
        for path in (root / "src").rglob("*.py")
        for name in token.findall(path.read_text())
    }
    table_rows = [
        line for line in (root / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith("| `MEDEA_")
    ]
    in_table = {token.search(line).group() for line in table_rows}
    assert len(in_table) == len(table_rows) == 6
    assert in_src == in_table
