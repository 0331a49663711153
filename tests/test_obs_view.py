"""Every HTML page the observability CLI writes: styled by the shared
stylesheet (``viz-root`` body, palette-slot colours), free of external
assets, and with rectangular tables."""

from html.parser import HTMLParser

import pytest

from repro.cli import main
from repro.obs.metrics import Metrics, set_metrics


class _Page(HTMLParser):
    """Body classes, stylesheet text, and the cell count of every table row
    (the header row first)."""

    def __init__(self) -> None:
        super().__init__()
        self.body_classes: list[str] = []
        self.style = ""
        self.tables: list[list[int]] = []
        self._in_style = False

    def handle_starttag(self, tag, attrs):
        if tag == "body":
            self.body_classes = (dict(attrs).get("class") or "").split()
        elif tag == "style":
            self._in_style = True
        elif tag == "table":
            self.tables.append([])
        elif tag == "tr":
            self.tables[-1].append(0)
        elif tag in ("th", "td"):
            self.tables[-1][-1] += 1

    def handle_endtag(self, tag):
        if tag == "style":
            self._in_style = False

    def handle_data(self, data):
        if self._in_style:
            self.style += data


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two audited runs of different seeds, each traced and rolled up."""
    root = tmp_path_factory.mktemp("runs")
    prev_metrics = set_metrics(Metrics())
    try:
        for name, seed in (("a", 13), ("b", 14)):
            assert main([
                "simulate", "--nodes", "24", "--horizon", "40", "--lras", "2",
                "--tasks", "40", "--seed", str(seed), "--audit",
                "--trace-out", str(root / f"{name}.jsonl"),
                "--rollup", str(root / f"ROLLUP_{name}.json"),
            ]) == 0
    finally:
        set_metrics(prev_metrics)
    return root


PAGES = {
    "dashboard-trace": lambda runs: ["dashboard", str(runs / "a.jsonl")],
    "dashboard-rollup": lambda runs: ["dashboard", str(runs / "ROLLUP_a.json")],
    "diff": lambda runs: ["diff", str(runs / "a.jsonl"), str(runs / "b.jsonl")],
    "sweep": lambda runs: ["loadgen", "--nodes", "12", "--sweep", "50,100",
                           "--requests", "20"],
}


@pytest.mark.parametrize("page", sorted(PAGES))
def test_html_page_is_styled_self_contained_and_rectangular(page, runs, tmp_path):
    out = tmp_path / f"{page}.html"
    assert main(PAGES[page](runs) + ["--html", str(out)]) == 0
    html = out.read_text(encoding="utf-8")
    parsed = _Page()
    parsed.feed(html)
    assert "viz-root" in parsed.body_classes
    assert "var(#" not in html
    assert parsed.style.strip() and "http" not in parsed.style
    assert parsed.tables
    for rows in parsed.tables:
        assert rows and all(cells == rows[0] for cells in rows), rows
