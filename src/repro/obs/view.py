"""One report model: every ``repro.obs`` page is a :class:`View`.

A view is a title, headline lines (plain strings or :class:`Badge`
verdicts) and an ordered list of sections — a :class:`Table`, a
:class:`SeriesGroup` of time series, or plain :class:`Lines`.  The plane
that owns the data builds its view next to it (``dashboard_view``,
``metrics_view``, ``diff_view``, ``sweep_view``, ``watch_view``);
:func:`to_text` and :func:`to_html` are
the only renderers.  JSON documents are not views: each plane serialises its own,
byte-stable.

Text headings are run-in labels with a lowercase first letter
(``critical paths (per application):``), like the terminal's other
``label: value`` lines; HTML headings keep the case given.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Union

from ..reporting import banner, render_table

__all__ = [
    "Badge",
    "Table",
    "SeriesGroup",
    "Lines",
    "View",
    "to_text",
    "to_html",
]


@dataclass(frozen=True)
class Badge:
    """A verdict: ``label: value — detail`` in text, a pass/fail badge in
    HTML."""

    label: str
    value: str
    ok: bool
    detail: str = ""


@dataclass
class Table:
    heading: str
    headers: Sequence[str]
    rows: Sequence[Sequence[Any]]
    note: str = ""
    #: Shown in place of the table when there are no rows; without it an
    #: empty table is left out.
    empty: str = ""


@dataclass
class SeriesGroup:
    """Named series in the timeline summary shape (``points`` as
    ``[x, y]`` pairs plus optional ``agg``/``tick_s``/``min``/``mean``/
    ``max``/``last``): a stats table in text, one SVG chart per series in
    HTML."""

    heading: str
    series: Mapping[str, Mapping[str, Any]]
    #: Palette slot of the chart lines (``--series-<slot>``).
    slot: int = 1
    x_unit: str = "s"


@dataclass
class Lines:
    heading: str
    lines: Sequence[str]


Section = Union[Table, SeriesGroup, Lines]


@dataclass
class View:
    title: str
    headline: list[str | Badge] = field(default_factory=list)
    sections: list[Section] = field(default_factory=list)


def _fmt_num(value: Any) -> str:
    """Floats: two decimals from 1 up, four significant digits below."""
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) >= 1 else f"{value:.4g}"
    return str(value)


_SERIES_HEADERS = ["series", "agg", "tick s", "pts", "min", "mean", "max", "last"]


def _series_rows(series: Mapping[str, Mapping[str, Any]]) -> list[list[Any]]:
    return [
        [name, obj.get("agg", "-"), obj.get("tick_s", "-"), len(obj.get("points", ()))]
        + [obj.get(stat, "-") for stat in ("min", "mean", "max", "last")]
        for name, obj in series.items()
    ]


def _shown(section: Section) -> bool:
    if isinstance(section, Lines):
        return bool(section.lines)
    if isinstance(section, SeriesGroup):
        return bool(section.series)
    return bool(section.rows or section.empty)


# -- text ---------------------------------------------------------------------


def _badge_text(badge: Badge) -> str:
    detail = f" — {badge.detail}" if badge.detail else ""
    return f"{badge.label}: {badge.value}{detail}"


def _run_in(heading: str) -> str:
    if not heading.split(" ", 1)[0].isupper():
        heading = heading[:1].lower() + heading[1:]
    return heading + ":"


def _text_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width table; a multi-line cell continues on the rows below."""
    lines: list[list[str]] = []
    for row in rows:
        cells = [_fmt_num(cell).split("\n") for cell in row]
        for i in range(max(len(cell) for cell in cells)):
            lines.append([cell[i] if i < len(cell) else "" for cell in cells])
    return render_table(headers, lines)


def to_text(view: View) -> str:
    """Terminal rendering: banner, headline lines, then each non-empty
    section under its run-in heading."""
    parts = [banner(view.title)]
    parts.extend(_badge_text(h) if isinstance(h, Badge) else h for h in view.headline)
    for section in filter(_shown, view.sections):
        parts.append("")
        if section.heading:
            parts.append(_run_in(section.heading))
        if getattr(section, "note", ""):
            parts.append(section.note)
        if isinstance(section, Lines):
            parts.extend(section.lines)
        elif isinstance(section, SeriesGroup):
            parts.append(_text_table(_SERIES_HEADERS, _series_rows(section.series)))
        elif section.rows:
            parts.append(_text_table(section.headers, section.rows))
        else:
            parts.append(section.empty)
    return "\n".join(parts)


# -- HTML ---------------------------------------------------------------------

#: Charts rendered per series group before folding the rest into a note.
_MAX_CHARTS = 16

#: The self-contained stylesheet of every HTML page: no external assets,
#: light/dark from the reader's ``prefers-color-scheme`` via CSS custom
#: properties, every rule scoped under ``.viz-root`` (the page body).
HTML_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
.viz-root {
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px; line-height: 1.45;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .meta { color: var(--text-secondary); font-size: 13px; margin: 0 0 6px; }
.viz-root .badge {
  display: inline-block; padding: 1px 8px; border-radius: 9px;
  font-size: 12px; font-weight: 600; border: 1px solid var(--border);
}
.viz-root .badge.pass { color: var(--status-good); }
.viz-root .badge.fail { color: var(--status-critical); }
.viz-root table {
  border-collapse: collapse; font-size: 13px; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 6px;
}
.viz-root th, .viz-root td {
  text-align: left; padding: 4px 10px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root pre.cell { margin: 0; font: inherit; white-space: pre; }
.viz-root .charts {
  display: grid; grid-template-columns: repeat(auto-fill, minmax(340px, 1fr));
  gap: 16px; margin-top: 8px;
}
.viz-root figure {
  margin: 0; padding: 10px 12px; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px;
}
.viz-root figcaption { font-size: 13px; font-weight: 600; margin-bottom: 4px; }
.viz-root figcaption .agg { color: var(--muted); font-weight: 400; font-size: 12px; }
.viz-root svg { width: 100%; height: auto; display: block; }
.viz-root svg .grid { stroke: var(--grid); stroke-width: 1; }
.viz-root svg .axis { fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }
.viz-root svg .label { fill: var(--text-secondary); font-size: 11px; font-variant-numeric: tabular-nums; }
.viz-root svg .line { fill: none; stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
.viz-root svg .hit { fill: transparent; }
.viz-root details { margin-top: 6px; font-size: 12px; }
.viz-root details summary { color: var(--muted); cursor: pointer; }
.viz-root .note { color: var(--muted); font-size: 12px; }
"""


def _esc(value: Any) -> str:
    return html.escape(_fmt_num(value))


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>"
        + "".join(f"<td><pre class='cell'>{_esc(cell)}</pre></td>" for cell in row)
        + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _svg_line_chart(
    points: Sequence[Sequence[float]],
    *,
    slot: int,
    x_unit: str,
    width: int = 520,
    height: int = 130,
) -> str:
    """A minimal single-series SVG line chart: 2px line in palette slot
    ``slot``, three hairline gridlines with muted min/mid/max labels, a
    direct last-value label in text ink, and native ``<title>`` hover
    tooltips per point."""
    pad_left, pad_right, pad_top, pad_bottom = 8, 64, 10, 18
    plot_w = width - pad_left - pad_right
    plot_h = height - pad_top - pad_bottom
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return pad_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return pad_top + (1 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    color = f"var(--series-{slot})"
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    for frac, value in ((0.0, y_hi), (0.5, (y_lo + y_hi) / 2), (1.0, y_lo)):
        y = pad_top + frac * plot_h
        parts.append(
            f'<line x1="{pad_left}" y1="{y:.1f}" x2="{pad_left + plot_w}" '
            f'y2="{y:.1f}" class="grid"/>'
        )
        parts.append(
            f'<text x="{pad_left + plot_w + 4}" y="{y + 3.5:.1f}" '
            f'class="axis">{_fmt_num(value)}</text>'
        )
    coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    if len(points) == 1:
        parts.append(
            f'<circle cx="{sx(xs[0]):.1f}" cy="{sy(ys[0]):.1f}" r="3" '
            f'fill="{color}"/>'
        )
    else:
        parts.append(f'<polyline points="{coords}" class="line" '
                     f'style="stroke: {color}"/>')
    # Direct last-value label (text ink, never series color).
    parts.append(
        f'<text x="{sx(xs[-1]) + 5:.1f}" y="{max(sy(ys[-1]) - 5, 10):.1f}" '
        f'class="label">{_fmt_num(ys[-1])}</text>'
    )
    unit = " " + html.escape(x_unit)
    parts.append(
        f'<text x="{pad_left}" y="{height - 4}" class="axis">'
        f'{_fmt_num(x_lo)}{unit}</text>'
    )
    parts.append(
        f'<text x="{pad_left + plot_w}" y="{height - 4}" class="axis" '
        f'text-anchor="end">{_fmt_num(max(xs))}{unit}</text>'
    )
    # Hover layer: invisible fat hit targets with native tooltips.
    hover_points = points if len(points) <= 200 else points[:: len(points) // 200 + 1]
    for x, y in hover_points:
        parts.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="7" class="hit">'
            f"<title>{_fmt_num(x)}{unit}: {_fmt_num(y)}</title></circle>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _chart_figure(name: str, obj: Mapping[str, Any], group: SeriesGroup) -> str:
    points = obj.get("points") or []
    if not points:
        return ""
    tick = f" / tick {_fmt_num(obj['tick_s'])}s" if "tick_s" in obj else ""
    caption = f"{_esc(name)} <span class='agg'>{_esc(obj.get('agg', ''))}{tick}</span>"
    table = _html_table([f"x ({group.x_unit})", "value"], points)
    chart = _svg_line_chart(points, slot=group.slot, x_unit=group.x_unit)
    return (
        f"<figure><figcaption>{caption}</figcaption>{chart}"
        f"<details><summary>data table</summary>{table}</details></figure>"
    )


def _html_section(section: Section) -> str:
    parts = [f"<h2>{_esc(section.heading)}</h2>"] if section.heading else []
    if getattr(section, "note", ""):
        parts.append(f"<p class='note'>{_esc(section.note)}</p>")
    if isinstance(section, Lines):
        parts.extend(f"<p>{_esc(line)}</p>" for line in section.lines)
    elif isinstance(section, SeriesGroup):
        names = list(section.series)
        figures = "".join(
            _chart_figure(name, section.series[name], section)
            for name in names[:_MAX_CHARTS]
        )
        parts.append(f"<div class='charts'>{figures}</div>")
        if len(names) > _MAX_CHARTS:
            parts.append(
                f"<p class='note'>{len(names) - _MAX_CHARTS} more series not "
                f"charted (chart cap {_MAX_CHARTS}).</p>"
            )
    elif section.rows:
        parts.append(_html_table(section.headers, section.rows))
    else:
        parts.append(f"<p class='note'>{_esc(section.empty)}</p>")
    return "".join(parts) + "\n"


def _badge_html(badge: Badge) -> str:
    detail = f" — {_esc(badge.detail)}" if badge.detail else ""
    status = "pass" if badge.ok else "fail"
    return (
        f"{_esc(badge.label)} <span class='badge {status}'>"
        f"{_esc(badge.value)}</span>{detail}"
    )


def to_html(view: View) -> str:
    """The one self-contained HTML page: headline paragraphs, then each
    non-empty section (tables, small-multiple SVG charts, text)."""
    headline = "".join(
        f"<p class='meta'>{_badge_html(h) if isinstance(h, Badge) else _esc(h)}</p>\n"
        for h in view.headline
    )
    sections = "".join(_html_section(s) for s in filter(_shown, view.sections))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(view.title)}</title>
<style>{HTML_STYLE}</style>
</head>
<body class="viz-root">
<h1>{_esc(view.title)}</h1>
{headline}{sections}</body>
</html>
"""
