"""Dependency-free SVG rendering of two-column tables.

Output is a pure function of the table contents and the style flag: fixed
800x500 viewport, no timestamps, all coordinates printed with a fixed
format, so rendered files can be compared byte for byte.  A numeric cell
is a decimal or an exact p/q fraction, as the rational backend writes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

from .backends import DomainError

VIEW_WIDTH = 800
VIEW_HEIGHT = 500

_STYLES = ("line", "scatter")

# plot rectangle inside the fixed viewport
_LEFT = 70.0
_RIGHT = 790.0
_TOP = 20.0
_BOTTOM = 450.0

_TICKS = 5


@dataclass(frozen=True)
class TableFile:
    """A parsed CSV artifact: header row plus string-valued cells."""

    path: Path | None
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        width = len(self.header)
        for row in self.rows:
            if len(row) != width:
                raise DomainError(
                    f"row width {len(row)} does not match header width {width}"
                )

    @classmethod
    def read(cls, path: str | Path) -> "TableFile":
        path = Path(path)
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = tuple(next(reader))
            except StopIteration:
                raise DomainError(f"{path} has no header row") from None
            rows = tuple(tuple(row) for row in reader)
        return cls(path=path, header=header, rows=rows)


def _as_float(cell: str) -> float | None:
    """A decimal or p/q cell as a float, else None; only p/q cells pay for Fraction."""
    try:
        return float(Fraction(cell)) if "/" in cell else float(cell)
    except (ValueError, ZeroDivisionError):
        return None


def _numeric_columns(table: TableFile) -> list[tuple[int, list[float]]]:
    """The first two columns whose every cell is a number, with their values.

    A column's scan stops at its first non-numeric cell.
    """
    out = []
    for j in range(len(table.header)):
        cells = (_as_float(row[j]) for row in table.rows)
        values = list(takewhile(lambda v: v is not None, cells))
        if len(values) == len(table.rows):
            out.append((j, values))
            if len(out) == 2:
                break
    return out


def _axis_range(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if lo == hi:
        return lo - 0.5, hi + 0.5
    return lo, hi


def _scale(v: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_values(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_svg(table: TableFile, style: str) -> str:
    """Build the SVG document for a table's first two numeric columns."""
    if style not in _STYLES:
        raise DomainError(f"style must be one of {_STYLES}, got {style!r}")
    numeric = _numeric_columns(table)
    if len(numeric) < 2:
        raise DomainError(
            f"need two numeric columns to plot, found {len(numeric)} "
            f"in header {table.header}"
        )
    (jx, xs), (jy, ys) = numeric
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW_WIDTH}" '
        f'height="{VIEW_HEIGHT}" viewBox="0 0 {VIEW_WIDTH} {VIEW_HEIGHT}">',
        f'<rect x="0" y="0" width="{VIEW_WIDTH}" height="{VIEW_HEIGHT}" '
        'fill="white"/>',
        f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" '
        f'width="{_fmt(_RIGHT - _LEFT)}" height="{_fmt(_BOTTOM - _TOP)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for tv in _tick_values(x_lo, x_hi):
        px = _scale(tv, x_lo, x_hi, _LEFT, _RIGHT)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_BOTTOM)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(_BOTTOM + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_BOTTOM + 18)}" '
            'font-family="monospace" font-size="11" text-anchor="middle">'
            f"{tv:.6g}</text>"
        )
    for tv in _tick_values(y_lo, y_hi):
        py = _scale(tv, y_lo, y_hi, _BOTTOM, _TOP)
        parts.append(
            f'<line x1="{_fmt(_LEFT - 5)}" y1="{_fmt(py)}" x2="{_fmt(_LEFT)}" '
            f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_LEFT - 8)}" y="{_fmt(py + 4)}" '
            'font-family="monospace" font-size="11" text-anchor="end">'
            f"{tv:.6g}</text>"
        )

    x_label = _escape_text(table.header[jx])
    y_label = _escape_text(table.header[jy])
    mid_x = (_LEFT + _RIGHT) / 2
    mid_y = (_TOP + _BOTTOM) / 2
    parts.append(
        f'<text x="{_fmt(mid_x)}" y="{_fmt(_BOTTOM + 40)}" '
        'font-family="monospace" font-size="13" text-anchor="middle">'
        f"{x_label}</text>"
    )
    parts.append(
        f'<text x="18" y="{_fmt(mid_y)}" font-family="monospace" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt(mid_y)})">{y_label}</text>'
    )

    points = [
        (
            _scale(x, x_lo, x_hi, _LEFT, _RIGHT),
            _scale(y, y_lo, y_hi, _BOTTOM, _TOP),
        )
        for x, y in zip(xs, ys)
    ]
    if style == "line" and len(points) >= 2:
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" '
            'stroke-width="1.5"/>'
        )
    else:
        for px, py in points:
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2" '
                'fill="steelblue"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plot(table: TableFile, style: str, out_path: str | Path) -> Path:
    """Render the table and write the SVG document to out_path."""
    out_path = Path(out_path)
    out_path.write_text(render_svg(table, style), encoding="utf-8")
    return out_path
