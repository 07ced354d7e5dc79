"""SVG rendering of two float columns, with no plotting library.

svg_pieces gives the SVG as pieces of text, never the whole document at
once, and scales and formats its marks a slice at a time, so no column
is ever a Python list.  A mark's coordinates are formatted in
exact integer arithmetic, byte-equal to format(v, ".2f"): 100 * v is the
significand times 100 shifted right, rounded half-even on the remainder,
and a slice of marks is one NUL-padded uint32 matrix, NULs deleted, as
sweeprows.sweep_rows lays out sweep.csv.  That holds for v in [1,
1024), which scaled marks do not leave: they lie within rounding of
[20, 790], since the points are finite and an axis's range is under
2**52 wide.  as_float reads a cell as tentlab writes it, a
decimal or an exact p/q fraction, as a float; the CLI plots the
columns it parses so.  A point with a NaN or infinite coordinate is left
out, of the marks and of the axes' ranges, and an axis whose values reach
2**51 counts in a power of two, so that no coordinate overflows.  Output
is a pure function of the labels, the floats and the style flag: fixed
800x500 viewport, no timestamps, all coordinates printed with a fixed
format, so rendered files can be compared byte for byte.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from itertools import chain

from ._arrays import np
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
_SLICE = 4096  # values scaled and formatted at a time


def as_float(cell: str) -> float:
    """A decimal or p/q cell as a float, p/q rounded once from the exact
    quotient.  Terms past the interpreter's limit on text-to-int conversion
    are read through Decimal, which has none (and is some 7x slower), and
    a fraction past the float range reads as +-inf, as float() reads such
    a decimal."""
    if "/" not in cell:
        return float(cell)
    terms = cell.split("/")
    try:
        p, q = map(int, terms)
    except ValueError:
        p, q = (int(Decimal(term)) for term in terms)
    try:
        return p / q  # int division: correctly rounded, like float(Fraction(p, q))
    except OverflowError:
        return -math.inf if p < 0 else math.inf


def as_floats(cells: list[str]) -> np.ndarray:
    """as_float of every cell, as a float64 array."""
    return np.fromiter(map(as_float, cells), float, len(cells))


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    """min and max of the values' list, none of them NaN.  Those keep their
    first value until a later one compares below or above it, so they give
    the first of the least and of the greatest values, -0.0 or 0.0 as it
    comes, and so do argmin and argmax."""
    if not len(values):
        return 0.0, 1.0
    lo, hi = (float(values[pick(values)]) for pick in (np.argmin, np.argmax))
    return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)


def _unit(values: np.ndarray) -> float:
    """The power of two that an axis counts finite values in: 1 below 2**51
    in magnitude, else the least that brings them all below it.  Dividing
    by a power of two rounds nothing above the subnormal range, so _scale
    gives the same bits in either unit; in this one its products stay
    finite, and lo == hi still pads by 0.5 to a range that is not empty."""
    top = float(np.max(np.abs(values), initial=0.0))
    return math.ldexp(1.0, max(0, math.frexp(top)[1] - 51))


def _scale(v, lo: float, hi: float, out_lo: float, out_hi: float):
    """Map v, a float or a float64 array, from [lo, hi] onto [out_lo, out_hi]."""
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def _hundredths(v: np.ndarray) -> np.ndarray:
    """100 * v rounded half-even to an integer, exactly, for every v of a
    float64 array of values in [1, 1024).  There v = c * 2**-s, c the
    53-bit significand and 43 <= s <= 52, so 100 * c < 2**60 and 100 * v
    is 100 * c >> s plus the remainder over 2**s: format(v, ".2f") rounds
    the same exact value the same way."""
    bits = v.view(np.uint64)
    shift = 1075 - (bits >> 52)
    scaled = ((bits & (1 << 52) - 1) | 1 << 52) * 100
    cents = scaled >> shift
    rest = scaled - (cents << shift)
    half = np.uint64(1) << (shift - 1)
    cents += (rest > half) | ((rest == half) & (cents & 1 == 1))
    return cents


@functools.cache
def _cell_words() -> tuple[np.ndarray, np.ndarray]:
    """uint32 words of the text of 0 ... 1024 and of ".00" ... ".99", NUL padded."""
    return (np.array([b"%d" % n for n in range(1025)], dtype="S4").view(np.uint32),
            np.array([b".%02d" % n for n in range(100)], dtype="S4").view(np.uint32))


def _cells(cents: np.ndarray) -> np.ndarray:
    """format(v, ".2f") as two uint32 words a row, for _hundredths' cents of
    values in [1, 1024): the whole part, then the point and two digits."""
    whole, part = np.divmod(cents, 100)
    units, hundredths = _cell_words()
    return np.stack([units.take(whole), hundredths.take(part)], axis=1)


def _tick_values(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def svg_pieces(labels: tuple[str, str], xs, ys, style: str):
    """The SVG of ys against xs, float sequences of equal length, in pieces of text."""
    if style not in _STYLES:
        raise DomainError(f"style must be one of {_STYLES}, got {style!r}")
    xs, ys = (np.asarray(v, dtype=np.float64) for v in (xs, ys))
    drawn = np.isfinite(xs) & np.isfinite(ys)
    if not drawn.all():  # a point off the finite plane has no place on the axes
        xs, ys = xs[drawn], ys[drawn]
    x_unit, y_unit = map(_unit, (xs, ys))
    xs, ys = (v if unit == 1 else v / unit for v, unit in ((xs, x_unit), (ys, y_unit)))
    (x_lo, x_hi), (y_lo, y_hi) = map(_axis_range, (xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW_WIDTH}" '
        f'height="{VIEW_HEIGHT}" viewBox="0 0 {VIEW_WIDTH} {VIEW_HEIGHT}">',
        f'<rect x="0" y="0" width="{VIEW_WIDTH}" height="{VIEW_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" width="{_RIGHT - _LEFT:.2f}" '
        f'height="{_BOTTOM - _TOP:.2f}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tv in _tick_values(x_lo, x_hi):
        px = _scale(tv, x_lo, x_hi, _LEFT, _RIGHT)
        parts += [
            f'<line x1="{px:.2f}" y1="{_BOTTOM:.2f}" x2="{px:.2f}" y2="{_BOTTOM + 5:.2f}" '
            'stroke="black" stroke-width="1"/>',
            f'<text x="{px:.2f}" y="{_BOTTOM + 18:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{tv * x_unit:.6g}</text>',
        ]
    for tv in _tick_values(y_lo, y_hi):
        py = _scale(tv, y_lo, y_hi, _BOTTOM, _TOP)
        parts += [
            f'<line x1="{_LEFT - 5:.2f}" y1="{py:.2f}" x2="{_LEFT:.2f}" y2="{py:.2f}" '
            'stroke="black" stroke-width="1"/>',
            f'<text x="{_LEFT - 8:.2f}" y="{py + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{tv * y_unit:.6g}</text>',
        ]
    x_label, y_label = (t.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                        for t in labels)
    mid_y = (_TOP + _BOTTOM) / 2
    parts += [
        f'<text x="{(_LEFT + _RIGHT) / 2:.2f}" y="{_BOTTOM + 40:.2f}" font-family="monospace" '
        f'font-size="13" text-anchor="middle">{x_label}</text>',
        f'<text x="18" y="{mid_y:.2f}" font-family="monospace" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {mid_y:.2f})">{y_label}</text>',
    ]
    head = "\n".join(parts) + "\n"

    def marks(mark: str):  # a slice at a time, with _scale's IEEE operations
        # a mark is a row of uint32 words: its text, NUL padded, around two cells
        pre, mid, post = (np.frombuffer(part.encode() + b"\0" * (-len(part) % 4), np.uint32)
                          for part in mark.split("{:.2f}"))
        row = np.concatenate([pre, [0, 0], mid, [0, 0], post]).astype(np.uint32)
        at = (len(pre), len(pre) + 2 + len(mid))
        for i in range(0, len(xs), _SLICE):
            pxs = _scale(xs[i:i + _SLICE], x_lo, x_hi, _LEFT, _RIGHT)
            pys = _scale(ys[i:i + _SLICE], y_lo, y_hi, _BOTTOM, _TOP)
            table = np.empty((len(pxs), len(row)), dtype=np.uint32)
            table[:] = row
            for col, v in zip(at, (pxs, pys)):
                table[:, col:col + 2] = _cells(_hundredths(v))
            yield table.tobytes().translate(None, b"\0").decode("ascii")

    if style == "line" and len(xs) >= 2:
        pieces = marks(" {:.2f},{:.2f}")
        head += '<polyline points="' + next(pieces)[1:]  # no space before the first
        tail = '" fill="none" stroke="steelblue" stroke-width="1.5"/>\n</svg>\n'
    else:
        pieces = marks('<circle cx="{:.2f}" cy="{:.2f}" r="2" fill="steelblue"/>\n')
        tail = "</svg>\n"
    return chain([head], pieces, [tail])
