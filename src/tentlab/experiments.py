"""Escape detection and the fixed-precision sqrt(2) experiment.

detect_escape finds the flat-then-jump signature of a run that sat near
an exactly-invariant value until accumulated roundoff expelled it, and
the fixed-precision experiment reproduces that signature with a slope
that agrees with sqrt(2) to 57 decimal digits.  detect_escape is one
O(n) two-pointer pass in plain Python, with O(n) extra memory in typed
arrays, and returns exactly what the quadratic scan from every anchor
would (the tests keep that scan as the oracle).  Nothing here imports
numpy, so escape and sqrt2 runs never load it; sweeps are in basins.
"""

from __future__ import annotations

import decimal
import math
from array import array
from collections import deque
from decimal import Decimal
from itertools import accumulate, compress
from typing import NamedTuple

from .backends import DomainError, FixedDecimal, ParseError, Scalar
from .tentmap import MapParams, orbit

DEFAULT_FLAT_TOL = 1e-9
DEFAULT_JUMP_TOL = 1e-3
DEFAULT_MIN_FLAT = 30

# slope agreeing with sqrt(2) through 57 fractional digits
SQRT2_SLOPE_DIGITS = (
    "1.414213562373095048801688724209698078569671875376948073176"
)


class EscapeEvent(NamedTuple):
    """A flat stretch and the index where the series finally left it.  The
    values are items of the series: the backend's scalars, given a run."""

    flat_value: Scalar
    flat_start: int
    escape_index: int
    terminal_value: Scalar


def detect_escape(series, flat_tol: float = DEFAULT_FLAT_TOL, jump_tol: float = DEFAULT_JUMP_TOL,
                  min_flat: int = DEFAULT_MIN_FLAT) -> EscapeEvent | None:
    """Longest flat stretch that the series later leaves by >= jump_tol.

    A stretch is flat when every value stays within flat_tol of its first
    value.  A stretch qualifies when it is at least min_flat long and some
    later position deviates from the stretch's first value by jump_tol or
    more; a gradual ramp between the two is allowed.  Among qualifying
    stretches the longest wins, ties going to the earliest.  Returns None
    when the series never settles, or settles and never leaves: a stretch
    that runs to the end of the series (a converged tail, say) never
    qualifies, because nothing after it jumps.  A NaN ends a flat stretch
    and never counts as a jump.

    One O(n) pass over the anchors s in order.  need is one more than the
    longest qualifying run so far (min_flat at first), so s can win only
    if its window, values[s + 1:s + need], lies within flat_tol of its
    value a; the window's ends only move right, and monotone deques hold
    its extrema.  Each suffix's extrema, NaN ignored, pass over an anchor
    that nothing later leaves by jump_tol, and decide the rest in O(1): if
    a value past the window deviates from a by more than flat_tol and by
    jump_tol or more, the stretch ends and escapes, where a scan finds
    and the window's end then passes; else it runs on to the next NaN (for
    an infinite a, which v = a ends too, to where a scan finds, once per
    run of values other than a), and qualifies if a jump follows.  Tests
    are exact: fl(v - a) is monotone in v and fl(a - v) = -fl(v - a), so
    extrema pass a bound exactly when all of their values do.
    """
    values = list(map(float, series))
    n = len(values)
    # top[n - i] and bottom[n - i]: the largest and least of values[i:], NaN ignored
    top = array("d", accumulate(reversed(values), max, initial=-math.inf))
    bottom = array("d", accumulate(reversed(values), min, initial=math.inf))
    nans = array("q", [*compress(range(n), map(math.isnan, values)), n])
    # deques hi and lo hold the window's indices, values falling and rising;
    # a NaN in them stops only the pops of values before it, which leave first
    pushed = k = 0  # the indices below pushed went into hi and lo
    need, best = max(min_flat, 1), None
    for s, a in enumerate(values):
        end = s + need
        if end > n:
            break
        while nans[k] <= s:
            k += 1  # nans[k]: the first NaN after s
        if nans[k] < end or not (top[n - s - 1] - a >= jump_tol
                                  or a - bottom[n - s - 1] >= jump_tol):
            continue
        if pushed <= s:  # hi and lo hold nothing in the window, as at the first anchor here
            hi, lo, pushed = deque(), deque(), s + 1
        for i in range(pushed, end):
            v = values[i]
            while hi and values[hi[-1]] <= v:
                hi.pop()
            while lo and values[lo[-1]] >= v:
                lo.pop()
            hi.append(i)
            lo.append(i)
        pushed = end
        while hi and hi[0] <= s:
            hi.popleft()
        while lo and lo[0] <= s:
            lo.popleft()
        if hi and not (values[hi[0]] - a <= flat_tol and a - values[lo[0]] <= flat_tol):
            continue
        up, down = top[n - end] - a, a - bottom[n - end]
        if math.isinf(a) or flat_tol < up >= jump_tol or flat_tol < down >= jump_tol:
            stop = end
            while stop < n and abs(values[stop] - a) <= flat_tol:
                stop += 1
        else:
            stop = nans[k]
        if top[n - stop] - a >= jump_tol or a - bottom[n - stop] >= jump_tol:
            best, need = (s, stop), stop - s + 1
    if best is None:
        return None
    start, stop = best
    escape = next(m for m in range(stop, n) if abs(values[m] - values[start]) >= jump_tol)
    return EscapeEvent(series[start], start, escape, series[-1])


def sqrt2_reference(precision: int) -> Decimal:
    """2 - sqrt(2) to `precision` fractional digits via integer square root.

    isqrt(2 * 10^(2p)) truncates sqrt(2) * 10^p to an integer, so the
    construction never touches any floating or library constant.  The
    integer becomes a Decimal directly, never through its decimal text,
    which Python refuses past 4300 digits.
    """
    if precision < 1:
        raise DomainError(f"precision must be positive, got {precision}")
    root = math.isqrt(2 * 10 ** (2 * precision))
    exact = decimal.Context(prec=decimal.MAX_PREC)
    return Decimal(2 * 10**precision - root).scaleb(-precision, context=exact)


def sqrt2_experiment(
    h_digits: str = SQRT2_SLOPE_DIGITS,
    precision: int = 70,
    steps: int = 600,
    flat_tol: float = DEFAULT_FLAT_TOL,
    jump_tol: float = 1e-2,
    min_flat: int = DEFAULT_MIN_FLAT,
) -> tuple[tuple[Decimal, ...], EscapeEvent | None]:
    """Orbit of 1/2 under a slope one whisker under sqrt(2), plus its escape.

    With h = sqrt(2) exactly, 1/2 maps in three steps onto the fixed point
    2 - sqrt(2).  A slope that merely agrees with sqrt(2) to 57 digits
    parks the orbit within ~1e-57 of that value, and the gap then grows by
    a factor h per step until the orbit visibly leaves: the same
    flat-then-jump signature as binary64, at a much smaller scale.
    """
    try:
        digit_count = len(Decimal(h_digits).as_tuple().digits)
    except decimal.InvalidOperation:  # Decimal's ConversionSyntax
        raise ParseError(f"not a decimal digit string: {h_digits!r}") from None
    if precision < digit_count:
        raise DomainError(
            f"precision {precision} cannot hold the {digit_count}-digit slope"
        )
    backend = FixedDecimal(precision)
    params = MapParams(backend.parse(h_digits), backend)
    points = orbit(backend.parse("0.5"), params, k=1, steps=steps)
    event = detect_escape(
        points, flat_tol=flat_tol, jump_tol=jump_tol, min_flat=min_flat
    )
    return points, event
