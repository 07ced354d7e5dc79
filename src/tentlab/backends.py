"""Arithmetic backends: binary64, exact rational, and fixed-precision decimal.

Every quantity handled by this package is a plain Python number (float,
Fraction, or Decimal) owned by a backend object that knows how to parse,
compare, clamp, and serialize values of its kind.  Values combine through
their own operators under the backend's context(), so orbit code is
written once for all three:

* ``Binary64``     IEEE double precision, round to nearest.
* ``Rational``     exact ``fractions.Fraction`` arithmetic, never rounds.
* ``FixedDecimal`` ``decimal`` arithmetic carrying a fixed number of
  significant digits; every multiply and every add rounds half-even, so a
  run is reproducible digit for digit at any chosen precision.

Scalars parse from decimal strings (``"0.4"``) or fraction strings
(``"3/2"``).  Rationals serialize as ``"p/q"`` with positive denominator,
in full past the interpreter's limit on int-to-text conversion;
decimals serialize in fixed point with exactly ``precision_digits``
fractional digits.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[float, Fraction, Decimal]

_FRACTION_RE = re.compile(r"^[+-]?\d+/\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")

MIN_DECIMAL_DIGITS = 10
_NO_CONTEXT = contextlib.nullcontext()  # reusable and reentrant


class BackendError(ValueError):
    """Base class for scalar arithmetic failures."""


class ParseError(BackendError):
    """Text does not denote a finite decimal or p/q fraction."""


class DomainError(BackendError):
    """A value lies outside the domain an operation requires."""


class MismatchError(BackendError):
    """A value of one backend was handed to an operation of another."""


class Backend:
    """Shared arithmetic interface; subclasses fix the value type."""

    kind: str = ""
    value_type: type = object

    def check(self, x: Scalar) -> Scalar:
        if type(x) is not self.value_type:
            raise MismatchError(
                f"expected a {self.kind} value ({self.value_type.__name__}), "
                f"got {type(x).__name__}"
            )
        return x

    def parse(self, text: str) -> Scalar:
        """The value of a decimal numeral or a p/q fraction, the text's
        surrounding whitespace stripped, through the backend's _ratio(p, q)
        or _decimal(text)."""
        text = text.strip()
        if _FRACTION_RE.match(text):
            p, q = (_digits(int, term) for term in text.split("/"))
            if q == 0:
                raise ParseError(f"zero denominator in {text!r}")
            return self._ratio(p, q)
        if _DECIMAL_RE.match(text):
            return self._decimal(text)
        raise ParseError(f"not a decimal or p/q fraction: {text!r}")

    def from_int(self, n: int) -> Scalar:
        return self.value_type(n)

    def context(self):
        """A context manager under which the value type's own operators, on
        scalars and on object arrays alike, round as this backend does: a
        null context for float and Fraction.  Operators do not check their
        operands' types; values are checked where they enter."""
        return _NO_CONTEXT

    def clamp_unit(self, x: Scalar) -> Scalar:
        """Snap x into [0, 1], tolerating only backend-level rounding slack."""
        self.check(x)
        if 0 <= x <= 1:
            return x
        slack = self._unit_slack
        if 0 > x >= -slack:
            return self.from_int(0)
        if 1 < x <= 1 + slack:
            return self.from_int(1)
        raise DomainError(f"value {x!r} lies outside [0, 1] beyond rounding slack")

    def serialize(self, x: Scalar) -> str:
        raise NotImplementedError

    def texts(self, values) -> list[str]:
        """serialize(v) for every value of a sequence or object array."""
        return list(map(self.serialize, values))

    def to_float(self, x: Scalar) -> float:
        """float(x), refused where x, a Fraction, lies past the float range."""
        self.check(x)
        try:
            return float(x)
        except OverflowError:
            raise DomainError("value lies past the binary64 range") from None

    _half: Scalar = 0.5
    _unit_slack: Scalar = 0  # clamp_unit only compares it
    _key: tuple = ()  # what makes two backends of one class differ

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key))})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._key == self._key

    def __hash__(self) -> int:
        return hash((type(self), *self._key))


def _digits(convert, text: str):
    """convert(text), int or Fraction, on digits that the regexes admit; their
    one ValueError, past the interpreter's int-text limit, becomes ParseError."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"{text[:20]}... passes the {sys.get_int_max_str_digits()}-digit "
                         f"limit on integer text") from None


class Binary64(Backend):
    """IEEE-754 double precision with round-to-nearest-even."""

    kind = "binary64"
    value_type = float
    _unit_slack = 2.0 ** -52  # one ulp at 1.0

    def parse(self, text: str) -> float:
        try:
            value = super().parse(text)
        except OverflowError:  # a quotient past the float range
            value = math.inf
        if abs(value) == math.inf:
            raise ParseError(f"{text.strip()!r} rounds past the binary64 range")
        return value

    def _ratio(self, p: int, q: int) -> float:
        return p / q  # int true division rounds correctly

    _decimal = staticmethod(float)

    def serialize(self, x: float) -> str:
        """repr(x), the shortest string that round-trips.  _arrays.cells
        writes the same text for a whole float64 array at once, and is
        checked against this."""
        self.check(x)
        return repr(x)


class Rational(Backend):
    """Exact rational arithmetic; values are normalized Fractions."""

    kind = "rational"
    value_type = Fraction
    _half = Fraction(1, 2)

    _ratio = staticmethod(Fraction)

    def _decimal(self, text: str) -> Fraction:
        return _digits(Fraction, text)

    def serialize(self, x: Fraction) -> str:
        self.check(x)
        return _ratio_text(x.numerator, x.denominator)


def _ratio_text(p: int, q: int) -> str:
    """"p/q", also past the interpreter's limit on int-to-text conversion."""
    try:
        return f"{p}/{q}"
    except ValueError:  # a term past the limit
        return f"{_int_text(p)}/{_int_text(q)}"


def _int_text(n: int) -> str:
    """str(n), also past the interpreter's limit on int-to-text conversion,
    which this never changes: an int too long for str is split at
    10**(2**j), about half its digits, and each piece written the same way,
    the low one padded with zeros to 2**j digits."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    # a power of two at most half the digits: 3/20 of the bits is under
    # half of their log10(2) share
    half = 1 << ((n.bit_length() * 3 // 20).bit_length() - 1)
    high, low = divmod(n, _ten_to(half))
    return _int_text(high) + _int_text(low).zfill(half)


@functools.cache
def _ten_to(digits: int) -> int:
    return 10**digits


# rounds half-even to the quantum and never to a precision, so that every
# integer digit survives whatever the value's size
_QUANTIZE_CTX = decimal.Context(prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN)


class FixedDecimal(Backend):
    """Decimal arithmetic at a fixed number of significant digits.

    Under context(), every operator rounds half-even to
    ``precision_digits`` significant digits through a private
    :class:`decimal.Context`, so results never depend on the ambient
    thread context.
    """

    kind = "decimal"
    value_type = Decimal
    _half = Decimal("0.5")

    def __init__(self, precision_digits: int):
        if precision_digits < MIN_DECIMAL_DIGITS:
            raise DomainError(
                f"decimal backend needs at least {MIN_DECIMAL_DIGITS} digits, "
                f"got {precision_digits}"
            )
        self.precision_digits = int(precision_digits)
        self._key = (self.precision_digits,)
        self._ctx = decimal.Context(
            prec=self.precision_digits, rounding=decimal.ROUND_HALF_EVEN
        )
        self._quantum = Decimal(1).scaleb(-self.precision_digits)

    def _ratio(self, p: int, q: int) -> Decimal:
        return self._ctx.divide(Decimal(p), Decimal(q))

    def _decimal(self, text: str) -> Decimal:
        return self._ctx.create_decimal(text)

    def from_int(self, n: int) -> Decimal:
        return self._ctx.create_decimal(n)

    def context(self):
        """A copy of the private context, made current until exit: every run,
        sweep chunk and census block enters it once."""
        return decimal.localcontext(self._ctx)

    def serialize(self, x: Decimal) -> str:
        """x to p places in fixed point, a zero without its sign.  str of
        the quantized value is that text, and faster than format, except
        below 10**-6 and at zero, where it shows the exponent -p."""
        q = self.check(x).quantize(self._quantum, context=_QUANTIZE_CTX)
        if not q:
            q = q.copy_abs()
        text = str(q)
        return text if "E" not in text else format(q, "f")


def make_backend(kind: str, precision_digits: int | None = None) -> Backend:
    """Build a backend from its name; only decimal takes a precision."""
    if kind in ("binary64", "rational") and precision_digits is not None:
        raise DomainError(f"{kind} backend takes no precision, got {precision_digits}")
    if kind == "binary64":
        return Binary64()
    if kind == "rational":
        return Rational()
    if kind == "decimal":
        if precision_digits is None:
            raise DomainError("decimal backend requires precision_digits")
        return FixedDecimal(precision_digits)
    raise DomainError(f"unknown backend kind: {kind!r}")

