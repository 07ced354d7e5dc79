"""Arithmetic backends: binary64, exact rational, and fixed-precision decimal.

Every quantity handled by this package is a plain Python number (float,
Fraction, or Decimal) owned by a backend object that knows how to parse,
combine, compare, clamp, and serialize values of its kind.  The three
backends share one interface so orbit code can be written once:

* ``Binary64``     IEEE double precision, round to nearest.
* ``Rational``     exact ``fractions.Fraction`` arithmetic, never rounds.
* ``FixedDecimal`` ``decimal`` arithmetic carrying a fixed number of
  significant digits; every multiply and every add rounds half-even, so a
  run is reproducible digit for digit at any chosen precision.

Scalars parse from decimal strings (``"0.4"``) or fraction strings
(``"3/2"``).  Rationals serialize as ``"p/q"`` with positive denominator;
decimals serialize in fixed point with exactly ``precision_digits``
fractional digits.
"""

from __future__ import annotations

import contextlib
import decimal
import enum
import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[float, Fraction, Decimal]

_FRACTION_RE = re.compile(r"^[+-]?\d+/\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")

MIN_DECIMAL_DIGITS = 10


class BackendError(ValueError):
    """Base class for scalar arithmetic failures."""


class ParseError(BackendError):
    """Text does not denote a finite decimal or p/q fraction."""


class DomainError(BackendError):
    """A value lies outside the domain an operation requires."""


class MismatchError(BackendError):
    """A value of one backend was handed to an operation of another."""


class Branch(enum.Enum):
    """Which affine piece of the tent map applies at a point.

    The tie x = 1/2 belongs to LEFT in every backend.
    """

    LEFT = "L"
    RIGHT = "R"


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
        raise NotImplementedError

    def from_int(self, n: int) -> Scalar:
        raise NotImplementedError

    # the value type's own operators; FixedDecimal rounds through its context
    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self.check(a) + self.check(b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self.check(a) - self.check(b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self.check(a) * self.check(b)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if b == 0:
            raise DomainError("division by zero")
        return self.check(a) / self.check(b)

    def neg(self, a: Scalar) -> Scalar:
        """Exact negation; never rounds in any backend."""
        return -self.check(a)

    def context(self):
        """A context manager under which the value type's own operators, on
        scalars and on object arrays alike, round as this backend's do."""
        return contextlib.nullcontext()

    def affine(self, a: Scalar, x: Scalar, b: Scalar) -> Scalar:
        """a*x + b, rounded once after the multiply and once after the add."""
        return self.add(self.mul(a, x), b)

    def cmp_half(self, x: Scalar) -> Branch:
        """Branch membership of x in [0, 1]; the tie at 1/2 is LEFT."""
        self.check(x)
        if x < 0 or x > 1:
            raise DomainError(f"point {x!r} lies outside [0, 1]")
        return Branch.LEFT if x <= self._half else Branch.RIGHT

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

    def to_float(self, x: Scalar) -> float:
        self.check(x)
        return float(x)

    # populated by subclasses
    _half: Scalar = 0.5
    _unit_slack: Scalar = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))


def _split_fraction(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    p, q = int(num), int(den)
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return p, q


class Binary64(Backend):
    """IEEE-754 double precision with round-to-nearest-even."""

    kind = "binary64"
    value_type = float
    _half = 0.5
    _unit_slack = 2.0 ** -52  # one ulp at 1.0

    def parse(self, text: str) -> float:
        text = text.strip()
        if _FRACTION_RE.match(text):
            p, q = _split_fraction(text)
            return float(Fraction(p, q))  # correctly rounded quotient
        if _DECIMAL_RE.match(text):
            return float(text)
        raise ParseError(f"not a decimal or p/q fraction: {text!r}")

    def from_int(self, n: int) -> float:
        return float(n)

    def serialize(self, x: float) -> str:
        self.check(x)
        return repr(x)  # shortest string that round-trips


class Rational(Backend):
    """Exact rational arithmetic; values are normalized Fractions."""

    kind = "rational"
    value_type = Fraction
    _half = Fraction(1, 2)
    _unit_slack = Fraction(0)

    def parse(self, text: str) -> Fraction:
        text = text.strip()
        if _FRACTION_RE.match(text):
            p, q = _split_fraction(text)
            return Fraction(p, q)
        if _DECIMAL_RE.match(text):
            return Fraction(text)
        raise ParseError(f"not a decimal or p/q fraction: {text!r}")

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def serialize(self, x: Fraction) -> str:
        self.check(x)
        return f"{x.numerator}/{x.denominator}"


class FixedDecimal(Backend):
    """Decimal arithmetic at a fixed number of significant digits.

    Every multiply and every add is rounded half-even to ``precision_digits``
    significant digits through a private :class:`decimal.Context`, so results
    never depend on the ambient thread context.
    """

    kind = "decimal"
    value_type = Decimal
    _unit_slack = Decimal(0)

    def __init__(self, precision_digits: int):
        if precision_digits < MIN_DECIMAL_DIGITS:
            raise DomainError(
                f"decimal backend needs at least {MIN_DECIMAL_DIGITS} digits, "
                f"got {precision_digits}"
            )
        self.precision_digits = int(precision_digits)
        self._ctx = decimal.Context(
            prec=self.precision_digits, rounding=decimal.ROUND_HALF_EVEN
        )
        self._half = Decimal("0.5")
        self._quantum = Decimal(1).scaleb(-self.precision_digits)

    def parse(self, text: str) -> Decimal:
        text = text.strip()
        if _FRACTION_RE.match(text):
            p, q = _split_fraction(text)
            return self._ctx.divide(Decimal(p), Decimal(q))
        if _DECIMAL_RE.match(text):
            return self._ctx.create_decimal(text)
        raise ParseError(f"not a decimal or p/q fraction: {text!r}")

    def from_int(self, n: int) -> Decimal:
        return self._ctx.create_decimal(n)

    def add(self, a: Decimal, b: Decimal) -> Decimal:
        return self._ctx.add(self.check(a), self.check(b))

    def sub(self, a: Decimal, b: Decimal) -> Decimal:
        return self._ctx.subtract(self.check(a), self.check(b))

    def mul(self, a: Decimal, b: Decimal) -> Decimal:
        return self._ctx.multiply(self.check(a), self.check(b))

    def div(self, a: Decimal, b: Decimal) -> Decimal:
        if b == 0:
            raise DomainError("division by zero")
        return self._ctx.divide(self.check(a), self.check(b))

    def neg(self, a: Decimal) -> Decimal:
        return self.check(a).copy_negate()

    def context(self):
        return decimal.localcontext(self._ctx)

    def serialize(self, x: Decimal) -> str:
        self.check(x)
        # room for every integer digit plus the full fractional tail
        width = max(x.adjusted() + 1, 1) + self.precision_digits
        fmt_ctx = decimal.Context(prec=width, rounding=decimal.ROUND_HALF_EVEN)
        q = x.quantize(self._quantum, context=fmt_ctx)
        # assemble fixed-point text by hand; str() may switch to E notation
        sign, digits, exp = q.as_tuple()
        body = "".join(map(str, digits))
        frac = -exp
        if len(body) <= frac:
            body = "0" * (frac - len(body) + 1) + body
        text = f"{body[:-frac]}.{body[-frac:]}"
        return f"-{text}" if sign and q != 0 else text

    def __repr__(self) -> str:
        return f"FixedDecimal({self.precision_digits})"

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is FixedDecimal
            and other.precision_digits == self.precision_digits
        )

    def __hash__(self) -> int:
        return hash((FixedDecimal, self.precision_digits))


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


def infer_backend(value: Scalar) -> Backend:
    """Pick the backend matching a value's type; Decimal needs an explicit one."""
    if type(value) is float:
        return Binary64()
    if type(value) is Fraction:
        return Rational()
    raise MismatchError(
        f"cannot infer a backend for {type(value).__name__}; pass one explicitly"
    )
