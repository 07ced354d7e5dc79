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
import enum
import functools
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

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

    def context(self):
        """A context manager under which the value type's own operators, on
        scalars and on object arrays alike, round as this backend does: a
        null context for float and Fraction.  Operators do not check their
        operands' types; values are checked where they enter."""
        return _NO_CONTEXT

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

    def texts(self, values) -> list[str]:
        """serialize(v) for every value of a column, a sequence or an array."""
        return list(map(self.serialize, values))

    def to_float(self, x: Scalar) -> float:
        """float(x), refused where x, a Fraction, lies past the float range."""
        self.check(x)
        try:
            return float(x)
        except OverflowError:
            raise DomainError("value lies past the binary64 range") from None

    # populated by subclasses
    _half: Scalar = 0.5
    _unit_slack: Scalar = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))


def _digits(convert, text: str):
    """convert(text), int or Fraction, on digits that the regexes admit; their
    one ValueError, past the interpreter's int-text limit, becomes ParseError."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"{text[:20]}... passes the {sys.get_int_max_str_digits()}-digit "
                         f"limit on integer text") from None


def _split_fraction(text: str) -> tuple[int, int]:
    p, q = (_digits(int, term) for term in text.split("/"))
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
        try:
            if _FRACTION_RE.match(text):
                value = float(Fraction(*_split_fraction(text)))  # correctly rounded quotient
            elif _DECIMAL_RE.match(text):
                value = float(text)
            else:
                raise ParseError(f"not a decimal or p/q fraction: {text!r}")
        except OverflowError:  # a quotient past the float range
            value = np.inf
        if abs(value) == np.inf:
            raise ParseError(f"{text!r} rounds past the binary64 range")
        return value

    def from_int(self, n: int) -> float:
        return float(n)

    def serialize(self, x: float) -> str:
        """repr(x), the shortest string that round-trips.  cells writes the
        same text for a whole float64 array at once, and is checked
        against this."""
        self.check(x)
        return repr(x)

    def texts(self, values) -> list[str]:
        """serialize(v) for every v of a float64 array, or a sequence numpy
        reads as one: cells and a newline a row, NULs deleted, then split."""
        out = []
        for block in np.array_split(np.asarray(values), range(TEXT_BLOCK, len(values), TEXT_BLOCK)):
            table = np.empty((len(block), CELL_BYTES + 1), dtype=np.uint8)
            table[:, CELL_BYTES] = ord("\n")
            self.cells(block, table[:, :CELL_BYTES])
            out += table.tobytes().translate(None, b"\0").decode("ascii").splitlines()
        return out

    def cells(self, values: np.ndarray, out: np.ndarray) -> int:
        """Write serialize(v) for every v of a float64 array into the rows
        of out, uint8 of shape (len(values), CELL_BYTES), rows contiguous:
        ASCII with NUL bytes wherever a column is unused, so that deleting
        the NULs from a matrix of such cells leaves their text.

        A positive value below 1 whose repr has a decimal exponent of -99
        or more gets its digits from _shortest, in integer arithmetic.
        Every other value (0, negatives, NaN, infinities, subnormals,
        values of 1 or more, smaller ones) and the rare value that
        _shortest cannot settle, such as an exact tie between two
        shortest strings, goes through repr.  Returns how many did.

        Each cell is eight 4-byte words: a prefix ("0." and up to three
        zeros, or the first digit and "."), five groups of four digits
        with the leading zeros and the zeros after the last significant
        digit NULed, and "e-XX" or NUL.
        """
        if values.dtype != np.float64:
            raise MismatchError(f"expected binary64 values (float64), got {values.dtype} array")
        if len(out) and out.strides[-1] != 1:
            raise MismatchError(f"expected contiguous rows, got strides {out.strides}")
        y, decpt, fallback = _shortest(values)
        t = _tables()
        decpt[fallback] = 0  # keeps the table rows below in range
        exp = decpt < -3  # repr's own switch: 0.0001 is fixed, 1e-05 is not
        words = out.view(np.uint32)  # written in place, a cell's eight words a row
        # y's 20 digits in groups of four, each with its zeros after the
        # last significant digit NULed when all later groups are zero
        high = y // 10**8  # a // b and a - a // b * b: faster than %
        first = high // 10**8
        groups = [first]
        for part in (high - first * 10**8, y - high * 10**8):
            top = part // 10**4
            groups += [top, part - top * 10**4]
        later_zero = np.ones(len(y), dtype=bool)
        for j in range(4, 0, -1):
            words[:, 2 + j] = t.digits.take(groups[j] + later_zero * _TEN_THOUSAND)
            later_zero &= groups[j] == 0
        # the first group, below 1845, also loses its leading zeros and,
        # in exponent form, its leading digit to the prefix "d." or "d"
        variant = 2 + 2 * exp.view(np.uint8) + later_zero
        words[:, 2] = t.digits.take(first + variant * _TEN_THOUSAND)
        words[:, 7] = t.exponents.take(np.where(exp, 1 - decpt, 0))
        head = t.heads.take(first)  # a nonzero later group turns "d" into "d."
        words.view(np.uint64)[:, 0] = t.prefixes.take(
            np.where(exp, head - (head & ~later_zero), -decpt))
        count = int(np.count_nonzero(fallback))
        if count:
            out[fallback] = np.array(list(map(repr, values[fallback].tolist())),
                                     dtype=f"S{CELL_BYTES}").view(np.uint8).reshape(count, -1)
        return count


# --- the digits of repr for a float64 array, in exact integer arithmetic

CELL_BYTES = 32  # a cell of Binary64.cells; the longest repr of a float has 24
TEXT_BLOCK = 2048  # values per block of Binary64.texts; cells' temporaries take ~220 bytes a value
_M32 = 0xFFFF_FFFF
_E_TOP = 1022  # the biased exponent of [1/2, 1)
_TEN_THOUSAND = np.uint64(10_000)  # a uint64 scalar: bool * 10000 stays uint64
_NEAR = 8  # units of 2**-64 within which a computed fraction is unsure
_NEAR_ONE = 2**64 - _NEAR


class _Tables(NamedTuple):
    e_min: int  # the least biased exponent covered
    e_exact: int  # the least whose multiplier is exact
    scales: np.ndarray  # s, int64, by E - e_min
    multipliers: np.ndarray  # F, four uint64 rows of 32-bit limbs, by E - e_min
    digits: np.ndarray  # uint32 words of 4 ASCII digits: 6 variants of 10**4
    prefixes: np.ndarray  # uint64 words: "0.", ..., "0.000", then "d.", "d"
    exponents: np.ndarray  # uint32 words: NUL, then "e-01" ... "e-99"
    heads: np.ndarray  # uint8 rows of prefixes for the first digit d of g < 10**4


@functools.cache
def _tables() -> _Tables:
    """The tables of _shortest and Binary64.cells, built on first use with
    integer arithmetic, not at import.

    For each biased exponent E, E_min <= E <= 1022, of the covered values:
    a value x = c * 2**(E - 1075), c its 53-bit significand, scales to
    X = x * 10**s, with s the largest for which every value of exponent E
    has X < 2**64: 10**s <= 2**(1086 - E).  Then X * 2**118 = 4c * F with
    F = 5**s * 2**t, t = E + s - 959, below 2**127, an integer for
    E >= E_exact and otherwise floored.  E_min is the exponent of the
    values around 10**-99, those of 2**(E - 1022) > 10**-99; the least of
    them write a three-digit exponent and are left to repr.

    The digit words for g < 10**4 come in six variants: "%04d"; then with
    its zeros after the last nonzero digit NULed; with its leading zeros
    NULed, and both; with its leading zeros and its first nonzero digit
    NULed, and that with the trailing zeros too.  heads[g] is the row of
    prefixes for g's first digit d: "d" when g is d times a power of ten,
    else "d.".  The digits are int16, which keeps the build's temporaries
    small.
    """
    e_min = next(e for e in range(1, _E_TOP) if 1 << (1022 - e) < 10**99)
    scales, limbs, e_exact = [], [], None
    for e in range(e_min, _E_TOP + 1):
        s = len(str(1 << (1086 - e))) - 1  # 2**n is never a power of ten
        t = e + s - 959
        f = 5**s << t if t >= 0 else 5**s >> -t
        assert f < 1 << 127
        assert t < 117  # so that no end of a rounding interval scales to an integer
        if t >= 0 and e_exact is None:
            e_exact = e
        assert (t >= 0) == (e_exact is not None)  # exact from E_exact up
        scales.append(s)
        limbs.append([f >> (32 * j) & _M32 for j in range(4)])

    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array(
        [1000, 100, 10, 1], dtype=np.int16) % 10
    nonzero = digits != 0
    seen = np.logical_or.accumulate(nonzero, axis=1)
    trailing = ~np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    first = seen & ~np.hstack([np.zeros((10_000, 1), bool), seen[:, :-1]])
    heads = 2 + 2 * (digits * first).sum(axis=1, dtype=np.uint8) + ~(nonzero & ~first).any(axis=1)
    chars = (digits + ord("0")).astype(np.uint8)
    kept = [True, ~trailing, seen, seen & ~trailing, seen & ~first, seen & ~first & ~trailing]
    words = np.empty((len(kept), 10_000, 4), dtype=np.uint8)
    for variant, keep in zip(words, kept):
        np.multiply(chars, keep, out=variant)

    prefixes = [b"0.", b"0.0", b"0.00", b"0.000"] + [b"%d%s" % (d, dot)
                                                      for d in range(1, 10) for dot in (b".", b"")]
    return _Tables(
        e_min, e_exact, np.array(scales, dtype=np.int64),
        np.array(limbs, dtype=np.uint64).T.copy(), words.view(np.uint32).ravel(),
        np.array(prefixes, dtype="S8").view(np.uint64),
        np.array([b""] + [b"e-%02d" % n for n in range(1, 100)], dtype="S4").view(np.uint32),
        heads,
    )


def _times(a: np.ndarray, f: np.ndarray) -> list[np.ndarray]:
    """a * F as six 32-bit limbs, low first, for a < 2**55 and F's four
    limbs: each partial product fits in 64 bits, and so does each sum."""
    a0, a1 = a & _M32, a >> 32
    limbs, carry = [], 0
    for fj in f:
        v = a0 * fj + carry
        limbs.append(v & _M32)
        carry = v >> 32
    limbs.append(carry)
    carry = 0
    for j, fj in enumerate(f, 1):
        v = limbs[j] + a1 * fj + carry
        limbs[j] = v & _M32
        carry = v >> 32
    limbs.append(carry)
    return limbs


def _split(l5, l4, l3, l2, l1):
    """P / 2**118 for the limbs l1 to l5 of P: its integer part and the
    first 64 bits of its fraction."""
    return (l5 << 42 | l4 << 10 | l3 >> 22,
            (l3 & (1 << 22) - 1) << 42 | l2 << 10 | l1 >> 22)


def _shortest(values: np.ndarray):
    """repr's digits of each value of a float64 array, found exactly.

    repr gives the shortest decimal that reads back as x and, of those,
    the one nearest x.  A decimal reads back as x when it lies in x's
    rounding interval, from the midpoint with the next value below to the
    midpoint with the next above; round-half-even reads the ends as x
    when the significand c is even.  Scaled by 10**s as in _tables, x is
    X = 4c * F / 2**118 and the interval [X - delta * W, X + 2 * W],
    W = F / 2**118, with delta = 1 at a power of two, where the next
    value below is twice as close, and 2 otherwise.

    X is one exact product P of _times from E_exact up.  An end, (4c -
    delta) or (4c + 2) times 5**s * 2**(t - 118), has a 2-adic valuation
    of at most t - 117 < 0, so it is never an integer, and whether it
    belongs to the interval never matters.  The ends' integer parts come
    from sums of 64-bit fractions, each truncated; an end is then off by
    less than 8 units of 2**-64, and one whose computed fraction lies
    that close to an integer goes to repr.  Below E_exact, F is floored,
    so P falls short by less than 2**55, 2**-63 once scaled: no scaled
    point is an integer there, and the same bound of 8 units holds, so X
    goes to repr only if its fraction is that close to 1.

    Let [L, U] be the integers in the interval, d = U - L + 1 of them.
    W = 10**s * 2**(E - 1077), and 10**s <= 2**(1086 - E) < 10**(s + 1)
    puts it between 51.2 and 512, so the interval's width (2 + delta) * W
    lies between 153.6 and 2048, and so does d, to within 1.  With k0 = 2 or 3 and
    10**k0 <= d < 10**(k0 + 1), the interval holds a multiple of 10**k0,
    and at most one of 10**(k0 + 1), which is then the answer: shortest
    means most trailing zeros.  Else the answer is the multiple
    of 10**k0 nearest X, moved one step inside if it falls out; an exact
    tie goes to repr.

    Returns the answer as an integer y (uint64, with 18 to 20 digits),
    decpt (the value is 0.d1d2... * 10**decpt with d1d2... y's digits,
    int64) and the mask of values left to repr.
    """
    t = _tables()
    bits = values.view(np.uint64)
    exponent = bits >> 52  # the sign bit makes a negative's 2048 or more
    covered = (exponent >= t.e_min) & (exponent <= _E_TOP)
    index = (exponent - t.e_min) * covered
    mantissa = bits & (1 << 52) - 1
    not_power = mantissa != 0
    f = t.multipliers.take(index, axis=1)
    limbs = _times((mantissa | 1 << 52) << 2, f)
    x, x_frac = _split(*limbs[:0:-1])
    w, w_frac = _split(0, 0, *f[:0:-1])
    up1 = x_frac + w_frac
    up2 = up1 + w_frac
    high = x + 2 * w + (up1 < x_frac) + (up2 < up1)
    down1 = x_frac - w_frac
    down2 = down1 - w_frac * not_power
    low = x - w - w * not_power - (down1 > x_frac) - (down2 > down1) + 1
    exact = index >= t.e_exact - t.e_min
    x_whole = exact & ((limbs[3] & (1 << 22) - 1 | limbs[2] | limbs[1] | limbs[0]) == 0)
    fallback = (~covered | (up2 >= _NEAR_ONE) | (down2 < _NEAR) | (down2 >= _NEAR_ONE)
                | (~exact & (x_frac >= _NEAR_ONE)))

    wide = high - low >= 999  # k0 = 3, else 2; scalar divisors divide faster
    unit = np.where(wide, np.uint64(1000), np.uint64(100))
    rounder = np.where(wide, high // 10**4 * 10**4, high // 10**3 * 10**3)
    has_rounder = rounder >= low
    q = np.where(wide, x // 1000, x // 100)
    r = x - q * unit
    half = unit >> 1
    y = (q + (r >= half)) * unit
    y = np.where(y < low, y + unit, y)
    y = np.where(y > high, y - unit, y)
    y = np.where(has_rounder, rounder, y)
    fallback |= (r == half) & x_whole & ~has_rounder  # X at a midpoint: a tie

    ndigits = 18 + (y >= 10**18).view(np.int8) + (y >= 10**19)
    decpt = ndigits - t.scales.take(index)
    fallback |= (decpt < -98) | (decpt > 0)
    assert y.dtype == np.uint64  # never promoted to float64 on the way
    return y, decpt, fallback


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
            return _digits(Fraction, text)
        raise ParseError(f"not a decimal or p/q fraction: {text!r}")

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

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


class _Current:
    """Makes a decimal.Context the thread's current one until exit restores
    the one before; unlike decimal.localcontext, it copies nothing."""

    __slots__ = ("ctx", "saved")

    def __init__(self, ctx: decimal.Context):
        self.ctx = ctx

    def __enter__(self):
        self.saved = decimal.getcontext()
        decimal.setcontext(self.ctx)

    def __exit__(self, *exc_info):
        decimal.setcontext(self.saved)


class FixedDecimal(Backend):
    """Decimal arithmetic at a fixed number of significant digits.

    Under context(), every operator rounds half-even to
    ``precision_digits`` significant digits through a private
    :class:`decimal.Context`, so results never depend on the ambient
    thread context.
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

    def context(self):
        """The private context made current, itself and not a copy, or a
        null context where it already is, as inside stabilized_orbit: the
        operators leave its precision and rounding as they are, and set
        only its flags, which nothing reads."""
        if decimal.getcontext() is self._ctx:
            return _NO_CONTEXT
        return _Current(self._ctx)

    def serialize(self, x: Decimal) -> str:
        """x to p places in fixed point, a zero without its sign.  str of
        the quantized value is that text, and faster than format, except
        below 10**-6 and at zero, where it shows the exponent -p."""
        q = self.check(x).quantize(self._quantum, context=_QUANTIZE_CTX)
        if not q:
            q = q.copy_abs()
        text = str(q)
        return text if "E" not in text else format(q, "f")

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
