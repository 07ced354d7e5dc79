"""Backend arithmetic: parsing, rounding discipline, comparison, serialization.

The fixed-precision decimal backend is checked against an independent
oracle built on exact Fractions with explicit half-even rounding to a fixed
number of significant digits, so a context-handling bug in the backend
cannot hide behind the same library that produced the expected value.
"""

import decimal
import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab import (
    MapParams, _arrays, build_coefficients, itinerary, recurrence, stabilized_orbit, tent_step,
)
from tentlab._arrays import CELL_BYTES, TEXT_BLOCK, cells, float64_texts
from tentlab.backends import (
    Binary64,
    DomainError,
    FixedDecimal,
    MismatchError,
    ParseError,
    Rational,
    infer_backend,
    make_backend,
)


def round_sig_half_even(fr: Fraction, sig: int) -> Fraction:
    """Round an exact fraction to `sig` significant digits, ties to even."""
    if fr == 0:
        return Fraction(0)
    a = abs(fr)
    e = 0
    while a >= 10:
        a /= 10
        e += 1
    while a < 1:
        a *= 10
        e -= 1
    quantum = Fraction(10) ** (e + 1 - sig)
    scaled = fr / quantum
    whole = scaled.numerator // scaled.denominator
    twice_rem = 2 * (scaled.numerator - whole * scaled.denominator)
    if twice_rem > scaled.denominator or (
        twice_rem == scaled.denominator and whole % 2 == 1
    ):
        whole += 1
    return whole * quantum


def fixed_point_digits(x: Decimal, p: int) -> str:
    """x rounded half-even to p fractional digits, its fixed-point text
    assembled by hand from the quantized tuple; a zero has no sign."""
    # room for every integer digit plus the full fractional tail
    width = max(x.adjusted() + 1, 1) + p
    fmt_ctx = decimal.Context(prec=width, rounding=decimal.ROUND_HALF_EVEN)
    q = x.quantize(Decimal(1).scaleb(-p), context=fmt_ctx)
    sign, digits, exp = q.as_tuple()
    body = "".join(map(str, digits))
    frac = -exp
    if len(body) <= frac:
        body = "0" * (frac - len(body) + 1) + body
    text = f"{body[:-frac]}.{body[-frac:]}"
    return f"-{text}" if sign and q != 0 else text


class TestParsing:
    def test_binary64_decimal_string(self):
        assert Binary64().parse("0.4") == 0.4

    def test_binary64_fraction_string(self):
        assert Binary64().parse("3/2") == 1.5

    def test_binary64_fraction_correctly_rounded(self):
        b = Binary64()
        assert b.parse("6/13") == 6 / 13
        assert b.parse("1/3") == float(Fraction(1, 3))

    def test_rational_exact(self):
        r = Rational()
        assert r.parse("6/13") == Fraction(6, 13)
        assert r.parse("0.4") == Fraction(2, 5)
        assert r.parse("-3/7") == Fraction(-3, 7)

    def test_decimal_rounds_to_precision(self):
        d = FixedDecimal(12)
        x = d.parse("1/3")
        assert x == Decimal("0.333333333333")

    def test_decimal_long_literal_rounds_half_even(self):
        d = FixedDecimal(12)
        # 13th digit is a 5 hanging on an even digit: drop it
        assert d.parse("0.1234567890125") == Decimal("0.123456789012")

    @pytest.mark.parametrize("bad", ["abc", "1e5", "1/0", "", "1/2/3", "0x1f"])
    def test_rejects_garbage(self, bad):
        for backend in (Binary64(), Rational(), FixedDecimal(12)):
            with pytest.raises(ParseError):
                backend.parse(bad)

    def test_whitespace_tolerated(self):
        assert Rational().parse(" 1/2 ") == Fraction(1, 2)


class TestArithmetic:
    """The value types' own operators under each backend's context."""

    def test_binary64_matches_hardware(self):
        b = Binary64()
        params = MapParams(1.5, b)
        assert tent_step(0.25, params) == 1.5 * 0.25
        assert tent_step(0.75, params) == -1.5 * 0.75 + 1.5

    def test_rational_never_rounds(self):
        r = Rational()
        x = tent_step(Fraction(9, 13), MapParams(Fraction(3, 2), r))
        assert x == Fraction(12, 26) == Fraction(6, 13)

    def test_decimal_mul_matches_sig_digit_oracle(self):
        d = FixedDecimal(12)
        a = d.parse("0.1234567891")
        b = d.parse("0.9876543219")
        expect = round_sig_half_even(
            Fraction("0.1234567891") * Fraction("0.9876543219"), 12
        )
        with d.context():
            assert Fraction(str(a * b)) == expect

    def test_decimal_add_rounds_once(self):
        d = FixedDecimal(12)
        one = d.from_int(1)
        tiny = d.parse("0.0000000000001")
        with d.context():
            assert one + tiny == Decimal(1)

    def test_decimal_neg_is_exact_at_full_precision(self):
        # unary minus through the ambient 28-digit context would corrupt this
        d = FixedDecimal(70)
        x = d.parse("0." + "1234567890" * 7)
        with d.context():
            n = -x
            assert n.as_tuple().digits == x.as_tuple().digits
            assert -n == x

    def test_decimal_ops_ignore_ambient_context(self):
        import decimal as dec

        d = FixedDecimal(40)
        a = d.parse("1/7")
        b = d.parse("1/11")
        with dec.localcontext(dec.Context(prec=3, rounding=dec.ROUND_DOWN)):
            with d.context():
                got = a * b
        expect = round_sig_half_even(Fraction(a.as_integer_ratio()[0],
                                              a.as_integer_ratio()[1])
                                     * Fraction(*b.as_integer_ratio()), 40)
        assert Fraction(*got.as_integer_ratio()) == expect

    def test_type_mismatch_rejected(self):
        # operators check nothing, so values are checked where they enter
        with pytest.raises(MismatchError):
            MapParams(Fraction(3, 2), Binary64())
        with pytest.raises(MismatchError):
            Binary64().clamp_unit(Fraction(1, 2))
        with pytest.raises(MismatchError):
            build_coefficients(1.2, Rational())
        with pytest.raises(MismatchError):
            recurrence(Decimal("0.5"), 0.5, 3, FixedDecimal(12))
        params = MapParams(Fraction(3, 2), Rational())
        coeffs = build_coefficients(1.2, Binary64())
        with pytest.raises(MismatchError):
            stabilized_orbit(Fraction(2, 5), params, 2, coeffs, 10)
        with pytest.raises(MismatchError):
            FixedDecimal(12).serialize(0.5)

    @given(
        st.integers(min_value=0, max_value=10**10 - 1),
        st.integers(min_value=0, max_value=10**10 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_decimal_product_oracle_property(self, p, q):
        d = FixedDecimal(12)
        a = d.parse(f"0.{p:010d}")
        b = d.parse(f"0.{q:010d}")
        with d.context():
            got = a * b
        expect = round_sig_half_even(Fraction(p, 10**10) * Fraction(q, 10**10), 12)
        assert Fraction(*got.as_integer_ratio()) == expect

    @given(st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=1.0, max_value=2.0, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_binary64_product_is_correctly_rounded(self, x, h):
        # the left branch is one correctly rounded product
        exact = Fraction(h) * Fraction(x)
        assert tent_step(x, MapParams(h, Binary64())) == float(exact)


class TestComparison:
    """The branch rule, which itinerary and tent_step apply: the tie at 1/2
    is the left branch, and a point outside [0, 1] is refused."""

    def test_tie_at_half_goes_left(self):
        for b in (Binary64(), Rational(), FixedDecimal(12)):
            params = MapParams(b.parse("3/2"), b)
            assert itinerary(b.parse("0.5"), params, 1) == ("L", params.h)

    def test_just_past_half_goes_right(self):
        b = Binary64()
        params = MapParams(1.5, b)
        assert itinerary(math.nextafter(0.5, 1.0), params, 1) == ("R", -1.5)
        assert tent_step(math.nextafter(0.5, 1.0), params) == 1.5 - 1.5 * math.nextafter(0.5, 1.0)
        rat = MapParams(Fraction(3, 2), Rational())
        x = Fraction(1, 2) + Fraction(1, 10**30)
        assert itinerary(x, rat, 1) == ("R", Fraction(-3, 2))
        assert tent_step(x, rat) == Fraction(3, 2) * (1 - x)

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            itinerary(1.0000001, MapParams(1.5, Binary64()), 1)
        with pytest.raises(DomainError):
            tent_step(1.0000001, MapParams(1.5, Binary64()))
        with pytest.raises(DomainError):
            itinerary(Fraction(-1, 10), MapParams(Fraction(3, 2), Rational()), 1)
        with pytest.raises(DomainError):
            tent_step(Fraction(-1, 10), MapParams(Fraction(3, 2), Rational()))


class TestClamp:
    def test_binary64_absorbs_one_ulp(self):
        b = Binary64()
        assert b.clamp_unit(1.0 + 2.0**-52) == 1.0
        assert b.clamp_unit(-(2.0**-53)) == 0.0
        assert b.clamp_unit(0.75) == 0.75

    def test_binary64_rejects_larger_excursions(self):
        with pytest.raises(DomainError):
            Binary64().clamp_unit(1.0 + 2.0**-50)

    def test_exact_backends_allow_no_slack(self):
        with pytest.raises(DomainError):
            Rational().clamp_unit(Fraction(-1, 10**40))
        with pytest.raises(DomainError):
            FixedDecimal(12).clamp_unit(Decimal("-1E-12"))


class TestSerialization:
    def test_binary64_round_trips(self):
        b = Binary64()
        for x in (0.1, 6 / 13, 0.5999999999999999, 1.0):
            assert float(b.serialize(x)) == x

    def test_binary64_shortest_form(self):
        assert Binary64().serialize(0.1) == "0.1"

    def test_rational_p_over_q(self):
        r = Rational()
        assert r.serialize(Fraction(6, 13)) == "6/13"
        assert r.serialize(Fraction(3)) == "3/1"
        assert r.serialize(Fraction(-2, 5)) == "-2/5"

    def test_decimal_fixed_point_width(self):
        d = FixedDecimal(70)
        s = d.serialize(d.parse("0.5"))
        assert s == "0." + "5" + "0" * 69
        assert len(s.split(".")[1]) == 70

    def test_decimal_small_value_stays_positional(self):
        d = FixedDecimal(12)
        assert d.serialize(d.parse("0.0000001")) == "0.000000100000"

    def test_decimal_integer_part_preserved(self):
        d = FixedDecimal(12)
        assert d.serialize(d.from_int(89)) == "89.000000000000"

    def test_decimal_round_trips(self):
        d = FixedDecimal(20)
        x = d.parse("0.61803398874989484820")
        assert d.parse(d.serialize(x)) == x

    @pytest.mark.parametrize("p", [10, 12, 30, 70, 400])
    def test_decimal_edge_cases_match_digit_assembly(self, p):
        d = FixedDecimal(p)
        values = [Decimal(t) for t in ("0", "-0", "-0E-50", "0E+5", "1E-500", "-1E-500",
                                       "1E40", "-123456789E40", "1", "1E-6", "-1E-6",
                                       "1.000001E-6", "-9.99E-7", "3E-9")]
        for nines in (p - 1, p):  # half a quantum, and just past it
            values += [Decimal(f"0.{'9' * nines}5"), Decimal(f"-0.{'0' * nines}5")]
        for digit in range(10):  # midpoints that round to even, down and up
            values += [Decimal(f"{digit}.{'0' * (p - 1)}{digit}5"),
                       Decimal(f"-0.{'4' * p}5"), Decimal(f"1{digit}E40")]
        for x in values:
            assert d.serialize(x) == fixed_point_digits(x, p), x


def cell_texts(values) -> tuple[list[str], int]:
    """cells of a float64 array as strings, and its repr count."""
    values = np.asarray(values, dtype=np.float64)
    out = np.full((len(values), CELL_BYTES), 0xFF, dtype=np.uint8)  # no stale NULs
    count = cells(values, out)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in out], count


def reprs(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def uncovered(values) -> int:
    """How many values cells leaves to repr by their range: all
    but those in (0, 1) whose repr has an exponent of -99 or more."""
    return sum(not (0 < v < 1 and len(r.partition("e-")[2]) < 3)
               for v, r in zip(np.asarray(values).tolist(), reprs(values)))


class TestBinary64Cells:
    """_arrays.cells against repr, the scalar serialize it vectorizes."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_float_writes_its_repr(self, values):
        # NaN, infinities, both zeros, subnormals and huge values included
        assert cell_texts(values)[0] == reprs(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern_writes_its_repr(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert cell_texts(values)[0] == reprs(values)

    @given(st.lists(st.floats(min_value=1e-99, max_value=1.0, exclude_max=True),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_covered_floats_take_the_integer_path(self, values):
        # only an exact tie between two shortest strings goes to repr here;
        # a tie x = (2q + 1) * 5 * 10**(k - 1) with x * 10**s < 2**64 has at
        # most 20 significant digits, where a float has up to 767
        texts, count = cell_texts(values)
        assert texts == reprs(values)
        assert count <= sum(len(Decimal(v).as_tuple().digits) <= 20 for v in values)

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        # a power of two is where the rounding interval is lopsided, and
        # the powers of ten are the shortest strings of all
        powers = np.array([2.0**e for e in range(-1074, 1024)]
                          + [float(f"1e{e}") for e in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        texts, count = cell_texts(values)
        assert texts == reprs(values)
        # one exact tie: 2**-25 is 2.98023223876953125e-08, halfway between
        # two 17-digit strings
        assert count == uncovered(values) + 1

    @pytest.mark.parametrize("n", [8193, 131071, 10**5])
    def test_uniform_nets(self, n):
        values = np.arange(n + 1) / n
        texts, count = cell_texts(values)
        assert texts == reprs(values)
        assert count == 2  # 0.0 and 1.0

    def test_random_values_below_one(self):
        rng = np.random.default_rng(13)
        values = np.concatenate([rng.random(50_000),
                                 rng.random(50_000) * 10.0 ** rng.integers(-100, 0, 50_000)])
        texts, count = cell_texts(values)
        assert texts == reprs(values)
        assert count == uncovered(values)

    def test_refuses_an_object_array(self):
        with pytest.raises(MismatchError):
            cells(np.array([0.5], dtype=object), np.empty((1, CELL_BYTES), np.uint8))

    def test_writes_in_place_into_column_slices(self):
        # the sweep's row table: cells at columns 0, 48 and 88 of 128 bytes a
        # row, and no byte around them touched
        rng = np.random.default_rng(29)
        columns = [rng.random(300), np.array(EDGE_FLOATS * 15), rng.random(300) * 1e-40]
        table = rng.integers(1, 256, (300, 128), dtype=np.uint8)
        before = table.copy()
        starts = (0, 48, 88)
        for start, values in zip(starts, columns):
            cells(values, table[:, start:start + CELL_BYTES])
        written = np.zeros(128, dtype=bool)
        for start, values in zip(starts, columns):
            written[start:start + CELL_BYTES] = True
            texts = [row.tobytes().replace(b"\0", b"").decode("ascii")
                     for row in table[:, start:start + CELL_BYTES]]
            assert texts == list(map(Binary64().serialize, values.tolist()))
        assert np.array_equal(table[:, ~written], before[:, ~written])

    def test_refuses_rows_that_are_not_contiguous(self):
        table = np.zeros((4, 2 * CELL_BYTES), dtype=np.uint8)
        with pytest.raises(MismatchError, match="contiguous"):
            cells(np.full(4, 0.25), table[:, ::2])
        assert not table.any()

    def test_tables_hold_exact_integers(self):
        # F's limbs rebuild 5**s * 2**t, exactly from E_exact up, and every
        # value of exponent E scales below 2**64
        t = _arrays._tables()
        assert t.multipliers.dtype == np.uint64 and t.multipliers.max() < 2**32
        assert t.scales.dtype == np.int64
        for i, s in enumerate(t.scales.tolist()):
            e = t.e_min + i
            f = sum(int(limb) << (32 * j) for j, limb in enumerate(t.multipliers[:, i]))
            assert f < 2**127
            exact = Fraction(5**s) * Fraction(2) ** (e + s - 959)
            assert f == math.floor(exact) and (f == exact) == (e >= t.e_exact)
            assert 10**s <= 2 ** (1086 - e) < 10 ** (s + 1)
        assert 2.0 ** (t.e_min - 1022) > 1e-99 >= 2.0 ** (t.e_min - 1023)

    def test_integers_stay_integers(self):
        # a uint64 array that meets an int64 one is promoted to float64,
        # which drops the low bits of the 20-digit answers without a word
        y, decpt, fallback = _arrays._shortest(np.array([0.1, 2.0**-60, 1 / 3, 0.0]))
        assert (y.dtype, decpt.dtype, fallback.dtype) == (np.uint64, np.int64, bool)
        assert y[:3].tolist() == [10**19, 8673617379884035000, 3333333333333333000]
        assert decpt[:3].tolist() == [0, -18, 0]
        assert fallback.tolist() == [False, False, False, True]

    def test_tables_are_built_on_first_use(self):
        code = ("import tentlab.cli, tentlab._arrays as a;"
                "assert a._tables.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)


# the values cells leaves to repr, and some it covers
EDGE_FLOATS = [0.0, -0.0, -0.5, -1e-300, 1.0, 2.0, 65536.0, -65536.0, 1e300, 5e-324,
               2.2250738585072014e-308, 1e-100, 1e-99, 1e-05, 0.0001, 0.1, 2 / 3,
               math.nan, math.inf, -math.inf]


def unlimited_str(n: int) -> str:
    """str(n) with the interpreter's int-to-text limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestTexts:
    """Backend.texts, and float64_texts on a float64 array, a column at a
    time, against serialize, a value at a time."""

    def test_binary64_edge_values(self):
        b = Binary64()
        assert b.texts(EDGE_FLOATS) == list(map(b.serialize, EDGE_FLOATS))
        assert float64_texts(np.array(EDGE_FLOATS)) == list(map(b.serialize, EDGE_FLOATS))

    @pytest.mark.parametrize("n", [0, 1, TEXT_BLOCK - 1, TEXT_BLOCK, TEXT_BLOCK + 1,
                                   3 * TEXT_BLOCK + 7])
    def test_binary64_columns_across_blocks(self, n):
        rng = np.random.default_rng(n)
        values = rng.random(n) * 10.0 ** rng.integers(-120, 5, n)
        values[::97] = np.resize(EDGE_FLOATS, len(values[::97]))
        assert float64_texts(values) == list(map(Binary64().serialize, values.tolist()))

    @given(st.lists(st.floats(), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_binary64_any_floats(self, values):
        assert Binary64().texts(values) == list(map(Binary64().serialize, values))

    def test_rational(self):
        b = Rational()
        values = [Fraction(0), Fraction(-3, 7), Fraction(65536), Fraction(-65536),
                  Fraction(1, 3**40), Fraction(2**70 + 1, 3)]
        values += [Fraction(i, TEXT_BLOCK + 3) for i in range(TEXT_BLOCK + 3)]
        assert b.texts(values) == list(map(b.serialize, values))
        assert b.texts(np.array(values, dtype=object)) == list(map(b.serialize, values))

    @pytest.mark.parametrize("digits", [4301, 5000, 50000])
    def test_rational_past_the_int_text_limit(self, digits):
        rng = random.Random(digits)  # ints of about that many digits, built without text
        big = [rng.getrandbits(digits * 3322 // 1000) for _ in range(3)]
        big += [10**digits, 10**digits - 1, 10**(digits - 1) + 7]  # zero and nine runs
        values = [Fraction(n, 3) for n in big] + [Fraction(-7, n) for n in big]
        values += [Fraction(n, m) for n, m in zip(big, reversed(big)) if n != m]
        limit = sys.get_int_max_str_digits()
        want = [f"{unlimited_str(x.numerator)}/{unlimited_str(x.denominator)}" for x in values]
        b = Rational()
        assert b.texts(values) == want
        assert [b.serialize(x) for x in values] == want
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("digits", [10, 30, 400])
    def test_decimal(self, digits):
        b = FixedDecimal(digits)
        values = [b.from_int(0), Decimal("-0"), b.parse("-0.5"), b.from_int(65536),
                  b.parse("1/3"), b.parse("2/3"), Decimal("1e-500"), Decimal("-1e-500"),
                  Decimal("1e-6"), Decimal("-1e-6"), Decimal("1.000001e-6"),
                  Decimal("-9.99e-7"), Decimal("3e-9"), b.parse("1/3000000")]
        values += [b.parse(f"{i}/{TEXT_BLOCK + 3}") for i in range(0, TEXT_BLOCK + 3, 97)]
        assert b.texts(values) == [fixed_point_digits(x, digits) for x in values]

    @pytest.mark.parametrize("b, values", [
        (Binary64(), [0.5, Fraction(1, 2)]),
        (Binary64(), [1, 2]),
        (Binary64(), np.array([0.5, 0.25])),  # np.float64 items: float64_texts takes arrays
        (Rational(), [Fraction(1, 2), 0.5]),
        (FixedDecimal(30), [Decimal("0.5"), 0.5]),
    ])
    def test_refuses_another_backends_values(self, b, values):
        with pytest.raises(MismatchError):
            b.texts(values)


class TestFactory:
    def test_make_each_kind(self):
        assert make_backend("binary64").kind == "binary64"
        assert make_backend("rational").kind == "rational"
        assert make_backend("decimal", 16).precision_digits == 16

    def test_decimal_requires_precision(self):
        with pytest.raises(DomainError):
            make_backend("decimal")

    def test_decimal_minimum_precision(self):
        with pytest.raises(DomainError):
            make_backend("decimal", 9)
        assert make_backend("decimal", 10).precision_digits == 10

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_backend("float128")

    def test_infer_from_value(self):
        assert infer_backend(0.5) == Binary64()
        assert infer_backend(Fraction(1, 2)) == Rational()
        with pytest.raises(MismatchError):
            infer_backend(Decimal("0.5"))

    def test_equality_and_hash(self):
        assert FixedDecimal(12) == FixedDecimal(12)
        assert FixedDecimal(12) != FixedDecimal(13)
        assert len({Binary64(), Binary64(), Rational()}) == 2
