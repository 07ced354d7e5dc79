"""Tent map steps, orbits, and itineraries across all three backends.

Rational-backend orbits are checked against an independent big-integer
oracle that iterates numerator/denominator pairs directly, so the library's
Fraction plumbing is never trusted to verify itself.
"""

import decimal
import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab._arrays import exact_tent_step, tent_step_array
from tentlab.backends import Binary64, DomainError, FixedDecimal, Rational
from tentlab.tentmap import (
    MapParams,
    itinerary,
    orbit,
    tent_step,
)


def oracle_orbit(p: int, q: int, hp: int, hq: int, steps: int):
    """Iterate T_h on integer pairs: x = p/q, h = hp/hq, no Fraction used."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    out = [(p, q)]
    for _ in range(steps):
        if 2 * p <= q:  # x <= 1/2
            p, q = hp * p, hq * q
        else:
            p, q = hp * (q - p), hq * q
        g = math.gcd(p, q)
        p, q = p // g, q // g
        out.append((p, q))
    return out


def b64_params(h: float = 1.5) -> MapParams:
    return MapParams(h, Binary64())


def rat_params(h="3/2") -> MapParams:
    b = Rational()
    return MapParams(b.parse(h), b)


class TestMapParams:
    def test_accepts_interior_and_upper_endpoint(self):
        MapParams(1.5, Binary64())
        MapParams(2.0, Binary64())
        MapParams(Fraction(2), Rational())

    @pytest.mark.parametrize("h", [1.0, 0.5, 2.0000000001, -1.5, 3.0])
    def test_rejects_slope_outside_range(self, h):
        with pytest.raises(DomainError):
            MapParams(h, Binary64())

    def test_rejects_slope_the_backend_would_round(self):
        # 12 digits at precision 10 round to 2: at x = 1 the scalar step
        # would refuse h - h*x, and the array step would return -1E-11
        with pytest.raises(DomainError, match="rounds"):
            MapParams(Decimal("1.99999999999"), FixedDecimal(10))
        MapParams(Decimal("1.999999999000"), FixedDecimal(10))  # its zeros round to itself

    def test_rejects_backend_mismatch(self):
        from tentlab.backends import MismatchError

        with pytest.raises(MismatchError):
            MapParams(Fraction(3, 2), Binary64())

    def test_parse_helper(self):
        p = MapParams.parse("3/2", Rational())
        assert p.h == Fraction(3, 2)


class TestTentStep:
    def test_half_maps_to_three_quarters(self):
        assert tent_step(0.5, b64_params(1.5)) == 0.75

    def test_two_cycle_points_swap_exactly(self):
        p = rat_params("3/2")
        assert tent_step(Fraction(6, 13), p) == Fraction(9, 13)
        assert tent_step(Fraction(9, 13), p) == Fraction(6, 13)

    def test_tie_at_half_uses_left_branch(self):
        # left branch: h*0.5 = 0.75; right would give the same here only if
        # h*(1-x) agreed, so use h=1.8 where the two branches differ... they
        # coincide at x=1/2 for every h, so probe the branch via itinerary
        sym, _ = itinerary(0.5, b64_params(1.8), 1)
        assert sym == "L"

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            tent_step(1.5, b64_params())
        with pytest.raises(DomainError):
            tent_step(Fraction(-1, 10), rat_params())

    def test_one_ulp_excursion_clamped(self):
        assert tent_step(1.0 + 2.0**-52, b64_params()) == 0.0

    def test_decimal_step_rounds_like_the_backend(self):
        d = FixedDecimal(12)
        p = MapParams(d.parse("1.4142135624"), d)
        x = d.parse("0.7")
        # (-h)*0.7 rounds once, + h rounds once
        ctx = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
        expect = ctx.add(ctx.multiply(p.h.copy_negate(), x), p.h)
        assert tent_step(x, p) == expect


class TestPowerStep:
    def test_second_iterate_of_two_fifths_is_three_fifths(self):
        assert tent_step(Fraction(2, 5), rat_params(), 2) == Fraction(3, 5)

    def test_second_iterate_of_04_lands_one_ulp_under_06(self):
        # the double 0.4 is not 2/5, so T^2 lands on the neighbor of 0.6;
        # this one-ulp gap is what seeds the delayed escape experiments
        y = tent_step(0.4, b64_params(1.5), 2)
        assert y == 0.5999999999999999
        assert y == math.nextafter(0.6, 0.0)

    def test_rational_preimage_reaches_fixed_point(self):
        assert tent_step(Fraction(4, 15), rat_params(), 2) == Fraction(3, 5)

    def test_fixed_point_is_fixed_for_any_power(self):
        p = rat_params()
        s = Fraction(3, 5)
        for k in (1, 2, 5):
            assert tent_step(s, p, k) == s

    def test_power_must_be_positive(self):
        with pytest.raises(DomainError):
            tent_step(0.4, b64_params(), 0)


class TestOrbit:
    def test_hand_iterated_prefix(self):
        o = orbit(0.5, b64_params(1.5), k=1, steps=5)
        assert o == (0.5, 0.75, 0.375, 0.5625, 0.65625, 0.515625)

    def test_rational_fixed_point_is_constant(self):
        o = orbit(Fraction(3, 5), rat_params(), k=1, steps=3)
        assert set(o) == {Fraction(3, 5)}

    def test_zero_is_fixed(self):
        o = orbit(0.0, b64_params(1.7), k=1, steps=4)
        assert set(o) == {0.0}

    def test_point_count(self):
        assert len(orbit(0.3, b64_params(), steps=7)) == 8
        assert len(orbit(0.3, b64_params(), steps=0)) == 1

    def test_negative_steps_rejected(self):
        with pytest.raises(DomainError):
            orbit(0.3, b64_params(), steps=-1)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_rational_orbit_matches_bigint_oracle(self, a, b):
        num, den = min(a, b), max(a, b, 1)
        if den == 0:
            den = 1
        backend = Rational()
        params = MapParams(Fraction(3, 2), backend)
        o = orbit(Fraction(num, den), params, k=1, steps=12)
        expect = oracle_orbit(num, den, 3, 2, 12)
        got = [(pt.numerator, pt.denominator) for pt in o]
        assert got == expect

    def test_power_orbit_subsamples_unit_orbit(self):
        p = b64_params(1.9)
        full = orbit(0.3, p, k=1, steps=12)
        doubled = orbit(0.3, p, k=3, steps=4)
        assert doubled == full[::3]

    def test_decimal_orbit_reproducible(self):
        d = FixedDecimal(30)
        p = MapParams(d.parse("1.5"), d)
        o1 = orbit(d.parse("1/3"), p, k=1, steps=50)
        o2 = orbit(d.parse("1/3"), p, k=1, steps=50)
        assert o1 == o2


class TestItinerary:
    def test_cycle_itinerary_and_slope(self):
        sym, slope = itinerary(Fraction(6, 13), rat_params(), 2)
        assert sym == "LR"
        assert slope == Fraction(-9, 4)

    def test_fixed_point_itinerary(self):
        sym, slope = itinerary(Fraction(3, 5), rat_params(), 2)
        assert sym == "RR"
        assert slope == Fraction(9, 4)

    def test_origin_stays_left(self):
        sym, slope = itinerary(0.0, b64_params(1.7), 3)
        assert sym == "LLL"
        assert slope == 1.7**3

    def test_slope_magnitude_is_h_to_the_n(self):
        p = rat_params("7/4")
        for x0 in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 11)):
            sym, slope = itinerary(x0, p, 9)
            assert abs(slope) == Fraction(7, 4) ** 9
            assert (slope < 0) == (sym.count("R") % 2 == 1)

    def test_length_must_be_positive(self):
        with pytest.raises(DomainError):
            itinerary(0.4, b64_params(), 0)


@st.composite
def slope_and_point(draw):
    """A backend, a slope h in (1, 2] that it represents, 2 and the least
    one above 1 among them, and a point x in [0, 1]."""
    kind = draw(st.sampled_from(["binary64", "rational", "decimal"]))
    if kind == "binary64":
        h = draw(st.sampled_from([2.0, math.nextafter(1.0, 2.0)])
                 | st.floats(min_value=1.0, max_value=2.0, exclude_min=True))
        return Binary64(), h, draw(st.floats(min_value=0.0, max_value=1.0))
    if kind == "rational":
        h = draw(st.sampled_from([Fraction(2), Fraction(10**9 + 1, 10**9)])
                 | st.fractions(min_value=1, max_value=2, max_denominator=10**9)
                 .filter(lambda h: h > 1))
        return Rational(), h, draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
                                   | st.fractions(min_value=0, max_value=1,
                                                  max_denominator=10**9))
    digits = draw(st.integers(min_value=10, max_value=30))
    b, one = FixedDecimal(digits), 10 ** (digits - 1)
    m = draw(st.sampled_from([2 * one, one + 1]) | st.integers(one + 1, 2 * one))
    n = draw(st.integers(0, 10 ** (digits + 2)))
    with b.context():  # x rounded to the precision, from 2 digits more
        x = +Decimal(f"{n}E{-digits - 2}")
    return b, Decimal(f"{m}E{1 - digits}"), x


def _bits(y):
    """What tells two values of one backend apart: a float's bytes, a
    Fraction itself, a Decimal's sign, digits and exponent."""
    if isinstance(y, float):
        return struct.pack("<d", y)
    return y.as_tuple() if isinstance(y, Decimal) else y


def _masked_step(x, h, half):
    """The tent step tent_step_array once took: t = h*x, then h - t where
    x > half."""
    t = h * x
    np.subtract(h, t, out=t, where=x > half)
    return t


def _nan(sign, payload):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | 0x7FF << 52 | payload))[0]


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 0.5, 1.0, math.nextafter(0.5, 0.0),
                math.nextafter(0.5, 1.0), math.nextafter(1.0, 2.0), 5e-324]
_floats = (
    st.floats()
    | st.floats(min_value=-0.5, max_value=1.5)
    | st.sampled_from(_EDGE_FLOATS)
    | st.builds(_nan, st.integers(0, 1), st.integers(1, 2**52 - 1))  # quiet and signalling
)
_slopes = (st.sampled_from([2.0, 1.5, math.nextafter(1.0, 2.0)])
           | st.floats(min_value=1.0, max_value=2.0, exclude_min=True))
_DEC30 = FixedDecimal(30)
_EDGE_DECIMALS = [Decimal("0"), Decimal("-0"), Decimal("Infinity"), Decimal("-Infinity"),
                  Decimal("0.5"), Decimal("1"), Decimal("0.5") - Decimal("1E-30"),
                  Decimal("0.5") + Decimal("1E-30")]


def _decimal30(n):  # n/10^31 rounded to 30 digits
    with _DEC30.context():
        return +Decimal(f"{n}E-31")


class TestInvariants:
    @given(slope_and_point())
    @settings(max_examples=300, deadline=None)
    def test_range_contraction(self, drawn):
        """tent_step lands in [0, h/2] with no clamp of its output, and
        equals tent_step_array's element bit for bit, and on rational
        exact_tent_step's."""
        b, h, x = drawn
        p = MapParams(h, b)
        y = tent_step(x, p)
        assert type(y) is type(x)
        assert 0 <= Fraction(y) <= Fraction(h) / 2
        with b.context():
            (z,) = tent_step_array(np.array([x]), h).tolist()
        assert _bits(y) == _bits(z)
        if isinstance(x, Fraction):
            # the exact step's numerators on x's terms times 2**64 + 1, so past
            # int64, over one int and over an array, read over q times the
            # denominator; 0, 1/2 (the tie, 2N = M) and 1 are drawn too
            k = 2**64 + 1
            nums, den = np.array([k * x.numerator], dtype=object), k * x.denominator
            for m in (den, np.array([den], dtype=object)):
                (n,) = exact_tent_step(nums, m, h)
                assert type(n) is int
                assert Fraction(n, h.denominator * den) == y

    @pytest.mark.parametrize("h", [1.5, 2.0, 1.9, 1.0000000000000002])
    def test_array_step_keeps_the_bits_of_the_negated_mask(self, h):
        # where=x > half against the older where=~(x <= half): a NaN, of
        # either sign and any payload, keeps h*x, the NaN h - h*x gives too
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                         0xFFF0000000000001], dtype=np.uint64).view(np.float64)
        half = 0.5
        x = np.concatenate([nans, [math.inf, -math.inf, 0.0, -0.0, np.nextafter(half, 0),
                                   half, np.nextafter(half, 1), 1.0]])
        with np.errstate(invalid="ignore"):  # the last NaN is a signalling one
            old = h * x
            np.subtract(h, old, out=old, where=~(x <= half))
            new = tent_step_array(x, h)
        assert new.view(np.uint64).tolist() == old.view(np.uint64).tolist()

    @given(st.lists(_floats, min_size=1, max_size=40), _slopes)
    @settings(max_examples=300, deadline=None)
    def test_array_step_is_the_masked_step_bit_for_bit(self, values, h):
        x = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):  # overflow, and signalling NaNs
            want = _masked_step(x, h, 0.5)
            got = tent_step_array(x, h)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @given(st.lists(st.sampled_from(_EDGE_DECIMALS)
                    | st.integers(-10**31, 3 * 10**31).map(_decimal30), min_size=1, max_size=20),
           st.sampled_from([2 * 10**29, 10**29 + 1]) | st.integers(10**29 + 1, 2 * 10**29))
    @settings(max_examples=200, deadline=None)
    def test_decimal_array_step_is_the_masked_step_digit_for_digit(self, values, m):
        b = _DEC30
        h, half = Decimal(f"{m}E-29"), b.parse("0.5")
        x = np.array(values, dtype=object)
        with b.context():
            want = _masked_step(x, h, half)
            got = tent_step_array(x, h)
        assert list(map(_bits, got)) == list(map(_bits, want))

    def test_array_step_raises_on_a_decimal_nan(self):
        b = FixedDecimal(30)
        x = np.array([Decimal("0.25"), Decimal("NaN")], dtype=object)
        with b.context(), pytest.raises(decimal.InvalidOperation):
            tent_step_array(x, b.parse("1.5"))

    @given(st.fractions(min_value=0, max_value=1))
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry(self, x):
        p = rat_params("8/5")
        assert tent_step(x, p) == tent_step(1 - x, p)

    def test_core_interval_forward_invariant(self):
        # once inside [h - h^2/2, h/2] an exact orbit never leaves
        h = Fraction(9, 5)
        p = MapParams(h, Rational())
        lo, hi = h - h * h / 2, h / 2
        for x0 in (Fraction(1, 7), Fraction(3, 11), Fraction(13, 17)):
            pts = orbit(x0, p, k=1, steps=60)
            inside = False
            for pt in pts:
                if lo <= pt <= hi:
                    inside = True
                if inside:
                    assert lo <= pt <= hi


@st.composite
def backend_slope_start(draw):
    """binary64, rational or FixedDecimal(12), a slope h in (1, 2] it holds,
    and a start in [0, 1] or one ulp outside it: within binary64's clamp
    slack, past the exact backends' zero slack."""
    kind = draw(st.sampled_from(["binary64", "rational", "decimal"]))
    if kind == "binary64":
        h = draw(st.sampled_from([2.0, 1.5]) | st.floats(1.0, 2.0, exclude_min=True))
        ulp = 2.0 ** -52
        x0 = draw(st.sampled_from([-ulp, 1 + ulp, 0.5, 0.0, 1.0]) | st.floats(0.0, 1.0))
        return Binary64(), h, x0
    if kind == "rational":
        h = draw(st.sampled_from([Fraction(2), Fraction(3, 2)])
                 | st.fractions(1, 2, max_denominator=100).filter(lambda h: h > 1))
        ulp = Fraction(1, 10**9)
        x0 = draw(st.sampled_from([-ulp, 1 + ulp, Fraction(1, 2)])
                  | st.fractions(0, 1, max_denominator=10**9))
        return Rational(), h, x0
    b = FixedDecimal(12)
    h = Decimal(f"{draw(st.integers(10**11 + 1, 2 * 10**11))}E-11")
    ulp = Decimal("1E-11")
    x0 = draw(st.sampled_from([-ulp, 1 + ulp, Decimal("0.5")])
              | st.integers(0, 10**12).map(lambda n: Decimal(f"{n}E-12")))
    return b, h, x0


def _outcome(f, *args):
    """f(*args), or the type of the DomainError it raised."""
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc)


def _walked_itinerary(x0, p: MapParams, n: int):
    """itinerary by n calls of tent_step: the symbol of each value, and the
    slope product (+h) per L and (-h) per R, left to right."""
    b = p.backend
    x, symbols, slope = b.clamp_unit(x0), [], b.from_int(1)
    for _ in range(n):
        left = x <= Fraction(1, 2)
        symbols.append("L" if left else "R")
        with b.context():
            slope = slope * p.h if left else -(slope * p.h)
        x = tent_step(x, p)
    return "".join(symbols), slope


class TestScalarStepsAgree:
    """itinerary, and tent_step at k, give bit for bit what a walk by
    one-step tent_step calls gives, raising where it raises."""

    @given(backend_slope_start(), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_itinerary_is_a_walk_by_tent_step(self, drawn, n):
        b, h, x0 = drawn
        p = MapParams(h, b)
        got, want = _outcome(itinerary, x0, p, n), _outcome(_walked_itinerary, x0, p, n)
        if isinstance(want, tuple):
            assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])
        else:
            assert got is want

    @given(backend_slope_start(), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_power_step_is_k_calls_of_tent_step(self, drawn, k):
        b, h, x0 = drawn
        p = MapParams(h, b)

        def walked(x):
            for _ in range(k):
                x = tent_step(x, p)
            return x

        got, want = _outcome(tent_step, x0, p, k), _outcome(walked, x0)
        if isinstance(want, type):
            assert got is want
        else:
            assert _bits(got) == _bits(want)
