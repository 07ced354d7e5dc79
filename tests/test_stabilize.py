"""Coefficient construction, stabilized runs, and spectra.

Oracles: an inline scalar reference recursion (the value type's operators
under the backend's context, explicit operation order) pins the starred sequence bit for bit
on every backend; each spectral magnitude is checked by Newton-polishing
a root on its circle to a tiny polynomial residual, and their product by
Vieta's formula.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab import stabilize
from tentlab._arrays import tent_step_array
from tentlab.backends import Binary64, DomainError, FixedDecimal, Rational
from tentlab.stabilize import (
    TAPS,
    Coefficients,
    build_coefficients,
    classify_equilibria,
    companion_spectrum,
    stabilized_orbit,
)
from tentlab.tentmap import MapParams, tent_step

SIGMA = 1.2

REFERENCE_WEIGHTS = (
    0.1854829091429525,
    0.2490279798678529,
    0.2485509147723208,
    0.1864131860792406,
    0.09961119194714116,
    0.030913818190492087,
)


def b64_setup(h=1.5, sigma=SIGMA):
    params = MapParams(h, Binary64())
    return params, build_coefficients(sigma)


def rat_setup(h="3/2", sigma="6/5"):
    b = Rational()
    params = MapParams(b.parse(h), b)
    return params, build_coefficients(b.parse(sigma), b)


def dec_setup(precision, h="1.5", sigma="1.2"):
    b = FixedDecimal(precision)
    return MapParams(b.parse(h), b), build_coefficients(b.parse(sigma), b)


def reference_run(x0, params: MapParams, k: int, a: tuple, steps: int) -> list:
    """The starred sequence written out longhand with the value type's
    operators under the backend's context, which rounds decimal to the
    backend's precision, and the right branch as the textbook (-h)*x + h:
    x0 and five plain iterates of f, then each average summed left to
    right, with f taken afresh at every tap."""
    b, h = params.backend, params.h
    half = b.parse("1/2")

    def f(x):
        for _ in range(k):
            x = h * x if x <= half else -h * x + h
        return x

    with b.context():
        xs = [x0]
        for _ in range(TAPS - 1):
            xs.append(f(xs[-1]))
        for n in range(TAPS, steps + 1):
            acc = a[0] * f(xs[n - 1])
            for i in range(2, TAPS + 1):
                acc = acc + a[i - 1] * f(xs[n - i])
            xs.append(acc)
    return xs


class TestCoefficients:
    def test_printed_values_reproduced(self):
        coeffs = build_coefficients(SIGMA)
        for got, want in zip(coeffs.a, REFERENCE_WEIGHTS):
            assert abs(got - want) < 1e-12

    def test_sum_to_one_binary64(self):
        coeffs = build_coefficients(SIGMA)
        assert abs(sum(coeffs.a) - 1.0) <= 1e-15

    def test_sum_to_one_exactly_rational(self):
        _, coeffs = rat_setup()
        assert sum(coeffs.a) == Fraction(1)

    def test_all_positive_at_default_sigma(self):
        coeffs = build_coefficients(SIGMA)
        assert all(v > 0 for v in coeffs.a)

    def test_exact_weight_ratios(self):
        _, coeffs = rat_setup()
        a = coeffs.a
        assert a[0] / a[5] == 6
        assert a[1] / a[4] == Fraction(5, 2)
        assert a[2] / a[3] == Fraction(4, 3)

    def test_sum_rule_across_sigmas(self):
        b = Rational()
        for i in range(10):
            sigma = Fraction(105, 100) + Fraction(i, 20)  # 1.05 .. 1.50
            coeffs = build_coefficients(sigma, b)
            assert sum(coeffs.a) == 1
        for sigma in (1.05, 1.17, 1.3, 1.5):
            assert abs(sum(build_coefficients(sigma).a) - 1.0) <= 1e-15

    def test_sigma_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            build_coefficients(1.0)
        with pytest.raises(DomainError):
            build_coefficients(0.9)

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(DomainError):
            Coefficients(sigma=1.2, a=(0.5, 0.5))


class TestStabilizedOrbit:
    def test_bit_identical_to_reference_recursion(self):
        for params, coeffs in (b64_setup(), rat_setup(), dec_setup(12), dec_setup(30)):
            b = params.backend
            for x0 in map(b.parse, ("0.3", "0.2", "0.4", "0.7231", "0.05")):
                run = stabilized_orbit(x0, params, 2, coeffs, 80)
                assert list(run) == reference_run(x0, params, 2, coeffs.a, 80)

    def test_fvalue_cache_holds_only_the_window(self, monkeypatch):
        params, coeffs = b64_setup()
        calls = []
        power_step = stabilize._tent_power

        def counted_step(x, h, half, k):
            calls.append(x)
            return power_step(x, h, half, k)

        monkeypatch.setattr(stabilize, "_tent_power", counted_step)
        run = stabilized_orbit(0.4, params, 2, coeffs, 2000)
        assert list(run) == reference_run(0.4, params, 2, coeffs.a, 2000)
        # f of each value but the last, once and in order: the seed iterates
        # are the first f-values, and no tap is recomputed
        assert calls == list(run[:-1])
        assert len(calls) == 2000

    def test_array_run_keeps_what_it_yielded(self):
        # the sum adds into each step's fresh product in place, so a value
        # already yielded, or kept as a tap, must never be that array
        for params, coeffs in (b64_setup(), dec_setup(30)):
            b, h = params.backend, params.h
            starts = [b.parse(t) for t in ("0.05", "0.2", "0.3", "0.4", "0.7231")]
            x0s = np.array(starts, dtype=np.float64 if b == Binary64() else object)

            def f(x):
                return tent_step_array(tent_step_array(x, h), h)

            with b.context():
                run = [(x, x.tolist()) for x in stabilize._starred(x0s, f, coeffs.a, 40)]
            assert [x.tolist() for x, _ in run] == [kept for _, kept in run]
            assert len({id(x) for x, _ in run[1:]}) == 40
            for j, x0 in enumerate(starts):
                want = reference_run(x0, params, 2, coeffs.a, 40)
                assert [kept[j] for _, kept in run] == want

    def test_converges_to_upper_cycle_point_from_03(self):
        params, coeffs = b64_setup()
        run = stabilized_orbit(0.3, params, 2, coeffs, 50)
        assert abs(run[50] - 9 / 13) < 1e-3

    def test_converges_to_lower_cycle_point_from_02(self):
        params, coeffs = b64_setup()
        run = stabilized_orbit(0.2, params, 2, coeffs, 50)
        assert abs(run[50] - 6 / 13) < 1e-3

    def test_exact_arithmetic_pins_04_forever(self):
        params, coeffs = rat_setup()
        run = stabilized_orbit(Fraction(2, 5), params, 2, coeffs, 40)
        assert all(x == Fraction(3, 5) for x in run[1:])

    def test_seed_points_are_plain_iterates(self):
        params, coeffs = b64_setup()
        run = stabilized_orbit(0.3, params, 2, coeffs, 10)
        x, h = 0.3, 1.5
        for j in range(6):
            assert run[j] == x
            for _ in range(2):
                x = h * x if x <= 0.5 else -h * x + h

    def test_run_length(self):
        params, coeffs = b64_setup()
        assert len(stabilized_orbit(0.3, params, 2, coeffs, 6)) == 7
        assert len(stabilized_orbit(0.3, params, 2, coeffs, 50)) == 51

    def test_too_few_steps_rejected(self):
        params, coeffs = b64_setup()
        with pytest.raises(DomainError):
            stabilized_orbit(0.3, params, 2, coeffs, 5)

    def test_nonpositive_power_rejected(self):
        params, coeffs = b64_setup()
        with pytest.raises(DomainError, match="power must be a positive integer"):
            stabilized_orbit(0.3, params, 0, coeffs, 50)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_convexity_keeps_values_inside_unit_interval(self, x0):
        params, coeffs = b64_setup()
        run = stabilized_orbit(x0, params, 2, coeffs, 40)
        assert all(0.0 <= x <= 1.0 for x in run)


class TestSpectrum:
    def test_zero_slope_collapses_spectrum(self):
        coeffs = build_coefficients(SIGMA)
        mags, radius = companion_spectrum(0.0, coeffs)
        assert mags == (0.0,) * 6
        assert radius == 0.0

    def test_unit_slope_has_unit_radius(self):
        coeffs = build_coefficients(SIGMA)
        _, radius = companion_spectrum(1.0, coeffs)
        assert abs(radius - 1.0) < 1e-9

    def test_design_slopes_at_reference_parameters(self):
        coeffs = build_coefficients(SIGMA)
        _, r_cycle = companion_spectrum(-2.25, coeffs)
        _, r_fixed = companion_spectrum(2.25, coeffs)
        assert r_cycle < 1.0 < r_fixed
        assert abs(r_cycle - 0.8584488817) < 1e-9
        assert abs(r_fixed - 1.3680423129) < 1e-9

    def test_magnitudes_sorted_descending(self):
        coeffs = build_coefficients(SIGMA)
        mags, radius = companion_spectrum(-2.25, coeffs)
        assert list(mags) == sorted(mags, reverse=True)
        assert radius == mags[0]

    @pytest.mark.parametrize("mu", [-2.25, -1.5, -0.7, 0.3, 1.0, 1.7, 2.25, 4.0])
    def test_matches_eigenvalue_oracle(self, mu):
        """Each magnitude is that of a root; the product obeys Vieta."""
        coeffs = build_coefficients(SIGMA)
        mags, _ = companion_spectrum(mu, coeffs)
        poly = np.array([1.0] + [-mu * v for v in coeffs.a])
        dpoly = np.polyder(poly)
        circle = np.exp(1j * np.linspace(0.0, np.pi, 3601))
        for r in mags:
            # the best point on the circle |z| = r, polished by Newton's method
            z = r * circle[np.argmin(np.abs(np.polyval(poly, r * circle)))]
            for _ in range(30):
                z -= np.polyval(poly, z) / np.polyval(dpoly, z)
            assert abs(np.polyval(poly, z)) < 1e-12
            assert abs(abs(z) - r) < 1e-9
        assert math.prod(mags) == pytest.approx(abs(mu * coeffs.a[5]), rel=1e-12)


class TestClassification:
    def test_reference_parameters_stabilize_cycle_not_fixed_point(self):
        params, coeffs = b64_setup()
        reports = classify_equilibria(params, 2, coeffs)
        assert [r.point for r in reports] == [6 / 13, 0.6, 9 / 13]
        assert [r.slope for r in reports] == [-2.25, 2.25, -2.25]
        assert [r.stable for r in reports] == [True, False, True]

    def test_boundary_origin_is_unstable_and_never_reported(self):
        params, coeffs = b64_setup()
        (point, slope), *_ = stabilize._fixed_points_of_power(params, 2)
        assert point == 0.0
        assert slope == 2.25
        assert companion_spectrum(slope, coeffs)[1] >= 1.0  # not stable
        assert 0.0 not in [r.point for r in classify_equilibria(params, 2, coeffs)]

    def test_radius_consistent_with_stability_flag(self):
        params, coeffs = b64_setup()
        for r in classify_equilibria(params, 2, coeffs):
            assert r.stable == (r.spectral_radius < 1.0)

    def test_single_step_map_report(self):
        params, coeffs = b64_setup()
        reports = classify_equilibria(params, 1, coeffs)
        assert len(reports) == 1
        assert reports[0].point == 0.6
        assert reports[0].slope == -1.5
        poly = np.array([1.0] + [1.5 * v for v in coeffs.a])
        expect = max(np.abs(np.roots(poly)))
        assert abs(reports[0].spectral_radius - expect) < 1e-9

    def test_nonpositive_power_rejected(self):
        params, coeffs = b64_setup()
        with pytest.raises(DomainError, match="power must be a positive integer"):
            classify_equilibria(params, 0, coeffs)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("b", [Binary64(), Rational()], ids=["binary64", "rational"])
    def test_every_fixed_point_of_a_higher_power_at_h2(self, b, k):
        # T_2^k has 2^k fixed points, each with slope +-2^k; the origin is
        # left out.  k = 4 and 6 take cycles of the periods that divide k
        params, coeffs = MapParams(b.parse("2"), b), build_coefficients(b.parse("6/5"), b)
        reports = classify_equilibria(params, k, coeffs)
        assert len(reports) == 2**k - 1
        assert {abs(r.slope) for r in reports} == {2**k}
        # at mu > 1 the companion polynomial is 1 - mu < 0 at 1, so a root lies past 1
        assert not any(r.stable for r in reports if r.slope > 0)
        if b == Rational():
            assert all(tent_step(r.point, params, k) == r.point for r in reports)

    def test_rational_backend_classification(self):
        params, coeffs = rat_setup()
        reports = classify_equilibria(params, 2, coeffs)
        assert [r.point for r in reports] == [
            Fraction(6, 13),
            Fraction(3, 5),
            Fraction(9, 13),
        ]
        assert [r.slope for r in reports] == [
            Fraction(-9, 4),
            Fraction(9, 4),
            Fraction(-9, 4),
        ]
