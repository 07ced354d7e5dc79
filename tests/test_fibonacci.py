"""Additive recurrence, eigen-decomposition, and escape prediction.

The 12-digit perturbed start is a finite decimal, so the rational backend
makes its whole run exact; that exact run is the authority for the escape
index.  The 2x2 matrix iteration serves as an independent oracle for the
recurrence, and math.sqrt cross-checks the integer-square-root constants.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from tentlab.backends import Binary64, DomainError, Rational
from tentlab.fibonacci import (
    _SQRT5_FRACTION,
    NEAR_STABLE_X1,
    PHI,
    SQRT5,
    EigenData,
    decompose,
    first_crossing,
    predict_escape_index,
    recurrence,
)

LAMBDA_S = float((1 - _SQRT5_FRACTION) / 2)


@dataclass(frozen=True)
class EigenBasis:
    """The eigenvalues and eigenvectors of A = [[0,1],[1,1]]."""

    lambda_u: float
    lambda_s: float
    v_u: tuple[float, float]
    v_s: tuple[float, float]


def eigen_basis() -> EigenBasis:
    return EigenBasis(lambda_u=PHI, lambda_s=LAMBDA_S, v_u=(1.0, PHI), v_s=(1.0, LAMBDA_S))


def modal_value(data: EigenData, n: int) -> float:
    """a_u * phi^n + a_s * (-1/phi)^n, the closed-form n-th term."""
    return data.a_u * PHI**n + data.a_s * LAMBDA_S**n


def matrix_orbit(x0, x1, n):
    """Iterate A = [[0,1],[1,1]] directly; no recurrence arithmetic."""
    out = [x0]
    v = (x0, x1)
    for _ in range(n):
        out.append(v[1])
        v = (v[1], v[0] + v[1])
    return out[: n + 1]


class TestConstants:
    def test_match_library_square_roots(self):
        assert SQRT5 == math.sqrt(5)
        assert PHI == (1 + math.sqrt(5)) / 2
        assert LAMBDA_S == (1 - math.sqrt(5)) / 2

    def test_trace_and_determinant(self):
        assert PHI + LAMBDA_S == 1.0
        assert abs(PHI * LAMBDA_S + 1.0) < 1e-15


class TestRecurrence:
    def test_fibonacci_numbers(self):
        run = recurrence(1.0, 1.0, 10, Binary64())
        assert run[10] == 89.0
        assert run == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)

    def test_rational_exact(self):
        run = recurrence(Fraction(1), Fraction(1), 30, Rational())
        assert run[30] == 1346269

    def test_zero_start_stays_zero(self):
        run = recurrence(0.0, 0.0, 15, Binary64())
        assert set(run) == {0.0}

    def test_needs_at_least_one_step(self):
        with pytest.raises(DomainError):
            recurrence(1.0, 1.0, 0, Binary64())

    def test_matches_matrix_oracle_exactly(self):
        rng = random.Random(20260814)
        b = Rational()
        for _ in range(100):
            x0 = Fraction(rng.randint(-1000, 1000), rng.randint(1, 99))
            x1 = Fraction(rng.randint(-1000, 1000), rng.randint(1, 99))
            run = recurrence(x0, x1, 25, b)
            assert list(run) == matrix_orbit(x0, x1, 25)


class TestEigenBasis:
    def test_eigenvalues(self):
        data = eigen_basis()
        assert abs(data.lambda_u - 1.6180339887498949) < 1e-15
        assert abs(data.lambda_s + 0.6180339887498949) < 1e-15

    def test_eigenpair_residuals(self):
        data = eigen_basis()
        for lam, (v0, v1) in (
            (data.lambda_u, data.v_u),
            (data.lambda_s, data.v_s),
        ):
            # A (v0, v1) = (v1, v0 + v1)
            assert abs(v1 - lam * v0) < 1e-14
            assert abs((v0 + v1) - lam * v1) < 1e-14


class TestDecompose:
    def test_truncated_start_unstable_coordinate(self):
        data = decompose(1.0, float(NEAR_STABLE_X1))
        assert data.a_u == pytest.approx(4.00e-13, rel=2e-2)
        assert data.a_u == pytest.approx(4.001845055034604e-13, rel=1e-9)

    def test_near_stable_start_has_tiny_unstable_part(self):
        assert abs(decompose(1.0, -1.0 / PHI).a_u) < 1e-15

    def test_upward_start(self):
        data = decompose(0.0, 1.0)
        assert data.a_u == pytest.approx(1 / math.sqrt(5), abs=1e-15)
        run = recurrence(0.0, 1.0, 20, Binary64())
        for n in range(10, 21):
            assert modal_value(data, n) == pytest.approx(run[n], rel=1e-9)

    def test_reconstruction_residuals_on_random_inputs(self):
        rng = random.Random(13)
        for _ in range(100):
            x0 = rng.uniform(-10, 10)
            x1 = rng.uniform(-10, 10)
            d, basis = decompose(x0, x1), eigen_basis()
            r0 = d.a_u * basis.v_u[0] + d.a_s * basis.v_s[0] - x0
            r1 = d.a_u * basis.v_u[1] + d.a_s * basis.v_s[1] - x1
            assert abs(r0) < 1e-12
            assert abs(r1) < 1e-12

    def test_modal_form_tracks_recurrence(self):
        x0, x1 = 0.3, -0.7
        d = decompose(x0, x1)
        run = recurrence(x0, x1, 40, Binary64())
        for n, x in enumerate(run):
            if abs(x) > 1e-12:
                assert modal_value(d, n) == pytest.approx(x, rel=1e-9)

    def test_mode_monotonicity(self):
        d = decompose(1.0, 1.0)
        growth = [abs(d.a_u * PHI**n) for n in range(21)]
        decay = [abs(d.a_s * LAMBDA_S**n) for n in range(21)]
        assert all(a < b for a, b in zip(growth, growth[1:]))
        assert all(a > b for a, b in zip(decay, decay[1:]))

    def test_pure_stable_mode_alternates_toward_inverse_phi(self):
        values = [LAMBDA_S**n for n in range(45)]
        for n in range(44):
            assert values[n] * values[n + 1] < 0
        assert abs(abs(values[41] / values[40]) - 1 / PHI) < 1e-9


class TestCollapseAndEscape:
    @pytest.fixture(scope="class")
    @staticmethod
    def exact_run():
        return recurrence(
            Fraction(1), Fraction(NEAR_STABLE_X1), 100, Rational()
        )

    def test_collapse_bottoms_out_inside_window(self, exact_run):
        mags = [abs(x) for x in exact_run]
        argmin = min(range(len(mags)), key=lambda i: mags[i])
        assert 25 <= argmin <= 40
        assert argmin == 29

    def test_magnitude_at_forty(self, exact_run):
        assert float(abs(exact_run[40])) == pytest.approx(9.1578e-05, rel=1e-4)

    def test_signs_alternate_through_the_collapse(self, exact_run):
        for n in range(28):
            assert exact_run[n] * exact_run[n + 1] < 0

    def test_escape_observed_at_sixty_exact(self, exact_run):
        assert first_crossing(exact_run, 1.0) == 60

    def test_escape_observed_at_sixty_binary64(self):
        run = recurrence(1.0, float(NEAR_STABLE_X1), 100, Binary64())
        assert first_crossing(run, 1.0) == 60

    def test_prediction_matches_observation(self, exact_run):
        predicted = predict_escape_index(1.0, float(NEAR_STABLE_X1), 1.0)
        assert predicted == 60
        assert abs(predicted - first_crossing(exact_run, 1.0)) <= 2


class TestPrediction:
    def test_plain_fibonacci_crossing(self):
        run = recurrence(1.0, 1.0, 15, Binary64())
        observed = first_crossing(run, 100.0)
        predicted = predict_escape_index(1.0, 1.0, 100.0)
        assert observed == 11
        assert predicted == 11
        assert abs(predicted - observed) <= 2

    def test_prediction_accuracy_when_stable_part_negligible(self):
        rng = random.Random(7)
        for _ in range(25):
            a_u = rng.uniform(1e-13, 1e-9) * rng.choice([-1.0, 1.0])
            a_s = rng.uniform(-1.0, 1.0)
            x0 = a_u + a_s
            x1 = a_u * PHI + a_s * LAMBDA_S
            run = recurrence(x0, x1, 120, Binary64())
            observed = first_crossing(run, 1.0)
            predicted = predict_escape_index(x0, x1, 1.0)
            assert observed is not None and predicted is not None
            assert abs(predicted - observed) <= 2

    def test_on_stable_manifold_no_escape(self):
        assert predict_escape_index(0.0, 0.0) is None
        # x1 constructed so the unstable coordinate cancels to exactly zero
        x1 = -(1.0 / PHI)
        assert decompose(1.0, x1).a_u == 0.0
        assert predict_escape_index(1.0, x1) is None

    def test_threshold_already_crossed(self):
        assert predict_escape_index(10.0, 10.0, 1.0) == 0

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            predict_escape_index(1.0, 1.0, 0.0)

    def test_first_crossing_none_when_bounded(self):
        run = recurrence(0.0, 0.0, 10, Binary64())
        assert first_crossing(run, 1.0) is None
