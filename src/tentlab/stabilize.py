"""Six-tap predictive-averaging stabilization of tent-map cycles.

A weight vector a_1..a_6 built from a single parameter sigma > 1 turns the
unstable fixed points of f = T_h^k into attracting ones: from x*_0 = x0
and its five plain iterates x*_1..x*_5, each new value is the convex
combination x*_n = a_1 f(x*_{n-1}) + ... + a_6 f(x*_{n-6}).  _starred
writes that recursion once, for stabilized_orbit on one value of any
backend and for the rounded sweep kernel on a float64 or Decimal array.
Like the sweep kernels, stabilized_orbit proves by _bounded that no
average leaves [0, 1], and then runs its tent steps without a clamp; for
weights that fail the bound, f clamps each value it is given.
The same recursion viewed as a map on 6-dimensional state space (shift
left, append the average) has companion-form Jacobians whose spectra
decide stability cell by cell, so the whole analysis reduces to the root
magnitudes of one degree-6 polynomial per slope value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backends import Backend, DomainError, Scalar, infer_backend
from .tentmap import MapParams, _tent_power

TAPS = 6


class _Coefficients(NamedTuple):
    sigma: Scalar
    a: tuple[Scalar, ...]


class Coefficients(_Coefficients):
    """Averaging weights a_1..a_6 for one sigma, normalized so they sum to 1."""

    __slots__ = ()

    def __new__(cls, sigma: Scalar, a: tuple[Scalar, ...]):
        if len(a) != TAPS:
            raise DomainError(f"expected {TAPS} weights, got {len(a)}")
        return super().__new__(cls, sigma, a)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class EquilibriumReport(NamedTuple):
    """Stability verdict for one fixed point of f = T_h^k."""

    point: Scalar
    slope: Scalar
    spectral_radius: float
    stable: bool


def build_coefficients(sigma: Scalar, backend: Backend | None = None) -> Coefficients:
    """Weights from the one-parameter family; sigma must exceed 1.

    Raw weights:
        r1 = 6 (s^7 - s^5)
        r2 = 5 (3 s^7 - 5 s^5 + 2 s^3)
        r3 = 4 (5 s^7 - 10 s^5 + 6 s^3 - s)
        r4 = 3 (5 s^7 - 10 s^5 + 6 s^3 - s)
        r5 = 2 (3 s^7 - 5 s^5 + 2 s^3)
        r6 =    (s^7 - s^5)
    then a_i = r_i / (r1 + ... + r6).  All are positive for sigma > 1.
    Each operation rounds once, left to right; a sigma whose powers
    overflow binary64 gives non-finite weights and is rejected.
    """
    b = backend if backend is not None else infer_backend(sigma)
    s = b.check(sigma)
    if not s > b.from_int(1):
        raise DomainError(f"sigma must exceed 1, got {s!r}")
    with b.context():
        s2 = s * s
        s3 = s2 * s
        s5 = s3 * s2
        s7 = s5 * s2
        base16 = s7 - s5
        base25 = 3 * s7 - 5 * s5 + 2 * s3
        base34 = 5 * s7 - 10 * s5 + 6 * s3 - s
        raw = (6 * base16, 5 * base25, 4 * base34, 3 * base34, 2 * base25, base16)
        c = 1 / sum(raw[1:], raw[0])
        a = tuple(c * r for r in raw)
    if not all(map(math.isfinite, a)):
        raise DomainError(f"sigma {s!r} gives non-finite weights")
    return Coefficients(sigma=s, a=a)


def _starred(x, f, a: tuple[Scalar, ...], steps: int):
    """Yield x*_0 ... x*_steps from x*_0 = x: five plain iterates of f, then
    x*_n = a_1 f(x*_{n-1}) + ... + a_6 f(x*_{n-6}), summed left to right.

    x is one backend value or an array of them, and only the value type's
    own * and + combine them, so a value and an array round alike: +=
    adds into the fresh product in place on an array, with the same
    ufunc, and falls back to + on a scalar or a type without +=, so no
    value already yielded changes.  The
    caller holds the backend's context around the whole loop: a with
    block in here would leak into the consumer while the generator is
    suspended.  f runs once per step, since the seed iterates are the
    first five f-values, and only the window's f-values are kept.
    """
    fvals = []  # f at the window's values, oldest first
    yield x
    for n in range(1, steps + 1):
        fvals.append(f(x))
        if n < TAPS:
            x = fvals[-1]
        else:
            x = a[0] * fvals[-1]
            for i in range(2, TAPS + 1):
                x += a[i - 1] * fvals[-i]
            del fvals[0]
        yield x


def _bounded(params: MapParams, a: tuple[Scalar, ...]) -> bool:
    """Whether every weight is >= 0 and B <= 1, B the sum _starred forms with
    every f-value m = h*(1/2), exact: the tent step's largest value on [0, 1].
    By monotone rounding every average of values in [0, m] then lies in [0, B]."""
    with params.backend.context():
        m = params.h * params.backend._half
        *_, bound = _starred(m, lambda x: m, a, TAPS)
        return all(w >= 0 for w in a) and bound <= 1


def stabilized_orbit(
    x0: Scalar,
    params: MapParams,
    k: int,
    coeffs: Coefficients,
    steps: int,
) -> tuple[Scalar, ...]:
    """x*_0 ... x*_steps from x0 clamped into [0, 1], as a tuple of backend
    values: x0 and five plain iterates of f = T_h^k seed the run, then each
    value is the weighted average of f over the six before it."""
    if steps < TAPS:
        raise DomainError(f"need at least {TAPS} steps to start averaging, got {steps}")
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    b, h, half = params.backend, params.h, params.backend._half
    a = tuple(map(b.check, coeffs.a))
    if _bounded(params, a):
        def f(x):
            return _tent_power(x, h, half, k)
    else:  # an average may round past [0, 1]: clamp_unit snaps it back or raises
        def f(x):
            return _tent_power(b.clamp_unit(x), h, half, k)
    with b.context():
        return tuple(_starred(b.clamp_unit(x0), f, a, steps))


def companion_spectrum(
    mu: float, coeffs: Coefficients
) -> tuple[tuple[float, ...], float]:
    """Eigenvalue magnitudes of the companion Jacobian for cell slope mu.

    These are the six root magnitudes, descending, of
    lambda^6 - mu (a_1 lambda^5 + a_2 lambda^4 + ... + a_6), together with
    their maximum.
    """
    from ._arrays import np  # only here: a scalar run never loads numpy

    mu = float(mu)
    poly = [1.0] + [-mu * float(v) for v in coeffs.a]  # descending degree 6
    mags = sorted((float(m) for m in np.abs(np.roots(poly))), reverse=True)
    return tuple(mags), mags[0]


def _fixed_points_of_power(params: MapParams, k: int):
    """(point, slope) for every fixed point of T_h^k, origin included."""
    from .cycles import enumerate_cycles  # only here: a sweep runs no census

    out = []
    b = params.backend
    for d in range(1, k + 1):
        if k % d:
            continue
        for cyc in enumerate_cycles(params, d):
            with b.context():
                mu = math.prod([cyc.multiplier] * (k // d))
            for pt in cyc.points:
                out.append((pt, mu))
    out.sort(key=lambda pm: b.to_float(pm[0]))
    return out


def classify_equilibria(
    params: MapParams, k: int, coeffs: Coefficients
) -> list[EquilibriumReport]:
    """Stability report for each interior fixed point of f = T_h^k; the
    origin, a boundary fixed point, is not reported."""
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    b = params.backend
    reports = []
    for point, slope in _fixed_points_of_power(params, k):
        if point == 0:
            continue
        _, radius = companion_spectrum(b.to_float(slope), coeffs)
        reports.append(
            EquilibriumReport(
                point=point,
                slope=slope,
                spectral_radius=radius,
                stable=radius < 1.0,
            )
        )
    return reports
