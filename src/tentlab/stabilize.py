"""Six-tap predictive-averaging stabilization of tent-map cycles.

A weight vector a_1..a_6 built from a single parameter sigma > 1 turns the
unstable fixed points of f = T_h^k into attracting ones: after six plain
iterates, each new value is the convex combination
x*_n = a_1 f(x*_{n-1}) + ... + a_6 f(x*_{n-6}).  The same recursion viewed
as a map on 6-dimensional state space (shift left, append the average) has
companion-form Jacobians whose spectra decide stability cell by cell, so
the whole analysis reduces to the root magnitudes of one degree-6
polynomial per slope value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import Backend, DomainError, Scalar, infer_backend
from .cycles import enumerate_cycles
from .tentmap import MapParams, tent_power_step

TAPS = 6


@dataclass(frozen=True)
class Coefficients:
    """Averaging weights a_1..a_6 for one sigma, normalized so they sum to 1."""

    sigma: Scalar
    a: tuple[Scalar, ...]
    c: Scalar

    def __post_init__(self):
        if len(self.a) != TAPS:
            raise DomainError(f"expected {TAPS} weights, got {len(self.a)}")


@dataclass(frozen=True)
class CompanionState:
    """A point of the 6-dimensional companion dynamics; components in [0,1]."""

    u: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.u) != TAPS:
            raise DomainError(f"state needs {TAPS} components, got {len(self.u)}")
        for v in self.u:
            if not 0 <= v <= 1:
                raise DomainError(f"component {v!r} lies outside [0, 1]")


@dataclass(frozen=True)
class StabRun:
    """A stabilized trajectory: six seed iterates, then averaged values."""

    params: MapParams
    power: int
    coeffs: Coefficients
    x0: Scalar
    starred: tuple[Scalar, ...]

    def __len__(self) -> int:
        return len(self.starred)

    def to_floats(self) -> list[float]:
        b = self.params.backend
        return [b.to_float(x) for x in self.starred]


@dataclass(frozen=True)
class EquilibriumReport:
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
    """
    b = backend if backend is not None else infer_backend(sigma)
    s = b.check(sigma)
    if not s > b.from_int(1):
        raise DomainError(f"sigma must exceed 1, got {s!r}")

    s2 = b.mul(s, s)
    s3 = b.mul(s2, s)
    s5 = b.mul(s3, s2)
    s7 = b.mul(s5, s2)

    def lin(*terms: tuple[int, Scalar]) -> Scalar:
        acc = b.from_int(0)
        for coef, power in terms:
            acc = b.add(acc, b.mul(b.from_int(coef), power))
        return acc

    base16 = lin((1, s7), (-1, s5))  # s^7 - s^5
    base25 = lin((3, s7), (-5, s5), (2, s3))  # 3s^7 - 5s^5 + 2s^3
    base34 = lin((5, s7), (-10, s5), (6, s3), (-1, s))  # 5s^7 - 10s^5 + 6s^3 - s

    raw = (
        b.mul(b.from_int(6), base16),
        b.mul(b.from_int(5), base25),
        b.mul(b.from_int(4), base34),
        b.mul(b.from_int(3), base34),
        b.mul(b.from_int(2), base25),
        base16,
    )
    total = raw[0]
    for r in raw[1:]:
        total = b.add(total, r)
    c = b.div(b.from_int(1), total)
    a = tuple(b.mul(c, r) for r in raw)
    return Coefficients(sigma=s, a=a, c=c)


def _weighted_average(
    history: list[Scalar], coeffs: Coefficients, params: MapParams, k: int,
    fval_cache: dict[int, Scalar] | None = None,
) -> Scalar:
    """a_1 f(history[-1]) + a_2 f(history[-2]) + ... + a_6 f(history[-6]).

    Strictly left-to-right summation so every backend rounds identically
    however the history was produced.
    """
    b = params.backend

    def f_of(offset: int) -> Scalar:
        idx = len(history) - offset
        if fval_cache is not None:
            if idx not in fval_cache:
                fval_cache[idx] = tent_power_step(history[idx], params, k)
            return fval_cache[idx]
        return tent_power_step(history[idx], params, k)

    acc = b.mul(coeffs.a[0], f_of(1))
    for i in range(2, TAPS + 1):
        acc = b.add(acc, b.mul(coeffs.a[i - 1], f_of(i)))
    return acc


def stabilized_orbit(
    x0: Scalar,
    params: MapParams,
    k: int,
    coeffs: Coefficients,
    steps: int,
) -> StabRun:
    """Seed with six plain iterates of f, then recurse the weighted average."""
    if steps < TAPS:
        raise DomainError(f"need at least {TAPS} steps to start averaging, got {steps}")
    b = params.backend
    x = b.clamp_unit(x0)
    starred: list[Scalar] = [x]
    for _ in range(TAPS - 1):
        starred.append(tent_power_step(starred[-1], params, k))
    fvals: dict[int, Scalar] = {}  # f by history index, the window's taps only
    for _ in range(TAPS, steps + 1):
        starred.append(_weighted_average(starred, coeffs, params, k, fvals))
        del fvals[len(starred) - 1 - TAPS]  # the oldest tap leaves the window
    return StabRun(
        params=params, power=k, coeffs=coeffs, x0=starred[0], starred=tuple(starred)
    )


def companion_step(
    state: CompanionState, params: MapParams, k: int, coeffs: Coefficients
) -> CompanionState:
    """Shift left and append the weighted average of f over the window."""
    tail = _weighted_average(list(state.u), coeffs, params, k)
    return CompanionState(u=state.u[1:] + (tail,))


def companion_spectrum(
    mu: float, coeffs: Coefficients
) -> tuple[tuple[float, ...], float]:
    """Eigenvalue magnitudes of the companion Jacobian for cell slope mu.

    These are the six root magnitudes, descending, of
    lambda^6 - mu (a_1 lambda^5 + a_2 lambda^4 + ... + a_6), together with
    their maximum.
    """
    mu = float(mu)
    poly = [1.0] + [-mu * float(v) for v in coeffs.a]  # descending degree 6
    mags = sorted((float(m) for m in np.abs(np.roots(poly))), reverse=True)
    return tuple(mags), mags[0]


def _fixed_points_of_power(params: MapParams, k: int):
    """(point, slope) for every fixed point of T_h^k, origin included."""
    out = []
    for d in range(1, k + 1):
        if k % d:
            continue
        for cyc in enumerate_cycles(params, d):
            b = params.backend
            mu = b.from_int(1)
            for _ in range(k // d):
                mu = b.mul(mu, cyc.multiplier)
            for pt in cyc.points:
                out.append((pt, mu))
    out.sort(key=lambda pm: params.backend.to_float(pm[0]))
    return out


def classify_equilibria(
    params: MapParams,
    k: int,
    coeffs: Coefficients,
    include_boundary: bool = False,
) -> list[EquilibriumReport]:
    """Stability report for each fixed point of f = T_h^k.

    The origin is a boundary fixed point and is reported only when
    include_boundary is set.
    """
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    b = params.backend
    reports = []
    for point, slope in _fixed_points_of_power(params, k):
        if not include_boundary and point == 0:
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
