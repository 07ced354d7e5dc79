"""The tent map, its iterates, orbits, and branch itineraries.

T_h(x) = h*x on the closed left branch x in [0, 1/2] and h*(1 - x) on the
open right branch x in (1/2, 1], with h in (1, 2].  The tie at x = 1/2
always counts as the left branch.  The right branch is evaluated as
h - h*x: one multiply then one subtraction, each the value type's own
operator under the backend's context, so precision-limited backends round
exactly twice per step and runs are reproducible operation for operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import Backend, Branch, DomainError, Scalar


@dataclass(frozen=True)
class MapParams:
    """Slope h in (1, 2] together with the backend that owns it."""

    h: Scalar
    backend: Backend

    def __post_init__(self):
        self.backend.check(self.h)
        one = self.backend.from_int(1)
        two = self.backend.from_int(2)
        if not (one < self.h <= two):
            raise DomainError(f"slope must lie in (1, 2], got {self.h!r}")
        with self.backend.context():
            if +self.h != self.h:  # a decimal with more digits than the precision
                raise DomainError(f"slope {self.h!r} rounds under {self.backend!r}")

    @classmethod
    def parse(cls, text: str, backend: Backend) -> "MapParams":
        return cls(backend.parse(text), backend)


@dataclass(frozen=True)
class Orbit:
    """A finite trajectory of T_h^k: points[t+1] = T_h^k(points[t])."""

    params: MapParams
    points: tuple[Scalar, ...]

    def to_floats(self) -> list[float]:
        b = self.params.backend
        return [b.to_float(p) for p in self.points]


def tent_step(x: Scalar, params: MapParams) -> Scalar:
    """One application of T_h, by tent_step_array's operations, to x clamped
    within rounding slack of [0, 1].  The step lies in [0, h/2] with no
    clamp of its own, on every backend (see _sweep_chunk_rounded)."""
    b, h = params.backend, params.h
    x = b.clamp_unit(x)
    with b.context():
        t = h * x
        return t if x <= b._half else h - t


def tent_step_array(x: np.ndarray, h: Scalar, half: Scalar) -> np.ndarray:
    """tent_step's arithmetic on a float64 or object array, under the
    caller's context and without its input clamp: t = h*x, then h - t
    where x > half.  One multiply and at most one subtraction per
    element, as tent_step takes them.  A NaN x keeps t, the NaN that h - t
    would give too.  h - t is the textbook (-h)*x + h bit for bit:
    rounding is symmetric, so (-h)*x rounds to -t, and -t + h is h - t."""
    t = h * x
    np.subtract(h, t, out=t, where=x > half)
    return t


def tent_power_step(x: Scalar, params: MapParams, k: int = 1) -> Scalar:
    """k-fold composition of tent_step, k >= 1."""
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    for _ in range(k):
        x = tent_step(x, params)
    return x


def orbit(x0: Scalar, params: MapParams, k: int = 1, steps: int = 0) -> Orbit:
    """Trajectory of T_h^k from x0: steps+1 points, points[0] = x0."""
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    b = params.backend
    x = b.clamp_unit(x0)
    pts = [x]
    for _ in range(steps):
        x = tent_power_step(x, params, k)
        pts.append(x)
    return Orbit(params=params, points=tuple(pts))


def itinerary(x0: Scalar, params: MapParams, n: int) -> tuple[str, Scalar]:
    """Branch symbols of the first n steps and the resulting slope product.

    symbols[t] is the branch (L or R) the orbit occupies at time t; the
    slope product is (+h) per L and (-h) per R, multiplied left to right,
    i.e. (-1)^{#R} * h^n.
    """
    if n < 1:
        raise DomainError(f"itinerary length must be positive, got {n}")
    b = params.backend
    x = b.clamp_unit(x0)
    symbols = []
    slope = b.from_int(1)
    for _ in range(n):
        branch = b.cmp_half(x)
        symbols.append(branch.value)
        with b.context():  # -(slope*h) is slope*(-h) rounded; its minus rounds nothing
            slope = slope * params.h if branch is Branch.LEFT else -(slope * params.h)
        x = tent_step(x, params)
    return "".join(symbols), slope
