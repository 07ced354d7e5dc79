"""The tent map, its iterates, orbits, and branch itineraries.

T_h(x) = h*x on the closed left branch x in [0, 1/2] and h*(1 - x) on the
open right branch x in (1/2, 1], with h in (1, 2].  The tie at x = 1/2
always counts as the left branch.  The right branch is evaluated as
h - h*x, by the value type's own operators under the backend's context,
so runs are reproducible operation for operation.  An orbit is the tuple
of its values, each of the backend's own type.  tent_step(x, params, k)
is the one scalar step function, T_h^k, and _tent_power its one step
loop: orbit, and through it tent_step and itinerary, run on it, clamping
only their start.  _slopes is the one slope product, +-h^n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backends import Backend, DomainError, Scalar


class _MapParams(NamedTuple):
    h: Scalar
    backend: Backend


class MapParams(_MapParams):
    """Slope h in (1, 2] together with the backend that owns it."""

    __slots__ = ()

    def __new__(cls, h: Scalar, backend: Backend):
        backend.check(h)
        if not (backend.from_int(1) < h <= backend.from_int(2)):
            raise DomainError(f"slope must lie in (1, 2], got {h!r}")
        with backend.context():
            if +h != h:  # a decimal with more digits than the precision
                raise DomainError(f"slope {h!r} rounds under {backend!r}")
        return super().__new__(cls, h, backend)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @classmethod
    def parse(cls, text: str, backend: Backend) -> "MapParams":
        return cls(backend.parse(text), backend)


def tent_step(x: Scalar, params: MapParams, k: int = 1) -> Scalar:
    """T_h^k(x), k >= 1, for x clamped within rounding slack of [0, 1]:
    each step bit for bit _arrays.tent_step_array's min(t, h - t), which
    for x in [0, 1] is t when x <= 1/2 and h - t, or t equal to it,
    otherwise."""
    return orbit(x, params, k, 1)[1]


def _tent_power(x: Scalar, h: Scalar, half: Scalar, k: int) -> Scalar:
    """T_h's branch arithmetic k times on x in [0, 1], under the
    caller's context and without its clamp: a step takes [0, 1] into
    [0, h/2] (see _arrays.tent_step_array), so no value after x needs one."""
    for _ in range(k):
        t = h * x
        x = t if x <= half else h - t
    return x


def orbit(x0: Scalar, params: MapParams, k: int = 1, steps: int = 0) -> tuple[Scalar, ...]:
    """Trajectory of T_h^k from x0 clamped into [0, 1]: steps+1 points,
    points[t+1] = T_h^k(points[t])."""
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    b, h, half = params.backend, params.h, params.backend._half
    x = b.clamp_unit(x0)
    pts = [x]
    with b.context():
        for _ in range(steps):
            x = _tent_power(x, h, half, k)
            pts.append(x)
    return tuple(pts)


def _slopes(params: MapParams, n: int) -> tuple[Scalar, Scalar]:
    """(h^n, -h^n), the slope product of n steps by the parity of R in their
    itinerary: h^n rounded as it is multiplied under the backend's context,
    then signed, since a sign never changes how a product rounds."""
    with params.backend.context():  # outside it a Decimal's minus rounds too
        power = math.prod([params.h] * n)
        return power, -power


def itinerary(x0: Scalar, params: MapParams, n: int) -> tuple[str, Scalar]:
    """Branch symbols of the first n steps, symbols[t] the branch (L or R)
    at time t, and their slope product, (+h) per L and (-h) per R."""
    if n < 1:
        raise DomainError(f"itinerary length must be positive, got {n}")
    half = params.backend._half
    symbols = "".join("L" if x <= half else "R" for x in orbit(x0, params, 1, n - 1))
    return symbols, _slopes(params, n)[symbols.count("R") % 2]
