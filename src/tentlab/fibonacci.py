"""Two-term additive recurrence as a hyperbolic linear map.

x_n = x_{n-1} + x_{n-2} is iteration of A = [[0, 1], [1, 1]] on the plane.
A has eigenvalues phi (unstable) and -1/phi (stable), so every start
decomposes into a mode that grows by phi per step and a mode that decays
and alternates sign.  A start whose second coordinate is a good decimal
approximation of -1/phi rides the stable mode down for dozens of steps
while its microscopic unstable coordinate grows silently; the visible
sequence collapses toward zero, then erupts.  The eruption time is set by
the unstable coordinate alone, which makes it predictable in closed form.

phi and sqrt(5) are derived from a 50-digit integer square root, not from
a platform math library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .backends import Backend, DomainError, Scalar, infer_backend

_ROOT_DIGITS = 50
_SQRT5_SCALED = math.isqrt(5 * 10 ** (2 * _ROOT_DIGITS))
_SQRT5_FRACTION = Fraction(_SQRT5_SCALED, 10**_ROOT_DIGITS)

SQRT5 = float(_SQRT5_FRACTION)
PHI = float((1 + _SQRT5_FRACTION) / 2)

# the perturbed start used throughout: 12 decimal digits of -1/phi
NEAR_STABLE_X1 = "-0.618033988749"


@dataclass(frozen=True)
class EigenData:
    """Coordinates of a start point in the eigenbasis of A = [[0,1],[1,1]]:
    a_u along v_u = (1, phi), a_s along v_s = (1, -1/phi)."""

    a_u: float
    a_s: float


def recurrence(
    x0: Scalar, x1: Scalar, n: int, backend: Backend | None = None
) -> tuple[Scalar, ...]:
    """The sequence x_0 .. x_n, each sum the backend's own; equivalently
    n-1 applications of A."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    b = backend if backend is not None else infer_backend(x0)
    b.check(x0)
    b.check(x1)
    seq = [x0, x1]
    with b.context():
        for _ in range(n - 1):
            seq.append(seq[-1] + seq[-2])
    return tuple(seq)


def decompose(x0: Scalar, x1: Scalar) -> EigenData:
    """Split (x0, x1) into unstable and stable eigen-coordinates.

    a_u = (x1 + x0/phi) / sqrt(5), a_s = x0 - a_u, so that
    a_u * v_u + a_s * v_s reconstructs (x0, x1).
    """
    f0, f1 = float(x0), float(x1)
    a_u = (f1 + f0 / PHI) / SQRT5
    return EigenData(a_u=a_u, a_s=f0 - a_u)


def predict_escape_index(
    x0: Scalar, x1: Scalar, threshold: float = 1.0
) -> int | None:
    """Smallest n with |a_u| * phi^n > threshold; None on the stable manifold.

    The stable mode is ignored: by the time the unstable mode reaches any
    macroscopic threshold it dominates utterly.
    """
    if not 0 < threshold < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {threshold}")
    a_u = decompose(x0, x1).a_u
    if a_u == 0.0:
        return None
    if not math.isfinite(a_u):
        raise DomainError(f"the start's unstable coordinate is {a_u}, not finite")
    # a difference of logs: their quotient's log would overflow
    n = math.ceil((math.log(threshold) - math.log(abs(a_u))) / math.log(PHI))
    return max(n, 0)


def first_crossing(seq, threshold: float = 1.0) -> int | None:
    """First index of seq whose value exceeds the threshold in magnitude."""
    for i, x in enumerate(seq):
        if abs(x) > threshold:
            return i
    return None
