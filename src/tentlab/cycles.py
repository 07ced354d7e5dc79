"""Periodic orbits of the tent map: closed forms, enumeration, onsets.

On the cell of points sharing an itinerary word w of length n, the n-fold
map is affine, A*x + B, with A and B built one branch at a time (slope h,
intercept 0 on L; slope -h, intercept h on R).  Its unique fixed point
B/(1 - A) is a genuine period-n point exactly when its orbit realizes w.
Enumerating one word per rotation class (Lyndon words) therefore yields
every cycle of minimal period n exactly once.  Because the tie at 1/2
always goes LEFT, the itinerary is a function of the point: a solution
that realizes an aperiodic word visits n distinct points, and two words
of different rotation classes never give the same cycle, so the
enumeration needs no deduplication pass.

The Fredricksen-Kessler-Maiorana recursion walks the tree of Lyndon-word
prefixes depth first; each tree edge composes one branch map onto its
parent's (A, B), so words sharing a prefix share its composition.  Every
factor of A is +-h, so A is also the cycle's multiplier: the slope product
along the orbit, the same in any order and from any rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator

import numpy as np

from .backends import Backend, Branch, DomainError, Scalar
from .tentmap import MapParams, tent_step

MAX_ENUM_PERIOD = 20

_ONSET_POLYNOMIALS = {
    # descending-degree integer coefficients; unique root in (1, 2)
    3: (1, -1, -1),
    5: (1, -1, -1, 1, -1),
    6: (1, 0, -1, 0, -1),  # in h^2 this is the golden-ratio equation
    7: (1, -1, -1, 1, -1, 1, -1),
}


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit, stored starting from its smallest point."""

    period: int
    points: tuple[Scalar, ...]
    itinerary: str
    multiplier: Scalar


@dataclass(frozen=True)
class OnsetRecord:
    """A period-onset threshold and the polynomial whose root it is."""

    period: int
    polynomial: tuple[int, ...]
    threshold: float


def fixed_point(params: MapParams) -> Scalar:
    """The interior fixed point h/(h+1); the origin is also fixed."""
    b = params.backend
    return b.div(params.h, b.add(params.h, b.from_int(1)))


def two_cycle(params: MapParams) -> tuple[Scalar, Scalar]:
    """The 2-cycle (h/(1+h^2), h^2/(1+h^2)); tent_step swaps the pair."""
    b = params.backend
    h2 = b.mul(params.h, params.h)
    d = b.add(b.from_int(1), h2)
    return b.div(params.h, d), b.div(h2, d)


def _lyndon_cells(n: int, params: MapParams) -> Iterator[tuple[str, Scalar, Scalar]]:
    """(word, A, B) per binary Lyndon word of length n over L < R, in
    lexicographic order (one per rotation class of each primitive word),
    with A*x + B the n-fold map on the word's cell."""
    b, h, neg_h = params.backend, params.h, params.neg_h
    a = [0] * (n + 1)

    def gen(t: int, p: int, A: Scalar, B: Scalar):
        if t > n:
            if p == n:  # aperiodic only
                yield "".join("LR"[s] for s in a[1:]), A, B
            return
        first = a[t - p]
        for s in range(first, 2):
            a[t] = s
            if s:  # R: (-h)*x + h
                cell = b.mul(neg_h, A), b.add(b.mul(neg_h, B), h)
            else:  # L: h*x
                cell = b.mul(h, A), b.mul(h, B)
            yield from gen(t + 1, p if s == first else t, *cell)

    yield from gen(1, 1, b.from_int(1), b.from_int(0))


def _closes(x: Scalar, y: Scalar, b: Backend) -> bool:
    """x == y on rational; |x - y| <= 1e-12 on binary64, 10^(5-p) on decimal.

    The decimal test stays in Decimal: as a float, 10^(5-p) underflows to
    0.0 from p = 329 on.
    """
    if b.kind == "rational":
        return x == y
    if b.kind == "decimal":
        return b.sub(x, y).copy_abs() <= Decimal(1).scaleb(5 - b.precision_digits)
    return abs(b.sub(x, y)) <= 1e-12


def enumerate_cycles(params: MapParams, n: int) -> list[Cycle]:
    """Every cycle of minimal period n, canonically rotated and sorted.

    n = 1 reports both fixed points, the origin and h/(h+1).
    """
    if not 1 <= n <= MAX_ENUM_PERIOD:
        raise DomainError(f"period must lie in [1, {MAX_ENUM_PERIOD}], got {n}")
    b = params.backend
    one = b.from_int(1)
    found: list[Cycle] = []

    for word, A, B in _lyndon_cells(n, params):
        try:
            x_star = b.clamp_unit(b.div(B, b.sub(one, A)))
        except DomainError:  # 1 - A = 0, or the fixed point leaves [0, 1]
            continue

        # walk the orbit (tent_step clamps it); each point must realize its symbol
        pts = []
        x = x_star
        for sym in word:
            if b.cmp_half(x).value != sym:
                break
            pts.append(x)
            x = tent_step(x, params)
        if len(pts) < n or not _closes(x, x_star, b):
            continue

        m = min(range(n), key=lambda i: pts[i])  # canonical rotation: smallest first
        found.append(Cycle(period=n, points=tuple(pts[m:] + pts[:m]),
                           itinerary=word[m:] + word[:m], multiplier=A))

    found.sort(key=lambda c: b.to_float(c.points[0]))
    return found


def cycle_multiplier(c: Cycle, params: MapParams) -> Scalar:
    """Recompute the slope product along a cycle, verifying consistency."""
    b = params.backend
    n = c.period
    m = b.from_int(1)
    for i in range(n):
        x = c.points[i]
        branch = b.cmp_half(x)
        if branch.value != c.itinerary[i]:
            raise DomainError(
                f"point {i} realizes branch {branch.value}, "
                f"itinerary says {c.itinerary[i]}"
            )
        if not _closes(tent_step(x, params), c.points[(i + 1) % n], b):
            raise DomainError(f"points {i} -> {(i + 1) % n} are not one step apart")
        m = b.mul(m, params.h if branch is Branch.LEFT else params.neg_h)
    return m


def onset_threshold(period: int) -> OnsetRecord:
    """Slope at which minimal-period-`period` cycles first appear.

    The real root in (1, 2) of the stored polynomial, from numpy's
    companion-matrix eigenvalues; supported periods are 3, 5, 6, and 7.
    """
    if period not in _ONSET_POLYNOMIALS:
        raise DomainError(
            f"no onset polynomial stored for period {period}; "
            f"supported: {sorted(_ONSET_POLYNOMIALS)}"
        )
    coeffs = _ONSET_POLYNOMIALS[period]
    (root,) = (r.real for r in np.roots(coeffs) if r.imag == 0 and 1 < r.real < 2)
    return OnsetRecord(period=period, polynomial=coeffs, threshold=float(root))
