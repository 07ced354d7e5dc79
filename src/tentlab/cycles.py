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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .backends import Backend, Branch, DomainError, Rational, Scalar
from .tentmap import MapParams, tent_step

MAX_ENUM_PERIOD = 20

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200

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


def _lyndon_words(n: int) -> Iterator[str]:
    """Binary Lyndon words of length n over L < R, lexicographic order.

    These are the aperiodic necklace representatives: one per rotation
    class of each primitive word.
    """
    symbols = "LR"
    a = [0] * (n + 1)

    def gen(t: int, p: int) -> Iterator[str]:
        if t > n:
            if p == n:  # aperiodic only
                yield "".join(symbols[a[i]] for i in range(1, n + 1))
        else:
            a[t] = a[t - p]
            yield from gen(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                yield from gen(t + 1, t)

    yield from gen(1, 1)


def _cell_affine(word: str, params: MapParams) -> tuple[Scalar, Scalar]:
    """Compose the branch maps named by word into A*x + B."""
    b = params.backend
    A = b.from_int(1)
    B = b.from_int(0)
    for sym in word:
        if sym == "L":
            A = b.mul(params.h, A)
            B = b.mul(params.h, B)
        else:
            A = b.mul(params.neg_h, A)
            B = b.add(b.mul(params.neg_h, B), params.h)
    return A, B


def _residual_tolerance(backend: Backend) -> float:
    if backend.kind == "binary64":
        return 1e-12
    if backend.kind == "decimal":
        return 10.0 ** (5 - backend.precision_digits)
    return 0.0


def _word_multiplier(word: str, params: MapParams) -> Scalar:
    b = params.backend
    m = b.from_int(1)
    for sym in word:
        m = b.mul(m, params.h if sym == "L" else params.neg_h)
    return m


def enumerate_cycles(params: MapParams, n: int) -> list[Cycle]:
    """Every cycle of minimal period n, canonically rotated and sorted.

    n = 1 reports both fixed points, the origin and h/(h+1).
    """
    if not 1 <= n <= MAX_ENUM_PERIOD:
        raise DomainError(
            f"period must lie in [1, {MAX_ENUM_PERIOD}], got {n}"
        )
    b = params.backend
    tol = _residual_tolerance(b)
    exact = tol == 0.0
    found: list[Cycle] = []

    for word in _lyndon_words(n):
        A, B = _cell_affine(word, params)
        denom = b.sub(b.from_int(1), A)
        if denom == 0:
            continue
        x_star = b.div(B, denom)
        try:
            x_star = b.clamp_unit(x_star)
        except DomainError:
            continue

        # walk the orbit; every point must realize its branch symbol
        pts = []
        x = x_star
        ok = True
        for sym in word:
            try:
                branch = b.cmp_half(x)
            except DomainError:
                ok = False
                break
            if branch.value != sym:
                ok = False
                break
            pts.append(x)
            x = tent_step(x, params)
        if not ok:
            continue
        if exact:
            if x != x_star:
                continue
        elif abs(b.to_float(b.sub(x, x_star))) > tol:
            continue

        # canonical rotation: smallest point first
        m = min(range(n), key=lambda i: pts[i])
        pts = pts[m:] + pts[:m]
        rot_word = word[m:] + word[:m]
        found.append(
            Cycle(
                period=n,
                points=tuple(pts),
                itinerary=rot_word,
                multiplier=_word_multiplier(word, params),
            )
        )

    found.sort(key=lambda c: b.to_float(c.points[0]))
    return found


def cycle_multiplier(c: Cycle, params: MapParams) -> Scalar:
    """Recompute the slope product along a cycle, verifying consistency."""
    b = params.backend
    tol = _residual_tolerance(b)
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
        stepped = tent_step(x, params)
        nxt = c.points[(i + 1) % n]
        mismatch = (
            stepped != nxt
            if tol == 0.0
            else abs(b.to_float(b.sub(stepped, nxt))) > tol
        )
        if mismatch:
            raise DomainError(f"points {i} -> {(i + 1) % n} are not one step apart")
        m = b.mul(m, params.h if branch is Branch.LEFT else params.neg_h)
    return m


def _poly_eval(coeffs: tuple[int, ...], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def onset_threshold(period: int) -> OnsetRecord:
    """Slope at which minimal-period-`period` cycles first appear.

    Found by bisection of the stored polynomial on [1, 2]; supported
    periods are 3, 5, 6, and 7.
    """
    if period not in _ONSET_POLYNOMIALS:
        raise DomainError(
            f"no onset polynomial stored for period {period}; "
            f"supported: {sorted(_ONSET_POLYNOMIALS)}"
        )
    coeffs = _ONSET_POLYNOMIALS[period]
    lo, hi = 1.0, 2.0
    flo = _poly_eval(coeffs, lo)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = _poly_eval(coeffs, mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL:
            break
    return OnsetRecord(period=period, polynomial=coeffs, threshold=0.5 * (lo + hi))
