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

The census reads the Lyndon words from one integer array, most
significant bit first with L = 0, so ascending order is the
Fredricksen-Kessler-Maiorana (lexicographic) order and the stable sort
breaks ties by it.  It has two kernels.  The rounded one serves binary64
and decimal: it composes (A, B) and walks every orbit as (words x n)
arrays, float64 or Decimal objects, under the backend's context, so each
elementwise operation rounds as the backend's scalar operation does, in
the order the per-word composition and tent_step take them.  The exact
one works on Python integers, with h = p/q: the intercept after t symbols
is beta/q^t, where beta goes to p*beta on L and to p*(q^(t-1) - beta) on
R, and x* = beta/(q^n - s*p^n) with s = (-1)^#R; the orbit walks N/M,
with N going to p*N when 2N <= M and to p*(M - N) otherwise, and M to
q*M, and closes when N_n = N_0*q^n.  Every factor of A is +-h, so A is
also the cycle's multiplier: the slope product along the orbit, the same
in any order and from any rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator

import numpy as np

from .backends import Backend, Branch, DomainError, Scalar
from .tentmap import MapParams, tent_step, tent_step_array

MAX_ENUM_PERIOD = 20

_B64_CLOSING_TOL = 1e-12
_LR = str.maketrans("01", "LR")

# a word that closes: (itinerary, index of its smallest point, its orbit
# from x*, the multiplier)
Closing = tuple[str, int, list, Scalar]

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
    h = params.h
    with params.backend.context():
        return h / (h + 1)


def two_cycle(params: MapParams) -> tuple[Scalar, Scalar]:
    """The 2-cycle (h/(1+h^2), h^2/(1+h^2)); tent_step swaps the pair."""
    h = params.h
    with params.backend.context():
        h2 = h * h
        d = 1 + h2
        return h / d, h2 / d


def _closes(x, y, b: Backend):
    """|x - y| within the closing tolerance, elementwise on arrays: x == y
    on rational, 1e-12 on binary64, 10^(5-p) on decimal.

    The decimal tolerance stays in Decimal: as a float, 10^(5-p) underflows
    to 0.0 from p = 329 on.
    """
    if b.kind == "decimal":
        tol = Decimal(1).scaleb(5 - b.precision_digits)
    else:
        tol = _B64_CLOSING_TOL if b.kind == "binary64" else 0
    with b.context():
        return abs(x - y) <= tol


def _lyndon_word_array(n: int) -> np.ndarray:
    """The binary Lyndon words of length n as int64, ascending.

    A word reads most significant bit first with L = 0, so ascending order
    is the lexicographic (FKM) order.  For n >= 2 a Lyndon word starts
    with L and ends with R, so the candidates are the odd integers below
    2^(n-1); a candidate is a Lyndon word when it lies strictly below each
    of its n - 1 proper rotations.
    """
    if n == 1:
        return np.arange(2, dtype=np.int64)
    words = np.arange(1, 1 << (n - 1), 2, dtype=np.int64)
    mask = (1 << n) - 1
    for r in range(1, n):
        words = words[words < (((words << r) | (words >> (n - r))) & mask)]
    return words


def _symbols(words: np.ndarray, n: int) -> np.ndarray:
    """(words x n) booleans, True where the word reads R."""
    return ((words[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


def _word_texts(words: np.ndarray, n: int) -> list[str]:
    return [format(w, f"0{n}b").translate(_LR) for w in words.tolist()]


def _closing_rounded(n: int, params: MapParams) -> Iterator[Closing]:
    """The binary64 and decimal census as arrays over every Lyndon word at
    once, float64 or Decimal objects, under the backend's context.

    Each elementwise operation rounds as the scalar operation at the same
    place (the per-word composition of (A, B), clamp_unit, tent_step,
    _closes), so every value is bit-identical to the per-word walk.  No
    walk point needs clamping: a tent step maps [0, 1] into itself under
    either rounding (see _sweep_chunk_rounded).
    """
    b, h = params.backend, params.h
    one, half = b.from_int(1), b.parse("0.5")
    words = _lyndon_word_array(n)
    symbols = _symbols(words, n)
    with b.context():
        A = np.full(len(words), one)
        B = np.full(len(words), b.from_int(0))
        for s in symbols.T:  # (-h)*A is -(h*A) and -h*B + h is h - h*B
            A = h * A
            np.negative(A, out=A, where=s)
            B = h * B
            np.subtract(h, B, out=B, where=s)
        x_star = B / (one - A)
        # clamp_unit rejects x* outside [0, 1] on decimal, which has no
        # slack; on binary64 it would snap a value one ulp outside to 0 or
        # 1, but neither orbit (all L; R then all L) realizes a word of
        # length n >= 2, which starts with L and ends with R, so those
        # words go with the rest; at n = 1, x* is -0 or h/(h+1)
        keep = np.flatnonzero((x_star >= 0) & (x_star <= 1))
        words, symbols, A, x_star = words[keep], symbols[keep], A[keep], x_star[keep]

        orbits = np.empty((len(words), n), dtype=x_star.dtype)
        realized = np.ones(len(words), dtype=bool)
        x = x_star
        for t in range(n):
            left = x <= half
            realized &= left != symbols[:, t]
            orbits[:, t] = x
            x = tent_step_array(x, h, half)
    closed = np.flatnonzero(realized & _closes(x, x_star, b))
    orbits = orbits[closed]
    return zip(_word_texts(words[closed], n), orbits.argmin(axis=1).tolist(),
               orbits.tolist(), A[closed].tolist())


def _closing_rational(n: int, params: MapParams) -> Iterator[Closing]:
    """The exact census on Python integers, by the recurrences of the
    module docstring; equal to the per-word walk's.

    h > 1 makes p^n > q^n, which fixes the sign of x*'s denominator.  The
    tie 2N = M at 1/2 goes LEFT.  Only the stored points become Fractions.
    """
    p, q = params.h.numerator, params.h.denominator
    words = _lyndon_word_array(n)
    betas = [0] * len(words)
    q_t = 1  # q^(t-1)
    for column in _symbols(words, n).T.tolist():
        betas = [p * (q_t - beta) if s else p * beta for beta, s in zip(betas, column)]
        q_t *= q
    pn, qn = p**n, q**n
    scales = [q ** (n - t) for t in range(n)]  # point t over the common M_0*q^n
    for text, beta in zip(_word_texts(words, n), betas):
        odd = text.count("R") & 1
        n0, m0 = (beta, pn + qn) if odd else (-beta, pn - qn)
        if not 0 <= n0 <= m0:  # clamp_unit has no slack on rational
            continue
        orbit = []
        x, m = n0, m0
        for symbol in text:
            right = 2 * x > m
            if right != (symbol == "R"):
                break
            orbit.append((x, m))
            x = p * (m - x) if right else p * x
            m *= q
        else:
            if x == n0 * qn:
                shift = min(range(n), key=lambda t: orbit[t][0] * scales[t])
                yield (text, shift, [Fraction(num, den) for num, den in orbit],
                       Fraction(-pn if odd else pn, qn))


def enumerate_cycles(params: MapParams, n: int) -> list[Cycle]:
    """Every cycle of minimal period n, canonically rotated and sorted.

    n = 1 reports both fixed points, the origin and h/(h+1).
    """
    if not 1 <= n <= MAX_ENUM_PERIOD:
        raise DomainError(f"period must lie in [1, {MAX_ENUM_PERIOD}], got {n}")
    closing = _closing_rational if params.backend.kind == "rational" else _closing_rounded
    found = [
        Cycle(period=n, points=tuple(pts[m:] + pts[:m]),
              itinerary=word[m:] + word[:m], multiplier=A)
        for word, m, pts, A in closing(n, params)
    ]
    found.sort(key=lambda c: float(c.points[0]))  # stable: ties keep FKM order
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
        with b.context():  # -(m*h) is m*(-h) rounded, as in itinerary
            m = m * params.h if branch is Branch.LEFT else -(m * params.h)
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
