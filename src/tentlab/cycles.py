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
breaks ties by it.  It has two kernels, both array walks over the words.
The rounded one serves binary64 and decimal: it composes (A, B) and walks
every orbit from x* as float64 or Decimal arrays, under the backend's
context, so each elementwise operation rounds as the backend's scalar
operation does, in the order the per-word composition and tent_step take
them.  The exact one works on object arrays of Python integers, with
h = p/q: the intercept after t symbols is beta/q^t, where beta goes to
p*beta on L and to p*(q^(t-1) - beta) on R, and x* = beta/(q^n - s*p^n)
= N_0/M_0, with s = (-1)^#R and M_0 = p^n - s*q^n coprime to p and q.
Each point of a cycle is the fixed point of a rotation of its word, so it
is N_t/M_0 too: the walk steps numerators, N_(t+1) = p*min(N_t, M_0 - N_t)/q
by _arrays.exact_tent_step, which q divides on a cycle and keeps
gcd(N_t, M_0), so one g puts the whole cycle in lowest terms over M_0/g.
Every factor of A is +-h, so A is also the cycle's multiplier: the slope
product along the orbit, the same in any order and from any rotation.

Neither kernel keeps a point.  A Census holds a few values a cycle: its
itinerary from its smallest point, the start x* (on rational its
numerator over the cycle's one denominator, both in lowest terms), the
step of its smallest point on the walk from x*, and its multiplier.  A
cycle's points are walked again from its start, by the same step, and
rotated, a block of cycles at a time: Cycles for iteration, and their
text, N/D on rational with no gcd and no Fraction.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterator, NamedTuple

from ._arrays import TEXT_BLOCK, exact_tent_step, float64_texts, np, tent_step_array
from .backends import Backend, DomainError, Scalar, _ratio_text
from .tentmap import MapParams

MAX_ENUM_PERIOD = 20
_EXACT_BLOCK = 4096  # Lyndon words a block of the exact census's walk
_EXACT_TEXT_BLOCK = 4096  # values a block of the exact census's points and their text

_B64_CLOSING_TOL = 1e-12

_ONSET_POLYNOMIALS = {
    # descending-degree integer coefficients; unique root in (1, 2)
    3: (1, -1, -1),
    5: (1, -1, -1, 1, -1),
    6: (1, 0, -1, 0, -1),  # in h^2 this is the golden-ratio equation
    7: (1, -1, -1, 1, -1, 1, -1),
}


class Cycle(NamedTuple):
    """A periodic orbit, stored starting from its smallest point."""

    period: int
    points: tuple[Scalar, ...]
    itinerary: str
    multiplier: Scalar


class OnsetRecord(NamedTuple):
    """A period-onset threshold and the polynomial whose root it is."""

    period: int
    polynomial: tuple[int, ...]
    threshold: float


# a census's columns, a value a cycle: (itinerary from the smallest point,
# the smallest point's step from the start, the start, the cycle's
# denominator or None, the multiplier, the sort key)
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None", np.ndarray, np.ndarray]


class Census:
    """Every cycle of minimal period n, sorted, as columns of a value a cycle.

    len gives the cycle count, and iteration the Cycles in order, their
    points walked again from the start a block of cycles at a time; take
    list(census) for a list.  texts gives the artifact text of a block of
    cycles.  A Census is immutable and equals only itself.
    """

    __slots__ = (
        "params", "period",  # MapParams and n
        "words",  # int64, each itinerary from its smallest point
        "shifts",  # int64, the smallest point's step on the walk
        "starts",  # x*, float64 or Decimal; on rational its numerator N_0/g
        "denominators",  # on rational, every point's denominator M_0/g, else None
        "multipliers",  # float64, or Decimal or Fraction objects
    )

    def __init__(self, params: MapParams, period: int, *columns: np.ndarray | None):
        for name, value in zip(self.__slots__, (params, period, *columns), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Census is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Census is immutable")

    def __reduce__(self):
        return Census, tuple(map(self.__getattribute__, self.__slots__))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Cycle]:
        n = self.period
        for start in range(0, len(self), self.block):
            stop = start + self.block
            points = self._points(start, stop)
            if self.denominators is not None:
                points = np.frompyfunc(Fraction, 2, 1)(points, self.denominators[start:stop, None])
            for pts, w, A in zip(points.tolist(), _word_texts(self.words[start:stop], n),
                                 self.multipliers[start:stop].tolist()):
                yield Cycle(period=n, points=tuple(pts), itinerary=w, multiplier=A)

    @property
    def block(self) -> int:
        """Cycles a block, whose points and multipliers fill a block of
        float64_texts, or on rational one of _EXACT_TEXT_BLOCK values."""
        values = TEXT_BLOCK if self.denominators is None else _EXACT_TEXT_BLOCK
        return max(1, values // (self.period + 1))

    def texts(self, start: int, stop: int) -> tuple[list[str], list[str], list[str]]:
        """The artifact text of cycles start..stop: serialize of their
        points, n a cycle, their itineraries and serialize of their
        multipliers.  On rational a point is N/D over its cycle's
        denominator, already in lowest terms, with no Fraction."""
        b, multipliers = self.params.backend, self.multipliers[start:stop]
        itineraries = _word_texts(self.words[start:stop], self.period)
        points = self._points(start, stop)
        if self.denominators is not None:
            rows = list(zip(points.tolist(), self.denominators[start:stop].tolist()))
            try:
                cells = [f"{x}/{d}" for row, d in rows for x in row]
            except ValueError:  # a term past the int-to-text limit
                cells = [_ratio_text(x, d) for row, d in rows for x in row]
            return cells, itineraries, b.texts(multipliers)
        column_texts = float64_texts if b.kind == "binary64" else b.texts
        cells = column_texts(np.concatenate([points.ravel(), multipliers]))
        split = len(cells) - len(multipliers)
        return cells[:split], itineraries, cells[split:]

    def _points(self, start: int, stop: int) -> np.ndarray:
        """The points of cycles start..stop, each from its smallest, a (cycles x n)
        array walked from the start by the kernel's step; on rational their
        numerators over the cycle's denominator, which q divides exactly."""
        n, b, h = self.period, self.params.backend, self.params.h
        x = self.starts[start:stop]
        m = None if self.denominators is None else self.denominators[start:stop]
        orbits = np.empty((len(x), n), dtype=x.dtype)
        orbits[:, 0] = x
        with b.context():  # from the last column: only t and h - t live in a step
            for t in range(1, n):
                if m is None:
                    orbits[:, t] = tent_step_array(orbits[:, t - 1], h)
                else:
                    orbits[:, t] = exact_tent_step(orbits[:, t - 1], m, h) // h.denominator
        turn = (self.shifts[start:stop, None] + np.arange(n)) % n
        return np.take_along_axis(orbits, turn, axis=1)


def _closes(x, y, b: Backend):
    """|x - y| within the rounded census's closing tolerance, elementwise on
    arrays: 1e-12 on binary64, 10^(5-p) on decimal.

    The decimal tolerance stays in Decimal: as a float, 10^(5-p) underflows
    to 0.0 from p = 329 on.
    """
    tol = Decimal(1).scaleb(5 - b.precision_digits) if b.kind == "decimal" else _B64_CLOSING_TOL
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


def _symbol(words: np.ndarray, n: int, t: int) -> np.ndarray:
    """Symbol t of each word, True where it reads R."""
    return ((words >> (n - 1 - t)) & 1).astype(bool)


def _rotated(words: np.ndarray, shifts: np.ndarray, n: int) -> np.ndarray:
    """Each word read from its symbol shifts[i] on."""
    return ((words << shifts) | (words >> (n - shifts))) & ((1 << n) - 1)


def _word_texts(words: np.ndarray, n: int) -> list[str]:
    """Each word's itinerary, L for 0 and R for 1, read off one byte matrix."""
    bits = (words[:, None] >> np.arange(n - 1, -1, -1)) & 1
    letters = (bits * (ord("R") - ord("L")) + ord("L")).astype(np.uint8)
    return letters.view(f"S{n}").ravel().astype(str).tolist()


def _closing_rounded(n: int, params: MapParams) -> Columns:
    """The binary64 and decimal census as arrays over every Lyndon word at
    once, float64 or Decimal objects, under the backend's context.

    Each elementwise operation rounds as the scalar operation at the same
    place (the per-word composition of (A, B), clamp_unit, tent_step,
    _closes), so every value is bit-identical to the per-word walk.  No
    walk point needs clamping: a tent step maps [0, 1] into itself under
    either rounding (see tent_step_array).  Nor does x*: the itinerary test
    is also clamp_unit's, since a walk from below 0 stays there, on L, one
    from above 1 reads R first, and a Lyndon word of length >= 2 is L...R;
    at n = 1, x* is -0 or h/(h+1), both in [0, 1].  The walk keeps each
    word's least point so far and its step, replaced only by a strictly
    smaller one, so the first minimum wins, as argmin's does.
    """
    b, h = params.backend, params.h
    one, half = b.from_int(1), b.parse("0.5")
    words = _lyndon_word_array(n)
    with b.context():
        A = np.full(len(words), one)
        B = np.full(len(words), b.from_int(0))
        for t in range(n):  # (-h)*A is -(h*A) and -h*B + h is h - h*B
            s = _symbol(words, n, t)
            A = h * A
            np.negative(A, out=A, where=s)
            B = h * B
            np.subtract(h, B, out=B, where=s)
        x_star = B / (one - A)
        realized = np.ones(len(words), dtype=bool)
        low, shifts = x_star, np.zeros(len(words), dtype=np.int64)
        x = x_star
        for t in range(n):
            realized &= (x <= half) != _symbol(words, n, t)
            lower = x < low
            low = np.where(lower, x, low)
            shifts[lower] = t
            x = tent_step_array(x, h)
    closed = np.flatnonzero(realized & _closes(x, x_star, b))
    shifts = shifts[closed]
    return (_rotated(words[closed], shifts, n), shifts, x_star[closed], None, A[closed],
            low[closed].astype(float))


def _closing_rational(n: int, params: MapParams) -> Columns:
    """The exact census on Python integers, by the recurrences of the module
    docstring, as object arrays over _EXACT_BLOCK Lyndon words at a time, in
    _closing_rounded's shape: one itinerary test a symbol, and a word leaves the
    walk at the first symbol its point does not follow, or at the first step that
    q does not divide; one that follows all n symbols has closed.  As there, the
    itinerary test is also clamp_unit's test on x*.

    h > 1 makes M_0 positive.  Every point of a word's walk lies over its M_0,
    so the walk compares numerators for the least point; its float, the sort key,
    is N/M_0, which Python's int division rounds correctly, as float() of the
    Fraction does.  Each cycle's start and M_0 come out divided by their gcd, g;
    the few values of M_0/g are held as one int each.
    """
    h = params.h
    p, q = h.numerator, h.denominator
    pn, qn = p**n, q**n
    dens = np.array([pn - qn, pn + qn], dtype=object)  # M_0 by the parity of #R
    multipliers = np.array([Fraction(pn, qn), Fraction(-pn, qn)], dtype=object)
    every, blocks, shared = _lyndon_word_array(n), [], {}
    for first in range(0, len(every), _EXACT_BLOCK):
        words = every[first:first + _EXACT_BLOCK]
        betas, odd, q_t = np.zeros(len(words), dtype=object), np.zeros(len(words), np.intp), 1
        for t in range(n):  # q_t is q^(t-1)
            s = _symbol(words, n, t)
            betas, odd, q_t = p * np.where(s, q_t - betas, betas), odd ^ s, q_t * q
        x = n0 = low = np.where(odd, betas, -betas)
        m, shifts, r = dens[odd], np.zeros(len(words), dtype=np.int64), 0
        for t in range(n):  # r: the remainder of the step to x, 0 at x*
            follows = ((2 * x > m) == _symbol(words, n, t)) & (r == 0)
            if not follows.all():
                words, odd, n0, x, m, low, shifts = (
                    c[follows] for c in (words, odd, n0, x, m, low, shifts))
            lower = x < low
            low = np.where(lower, x, low)
            shifts[lower] = t
            if t < n - 1:
                y = exact_tent_step(x, m, h)
                x, r = y // q, y % q
        g = np.gcd(n0, m)
        blocks.append([words, odd, shifts, n0 // g,
                       np.array([shared.setdefault(d, d) for d in (m // g).tolist()], dtype=object),
                       (low / m).astype(float)])
    words, odd, shifts, starts, denominators, keys = map(np.concatenate, zip(*blocks))
    return _rotated(words, shifts, n), shifts, starts, denominators, multipliers[odd], keys


def enumerate_cycles(params: MapParams, n: int) -> Census:
    """Every cycle of minimal period n, canonically rotated and sorted.

    n = 1 reports both fixed points, the origin and h/(h+1).
    """
    if not 1 <= n <= MAX_ENUM_PERIOD:
        raise DomainError(f"period must lie in [1, {MAX_ENUM_PERIOD}], got {n}")
    closing = _closing_rational if params.backend.kind == "rational" else _closing_rounded
    *columns, keys = closing(n, params)
    order = np.argsort(keys, kind="stable")  # ties keep FKM order
    return Census(params, n, *(c if c is None else c[order] for c in columns))


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
