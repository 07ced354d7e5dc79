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
breaks ties by it.  enumerate_cycles maps one of two kernels, both array
walks, over blocks of _BLOCK words, then sorts and rotates their cycles
at once.  The rounded one serves binary64 and decimal: it composes (A, B)
and walks each orbit from x* as float64 or Decimal arrays, under the
backend's context, so each elementwise operation rounds as the backend's
scalar operation does, in the order the per-word composition and tent_step
take them.  The exact one works on object arrays of Python integers, with
h = p/q: the intercept after t symbols is beta/q^t, where beta goes to
p*beta on L and to p*(q^(t-1) - beta) on R, and x* = beta/(q^n - s*p^n)
= N_0/M_0, with s = (-1)^#R and M_0 = p^n - s*q^n coprime to p and q.
Each point of a cycle is the fixed point of a rotation of its word, so it
is N_t/M_0 too: the walk steps numerators, N_(t+1) = p*min(N_t, M_0 - N_t)/q
by _arrays.exact_tent_step, which q divides on a cycle and keeps
gcd(N_t, M_0), so one g puts the whole cycle in lowest terms over M_0/g.
Every factor of A is +-h, so A is the cycle's multiplier, from any
rotation h^n or -h^n by the parity of #R (tentmap._slopes); the rounded
kernel keeps that parity, not A.

Neither kernel keeps a point or a multiplier.  A Census holds a cycle's
word, start and shift: its itinerary from its smallest point, x* (on
rational its numerator over the cycle's one denominator, both in lowest
terms), and the step of its smallest point on the walk from x*.  A
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
from .tentmap import MapParams, _slopes

MAX_ENUM_PERIOD = 20
_BLOCK = 4096  # Lyndon words a block of the walk

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
        n, slopes = self.period, _slopes(self.params, self.period)
        for start in range(0, len(self), self.block):
            stop = start + self.block
            points = self._points(start, stop)
            if self.denominators is not None:
                points = np.frompyfunc(Fraction, 2, 1)(points, self.denominators[start:stop, None])
            for pts, w in zip(points.tolist(), _word_texts(self.words[start:stop], n)):
                yield Cycle(n, tuple(pts), w, slopes[w.count("R") % 2])

    @property
    def block(self) -> int:
        """Cycles a block, whose points fill a block of TEXT_BLOCK values."""
        return TEXT_BLOCK // self.period

    def texts(self, start: int, stop: int) -> tuple[list[str], list[str], list[str]]:
        """The artifact text of cycles start..stop: serialize of their
        points, n a cycle, their itineraries and serialize of their
        multipliers.  On rational a point is N/D over its cycle's
        denominator, already in lowest terms, with no Fraction."""
        b = self.params.backend
        itineraries = _word_texts(self.words[start:stop], self.period)
        points = self._points(start, stop)
        if self.denominators is None:
            cells = (float64_texts if b.kind == "binary64" else b.texts)(points.ravel())
        else:
            cells = [_ratio_text(x, d) for row, d in
                     zip(points.tolist(), self.denominators[start:stop].tolist()) for x in row]
        slopes = b.texts(_slopes(self.params, self.period))
        return cells, itineraries, [slopes[w.count("R") % 2] for w in itineraries]

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
    mask, top, step, blocks = (1 << n) - 1, 1 << (n - 1), 16 * _BLOCK, []
    for start in range(1, top, step):  # 8 * _BLOCK odd candidates at a time
        words = np.arange(start, min(start + step, top), 2, dtype=np.int64)
        for r in range(1, n):
            words = words[words < (((words << r) | (words >> (n - r))) & mask)]
        blocks.append(words)
    return np.concatenate(blocks)


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


def _closing_rounded(words: np.ndarray, n: int, params: MapParams) -> tuple:
    """The binary64 and decimal census of a block of Lyndon words, as arrays
    of float64 or Decimal objects, under the backend's context.

    Each elementwise operation rounds as the scalar operation at the same
    place (the per-word composition of B, 1 - A with A from _slopes,
    clamp_unit, tent_step, _closes), so every value is bit-identical to
    the per-word walk.  No walk point needs clamping: a tent step maps
    [0, 1] into itself under either rounding (see tent_step_array).  Nor
    does x*: the itinerary test is also clamp_unit's, since a walk from
    below 0 stays there, on L, one from above 1 reads R first, and a Lyndon
    word of length >= 2 is L...R; at n = 1, x* is -0 or h/(h+1), both in
    [0, 1].  The walk keeps each word's least point so far and its step,
    replaced only by a strictly smaller one, so the first minimum wins, as
    argmin's does.
    """
    b, h = params.backend, params.h
    with b.context():
        B, odd = np.full(len(words), b.from_int(0)), np.zeros(len(words), np.intp)
        for t in range(n):  # -h*B + h is h - h*B
            s = _symbol(words, n, t)
            B = h * B
            np.subtract(h, B, out=B, where=s)
            odd ^= s
        x_star = B / (b.from_int(1) - np.array(_slopes(params, n)))[odd]
        realized = np.ones(len(words), dtype=bool)
        low, shifts = x_star, np.zeros(len(words), dtype=np.int64)
        x = x_star
        for t in range(n):
            realized &= (x <= b._half) != _symbol(words, n, t)
            lower = x < low
            low = np.where(lower, x, low)
            shifts[lower] = t
            x = tent_step_array(x, h)
    closed = np.flatnonzero(realized & _closes(x, x_star, b))
    return words[closed], shifts[closed], x_star[closed], None, low[closed].astype(float)


def _closing_rational(words: np.ndarray, n: int, params: MapParams) -> tuple:
    """The exact census of a block of Lyndon words on Python integers, by the
    recurrences of the module docstring, as object arrays in _closing_rounded's
    shape: one itinerary test a symbol, and a word leaves the walk at the first
    symbol its point does not follow, or at the first step that q does not
    divide; one that follows all n symbols has closed.  As there, the itinerary
    test is also clamp_unit's test on x*.

    h > 1 makes M_0 positive.  Every point of a word's walk lies over its M_0,
    so the walk compares numerators for the least point; its float, the sort key,
    is N/M_0, which Python's int division rounds correctly, as float() of the
    Fraction does.  Each cycle's start and M_0 come out divided by their gcd, g;
    the few values of M_0/g in the block are held as one int each.
    """
    h = params.h
    p, q = h.numerator, h.denominator
    dens = np.array([p**n - q**n, p**n + q**n], dtype=object)  # M_0 by the parity of #R
    betas, odd, q_t = np.zeros(len(words), dtype=object), np.zeros(len(words), np.intp), 1
    for t in range(n):  # q_t is q^(t-1)
        s = _symbol(words, n, t)
        betas, odd, q_t = p * np.where(s, q_t - betas, betas), odd ^ s, q_t * q
    x = n0 = low = np.where(odd, betas, -betas)
    m, shifts, r = dens[odd], np.zeros(len(words), dtype=np.int64), 0
    for t in range(n):  # r: the remainder of the step to x, 0 at x*
        follows = ((2 * x > m) == _symbol(words, n, t)) & (r == 0)
        if not follows.all():
            words, n0, x, m, low, shifts = (c[follows] for c in (words, n0, x, m, low, shifts))
        lower = x < low
        low = np.where(lower, x, low)
        shifts[lower] = t
        if t < n - 1:
            y = exact_tent_step(x, m, h)
            x, r = y // q, y % q
    g, shared = np.gcd(n0, m), {}
    return (words, shifts, n0 // g,
            np.array([shared.setdefault(d, d) for d in (m // g).tolist()], dtype=object),
            (low / m).astype(float))


def enumerate_cycles(params: MapParams, n: int) -> Census:
    """Every cycle of minimal period n, canonically rotated and sorted.

    A kernel maps each block of Lyndon words to its closed words, unrotated,
    and Census's other columns, then the sort keys.  n = 1 reports both
    fixed points, the origin and h/(h+1).
    """
    if not 1 <= n <= MAX_ENUM_PERIOD:
        raise DomainError(f"period must lie in [1, {MAX_ENUM_PERIOD}], got {n}")
    closing = _closing_rational if params.backend.kind == "rational" else _closing_rounded
    every = _lyndon_word_array(n)
    blocks = (closing(every[i:i + _BLOCK], n, params) for i in range(0, len(every), _BLOCK))
    words, shifts, *columns, keys = (None if c[0] is None else np.concatenate(c)
                                     for c in zip(*blocks))
    order = np.argsort(keys, kind="stable")  # ties keep FKM order
    return Census(params, n, *(c if c is None else c[order]
                               for c in (_rotated(words, shifts, n), shifts, *columns)))


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
