"""tentlab's one import of numpy, and the array code of the modules below it.

numpy's OpenBLAS reads its thread count once, as numpy loads, and starts a
pool that spins between calls; tentlab's largest LAPACK call is np.roots
of degree 6.  So the first import of this module asks for one thread,
unless the caller chose a count, and leaves os.environ as the caller left
it; a caller that imported numpy first keeps its own pool.  Every other
module takes np from here, and only where it runs arrays, so that
simulate, series, escape, sqrt2 and fib without --plot never load numpy.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

from .backends import MismatchError, Scalar

_unasked = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()
if _unasked:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _unasked:
        del os.environ["OPENBLAS_NUM_THREADS"]

CELL_BYTES = 32  # the bytes of a cell that cells writes; the longest repr of a float has 24
TEXT_BLOCK = 2048  # values per block of float64_texts; cells' temporaries take ~220 bytes a value
_M32 = 0xFFFF_FFFF
_E_TOP = 1022  # the biased exponent of [1/2, 1)
_TEN_THOUSAND = np.uint64(10_000)  # a uint64 scalar: bool * 10000 stays uint64
_NEAR = 8  # units of 2**-64 within which a computed fraction is unsure
_NEAR_ONE = 2**64 - _NEAR


def tent_step_array(x: np.ndarray, h: Scalar) -> np.ndarray:
    """tent_step's arithmetic on a float64 or object array, under the
    caller's context and without its input clamp: t = h*x, then
    min(t, h - t), which is h - t where x > 1/2 and t elsewhere, so [0, 1] maps
    into [0, h/2] with no clamp of the output.  Rounding is monotone and
    represents h/2: for x <= 1/2, t <= h/2 <= fl(h - t); for x > 1/2,
    t >= h/2 and h - t <= h/2 is exact (Sterbenz; in decimal both are
    multiples of 10^-p within 1 of each other).  A NaN keeps t,
    np.minimum's first operand; a decimal NaN raises at the compare."""
    t = h * x
    return np.minimum(t, h - t, out=t)


def exact_tent_step(nums: np.ndarray, m, h):
    """The exact tent step of N/m for each N of an object array of ints, at h = p/q:
    the numerators p*min(N, m - N) over q*m, unreduced, tent_step_array's min form,
    p*N where 2N <= m (the tie goes LEFT); m is one int or an array.  The caller
    scales its own denominator.  In place: one new array, not three."""
    t = m - nums
    np.minimum(nums, t, out=t)
    t *= h.numerator
    return t


def float64_texts(values) -> list[str]:
    """Binary64.serialize(v) for every v of a float64 array, as a list:
    cells and a newline a row, NULs deleted, then split."""
    out = []
    for block in np.array_split(np.asarray(values), range(TEXT_BLOCK, len(values), TEXT_BLOCK)):
        table = np.empty((len(block), CELL_BYTES + 1), dtype=np.uint8)
        table[:, CELL_BYTES] = ord("\n")
        cells(block, table[:, :CELL_BYTES])
        out += table.tobytes().translate(None, b"\0").decode("ascii").splitlines()
    return out


def cells(values: np.ndarray, out: np.ndarray) -> int:
    """Write Binary64.serialize(v) for every v of a float64 array into the rows
    of out, uint8 of shape (len(values), CELL_BYTES), rows contiguous:
    ASCII with NUL bytes wherever a column is unused, so that deleting
    the NULs from a matrix of such cells leaves their text.

    A positive value below 1 whose repr has a decimal exponent of -99
    or more gets its digits from _shortest, in integer arithmetic.
    Every other value (0, negatives, NaN, infinities, subnormals,
    values of 1 or more, smaller ones) and the rare value that
    _shortest cannot settle, such as an exact tie between two
    shortest strings, goes through repr.  Returns how many did.

    Each cell is eight 4-byte words: a prefix ("0." and up to three
    zeros, or the first digit and "."), five groups of four digits
    with the leading zeros and the zeros after the last significant
    digit NULed, and "e-XX" or NUL.
    """
    if values.dtype != np.float64:
        raise MismatchError(f"expected binary64 values (float64), got {values.dtype} array")
    if len(out) and out.strides[-1] != 1:
        raise MismatchError(f"expected contiguous rows, got strides {out.strides}")
    y, decpt, fallback = _shortest(values)
    t = _tables()
    decpt[fallback] = 0  # keeps the table rows below in range
    exp = decpt < -3  # repr's own switch: 0.0001 is fixed, 1e-05 is not
    words = out.view(np.uint32)  # written in place, a cell's eight words a row
    # y's 20 digits in groups of four, each with its zeros after the
    # last significant digit NULed when all later groups are zero
    high = y // 10**8  # a // b and a - a // b * b: faster than %
    first = high // 10**8
    groups = [first]
    for part in (high - first * 10**8, y - high * 10**8):
        top = part // 10**4
        groups += [top, part - top * 10**4]
    later_zero = np.ones(len(y), dtype=bool)
    for j in range(4, 0, -1):
        words[:, 2 + j] = t.digits.take(groups[j] + later_zero * _TEN_THOUSAND)
        later_zero &= groups[j] == 0
    # the first group, below 1845, also loses its leading zeros and,
    # in exponent form, its leading digit to the prefix "d." or "d"
    variant = 2 + 2 * exp.view(np.uint8) + later_zero
    words[:, 2] = t.digits.take(first + variant * _TEN_THOUSAND)
    words[:, 7] = t.exponents.take(np.where(exp, 1 - decpt, 0))
    head = t.heads.take(first)  # a nonzero later group turns "d" into "d."
    words.view(np.uint64)[:, 0] = t.prefixes.take(
        np.where(exp, head - (head & ~later_zero), -decpt))
    count = int(np.count_nonzero(fallback))
    if count:
        out[fallback] = np.array(list(map(repr, values[fallback].tolist())),
                                 dtype=f"S{CELL_BYTES}").view(np.uint8).reshape(count, -1)
    return count


class _Tables(NamedTuple):
    e_min: int  # the least biased exponent covered
    e_exact: int  # the least whose multiplier is exact
    scales: np.ndarray  # s, int64, by E - e_min
    multipliers: np.ndarray  # F, four uint64 rows of 32-bit limbs, by E - e_min
    digits: np.ndarray  # uint32 words of 4 ASCII digits: 6 variants of 10**4
    prefixes: np.ndarray  # uint64 words: "0.", ..., "0.000", then "d.", "d"
    exponents: np.ndarray  # uint32 words: NUL, then "e-01" ... "e-99"
    heads: np.ndarray  # uint8 rows of prefixes for the first digit d of g < 10**4


@functools.cache
def _tables() -> _Tables:
    """The tables of _shortest and cells, built on first use with
    integer arithmetic, not at import.

    For each biased exponent E, E_min <= E <= 1022, of the covered values:
    a value x = c * 2**(E - 1075), c its 53-bit significand, scales to
    X = x * 10**s, with s the largest for which every value of exponent E
    has X < 2**64: 10**s <= 2**(1086 - E).  Then X * 2**118 = 4c * F with
    F = 5**s * 2**t, t = E + s - 959, below 2**127, an integer for
    E >= E_exact and otherwise floored.  E_min is the exponent of the
    values around 10**-99, those of 2**(E - 1022) > 10**-99; the least of
    them write a three-digit exponent and are left to repr.

    The digit words for g < 10**4 come in six variants: "%04d"; then with
    its zeros after the last nonzero digit NULed; with its leading zeros
    NULed, and both; with its leading zeros and its first nonzero digit
    NULed, and that with the trailing zeros too.  heads[g] is the row of
    prefixes for g's first digit d: "d" when g is d times a power of ten,
    else "d.".  The digits are int16, which keeps the build's temporaries
    small.
    """
    e_min = next(e for e in range(1, _E_TOP) if 1 << (1022 - e) < 10**99)
    scales, limbs, e_exact = [], [], None
    for e in range(e_min, _E_TOP + 1):
        s = len(str(1 << (1086 - e))) - 1  # 2**n is never a power of ten
        t = e + s - 959
        f = 5**s << t if t >= 0 else 5**s >> -t
        assert f < 1 << 127
        assert t < 117  # so that no end of a rounding interval scales to an integer
        if t >= 0 and e_exact is None:
            e_exact = e
        assert (t >= 0) == (e_exact is not None)  # exact from E_exact up
        scales.append(s)
        limbs.append([f >> (32 * j) & _M32 for j in range(4)])

    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array(
        [1000, 100, 10, 1], dtype=np.int16) % 10
    nonzero = digits != 0
    seen = np.logical_or.accumulate(nonzero, axis=1)
    trailing = ~np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    first = seen & ~np.hstack([np.zeros((10_000, 1), bool), seen[:, :-1]])
    heads = 2 + 2 * (digits * first).sum(axis=1, dtype=np.uint8) + ~(nonzero & ~first).any(axis=1)
    chars = (digits + ord("0")).astype(np.uint8)
    kept = [True, ~trailing, seen, seen & ~trailing, seen & ~first, seen & ~first & ~trailing]
    words = np.empty((len(kept), 10_000, 4), dtype=np.uint8)
    for variant, keep in zip(words, kept):
        np.multiply(chars, keep, out=variant)

    prefixes = [b"0.", b"0.0", b"0.00", b"0.000"] + [b"%d%s" % (d, dot)
                                                      for d in range(1, 10) for dot in (b".", b"")]
    return _Tables(
        e_min, e_exact, np.array(scales, dtype=np.int64),
        np.array(limbs, dtype=np.uint64).T.copy(), words.view(np.uint32).ravel(),
        np.array(prefixes, dtype="S8").view(np.uint64),
        np.array([b""] + [b"e-%02d" % n for n in range(1, 100)], dtype="S4").view(np.uint32),
        heads,
    )


def _times(a: np.ndarray, f: np.ndarray) -> list[np.ndarray]:
    """a * F as six 32-bit limbs, low first, for a < 2**55 and F's four
    limbs: each partial product fits in 64 bits, and so does each sum."""
    a0, a1 = a & _M32, a >> 32
    limbs, carry = [], 0
    for fj in f:
        v = a0 * fj + carry
        limbs.append(v & _M32)
        carry = v >> 32
    limbs.append(carry)
    carry = 0
    for j, fj in enumerate(f, 1):
        v = limbs[j] + a1 * fj + carry
        limbs[j] = v & _M32
        carry = v >> 32
    limbs.append(carry)
    return limbs


def _split(l5, l4, l3, l2, l1):
    """P / 2**118 for the limbs l1 to l5 of P: its integer part and the
    first 64 bits of its fraction."""
    return (l5 << 42 | l4 << 10 | l3 >> 22,
            (l3 & (1 << 22) - 1) << 42 | l2 << 10 | l1 >> 22)


def _shortest(values: np.ndarray):
    """repr's digits of each value of a float64 array, found exactly.

    repr gives the shortest decimal that reads back as x and, of those,
    the one nearest x.  A decimal reads back as x when it lies in x's
    rounding interval, from the midpoint with the next value below to the
    midpoint with the next above; round-half-even reads the ends as x
    when the significand c is even.  Scaled by 10**s as in _tables, x is
    X = 4c * F / 2**118 and the interval [X - delta * W, X + 2 * W],
    W = F / 2**118, with delta = 1 at a power of two, where the next
    value below is twice as close, and 2 otherwise.

    X is one exact product P of _times from E_exact up.  An end, (4c -
    delta) or (4c + 2) times 5**s * 2**(t - 118), has a 2-adic valuation
    of at most t - 117 < 0, so it is never an integer, and whether it
    belongs to the interval never matters.  The ends' integer parts come
    from sums of 64-bit fractions, each truncated; an end is then off by
    less than 8 units of 2**-64, and one whose computed fraction lies
    that close to an integer goes to repr.  Below E_exact, F is floored,
    so P falls short by less than 2**55, 2**-63 once scaled: no scaled
    point is an integer there, and the same bound of 8 units holds, so X
    goes to repr only if its fraction is that close to 1.

    Let [L, U] be the integers in the interval, d = U - L + 1 of them.
    W = 10**s * 2**(E - 1077), and 10**s <= 2**(1086 - E) < 10**(s + 1)
    puts it between 51.2 and 512, so the interval's width (2 + delta) * W
    lies between 153.6 and 2048, and so does d, to within 1.  With k0 = 2 or 3 and
    10**k0 <= d < 10**(k0 + 1), the interval holds a multiple of 10**k0,
    and at most one of 10**(k0 + 1), which is then the answer: shortest
    means most trailing zeros.  Else the answer is the multiple
    of 10**k0 nearest X, moved one step inside if it falls out; an exact
    tie goes to repr.

    Returns the answer as an integer y (uint64, with 18 to 20 digits),
    decpt (the value is 0.d1d2... * 10**decpt with d1d2... y's digits,
    int64) and the mask of values left to repr.
    """
    t = _tables()
    bits = values.view(np.uint64)
    exponent = bits >> 52  # the sign bit makes a negative's 2048 or more
    covered = (exponent >= t.e_min) & (exponent <= _E_TOP)
    index = (exponent - t.e_min) * covered
    mantissa = bits & (1 << 52) - 1
    not_power = mantissa != 0
    f = t.multipliers.take(index, axis=1)
    limbs = _times((mantissa | 1 << 52) << 2, f)
    x, x_frac = _split(*limbs[:0:-1])
    w, w_frac = _split(0, 0, *f[:0:-1])
    up1 = x_frac + w_frac
    up2 = up1 + w_frac
    high = x + 2 * w + (up1 < x_frac) + (up2 < up1)
    down1 = x_frac - w_frac
    down2 = down1 - w_frac * not_power
    low = x - w - w * not_power - (down1 > x_frac) - (down2 > down1) + 1
    exact = index >= t.e_exact - t.e_min
    x_whole = exact & ((limbs[3] & (1 << 22) - 1 | limbs[2] | limbs[1] | limbs[0]) == 0)
    fallback = (~covered | (up2 >= _NEAR_ONE) | (down2 < _NEAR) | (down2 >= _NEAR_ONE)
                | (~exact & (x_frac >= _NEAR_ONE)))

    wide = high - low >= 999  # k0 = 3, else 2; scalar divisors divide faster
    unit = np.where(wide, np.uint64(1000), np.uint64(100))
    rounder = np.where(wide, high // 10**4 * 10**4, high // 10**3 * 10**3)
    has_rounder = rounder >= low
    q = np.where(wide, x // 1000, x // 100)
    r = x - q * unit
    half = unit >> 1
    y = (q + (r >= half)) * unit
    y = np.where(y < low, y + unit, y)
    y = np.where(y > high, y - unit, y)
    y = np.where(has_rounder, rounder, y)
    fallback |= (r == half) & x_whole & ~has_rounder  # X at a midpoint: a tie

    ndigits = 18 + (y >= 10**18).view(np.int8) + (y >= 10**19)
    decpt = ndigits - t.scales.take(index)
    fallback |= (decpt < -98) | (decpt > 0)
    assert y.dtype == np.uint64  # never promoted to float64 on the way
    return y, decpt, fallback
