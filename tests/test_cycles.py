"""Cycle closed forms, enumeration, onset thresholds, and multipliers.

Independent oracles: a dense grid sign-change count for the number of
period-3 solutions, a Mobius-formula count of aperiodic binary necklaces
for the h = 2 census, distinct points within each cycle and distinct
point sets across cycles (enumeration itself keeps no dedupe pass), a
word-at-a-time Lyndon generator and cell composition, the scalar census
loop over them that the array kernels replaced, and exact rational
evaluation of every onset polynomial.
"""

import math
from fractions import Fraction
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab import cycles
from tentlab.backends import Binary64, DomainError, Rational, make_backend
from tentlab.cli import run_command
from tentlab.cycles import (
    Cycle,
    _closes,
    _lyndon_word_array,
    _word_texts,
    enumerate_cycles,
    onset_threshold,
)
from tentlab.basins import fixed_point, two_cycle
from tentlab.tentmap import MapParams, tent_step


def rat_params(h) -> MapParams:
    b = Rational()
    return MapParams(b.parse(h) if isinstance(h, str) else Fraction(h), b)


def b64_params(h: float) -> MapParams:
    return MapParams(h, Binary64())


def mobius(n: int) -> int:
    result, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def aperiodic_necklaces(n: int) -> int:
    """Count of binary cycles of minimal period n, up to rotation."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(n // d) * 2**d
    return total // n


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


def _cell_affine(word: str, params: MapParams):
    """Compose the branch maps named by word into A*x + B, the right branch
    as the textbook (-h)*x + h."""
    b, h = params.backend, params.h
    A = b.from_int(1)
    B = b.from_int(0)
    with b.context():
        for sym in word:
            if sym == "L":
                A = h * A
                B = h * B
            else:
                A = -h * A
                B = -h * B + h
    return A, B


def _word_multiplier(word: str, params: MapParams):
    b, h = params.backend, params.h
    m = b.from_int(1)
    with b.context():
        for sym in word:
            m = m * (h if sym == "L" else -h)
    return m


def _closes_or_equal(x, y, b) -> bool:
    """The rounded census's closing test, and equality on rational."""
    return x == y if b.kind == "rational" else bool(_closes(x, y, b))


def _scalar_census(params: MapParams, n: int) -> list[Cycle]:
    """The census one word at a time through the backend's scalar ops."""
    b = params.backend
    one = b.from_int(1)
    found: list[Cycle] = []

    for word in _lyndon_words(n):
        A, B = _cell_affine(word, params)
        with b.context():  # |A| = h^n > 1, so 1 - A is never 0
            x_star = B / (one + -A)
        try:
            x_star = b.clamp_unit(x_star)
        except DomainError:  # the fixed point leaves [0, 1]
            continue

        # walk the orbit (tent_step clamps it); each point must realize its symbol
        pts = []
        x = x_star
        for sym in word:
            if ("L" if x <= b._half else "R") != sym:  # the tie at 1/2 is L
                break
            pts.append(x)
            x = tent_step(x, params)
        if len(pts) < n or not _closes_or_equal(x, x_star, b):
            continue

        m = min(range(n), key=lambda i: pts[i])  # canonical rotation: smallest first
        found.append(Cycle(period=n, points=tuple(pts[m:] + pts[:m]),
                           itinerary=word[m:] + word[:m], multiplier=A))

    found.sort(key=lambda c: b.to_float(c.points[0]))
    return found


def cycle_multiplier(c: Cycle, params: MapParams):
    """Recompute the slope product along a cycle, verifying consistency."""
    b = params.backend
    n = c.period
    m = b.from_int(1)
    for i in range(n):
        x = c.points[i]
        if not 0 <= x <= 1:
            raise DomainError(f"point {i}, {x!r}, lies outside [0, 1]")
        branch = "L" if x <= b._half else "R"  # the tie at 1/2 is L
        if branch != c.itinerary[i]:
            raise DomainError(
                f"point {i} realizes branch {branch}, "
                f"itinerary says {c.itinerary[i]}"
            )
        if not _closes_or_equal(tent_step(x, params), c.points[(i + 1) % n], b):
            raise DomainError(f"points {i} -> {(i + 1) % n} are not one step apart")
        with b.context():  # -(m*h) is m*(-h) rounded, as in itinerary
            m = m * params.h if branch == "L" else -(m * params.h)
    return m


def _serialized(cycles, params: MapParams) -> list[tuple]:
    """What cycles.csv and cycles.json hold; tells -0.0 from 0.0."""
    b = params.backend
    return [
        ([b.serialize(x) for x in c.points], c.itinerary, b.serialize(c.multiplier))
        for c in cycles
    ]


class TestClosedForms:
    def test_fixed_point_rational(self):
        assert fixed_point(rat_params("3/2")) == Fraction(3, 5)
        assert fixed_point(rat_params(2)) == Fraction(2, 3)

    def test_fixed_point_binary64(self):
        assert fixed_point(b64_params(1.5)) == 0.6

    def test_fixed_point_is_fixed(self):
        for h in (Fraction(6, 5), Fraction(3, 2), Fraction(9, 5), Fraction(2)):
            p = rat_params(h)
            s = fixed_point(p)
            assert tent_step(s, p) == s

    def test_two_cycle_rational(self):
        assert two_cycle(rat_params("3/2")) == (Fraction(6, 13), Fraction(9, 13))
        assert two_cycle(rat_params(2)) == (Fraction(2, 5), Fraction(4, 5))

    def test_two_cycle_binary64(self):
        lo, hi = two_cycle(b64_params(1.5))
        assert lo == 6 / 13
        assert hi == 9 / 13

    def test_two_cycle_swaps(self):
        for h in (Fraction(5, 4), Fraction(3, 2), Fraction(2)):
            p = rat_params(h)
            a, b = two_cycle(p)
            assert tent_step(a, p) == b
            assert tent_step(b, p) == a
            assert tent_step(a, p, 2) == a


class TestEnumeration:
    def test_two_cycle_found_exactly_once(self):
        cycles = enumerate_cycles(rat_params("3/2"), 2)
        assert len(cycles) == 1
        (c,) = cycles
        assert c.points == (Fraction(6, 13), Fraction(9, 13))
        assert c.itinerary == "LR"
        assert c.multiplier == Fraction(-9, 4)

    def test_no_period_three_below_golden_ratio(self):
        assert list(enumerate_cycles(rat_params("3/2"), 3)) == []

    def test_period_one_reports_both_fixed_points(self):
        cycles = enumerate_cycles(rat_params("3/2"), 1)
        assert [c.points[0] for c in cycles] == [Fraction(0), Fraction(3, 5)]
        assert [c.itinerary for c in cycles] == ["L", "R"]
        assert [c.multiplier for c in cycles] == [Fraction(3, 2), Fraction(-3, 2)]

    def test_three_cycles_at_h_17(self):
        p = b64_params(1.7)
        cycles = enumerate_cycles(p, 3)
        assert len(cycles) >= 1
        for c in cycles:
            for x in c.points:
                assert abs(tent_step(x, p, 3) - x) < 1e-12
            assert len(set(c.points)) == 3

    def test_three_cycle_count_matches_grid_oracle(self):
        h = 1.7

        def t3(x):
            for _ in range(3):
                x = h * x if x <= 0.5 else -h * x + h
            return x

        grid = np.linspace(0.0, 1.0, 200001)
        vals = np.array([t3(x) - x for x in grid])
        sign_changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        # interior roots of T^3(x) = x: one is the period-1 point h/(h+1),
        # the rest belong to 3-cycles; x = 0 sits on the boundary
        expected_cycles = (sign_changes - 1) // 3
        assert len(enumerate_cycles(b64_params(h), 3)) == expected_cycles == 2

    def test_census_at_h2_matches_necklace_oracle(self):
        for p, max_n in ((rat_params(2), 12), (b64_params(2.0), 15)):
            for n in range(1, max_n + 1):
                assert len(enumerate_cycles(p, n)) == aperiodic_necklaces(n)

    @pytest.mark.parametrize(
        "kind, h, max_n",
        [
            *[("binary64", h, 12) for h in ("1.3", "1.5", "1.7", "1.85", "1.93", "2")],
            *[("rational", h, 10) for h in ("3/2", "9/5", "2")],
            *[("decimal", h, 9) for h in ("1.7", "2")],
        ],
    )
    def test_cycles_have_distinct_points_and_point_sets(self, kind, h, max_n):
        """Points and point sets differ by more than 1e-9, floats included."""
        params = MapParams.parse(h, make_backend(kind, 30 if kind == "decimal" else None))
        for n in range(1, max_n + 1):
            cycles = enumerate_cycles(params, n)
            if not cycles:
                continue
            keys = np.sort([[float(x) for x in c.points] for c in cycles], axis=1)
            assert np.all(np.diff(keys, axis=1) > 1e-9)
            gaps = np.abs(keys[:, None, :] - keys[None, :, :]).max(axis=2)
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() > 1e-9

    def test_census_first_values(self):
        p = rat_params(2)
        assert [len(enumerate_cycles(p, n)) for n in range(1, 9)] == [
            2, 1, 2, 3, 6, 9, 18, 30,
        ]

    def test_points_step_cyclically(self):
        p = rat_params(2)
        for c in enumerate_cycles(p, 5):
            for i, x in enumerate(c.points):
                assert tent_step(x, p) == c.points[(i + 1) % 5]

    def test_canonical_rotation_and_order(self):
        p = rat_params(2)
        cycles = enumerate_cycles(p, 4)
        firsts = [c.points[0] for c in cycles]
        assert firsts == sorted(firsts)
        for c in cycles:
            assert c.points[0] == min(c.points)

    def test_minimal_period_excludes_divisors(self):
        # period-2 output must not contain fixed points
        for c in enumerate_cycles(rat_params(2), 2):
            assert len(set(c.points)) == 2
            assert Fraction(2, 3) not in c.points
            assert Fraction(0) not in c.points

    @pytest.mark.parametrize("backend", [Binary64(), make_backend("decimal", 30), Rational()],
                             ids=["binary64", "decimal30", "rational"])
    def test_closed_forms_recovered_across_slopes(self, backend):
        # h^2/(1+h^2), rounded on its own, missed the census's high point
        # fl(h*lo) at 79 of these binary64 slopes and 203 at decimal30
        for i in range(1, 307):
            p = MapParams.parse(f"{306 + i}/306", backend)
            (two,) = enumerate_cycles(p, 2)
            assert two_cycle(p) == two.points, p.h
            assert [c.points[0] for c in enumerate_cycles(p, 1)] == [0, fixed_point(p)], p.h

    def test_period_bounds(self):
        with pytest.raises(DomainError):
            enumerate_cycles(rat_params(2), 21)
        with pytest.raises(DomainError):
            enumerate_cycles(rat_params(2), 0)

    @pytest.mark.parametrize("precision", [30, 328, 329, 400])
    def test_decimal_census_at_any_precision_matches_rational(self, precision):
        # 10.0 ** (5 - p) underflows to 0.0 from p = 329 on, which made
        # the decimal closing test exact equality and found no cycle
        params = MapParams.parse("1.9", make_backend("decimal", precision))
        assert len(enumerate_cycles(params, 8)) == len(
            enumerate_cycles(rat_params(Fraction(19, 10)), 8)
        ) == 20

    def test_binary64_residuals_small(self):
        p = b64_params(1.93)
        for n in (1, 2, 3, 5, 7):
            for c in enumerate_cycles(p, n):
                for x in c.points:
                    assert abs(tent_step(x, p, n) - x) < 1e-12


def _point_terms(census) -> Iterator[list[tuple[int, int]]]:
    """Each cycle's point cells as census.texts writes them, read back as
    (N, D) pairs, a list a cycle."""
    n = census.period
    for start in range(0, len(census), census.block):
        cells = census.texts(start, start + census.block)[0]
        for i in range(0, len(cells), n):
            yield [tuple(map(int, cell.split("/"))) for cell in cells[i:i + n]]


class TestKernels:
    @pytest.mark.parametrize(
        "kind, h, max_n",
        [
            *[("binary64", h, 14) for h in ("1.5", "1.7", "1.9", "2")],
            *[("rational", h, 12) for h in ("3/2", "17/10", "19/10", "2")],
            *[(f"decimal:{p}", h, 12) for p in (10, 30, 340) for h in ("1.7", "2")],
        ],
    )
    def test_matches_scalar_census(self, kind, h, max_n):
        """Equal Cycles and equal artifact text, word order and ties included."""
        kind, _, digits = kind.partition(":")
        params = MapParams.parse(h, make_backend(kind, int(digits) if digits else None))
        for n in range(1, max_n + 1):
            found, oracle = enumerate_cycles(params, n), _scalar_census(params, n)
            assert list(found) == oracle
            assert _serialized(found, params) == _serialized(oracle, params)

    def test_binary64_drops_the_same_104_at_h2_n16(self):
        # the fixed 1e-12 closing test drops these on both paths
        params = b64_params(2.0)
        found, oracle = enumerate_cycles(params, 16), _scalar_census(params, 16)
        assert list(found) == oracle
        assert _serialized(found, params) == _serialized(oracle, params)
        assert aperiodic_necklaces(16) - len(found) == 104

    @pytest.mark.parametrize(
        "kind, h, n",
        [("binary64", "2", 12), ("binary64", "1.9", 1), ("rational", "2", 12),
         ("rational", "19/10", 9), ("decimal:30", "2", 12), ("decimal:30", "1.7", 3)],
    )
    def test_census_reads_as_the_oracle(self, kind, h, n):
        """len and iteration give the oracle's Cycles, and texts gives its
        artifact text, a block at a time; 335 cycles at h = 2, n = 12 fill
        three blocks, and two on rational."""
        kind, _, digits = kind.partition(":")
        b = make_backend(kind, int(digits) if digits else None)
        params = MapParams.parse(h, b)
        found, oracle = enumerate_cycles(params, n), _scalar_census(params, n)
        assert len(found) == len(oracle) > 0
        assert list(found) == oracle
        texts = [found.texts(start, start + found.block)
                 for start in range(0, len(found), found.block)]
        assert [(points[i * n:i * n + n], w, m)
                for points, itineraries, multipliers in texts
                for i, (w, m) in enumerate(zip(itineraries, multipliers))
                ] == _serialized(oracle, params)

    def test_word_array_is_the_lyndon_words(self):
        for n in range(1, 21):
            words = _lyndon_word_array(n)
            assert len(words) == aperiodic_necklaces(n)
            if n <= 16:
                texts = [format(w, f"0{n}b").translate(str.maketrans("01", "LR"))
                         for w in words.tolist()]
                assert texts == list(_lyndon_words(n))

    @pytest.mark.parametrize("h", ["2", "19/10"])
    @pytest.mark.parametrize("block, n", [(1, 13), (7, 17), (cycles._EXACT_BLOCK, 17)])
    def test_exact_census_is_block_invariant(self, tmp_path, monkeypatch, h, block, n):
        """The exact kernel's columns and the cycles artifacts equal those of
        one block over every Lyndon word; n = 17's 7710 words fill two
        default blocks, and n = 13's 630 fill 630 blocks of one word.  The
        artifacts' text blocks hold as many cycles as the walk's hold words."""
        params = rat_params(h)
        argv = ["cycles", "--backend", "rational", "--h", h, "--period", str(n)]

        def run(size):
            monkeypatch.setattr(cycles, "_EXACT_BLOCK", size)
            monkeypatch.setattr(cycles, "_EXACT_TEXT_BLOCK", size * (n + 1))
            out = tmp_path / str(size)
            assert run_command([*argv, "--out", str(out)]) == 0
            files = {name: (out / name).read_bytes() for name in ("cycles.csv", "cycles.json")}
            return cycles._closing_rational(n, params), files

        (*columns, keys), files = run(block)
        (*whole, whole_keys), whole_files = run(10**9)
        assert len(_lyndon_word_array(n)) > block
        for got, want in zip(columns, whole):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert keys.tolist() == whole_keys.tolist() and files == whole_files

    @pytest.mark.parametrize(
        "h, n, count",
        [("2", 18, 14532), ("19/10", 16, 1793), ("19/10", 18, 5767), ("3/2", 18, 78)],
    )
    def test_exact_census_counts(self, h, n, count):
        # 14532 is the necklace count; the others are the rational census's
        # own counts, which the rounded backends' censuses fall short of
        assert len(enumerate_cycles(rat_params(h), n)) == count

    @given(st.integers(1, 50).flatmap(lambda q: st.tuples(st.integers(q + 1, 2 * q), st.just(q))),
           st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_a_cycle_lies_over_one_reduced_denominator(self, pq, n):
        """Every point of an exact cycle is written over one denominator, in
        lowest terms, and that denominator divides M_0 = p^n - s*q^n, with
        s = (-1)^#R."""
        h = Fraction(*pq)
        p, q = h.numerator, h.denominator
        census = enumerate_cycles(rat_params(h), n)
        for c, terms in zip(census, _point_terms(census), strict=True):
            (d,) = {d for _, d in terms}
            assert all(math.gcd(x, d) == 1 for x, _ in terms)
            assert (p**n - (-1) ** c.itinerary.count("R") * q**n) % d == 0
            assert [Fraction(x, d) for x, _ in terms] == list(c.points)

    def test_cycles_below_m0_at_h2_n6(self):
        # M_0 is 63 for an even #R and 65 for an odd one; one cycle of each
        # lies over a proper divisor, g = 3 and g = 5
        census = enumerate_cycles(rat_params(2), 6)
        denominators = [{d for _, d in terms} for terms in _point_terms(census)]
        assert denominators == [{65}, {63}, {65}, {21}, {13}, {63}, {65}, {65}, {63}]


class TestLyndonCells:
    @pytest.mark.parametrize(
        "kind, h",
        [
            *[("binary64", h) for h in ("1.5", "1.9", "2")],
            *[("rational", h) for h in ("3/2", "19/10", "2")],
            *[("decimal", h) for h in ("1.7", "2")],
        ],
    )
    def test_matches_word_at_a_time_oracle(self, kind, h):
        """The word array reads as the word-at-a-time generator, in its
        order; each cycle's multiplier is its itinerary's slope product."""
        params = MapParams.parse(h, make_backend(kind, 30 if kind == "decimal" else None))
        for n in range(1, 13):
            assert _word_texts(_lyndon_word_array(n), n) == list(_lyndon_words(n))
            for c in enumerate_cycles(params, n):
                # repr tells apart -0.0 and Decimal exponents, which == does not
                assert repr(c.multiplier) == repr(_word_multiplier(c.itinerary, params))


class TestOnsets:
    def test_period3_is_golden_ratio(self):
        rec = onset_threshold(3)
        assert rec.polynomial == (1, -1, -1)
        assert abs(rec.threshold - (1 + math.sqrt(5)) / 2) < 1e-11

    def test_period5_value(self):
        assert abs(onset_threshold(5).threshold - 1.5128763968640) < 1e-10

    def test_period7_value(self):
        assert abs(onset_threshold(7).threshold - 1.4655712318768) < 1e-10

    def test_period6_is_sqrt_golden_ratio(self):
        rec = onset_threshold(6)
        assert rec.polynomial == (1, 0, -1, 0, -1)
        assert abs(rec.threshold - math.sqrt((1 + math.sqrt(5)) / 2)) < 1e-11
        assert abs(rec.threshold - 1.2720196495141) < 1e-10

    def test_thresholds_are_polynomial_roots(self):
        for period in (3, 5, 6, 7):
            rec = onset_threshold(period)
            value = np.polyval(np.array(rec.polynomial, dtype=float), rec.threshold)
            assert abs(value) < 1e-10

    @pytest.mark.parametrize("period", [3, 5, 6, 7])
    def test_threshold_within_8_ulp_of_exact_root(self, period):
        """The polynomial, evaluated exactly, changes sign across t +- 8 ulp."""
        rec = onset_threshold(period)

        def value(x: float) -> Fraction:
            acc = Fraction(0)
            for c in rec.polynomial:
                acc = acc * Fraction(x) + c
            return acc

        step = 8 * math.ulp(rec.threshold)
        lo, hi = value(rec.threshold - step), value(rec.threshold + step)
        assert lo != 0 and hi != 0 and (lo < 0) != (hi < 0)

    def test_matches_eigenvalue_root_oracle(self):
        for period in (3, 5, 6, 7):
            rec = onset_threshold(period)
            roots = np.roots(np.array(rec.polynomial, dtype=float))
            real_pos = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
            assert abs(rec.threshold - max(real_pos)) < 1e-9

    @pytest.mark.parametrize("period", [3, 5, 6, 7])
    def test_enumeration_flips_across_threshold(self, period):
        t = onset_threshold(period).threshold
        assert list(enumerate_cycles(b64_params(t - 1e-3), period)) == []
        assert len(enumerate_cycles(b64_params(t + 1e-3), period)) >= 1

    def test_unsupported_period(self):
        with pytest.raises(DomainError):
            onset_threshold(4)


class TestMultiplier:
    def test_two_cycle_multiplier(self):
        p = rat_params("3/2")
        (c,) = enumerate_cycles(p, 2)
        assert cycle_multiplier(c, p) == Fraction(-9, 4) == c.multiplier

    def test_fixed_point_multipliers(self):
        p = rat_params("3/2")
        zero, interior = enumerate_cycles(p, 1)
        assert cycle_multiplier(zero, p) == Fraction(3, 2)
        assert cycle_multiplier(interior, p) == Fraction(-3, 2)

    def test_magnitude_certifies_instability(self):
        p = rat_params(2)
        for n in (1, 2, 3, 4, 5):
            for c in enumerate_cycles(p, n):
                assert abs(c.multiplier) == Fraction(2) ** n > 1

    def test_inconsistent_cycle_rejected(self):
        p = rat_params("3/2")
        fake = Cycle(
            period=2,
            points=(Fraction(6, 13), Fraction(7, 13)),
            itinerary="LR",
            multiplier=Fraction(-9, 4),
        )
        with pytest.raises(DomainError):
            cycle_multiplier(fake, p)

    def test_recomputation_matches_stored(self):
        p = b64_params(1.85)
        for n in (1, 2, 3, 4):
            for c in enumerate_cycles(p, n):
                assert cycle_multiplier(c, p) == c.multiplier
