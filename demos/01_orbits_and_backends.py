"""Tent-map orbits under three arithmetics.

The map stretches [0,1] by a factor h and folds it at 1/2.  Everything
downstream hinges on how that fold interacts with rounding, so the same
orbit is computed in exact rationals, IEEE doubles, and 40-digit decimals.
The start 0.4 lands on the fixed point 3/5 after two squared-map steps in
exact arithmetic; in binary64 it lands one ulp below, and that single ulp
is the seed of every delayed-escape effect shown in the later demos.
"""

from fractions import Fraction

from tentlab import Binary64, FixedDecimal, MapParams, Rational, itinerary, orbit


def main() -> None:
    for backend in (Rational(), Binary64(), FixedDecimal(40)):
        params = MapParams.parse("1.5", backend)
        run = orbit(backend.parse("0.4"), params, k=2, steps=3)
        cells = ", ".join(backend.serialize(x) for x in run)
        print(f"{backend.kind:>9}: 0.4 -> {cells}")

    rat = MapParams.parse("3/2", Rational())
    print()
    print("exact squared-map orbit of 2/5 reaches", orbit(Fraction(2, 5), rat, 2, 1)[-1])

    b64 = MapParams.parse("1.5", Binary64())
    y = orbit(0.4, b64, 2, 1)[-1]
    print(f"double orbit reaches {y!r} (one ulp below 0.6)")

    symbols, slope = itinerary(Fraction(6, 13), rat, 2)
    print()
    print(f"two-cycle itinerary {symbols}, slope product {slope}")


if __name__ == "__main__":
    main()
