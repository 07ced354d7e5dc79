"""The delayed escape: rounding feeds a repeller for ninety steps.

In exact arithmetic the stabilized run from 2/5 hits the repelling fixed
point 3/5 in one squared-map step and stays forever: the average of six
identical values is that value.  In binary64 the same start lands one ulp
below 3/5.  The repelling slope +9/4 amplifies that ulp each round, yet
the orbit looks perfectly flat for dozens of steps before veering off and
settling on the attracting cycle.  detect_escape finds the flat stretch
and the exit point.
"""

from fractions import Fraction

from tentlab import (
    Binary64,
    MapParams,
    Rational,
    build_coefficients,
    detect_escape,
    stabilized_orbit,
)


def main() -> None:
    b64 = MapParams.parse("1.5", Binary64())
    series = stabilized_orbit(0.4, b64, 2, build_coefficients(1.2), 300)
    event = detect_escape(series)
    print("binary64 run from 0.4:")
    print(f"  x*_1 = {series[1]!r}")
    print(f"  x*_50 = {series[50]!r}  (still prints as {series[50]:.4f})")
    print(
        f"  flat from step {event.flat_start} near {event.flat_value!r}, "
        f"leaves at step {event.escape_index}"
    )
    print(f"  terminal value {event.terminal_value!r} (cycle point 6/13)")

    rat = MapParams.parse("3/2", Rational())
    exact = stabilized_orbit(
        Fraction(2, 5), rat, 2, build_coefficients(Fraction(6, 5)), 300
    )
    constant = all(x == Fraction(3, 5) for x in exact[1:])
    print()
    print("exact run from 2/5:")
    print(f"  constant at 3/5 from step 1 onward: {constant}")
    print(f"  escape event: {detect_escape(exact)}")


if __name__ == "__main__":
    main()
