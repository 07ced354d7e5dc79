"""The additive recurrence x_{n+1} = x_n + x_{n-1} as a hyperbolic map.

The matrix behind the recurrence has eigenvalues phi and -1/phi: one
expanding direction, one contracting.  A start almost on the contracting
line decays geometrically -- alternating in sign, dipping below 1e-6 --
while its invisible expanding component, here 4e-13, doubles every
couple of steps and erupts right when log-linear extrapolation says it
must.  The escape index is a function of the unstable coordinate alone,
which is why it is exactly predictable.
"""

from fractions import Fraction

from tentlab import (
    Binary64,
    Rational,
    decompose,
    first_crossing,
    predict_escape_index,
    recurrence,
)


def main() -> None:
    x1 = "-0.618033988749"
    data = decompose(1.0, float(x1))
    print(f"start (1, {x1}):")
    print(f"  expanding coordinate a_u = {data.a_u!r}")
    print(f"  contracting coordinate a_s = {data.a_s!r}")

    run = recurrence(Fraction(1), Fraction(x1), 100, Rational())
    mags = [abs(x) for x in run]
    argmin = min(range(len(mags)), key=lambda i: mags[i])
    print(f"  smallest |x_n| at n = {argmin}: {float(mags[argmin]):.3e}")
    print(f"  |x_40| = {float(mags[40]):.3e}  (growth visible again)")

    observed = first_crossing(run, 1.0)
    predicted = predict_escape_index(1.0, float(x1), 1.0)
    print(f"  first |x_n| > 1 observed at n = {observed}, predicted {predicted}")

    print()
    fib = recurrence(1.0, 1.0, 12, Binary64())
    print("start (1, 1):", [int(x) for x in fib])
    print(
        "  first value above 100 at n =",
        first_crossing(fib, 100.0),
        "; predicted",
        predict_escape_index(1.0, 1.0, 100.0),
    )


if __name__ == "__main__":
    main()
