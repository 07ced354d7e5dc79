"""Six-tap predictive averaging turns unstable cycle points into attractors.

The squared tent map at h = 3/2 has fixed points 6/13, 3/5, and 9/13, all
repelling (slopes -9/4, +9/4, -9/4).  Replacing x_{n+1} = f(x_n) with a
convex average of f over the last six states reshapes the linearization:
the design weights make the two cycle points attracting while leaving the
middle fixed point repelling.  Runs from generic starts therefore settle
onto 6/13 or 9/13; the spectral radii below certify which slopes contract.
"""

from tentlab import (
    Binary64,
    MapParams,
    build_coefficients,
    classify_equilibria,
    stabilized_orbit,
)


def main() -> None:
    coeffs = build_coefficients(1.2, Binary64())
    print("design weights at sigma = 1.2:")
    for i, a in enumerate(coeffs.a, start=1):
        print(f"  a{i} = {a!r}")
    print("  sum =", sum(coeffs.a))

    params = MapParams.parse("1.5", Binary64())
    print()
    for x0 in (0.1, 0.2, 0.3, 0.4):
        run = stabilized_orbit(x0, params, 2, coeffs, 50)
        print(f"start {x0}: x*_50 = {run[-1]:.4f}")

    print()
    for report in classify_equilibria(params, 2, coeffs):
        verdict = "attracting" if report.stable else "repelling"
        print(
            f"point {report.point:.6f}: slope {float(report.slope):+.2f}, "
            f"spectral radius {report.spectral_radius:.10f} -> {verdict}"
        )


if __name__ == "__main__":
    main()
