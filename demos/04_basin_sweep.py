"""Sweep the unit interval and classify where stabilized runs settle.

On a uniform net of 100001 starts, fifty averaged steps send almost every
point to one of the two cycle values; only 0.4 and 0.6 still read as the
repelling fixed point.  They map onto it, in binary64 to within an ulp,
which the repelling slope takes until step 90 to grow into a jump (demo
05 times it); only exact arithmetic pins them.  A handful of starts near
basin boundaries are still in transit after fifty steps and resolve only
with more steps or a looser tolerance.  The triadic net i / (5 * 3^5)
adds starts such as 4/15 and 11/15 that also land exactly on the fixed
point.
"""

from tentlab import Binary64, MapParams, NetSpec, build_coefficients, sweep
from tentlab.basins import KINDS, OutcomeKind


def starts(result, kind):
    """The net points whose run ended as `kind`, as plain floats."""
    return result.points[result.codes == KINDS.index(kind)].tolist()


def main() -> None:
    params = MapParams.parse("1.5", Binary64())
    coeffs = build_coefficients(1.2, Binary64())

    result = sweep(NetSpec.uniform(10**5), params, 2, coeffs, 50, 1e-3)
    print("uniform net, 100001 starts, 50 steps, tolerance 1e-3:")
    for kind, count in sorted(result.counts.items(), key=lambda kv: kv[0].value):
        print(f"  {kind.value:>12}: {count}")

    print("  starts on the fixed point:", starts(result, OutcomeKind.FIXED_POINT))

    unresolved = starts(result, OutcomeKind.UNRESOLVED)
    print(f"  still in transit: {len(unresolved)} starts, e.g. {unresolved[2:5]}")

    print()
    tri = sweep(NetSpec.triadic(5), params, 2, coeffs, 50, 1e-3)
    pinned = starts(tri, OutcomeKind.FIXED_POINT)
    print("triadic net, 1216 starts; starts on the fixed point:", pinned)


if __name__ == "__main__":
    main()
