"""Seventy digits of precision only reschedule the escape.

With slope exactly sqrt(2), the orbit of 1/2 reaches the fixed point
2 - sqrt(2) in three steps.  Using a slope that agrees with sqrt(2) to 57
digits, in 70-digit decimal arithmetic, parks the orbit within about
7e-58 of that point.  The gap then grows by a factor h per step -- fifty
doublings per hundred steps -- so the stay is long but strictly finite:
deviation crosses 1e-40 near step 120 and becomes visible to the eye at
step 373.  Higher working precision cannot extend the stay; only more
matching digits in the slope can.
"""

from tentlab import sqrt2_experiment, sqrt2_reference


def main() -> None:
    run, event = sqrt2_experiment(precision=70, steps=600)
    ref = sqrt2_reference(70)
    devs = [abs(float(x - ref)) for x in run]

    print("reference 2 - sqrt(2) =", str(ref)[:40], "...")
    print(f"deviation at step 3:   {devs[3]:.3e}")
    print(f"deviation at step 120: {devs[120]:.3e}")
    print(f"deviation at step 300: {devs[300]:.3e}")
    ratio = devs[203] / devs[103]
    print(f"dev(203) / dev(103) = {ratio:.6e}  (2^50 = {2.0**50:.6e})")
    print()
    print(
        f"flat from step {event.flat_start}, escape at step "
        f"{event.escape_index} of {len(run) - 1}"
    )


if __name__ == "__main__":
    main()
