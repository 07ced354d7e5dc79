"""End-to-end acceptance gate.

One test per numbered criterion; criteria bundling independent claims are
split into lettered sub-checks so each claim gets its own verdict.  Every
test prints a single pass/fail line.  Sub-checks 5b, 5d, and 8b pin the
dynamics as measured and prove each figure with an independent oracle:
5b continues every start the 50-step sweep leaves unresolved and finds it
either on the origin (starts 0 and 1) or on its way to a cycle point; 5d
replays the start 23/45 in exact rationals, where its own seed window
kicks it off the fixed point, and matches the fixed-point starts against
the exact preimages of 3/5; 8b checks that the sqrt(2) gap stays flat
under DEFAULT_FLAT_TOL through step 300 while growing by a factor h per
step, as the linearization predicts.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tentlab.backends import Binary64, FixedDecimal, Rational
from tentlab.cli import replay_manifest, run_command
from tentlab.cycles import enumerate_cycles, onset_threshold
from tentlab.basins import (
    KINDS,
    NetSpec,
    OutcomeKind,
    build_net,
    classify_outcome,
    fixed_point,
    sweep,
    two_cycle,
)
from tentlab.experiments import (
    DEFAULT_FLAT_TOL,
    SQRT2_SLOPE_DIGITS,
    detect_escape,
    sqrt2_experiment,
    sqrt2_reference,
)
from tentlab.fibonacci import (
    decompose,
    first_crossing,
    predict_escape_index,
    recurrence,
)
from tentlab.stabilize import (
    TAPS,
    build_coefficients,
    companion_spectrum,
    stabilized_orbit,
)
from tentlab.tentmap import MapParams, tent_step
from test_fibonacci import eigen_basis

REFERENCE_WEIGHTS = (
    0.1854829091429525,
    0.2490279798678529,
    0.2485509147723208,
    0.1864131860792406,
    0.09961119194714116,
    0.030913818190492087,
)

_RUNTIMES: dict[str, float] = {}


def _report(number: str, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def _b64_params(h: str = "1.5") -> MapParams:
    return MapParams.parse(h, Binary64())


def _rat_params(h: str = "3/2") -> MapParams:
    return MapParams.parse(h, Rational())


def _starts(result, kind: OutcomeKind) -> dict[float, int]:
    """The sweep's starts that ended as `kind`, each with its net index."""
    indices = np.flatnonzero(result.codes == KINDS.index(kind)).tolist()
    return {result.points[i].item(): i for i in indices}


@pytest.fixture(scope="module")
def uniform_sweep():
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    t0 = time.perf_counter()
    result = sweep(NetSpec.uniform(10**5), params, 2, coeffs, 50, 1e-3)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def triadic_sweep():
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    result = sweep(NetSpec.triadic(5), params, 2, coeffs, 50, 1e-3)
    return result


@pytest.fixture(scope="module")
def sqrt2_run():
    t0 = time.perf_counter()
    run, event = sqrt2_experiment(precision=70, steps=600)
    elapsed = time.perf_counter() - t0
    ref = sqrt2_reference(70)
    devs = [abs(float(x - ref)) for x in run]
    return run, event, devs, elapsed


def test_criterion_01_six_tap_weights():
    failures = []
    coeffs = build_coefficients(1.2)
    for i, (got, want) in enumerate(zip(coeffs.a, REFERENCE_WEIGHTS)):
        if abs(got - want) >= 1e-12:
            failures.append(f"a[{i}] = {got!r}, expected {want!r}")
    if abs(sum(coeffs.a) - 1.0) >= 1e-15:
        failures.append(f"binary64 weight sum {sum(coeffs.a)!r}")
    exact = build_coefficients(Fraction(6, 5))
    if sum(exact.a, Fraction(0)) != 1:
        failures.append(f"rational weight sum {sum(exact.a, Fraction(0))}")
    _report("1", "six-tap weights", failures)


def test_criterion_02_cycle_algebra():
    failures = []
    rat = _rat_params()
    if fixed_point(rat) != Fraction(3, 5):
        failures.append(f"fixed point {fixed_point(rat)}")
    if two_cycle(rat) != (Fraction(6, 13), Fraction(9, 13)):
        failures.append(f"two-cycle {two_cycle(rat)}")
    found2 = enumerate_cycles(rat, 2)
    if len(found2) != 1:
        failures.append(f"{len(found2)} two-cycles at slope 3/2")
    found3 = enumerate_cycles(rat, 3)
    if found3:
        failures.append(f"{len(found3)} three-cycles at slope 3/2")
    b64 = _b64_params("1.7")
    found17 = enumerate_cycles(b64, 3)
    if not found17:
        failures.append("no three-cycle found at slope 1.7")
    for cycle in found17:
        for x in cycle.points:
            residual = abs(tent_step(x, b64, 3) - x)
            if residual >= 1e-12:
                failures.append(f"residual {residual!r} at point {x!r}")
    _report("2", "cycle algebra", failures)


def test_criterion_03_onset_thresholds():
    failures = []
    phi = (1 + math.sqrt(5)) / 2
    expected = {
        3: phi,
        5: 1.51287639,
        7: 1.46557123,
        6: math.sqrt(phi),
    }
    for period, want in expected.items():
        got = onset_threshold(period).threshold
        if abs(got - want) >= 1e-8:
            failures.append(f"period {period}: {got!r} vs {want!r}")
    _report("3", "onset thresholds", failures)


def test_criterion_04_stabilization_basins():
    failures = []
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    lo, hi = 6 / 13, 9 / 13
    targets = {0.1: hi, 0.2: lo, 0.3: hi}
    for x0, target in targets.items():
        final = stabilized_orbit(x0, params, 2, coeffs, 50)[-1]
        if abs(final - target) >= 1e-3:
            failures.append(f"from {x0}: {final!r} not within 1e-3 of {target}")
    final_04 = stabilized_orbit(0.4, params, 2, coeffs, 50)[-1]
    if f"{final_04:.4f}" != "0.6000":
        failures.append(f"from 0.4: {final_04!r} does not print as 0.6000")
    if abs(final_04 - 0.6) >= 1e-8:
        failures.append(f"from 0.4: {final_04!r} not within 1e-8 of 0.6")
    _report("4", "stabilization basins", failures)


def test_criterion_05a_uniform_sweep_pinned_pair(uniform_sweep):
    failures = []
    result, elapsed = uniform_sweep
    fixed = set(_starts(result, OutcomeKind.FIXED_POINT))
    if fixed != {0.4, 0.6}:
        failures.append(f"fixed-point starts {sorted(fixed)}")
    if elapsed >= 60:
        failures.append(f"sweep took {elapsed:.1f}s")
    _report("5a", "uniform sweep pins exactly 0.4 and 0.6", failures)


def test_criterion_05b_uniform_sweep_classifies_all_others(uniform_sweep):
    failures = []
    result, _ = uniform_sweep
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    stray = _starts(result, OutcomeKind.UNRESOLVED)
    # T(0) = T(1) = 0: these starts sit on the origin, a boundary fixed
    # point that is none of the three targets
    for x0 in (0.0, 1.0):
        final = result.finals[stray[x0]]
        if final != 0.0:
            failures.append(f"start {x0!r} ends on {final!r}, not on the origin")
    # every other unresolved start is still in transit after 50 steps: the
    # scalar run agrees, its nearest target is a cycle point, and 100 steps
    # land it there (spectral radius 0.858 at slope -2.25)
    for x0, i in stray.items():
        if x0 in (0.0, 1.0):
            continue
        run = stabilized_orbit(x0, params, 2, coeffs, result.steps)
        final = result.finals[i].item()
        if run[-1] != final:
            failures.append(
                f"start {x0!r}: sweep ends on {final!r}, scalar "
                f"run on {run[-1]!r}"
            )
        # an infinite tolerance names the nearest target, ties as usual
        nearest, _ = classify_outcome(run[-1], params, math.inf)
        if nearest is OutcomeKind.FIXED_POINT:
            failures.append(f"start {x0!r} is nearest the fixed point")
        longer = stabilized_orbit(x0, params, 2, coeffs, 100)
        landed, _ = classify_outcome(longer[-1], params, result.tolerance)
        if landed is not nearest:
            failures.append(
                f"start {x0!r}: nearest {nearest.value} at step "
                f"{result.steps} but {landed.value} at step 100"
            )
    _report(
        "5b",
        f"the {len(stray)} unresolved starts are 0 and 1 on the origin, the "
        "rest in transit to a cycle point",
        failures,
    )


def test_criterion_05c_triadic_sweep_extra_fixed_points(triadic_sweep):
    failures = []
    result = triadic_sweep
    fixed = set(_starts(result, OutcomeKind.FIXED_POINT))
    for want in (4 / 15, 11 / 15):
        if want not in fixed:
            failures.append(f"{want!r} not classified to the fixed point")
    _report("5c", "triadic net adds fixed-point starts 4/15 and 11/15", failures)


def test_criterion_05d_triadic_sweep_includes_23_45(triadic_sweep):
    failures = []
    result = triadic_sweep
    index = result.points.tolist().index(float(Fraction(23, 45)))
    variant = KINDS[result.codes[index]]
    rat = _rat_params()
    coeffs = build_coefficients(Fraction(6, 5))
    exact = stabilized_orbit(Fraction(23, 45), rat, 2, coeffs, result.steps)
    exact_kind, _ = classify_outcome(exact[-1], rat, result.tolerance)
    # the seed window is (23/45, 2/5, 3/5, 3/5, 3/5, 3/5) and f(23/45) = 2/5,
    # so the first average misses the fixed point by a_6/5
    kicked = Fraction(3, 5) - coeffs.a[TAPS - 1] / 5
    if exact[TAPS] != kicked:
        failures.append(f"exact x*_6 = {exact[TAPS]}, not {kicked}")
    if exact_kind is not OutcomeKind.CYCLE_LOW:
        failures.append(f"exact run from 23/45 ends {exact_kind.value}")
    if variant is not exact_kind:
        failures.append(
            f"start 23/45 ends {variant.value} in binary64 but "
            f"{exact_kind.value} in exact arithmetic"
        )
    gap = abs(result.finals[index] - float(exact[-1]))
    if gap >= 1e-12:
        failures.append(f"binary64 final is {gap:.3e} from the exact final")
    # only exact preimages T^-2(3/5) start on the fixed point and stay there
    preimages = {
        x
        for x in build_net(result.net, rat.backend)
        if tent_step(x, rat, 2) == Fraction(3, 5)
    }
    fixed = set(_starts(result, OutcomeKind.FIXED_POINT))
    if fixed != {float(x) for x in preimages}:
        failures.append(
            f"fixed-point starts {sorted(fixed)} differ from the exact "
            f"preimages {sorted(preimages)}"
        )
    _report(
        "5d",
        "triadic start 23/45 leaves the fixed point as in exact arithmetic",
        failures,
    )


def test_criterion_06_spectral_design():
    failures = []
    coeffs = build_coefficients(1.2)
    _, r_stable = companion_spectrum(-2.25, coeffs)
    _, r_unstable = companion_spectrum(2.25, coeffs)
    _, r_unit = companion_spectrum(1.0, coeffs)
    if not r_stable < 1:
        failures.append(f"radius at -2.25 is {r_stable!r}")
    if not r_unstable > 1:
        failures.append(f"radius at +2.25 is {r_unstable!r}")
    if abs(r_unit - 1.0) >= 1e-10:
        failures.append(f"radius at +1 is {r_unit!r}")
    _report("6", "spectral design", failures)


def test_criterion_07_escape_dichotomy():
    failures = []
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    run = stabilized_orbit(0.4, params, 2, coeffs, 300)
    event = detect_escape(run)
    if event is None:
        failures.append("binary64 run from 0.4 produced no escape event")
    else:
        if abs(event.flat_value - 0.6) >= 1e-9:
            failures.append(f"flat value {event.flat_value!r}")
        if not 60 <= event.escape_index <= 300:
            failures.append(f"escape index {event.escape_index}")
        lo, hi = 6 / 13, 9 / 13
        dist = min(abs(event.terminal_value - lo), abs(event.terminal_value - hi))
        if dist >= 1e-3:
            failures.append(f"terminal {event.terminal_value!r} off-cycle")
    exact = stabilized_orbit(
        Fraction(2, 5), _rat_params(), 2, build_coefficients(Fraction(6, 5)), 300
    )
    if detect_escape(exact) is not None:
        failures.append("exact-arithmetic run escaped")
    if any(x != Fraction(3, 5) for x in exact[1:]):
        failures.append("exact-arithmetic run left 3/5")
    _report("7", "escape dichotomy from 0.4", failures)


def test_criterion_08a_sqrt2_orbit_lands_on_target(sqrt2_run):
    failures = []
    _, _, devs, elapsed = sqrt2_run
    if devs[3] >= 1e-55:
        failures.append(f"|x_3 - (2 - sqrt 2)| = {devs[3]!r}")
    if elapsed >= 5:
        failures.append(f"experiment took {elapsed:.1f}s")
    _report("8a", "57-digit slope parks x_3 on 2 - sqrt 2", failures)


def test_criterion_08b_sqrt2_orbit_flat_through_300(sqrt2_run):
    failures = []
    _, _, devs, _ = sqrt2_run
    # the orbit reaches the target at step 3; the staying clause starts there
    worst = max(devs[3 : 300 + 1])
    if worst >= DEFAULT_FLAT_TOL:
        first_bad = next(
            i for i, d in enumerate(devs[3:], start=3) if d >= DEFAULT_FLAT_TOL
        )
        failures.append(
            f"deviation reaches {worst:.3e} by step 300 (first exceeds "
            f"{DEFAULT_FLAT_TOL:g} at step {first_bad})"
        )
    # linearized growth: the fixed point's multiplier is -h, so once the
    # seed gap dominates the rounding noise each step scales it by h
    h = float(SQRT2_SLOPE_DIGITS)
    for n in range(20, 300):
        ratio = devs[n + 1] / devs[n] / h
        if abs(ratio - 1) >= 0.01:
            failures.append(f"dev[{n + 1}]/dev[{n}] = {ratio:.4f} h")
            break
    _report(
        "8b",
        "deviation stays flat through step 300, growing by a factor h per step",
        failures,
    )


def test_criterion_08c_sqrt2_escape_window(sqrt2_run):
    failures = []
    _, event, devs, _ = sqrt2_run
    if event is None:
        failures.append("no escape event detected")
    else:
        if not 300 <= event.escape_index <= 450:
            failures.append(f"escape index {event.escape_index}")
        if devs[event.escape_index] <= 0.01:
            failures.append(f"deviation at escape {devs[event.escape_index]!r}")
    _report("8c", "escape lands between steps 300 and 450", failures)


def test_criterion_09_recurrence_and_prediction():
    failures = []
    if recurrence(1.0, 1.0, 10)[10] != 89.0:
        failures.append(f"x_10 = {recurrence(1.0, 1.0, 10)[10]!r}")
    x1 = -0.618033988749
    run = recurrence(1.0, x1, 100)
    observed = first_crossing(run, 1.0)
    if observed is None or abs(observed - 60) > 2:
        failures.append(f"first |x_n| > 1 at {observed}")
    predicted = predict_escape_index(1.0, x1, 1.0)
    if predicted != 60:
        failures.append(f"predicted escape {predicted}")
    rng = random.Random(2026)
    for _ in range(100):
        x0 = rng.uniform(-10, 10)
        y1 = rng.uniform(-10, 10)
        d, basis = decompose(x0, y1), eigen_basis()
        r0 = d.a_u * basis.v_u[0] + d.a_s * basis.v_s[0] - x0
        r1 = d.a_u * basis.v_u[1] + d.a_s * basis.v_s[1] - y1
        if abs(r0) >= 1e-12 or abs(r1) >= 1e-12:
            failures.append(f"reconstruction residual ({r0!r}, {r1!r})")
            break
    _report("9", "recurrence, escape timing, decomposition", failures)


def test_criterion_10a_recursion_equivalence():
    def companion_step(u, params, coeffs):
        """Shift the six-value state left and append the weighted average of
        f over it, through the value type's operators under the backend's
        context."""
        fs = [tent_step(u[-i], params, 2) for i in range(1, TAPS + 1)]
        with params.backend.context():
            tail = coeffs.a[0] * fs[0]
            for i in range(2, TAPS + 1):
                tail = tail + coeffs.a[i - 1] * fs[i - 1]
        return u[1:] + (tail,)

    failures = []
    t0 = time.perf_counter()
    cases = []
    rng = random.Random(99)
    b64 = Binary64()
    cases += [(b64, rng.random()) for _ in range(100)]
    rat = Rational()
    cases += [(rat, Fraction(i, 101)) for i in range(1, 101, 9)]
    dec = FixedDecimal(30)
    cases += [(dec, dec.parse(f"0.{7 * i + 1:02d}")) for i in range(8)]
    for backend, x0 in cases:
        params = MapParams.parse("1.5", backend)
        coeffs = build_coefficients(backend.parse("1.2"), backend)
        run = stabilized_orbit(x0, params, 2, coeffs, 30)
        state = run[:TAPS]
        for n in range(TAPS, 31):
            state = companion_step(state, params, coeffs)
            if state[-1] != run[n]:
                failures.append(
                    f"{backend.kind} from {x0!r} diverges at step {n}"
                )
                break
        if failures:
            break
    _RUNTIMES["10a"] = time.perf_counter() - t0
    _report("10a", "starred recursion equals companion iteration", failures)


def test_criterion_10b_convexity_containment():
    failures = []
    t0 = time.perf_counter()
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    starts = [i / 500 for i in range(501)]
    for x0 in starts:
        run = stabilized_orbit(x0, params, 2, coeffs, 50)
        bad = [x for x in run if not 0.0 <= x <= 1.0]
        if bad:
            failures.append(f"from {x0!r}: value {bad[0]!r} left [0, 1]")
            break
    _RUNTIMES["10b"] = time.perf_counter() - t0
    _report("10b", "averaged sequences stay inside the unit interval", failures)


def test_criterion_10c_sweep_thread_determinism():
    failures = []
    t0 = time.perf_counter()
    params = _b64_params()
    coeffs = build_coefficients(1.2)
    spec = NetSpec.uniform(4000)
    baseline = sweep(spec, params, 2, coeffs, 50, 1e-3, threads=1)
    for threads in (2, 5):
        other = sweep(spec, params, 2, coeffs, 50, 1e-3, threads=threads)
        for field in ("finals", "codes", "distances"):
            if not np.array_equal(getattr(other, field), getattr(baseline, field)):
                failures.append(f"{field} differ with {threads} threads")
    _RUNTIMES["10c"] = time.perf_counter() - t0
    _report("10c", "sweep results do not depend on thread count", failures)


def test_criterion_10d_manifest_round_trip(tmp_path):
    failures = []
    t0 = time.perf_counter()
    for argv, artifact in (
        (["simulate", "--h", "1.9", "--x0", "0.3", "--steps", "40"], "orbit.csv"),
        (["sweep", "--net", "uniform:60", "--steps", "20"], "sweep.csv"),
    ):
        first = tmp_path / f"{argv[0]}_first"
        second = tmp_path / f"{argv[0]}_second"
        if run_command(argv + ["--out", str(first)]) != 0:
            failures.append(f"{argv[0]} failed")
            continue
        if replay_manifest(first / "manifest.json", second) != 0:
            failures.append(f"{argv[0]} replay failed")
            continue
        if (first / artifact).read_bytes() != (second / artifact).read_bytes():
            failures.append(f"{artifact} bytes changed under replay")
        manifest = json.loads((first / "manifest.json").read_text())
        if manifest["schema"] != 1:
            failures.append(f"manifest schema {manifest['schema']!r}")
    _RUNTIMES["10d"] = time.perf_counter() - t0
    _report("10d", "manifest replay reproduces artifact bytes", failures)


def test_criterion_10_total_runtime():
    failures = []
    total = sum(_RUNTIMES.values())
    if total >= 30:
        failures.append(f"property suites took {total:.1f}s")
    _report("10", f"property suites finish quickly ({total:.1f}s)", failures)
