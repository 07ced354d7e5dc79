"""Layer micro-suite: each layer's public API timed in isolation.

Every case warms up before it is timed and reports the median of its
repeats.  Set-up (backends, slopes and coefficients for binary64, exact
rationals and FixedDecimal(30)) is timed on its own as `micro.setup_s`.
A case whose API is gone or fails is reported under "errors" and left
out of the metrics; micro numbers are never gated.
"""

from __future__ import annotations

import math
import statistics
import time

from workloads import lyndon_count

BACKENDS = ("binary64", "rational", "decimal30")
POINTS = ("1/10", "3/10", "2/5", "3/5", "7/10", "9/10")  # both branches
CALLS = 20_000


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()  # freed after the clock stops
        times.append(time.perf_counter() - t0)
        del result
    return statistics.median(times)


def _ns_per_call(op, args: list[tuple], repeats: int = 7) -> float:
    calls = (args * (CALLS // len(args) + 1))[:CALLS]

    def loop():
        for a in calls:
            op(*a)

    loop()
    return _median_time(loop, repeats) / CALLS * 1e9


def _setup():
    from tentlab import Binary64, FixedDecimal, MapParams, Rational, build_coefficients

    ctx = {}
    for name, b in zip(BACKENDS, (Binary64(), Rational(), FixedDecimal(30))):
        ctx[name] = (b, MapParams.parse("3/2", b), build_coefficients(b.parse("6/5"), b))
    return ctx


def _backend_ops(ctx, out):
    for name, (b, params, _) in ctx.items():
        xs = [b.parse(p) for p in POINTS]
        out[f"backends.mul_ns.{name}"] = _ns_per_call(b.mul, [(params.h, x) for x in xs])
        values = [b.div(b.from_int(i), b.from_int(997)) for i in range(1, 997, 7)]
        out[f"backends.serialize_ns.{name}"] = _ns_per_call(b.serialize, [(v,) for v in values])


def _tent_step(ctx, out):
    from tentlab import tent_step

    for name, (b, params, _) in ctx.items():
        args = [(b.parse(p), params) for p in POINTS]
        out[f"tentmap.tent_step_ns.{name}"] = _ns_per_call(tent_step, args)


def _stabilize(ctx, out):
    from tentlab import stabilized_orbit

    steps = 50
    for name, (b, params, coeffs) in ctx.items():
        x0 = b.parse("17/405")  # a triadic:4 net point, as in exact_transients
        run = lambda: stabilized_orbit(x0, params, 2, coeffs, steps)
        run()
        out[f"stabilize.step_us.{name}"] = _median_time(run, 5) / steps * 1e6


def _companion_spectrum(ctx, out):
    from tentlab import companion_spectrum

    coeffs = ctx["binary64"][2]
    calls = lambda: [companion_spectrum(2.25, coeffs) for _ in range(50)]
    calls()
    out["stabilize.companion_spectrum_us"] = _median_time(calls, 5) / 50 * 1e6


def _detect_escape(ctx, out):
    from tentlab import detect_escape

    detect_escape([0.6] * 500)
    out["experiments.detect_escape_s.flat4000"] = _median_time(
        lambda: detect_escape([0.6] * 4000), 3)


def _enumerate(ctx, out):
    from tentlab import Binary64, MapParams, enumerate_cycles

    params = MapParams.parse("2", Binary64())
    enumerate_cycles(params, 10)
    found = {}

    def case(n):
        found[n] = len(enumerate_cycles(params, n))

    for n, repeats in ((12, 3), (14, 3), (16, 1)):
        out[f"cycles.enumerate_s.n{n}"] = _median_time(lambda: case(n), repeats)
    out["cycles.lyndon_missing"] = sum(lyndon_count(n) - c for n, c in found.items())
    out["cycles.scaling_exponent"] = (
        math.log(out["cycles.enumerate_s.n16"] / out["cycles.enumerate_s.n14"])
        / math.log(found[16] / found[14]))


def _sweep_threads(ctx, out):
    from tentlab import Binary64, MapParams, NetSpec, build_coefficients, sweep

    b = Binary64()
    params = MapParams.parse("1.5", b)
    coeffs = build_coefficients(b.parse("1.2"), b)
    sweep(NetSpec.uniform(20_000), params, 2, coeffs, 50, 1e-3, threads=2)
    for threads in (1, 2):
        out[f"experiments.sweep_s.threads{threads}"] = _median_time(
            lambda: sweep(NetSpec.uniform(10**6), params, 2, coeffs, 50, 1e-3,
                          threads=threads), 1)
    out["experiments.sweep_thread_speedup"] = (
        out["experiments.sweep_s.threads1"] / out["experiments.sweep_s.threads2"])


def run() -> dict:
    out: dict[str, float] = {}
    errors: list[str] = []
    t0 = time.perf_counter()
    try:
        ctx = _setup()
    except Exception as exc:  # an API change blanks the suite, never the run
        return {"metrics": out, "errors": [f"setup: {exc!r}"]}
    out["micro.setup_s"] = time.perf_counter() - t0
    cases = (_backend_ops, _tent_step, _stabilize, _companion_spectrum,
             _detect_escape, _sweep_threads, _enumerate)
    for case in cases:
        try:
            case(ctx, out)
        except Exception as exc:  # as above: report the broken case, keep the rest
            errors.append(f"{case.__name__}: {exc!r}")
    return {"metrics": out, "errors": errors}
