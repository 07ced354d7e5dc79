"""Initial-condition sweeps, outcome classification, and escape detection.

The experiments here contrast exact and rounded arithmetic on the same
dynamics: sweeps classify where stabilized runs land on uniform or triadic
grids of starting points, detect_escape finds the flat-then-jump signature
of a run that sat near an exactly-invariant value until accumulated
roundoff expelled it, and the fixed-precision experiment reproduces that
signature with a slope that agrees with sqrt(2) to 57 decimal digits.

A sweep is four arrays, classified by classify_finals, the rule
classify_outcome applies to one run.  The net is cut into chunks of 65536
points, so per-call overhead does not swamp the kernels, and every chunk
runs one kernel picked by the backend.  Binary64 runs numpy array
kernels; every elementwise operation mirrors the scalar recursion's order.
Rational runs Python integer numerators over one shared denominator per
time step, and returns the same reduced Fractions as the scalar
recursion.  Decimal runs stabilized_orbit point by point: FixedDecimal
rounds every operation, so a chunk's values share no denominator.
chunk_map runs the chunks on forked worker processes, which compute and
classify each chunk's finals; the CLI formats sweep.csv on the same pool.
Chunk boundaries depend only on chunk_size, never on the worker count, so
sweep output is bit-identical across worker counts and chunk sizes.

detect_escape runs in O(n log^2 n) numpy work and O(n) extra memory, by
binary lifting over window extrema, and returns exactly what the quadratic
scan from every anchor would (the tests keep that scan as the oracle).
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
import signal
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .backends import (
    Backend, Binary64, DomainError, FixedDecimal, ParseError, Rational, Scalar,
)
from .cycles import fixed_point, two_cycle
from .stabilize import TAPS, Coefficients, StabRun, stabilized_orbit
from .tentmap import MapParams, Orbit, orbit

MAX_NET_SIZE = 10**7

DEFAULT_FLAT_TOL = 1e-9
DEFAULT_JUMP_TOL = 1e-3
DEFAULT_MIN_FLAT = 30

THREADS_ENV_VAR = "TENTLAB_THREADS"
DEFAULT_CHUNK_SIZE = 65536

# slope agreeing with sqrt(2) through 57 fractional digits
SQRT2_SLOPE_DIGITS = (
    "1.414213562373095048801688724209698078569671875376948073176"
)


class OutcomeKind(enum.Enum):
    CYCLE_LOW = "cycle_low"
    CYCLE_HIGH = "cycle_high"
    FIXED_POINT = "fixed_point"
    UNRESOLVED = "unresolved"


# an outcome code indexes KINDS; the first three follow the targets' order
KINDS = tuple(OutcomeKind)
UNRESOLVED_CODE = KINDS.index(OutcomeKind.UNRESOLVED)


@dataclass(frozen=True)
class NetSpec:
    """A grid of starting points: uniform(N) is i/N, triadic(m) is i/(5*3^m)."""

    kind: str
    parameter: int

    def __post_init__(self):
        if self.kind not in ("uniform", "triadic"):
            raise DomainError(f"unknown net kind {self.kind!r}")
        if self.parameter < 1:
            raise DomainError(f"net parameter must be positive, got {self.parameter}")

    @classmethod
    def uniform(cls, n: int) -> "NetSpec":
        return cls(kind="uniform", parameter=n)

    @classmethod
    def triadic(cls, m: int) -> "NetSpec":
        return cls(kind="triadic", parameter=m)

    @classmethod
    def parse(cls, text: str) -> "NetSpec":
        kind, sep, num = text.partition(":")
        if not sep or kind not in ("uniform", "triadic") or not num.isdigit():
            raise ParseError(
                f"expected 'uniform:N' or 'triadic:M', got {text!r}"
            )
        return cls(kind=kind, parameter=int(num))

    @property
    def denominator(self) -> int:
        if self.kind == "uniform":
            return self.parameter
        return 5 * 3**self.parameter

    @property
    def size(self) -> int:
        return self.denominator + 1

    def __str__(self) -> str:
        return f"{self.kind}:{self.parameter}"


@dataclass(frozen=True)
class Outcome:
    """Where one stabilized run landed, against the three cycle targets."""

    variant: OutcomeKind
    final_value: Scalar
    distance: float


@dataclass(frozen=True)
class SweepResult:
    """A sweep as four arrays indexed like the net.

    points and finals are float64 under binary64 and backend scalars
    (dtype=object) otherwise; codes index KINDS (int8); distances float64.
    """

    net: NetSpec
    steps: int
    tolerance: float
    points: np.ndarray
    finals: np.ndarray
    codes: np.ndarray
    distances: np.ndarray

    @property
    def counts(self) -> dict[OutcomeKind, int]:
        """Starts per outcome kind, omitting kinds that never occur."""
        tally = np.bincount(self.codes, minlength=len(KINDS))
        return {kind: int(n) for kind, n in zip(KINDS, tally) if n}


@dataclass(frozen=True)
class EscapeEvent:
    """A flat stretch and the index where the series finally left it."""

    flat_value: Scalar
    flat_start: int
    escape_index: int
    terminal_value: Scalar


def build_net(spec: NetSpec, backend: Backend) -> np.ndarray | list[Scalar]:
    """All grid points in index order: a float64 array under binary64."""
    denom = spec.denominator
    if spec.size > MAX_NET_SIZE:
        raise DomainError(
            f"net of {spec.size} points exceeds the cap of {MAX_NET_SIZE}"
        )
    if backend.kind == "binary64":
        return np.arange(denom + 1, dtype=np.float64) / denom
    den = backend.from_int(denom)
    return [backend.div(backend.from_int(i), den) for i in range(denom + 1)]


def _targets(params: MapParams) -> tuple[float, float, float]:
    lo, hi = two_cycle(params)
    fp = fixed_point(params)
    b = params.backend
    return b.to_float(lo), b.to_float(hi), b.to_float(fp)


def classify_finals(
    finals: np.ndarray, targets: tuple[float, float, float], tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome codes into KINDS and nearest-target distances for float finals.

    The nearest target wins when strictly inside the tolerance; exact
    distance ties go to the earlier target, so the cycle points beat the
    fixed point and the low point beats the high one.
    """
    gaps = np.abs(np.asarray(finals, dtype=np.float64)[:, None] - np.array(targets))
    distances = gaps.min(axis=1)
    codes = np.where(distances < tolerance, gaps.argmin(axis=1), UNRESOLVED_CODE)
    return codes.astype(np.int8), distances


def classify_outcome(
    run: StabRun, params: MapParams, tolerance: float
) -> Outcome:
    """Match the final starred value against the 2-cycle and fixed point."""
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    final = run.starred[-1]
    codes, distances = classify_finals(
        [params.backend.to_float(final)], _targets(params), tolerance
    )
    return Outcome(KINDS[codes[0]], final, float(distances[0]))


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise DomainError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            )
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads < 0:
        raise DomainError(f"thread count must be nonnegative, got {threads}")
    return threads


def _serve(work, conn, parent_ends) -> None:
    """A worker's loop: answer each index with (True, work(index)), or with
    (False, the exception it raised), until the parent closes the pipe."""
    for end in parent_ends:  # copies from the fork; the parent's must close alone
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the workers
    try:
        while True:
            index = conn.recv()
            try:
                reply = (True, work(index))
            except Exception as exc:  # raised in the parent when index comes up
                reply = (False, exc)
            conn.send(reply)
    except (EOFError, OSError):  # the parent closed its end
        pass


def chunk_map(work, count: int, threads: int | None = None):
    """work(0), ..., work(count - 1), yielded in that order.

    The indices run on min(threads, count, CPUs) worker processes forked
    from this one, so work reads its inputs from the memory it inherits
    and only the index and the result cross a pipe.  Worker w gets the
    indices w, w + workers, ..., at most two at a time: results wait in
    the workers, not here, and the next index goes out before a result is
    yielded, so the workers compute while the caller consumes.  An
    exception raised by work is raised here when its index comes up, as
    the serial map raises it.  One worker or one index runs the plain
    serial map, and so does a process with other threads alive, since a
    fork copies only the calling thread and whatever locks the others
    held.  threads defaults to TENTLAB_THREADS (0 means one per CPU).
    """
    workers = min(_resolve_threads(threads), count, os.cpu_count() or 1)
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield from map(work, range(count))
        return
    import multiprocessing  # here, so that a start-up that never forks skips it

    ctx = multiprocessing.get_context("fork")
    ends, procs = [], []
    try:
        for _ in range(workers):
            end, theirs = ctx.Pipe()
            ends.append(end)
            proc = ctx.Process(target=_serve, args=(work, theirs, ends), daemon=True)
            proc.start()
            procs.append(proc)
            theirs.close()
        window = 2 * workers
        for index in range(min(count, window)):
            ends[index % workers].send(index)
        for index in range(count):
            w = index % workers
            try:
                ok, value = ends[w].recv()
            except (EOFError, ConnectionResetError):  # the worker is gone
                procs[w].join()
                raise RuntimeError(f"worker process exited with code {procs[w].exitcode}")
            if not ok:
                raise value
            if index + window < count:
                ends[w].send(index + window)
            yield value
    finally:
        for end in ends:
            end.close()
        for proc in procs:
            proc.terminate()
            proc.join()


def _tent_power_array(x: np.ndarray, h: float, k: int) -> np.ndarray:
    for _ in range(k):
        x = np.where(x <= 0.5, h * x, -h * x + h)
    return x


def _sweep_chunk_binary64(
    x0s: np.ndarray, h: float, k: int, a: tuple[float, ...], steps: int
) -> np.ndarray:
    """Final starred values for one chunk, mirroring the scalar recursion.

    Only an averaged value can leave [0, 1], so only those are checked,
    once per step: a tent step maps [0, 1] into [0, h/2] exactly in
    binary64, since h*0.5 and -h*1 + h are exact and rounding is monotone.
    A step whose averages leave [0, 1] runs them through clamp_unit, which
    snaps a value within Binary64's slack and raises beyond it, as the
    scalar recursion does before f reads the value.  The final average,
    which f never reads, is returned unsnapped.
    """
    iterates = [np.asarray(x0s, dtype=np.float64)]
    for _ in range(TAPS):
        iterates.append(_tent_power_array(iterates[-1], h, k))
    fvals = iterates[1:]  # f at the six seed values
    for t in range(TAPS, steps + 1):
        current = a[0] * fvals[-1]
        for i in range(2, TAPS + 1):
            current = current + a[i - 1] * fvals[-i]
        if t == steps:
            return current
        if not (current.min() >= 0 and current.max() <= 1):  # NaN included
            current = np.array(list(map(Binary64().clamp_unit, current.tolist())))
        fvals.pop(0)
        fvals.append(_tent_power_array(current, h, k))


def _sweep_chunk_rational(
    x0s: np.ndarray, h: Fraction, k: int, a: tuple[Fraction, ...], steps: int
) -> np.ndarray:
    """Final starred values for one chunk, equal to the scalar recursion's.

    The chunk's values at one time step are integer numerators over one
    shared integer denominator, so no operation builds a Fraction or takes
    a gcd.  With h = p/q a tent step sends N to p*N when 2N <= M (the tie
    at 1/2 goes LEFT) and to p*(M - N) otherwise, and M to q*M.  With D
    the lcm of the weights' denominators and alpha_i = a_i*D, the average
    scales each tap by alpha_i * (M_top // M_i): every tap's denominator
    divides the newest one's, M_top, and the average's denominator is
    D*M_top.  Reducing would not keep the numbers smaller, since the
    reduced denominators grow as fast.  Each final becomes one Fraction,
    reduced by one gcd to the value the scalar recursion returns.  Exact
    arithmetic has no slack, so an averaged value outside [0, 1] that f
    would read raises, as clamp_unit does.
    """
    p, q = h.numerator, h.denominator
    d = math.lcm(*(w.denominator for w in a))
    alphas = [w.numerator * (d // w.denominator) for w in a]

    def f(nums: list[int], m: int) -> tuple[list[int], int]:
        for _ in range(k):
            nums = [p * n if 2 * n <= m else p * (m - n) for n in nums]
            m *= q
        return nums, m

    m = math.lcm(*(x.denominator for x in x0s))
    nums = [x.numerator * (m // x.denominator) for x in x0s]
    taps = []  # (numerators, denominator) of f at the window, newest first
    for _ in range(TAPS):
        nums, m = f(nums, m)
        taps.insert(0, (nums, m))
    for t in range(TAPS, steps + 1):
        top = taps[0][1]
        scales = [alpha * (top // den) for alpha, (_, den) in zip(alphas, taps)]
        nums = [
            sum(map(operator.mul, scales, column))
            for column in zip(*(tap for tap, _ in taps))
        ]
        m = d * top
        if t == steps:
            return np.array([Fraction(n, m) for n in nums], dtype=object)
        if min(nums) < 0 or max(nums) > m:  # no slack: clamp_unit raises
            Rational().clamp_unit(Fraction(next(n for n in nums if not 0 <= n <= m), m))
        taps.pop()
        taps.insert(0, f(nums, m))


def _sweep_chunk_decimal(
    x0s: np.ndarray, params: MapParams, k: int, coeffs: Coefficients, steps: int
) -> np.ndarray:
    """Final starred values for one chunk, one stabilized_orbit per point:
    every FixedDecimal operation rounds, so the points share no denominator."""
    return np.array(
        [stabilized_orbit(x0, params, k, coeffs, steps).starred[-1] for x0 in x0s],
        dtype=object,
    )


def sweep(
    spec: NetSpec,
    params: MapParams,
    k: int,
    coeffs: Coefficients,
    steps: int,
    tolerance: float,
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SweepResult:
    """Classify a stabilized run from every net point.

    The net runs in chunks of chunk_size points through the backend's
    chunk kernel, on chunk_map's worker processes, which also classify the
    chunk's finals: classification is elementwise, so no process holds
    the gaps of the whole net.  Output is ordered by net index and is
    bit-identical for any worker count and chunk size; threads is the
    worker count and defaults to the TENTLAB_THREADS environment variable
    (0 means one per CPU).
    """
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    if steps < TAPS:
        raise DomainError(f"sweep needs at least {TAPS} steps, got {steps}")
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if chunk_size < 1:
        raise DomainError(f"chunk size must be positive, got {chunk_size}")
    b = params.backend
    nworkers = _resolve_threads(threads)
    points = build_net(spec, b)
    if b.kind != "binary64":
        points = np.array(points, dtype=object)

    if b.kind == "decimal":
        kernel = functools.partial(
            _sweep_chunk_decimal, params=params, k=k, coeffs=coeffs, steps=steps
        )
    else:
        kernel = functools.partial(
            _sweep_chunk_binary64 if b.kind == "binary64" else _sweep_chunk_rational,
            h=params.h, k=k, a=tuple(map(b.check, coeffs.a)), steps=steps,
        )
    targets = _targets(params)
    chunks = np.split(points, range(chunk_size, len(points), chunk_size))

    def run_chunk(index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        finals = kernel(chunks[index])
        return (finals, *classify_finals(finals, targets, tolerance))

    finals, codes, distances = map(
        np.concatenate, zip(*chunk_map(run_chunk, len(chunks), nworkers))
    )
    return SweepResult(
        net=spec,
        steps=steps,
        tolerance=tolerance,
        points=points,
        finals=finals,
        codes=codes,
        distances=distances,
    )


def _window_extrema(values: np.ndarray, level: int, upper, lower):
    """upper and lower reductions of every window of 2**level values.

    Doubling from the values themselves keeps one level alive at a time.
    """
    hi = lo = values
    for j in range(level):
        width = 1 << j
        hi = upper(hi[:-width], hi[width:])
        lo = lower(lo[:-width], lo[width:])
    return hi, lo


def _lift(values, anchors, starts, stays, upper, lower) -> np.ndarray:
    """For each anchor, the first index at or after its start whose value
    fails stays(hi, lo, anchor), or len(values) when none does.

    Binary lifting: from the widest window down, a position jumps over the
    window that begins at it whenever the window's extrema pass.
    """
    n = len(values)
    pos = starts.copy()
    for level in reversed(range(n.bit_length())):
        width = 1 << level
        hi, lo = _window_extrema(values, level, upper, lower)
        inside = np.flatnonzero(pos + width <= n)
        at = pos[inside]
        passed = stays(hi[at], lo[at], anchors[inside])
        pos[inside[passed]] += width
    return pos


def detect_escape(
    series,
    flat_tol: float = DEFAULT_FLAT_TOL,
    jump_tol: float = DEFAULT_JUMP_TOL,
    min_flat: int = DEFAULT_MIN_FLAT,
) -> EscapeEvent | None:
    """Longest flat stretch that the series later leaves by >= jump_tol.

    A stretch is flat when every value stays within flat_tol of its first
    value.  A stretch qualifies when it is at least min_flat long and some
    later position deviates from the stretch's first value by jump_tol or
    more; a gradual ramp between the two is allowed.  Among qualifying
    stretches the longest wins, ties going to the earliest.  Returns None
    when the series never settles, or settles and never leaves: a stretch
    that runs to the end of the series (a converged tail, say) never
    qualifies, because nothing after it jumps.  A NaN ends a flat stretch
    and never counts as a jump.

    Takes O(n log^2 n) numpy work and O(n) extra memory: each anchor finds
    the end of its stretch, then its escape, by binary lifting over window
    maxima and minima.  The result is exact, bit for bit the scalar
    abs(v - anchor) tests: fl(v - a) is monotone in v and
    fl(a - v) = -fl(v - a), so a window's extrema pass a bound exactly
    when all of its values do.  NaN-propagating extrema end a stretch at a
    NaN; NaN-ignoring ones let no NaN escape.
    """
    values = np.fromiter(map(float, series), dtype=np.float64)
    index = np.arange(len(values))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in the scalar test
        flat_end = _lift(
            values, values, index + 1,
            lambda hi, lo, a: (hi - a <= flat_tol) & (a - lo <= flat_tol),
            np.maximum, np.minimum,
        )
        runs = flat_end - index
        long_enough = np.flatnonzero(runs >= min_flat)
        escapes = _lift(
            values, values[long_enough], flat_end[long_enough],
            lambda hi, lo, a: ~((hi - a >= jump_tol) | (a - lo >= jump_tol)),
            np.fmax, np.fmin,
        )
    escaped = escapes < len(values)
    if not escaped.any():
        return None
    qualifying = long_enough[escaped]
    best = int(np.argmax(runs[qualifying]))  # the first maximum: the earliest start
    start = int(qualifying[best])
    return EscapeEvent(
        flat_value=series[start],
        flat_start=start,
        escape_index=int(escapes[escaped][best]),
        terminal_value=series[-1],
    )


def chaotic_series(params: MapParams, steps: int) -> Orbit:
    """The plain orbit of 1/2, the aperiodic sequence the figures plot."""
    half = params.backend.parse("0.5")
    return orbit(half, params, k=1, steps=steps)


def sqrt2_reference(precision: int) -> Decimal:
    """2 - sqrt(2) to `precision` fractional digits via integer square root.

    isqrt(2 * 10^(2p)) truncates sqrt(2) * 10^p to an integer, so the
    construction never touches any floating or library constant.
    """
    if precision < 1:
        raise DomainError(f"precision must be positive, got {precision}")
    root = math.isqrt(2 * 10 ** (2 * precision))
    return Decimal(f"{2 * 10**precision - root}E-{precision}")


def sqrt2_experiment(
    h_digits: str = SQRT2_SLOPE_DIGITS,
    precision: int = 70,
    steps: int = 600,
    flat_tol: float = DEFAULT_FLAT_TOL,
    jump_tol: float = 1e-2,
    min_flat: int = DEFAULT_MIN_FLAT,
) -> tuple[Orbit, EscapeEvent | None]:
    """Orbit of 1/2 under a slope one whisker under sqrt(2), plus its escape.

    With h = sqrt(2) exactly, 1/2 maps in three steps onto the fixed point
    2 - sqrt(2).  A slope that merely agrees with sqrt(2) to 57 digits
    parks the orbit within ~1e-57 of that value, and the gap then grows by
    a factor h per step until the orbit visibly leaves: the same
    flat-then-jump signature as binary64, at a much smaller scale.
    """
    digit_count = len(Decimal(h_digits).as_tuple().digits)
    if precision < digit_count:
        raise DomainError(
            f"precision {precision} cannot hold the {digit_count}-digit slope"
        )
    backend = FixedDecimal(precision)
    params = MapParams(backend.parse(h_digits), backend)
    run = orbit(backend.parse("0.5"), params, k=1, steps=steps)
    event = detect_escape(
        run.points, flat_tol=flat_tol, jump_tol=jump_tol, min_flat=min_flat
    )
    return run, event
