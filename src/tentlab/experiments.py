"""Initial-condition sweeps, outcome classification, and escape detection.

The experiments here contrast exact and rounded arithmetic on the same
dynamics: sweeps classify where stabilized runs land on uniform or triadic
grids of starting points, detect_escape finds the flat-then-jump signature
of a run that sat near an exactly-invariant value until accumulated
roundoff expelled it, and the fixed-precision experiment reproduces that
signature with a slope that agrees with sqrt(2) to 57 decimal digits.

A sweep is classified by classify_finals, the rule classify_outcome
applies to one run.  The net is cut into chunks of 8192 points, the
fastest size measured for the binary64 kernel on a 2-vCPU host with a
4 MiB L2 (larger chunks spill out of the cache, smaller ones pay numpy's
per-call overhead).  Both chunk kernels run stabilize._starred, the
recursion stabilized_orbit runs on one value, so the six-tap average is
written once for every arithmetic.  The rounded kernel serves binary64
and decimal on numpy arrays of float64 or of Decimal objects under the
backend's context, so every elementwise operation rounds as the scalar
one does and in its order.  The exact kernel runs it on a
_SharedDenominator, the chunk's values as Python int numerators over one
int denominator, and returns the same reduced Fractions as the scalar
recursion without a gcd per value and step.  sweep_chunks runs each
chunk in one pass on a chunk_map worker process, which builds the points
i/denominator, computes and classifies the finals, and hands them to the
caller's function there, whose result crosses a plain pipe back: sweep
returns the arrays, the CLI formats sweep.csv.  Chunk boundaries depend
only on the chunk size, never on the worker count, so sweep output is
bit-identical across worker counts and chunk sizes.

detect_escape runs in O(n log^2 n) numpy work and O(n) extra memory, by
binary lifting over window extrema, and returns exactly what the quadratic
scan from every anchor would (the tests keep that scan as the oracle).
"""

from __future__ import annotations

import decimal
import enum
import functools
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .backends import Backend, DomainError, FixedDecimal, ParseError, Scalar
from .cycles import fixed_point, two_cycle
from .stabilize import TAPS, Coefficients, _starred
from .tentmap import MapParams, orbit, tent_step_array

MAX_NET_SIZE = 10**7

DEFAULT_FLAT_TOL = 1e-9
DEFAULT_JUMP_TOL = 1e-3
DEFAULT_MIN_FLAT = 30

DEFAULT_CHUNK_SIZE = 8192

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
        # the size cap; 3^m > 2^m, so a triadic m past the cap's bit length is over
        huge = self.kind == "triadic" and self.parameter > MAX_NET_SIZE.bit_length()
        if huge or self.size > MAX_NET_SIZE:
            raise DomainError(f"net {self} has more than {MAX_NET_SIZE} points")

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
    """A flat stretch and the index where the series finally left it.  The
    values are items of the series: the backend's scalars, given a run."""

    flat_value: Scalar
    flat_start: int
    escape_index: int
    terminal_value: Scalar


def build_net(spec: NetSpec, backend: Backend, start: int = 0,
              stop: int | None = None) -> np.ndarray | list[Scalar]:
    """Grid points start through stop - 1 (all of them by default) in index
    order: a float64 array under binary64, else a list of backend scalars."""
    stop = spec.size if stop is None else stop
    denom = spec.denominator
    if backend.kind == "binary64":
        return np.arange(start, stop, dtype=np.float64) / denom
    if backend.kind == "rational":  # one reduction, where a division takes two
        return [Fraction(i, denom) for i in range(start, stop)]
    den = backend.from_int(denom)
    with backend.context():
        return [backend.from_int(i) / den for i in range(start, stop)]


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
    fixed point and the low point beats the high one.  A column per
    target, combined by np.minimum and strict compares: a NaN distance, as
    from a NaN final, stays NaN and is unresolved.
    """
    finals = np.asarray(finals, dtype=np.float64)
    low, high, fixed = (np.abs(finals - t) for t in targets)
    codes = (high < low).view(np.int8)
    nearer = np.minimum(low, high, out=low)
    codes[fixed < nearer] = 2
    distances = np.minimum(nearer, fixed, out=fixed)
    codes[~(distances < tolerance)] = UNRESOLVED_CODE
    return codes, distances


def classify_outcome(
    final: Scalar, params: MapParams, tolerance: float
) -> tuple[OutcomeKind, float]:
    """The kind of target a run's final value matches, against the 2-cycle
    and the fixed point, and its distance to the nearest one."""
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    codes, distances = classify_finals(
        [params.backend.to_float(final)], _targets(params), tolerance
    )
    return KINDS[codes[0]], float(distances[0])


def _resolve_threads(threads: int) -> int:
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads < 0:
        raise DomainError(f"thread count must be nonnegative, got {threads}")
    return threads


def _serve(work, tasks: int, results):
    """A worker: answer each 8-byte index with (True, work(index)) or (False,
    the exception it raised), as length-prefixed frames, until the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the workers
    while len(index := os.read(tasks, 8)) == 8:
        try:
            reply = (True, work(int.from_bytes(index, "little")))
        except Exception as exc:  # raised in the parent when index comes up
            reply = (False, exc)
        buffers = []  # of 64 KiB or more: append returns None, which puts them out of band
        data = pickle.dumps(reply, 5, buffer_callback=lambda buffer: buffer.raw().nbytes
                            < 1 << 16 or buffers.append(buffer.raw()))
        for frame in (data, *buffers):
            results.writelines([len(frame).to_bytes(8, "little"), frame])
        results.flush()
    os._exit(0)


def _frames(results):
    """A worker's frames, each read into a new bytearray for its arrays to keep."""
    while True:
        head = results.read(8)
        frame = bytearray(int.from_bytes(head, "little"))
        if len(head) < 8 or results.readinto(frame) < len(frame):
            raise EOFError("the worker's pipe ended")
        yield frame


def chunk_map(work, count: int, threads: int = 1):
    """work(0), ..., work(count - 1), yielded in that order.

    The indices run on min(threads, count, CPUs) worker processes forked
    from this one, so work reads its inputs from the memory it inherits
    and only the index and the result cross a pipe: its pickle, then each
    buffer of 64 KiB or more, such as a chunk's rows, read into a buffer
    of its own (a smaller one stays in the pickle, so that no tally keeps
    a large buffer alive).  Worker w gets the indices w, w + workers, ...,
    at most two at a time: results wait in the workers, not here, and the
    next index goes out before a result is yielded, so the workers
    compute while the caller consumes.  An exception raised by work is
    raised here when its index comes up, as the serial map raises it.
    One worker or one index runs the plain serial map, and so does a
    process with other threads alive, since a fork copies only the
    calling thread and whatever locks the others held.  threads = 0
    means one per CPU.
    """
    workers = min(_resolve_threads(threads), count, os.cpu_count() or 1)
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield from map(work, range(count))
        return
    pids, tasks, results = [], [], []  # each worker's pid, index pipe and answers
    try:
        for _ in range(workers):
            task_end, task_fd = os.pipe()
            results_fd, results_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker keeps only its own two ends
                try:
                    for fd in (task_fd, results_fd, *(f.fileno() for f in tasks + results)):
                        os.close(fd)
                    _serve(work, task_end, open(results_end, "wb"))
                finally:  # on an error; _serve exits with 0 once the parent is done
                    os._exit(1)
            pids.append(pid)
            os.close(task_end)
            os.close(results_end)
            tasks.append(open(task_fd, "wb", buffering=0))
            results.append(open(results_fd, "rb"))
        window = 2 * workers
        for index in range(min(count, window)):
            tasks[index % workers].write(index.to_bytes(8, "little"))
        for index in range(count):
            w = index % workers
            try:
                frames = _frames(results[w])
                ok, value = pickle.loads(next(frames), buffers=frames)  # a frame per buffer
                if index + window < count:
                    tasks[w].write((index + window).to_bytes(8, "little"))
            except (EOFError, BrokenPipeError):  # the worker is gone: reap it here
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
                raise RuntimeError(f"worker process exited with code {code}")
            if not ok:
                raise value
            yield value
            del value  # so that the next result arrives without this one alive
    finally:
        for f in tasks + results:
            f.close()
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def _sweep_chunk_rounded(
    x0s: np.ndarray, params: MapParams, k: int, a: tuple[Scalar, ...], steps: int
) -> np.ndarray:
    """Final starred values for one chunk: the last value _starred yields
    on the whole array.

    x0s is float64 under binary64 and holds Decimals (dtype=object) under
    decimal, whose context makes each array operation round as the scalar
    one.  f checks its input once per step, by one min and one max, and
    snaps it only when it leaves [0, 1], which only an average can do.  A
    tent step maps [0, 1] into [0, h/2] under any monotone rounding that
    represents 0, h/2 and h, as both backends do for every h that
    MapParams accepts (in decimal h/2 has p digits, as h has).  On the
    left branch h*x lies in [0, h/2], so it rounds into [0, h/2].  On the
    right it lies in [h/2, h], so it rounds into [h/2, h], and h minus it
    is exact, by Sterbenz's lemma in binary64 and in decimal because both
    are multiples of 10^-p and the difference is at most 1, so it lies in
    [0, h/2].  tent_step relies on this too and has no clamp of its
    output.  An input that leaves [0, 1] runs through clamp_unit, which
    snaps a value within the backend's slack and raises beyond it, as
    tent_step does; decimal has no slack, so there it always raises.  The
    final average, which f never reads, is returned unsnapped.
    """
    b, h = params.backend, params.h
    half = b.parse("0.5")

    def f(x: np.ndarray) -> np.ndarray:
        if not (x.min() >= 0 and x.max() <= 1):  # NaN included
            x = np.array(list(map(b.clamp_unit, x.tolist())))
        for _ in range(k):
            x = tent_step_array(x, h, half)
        return x

    with b.context():
        for final in _starred(x0s, f, a, steps):
            pass
    return final


class _SharedDenominator:
    """Exact values as int numerators over one shared int denominator, with
    the two operations _starred combines values by.

    weight * x for a Fraction weight takes no gcd and multiplies no
    numerator: it keeps x's numerators, multiplies the denominator by the
    weight's, and defers the weight's numerator, as scale, into the next
    +.  Multiplying the numerators at * would be a second pass over them
    for each tap, which measured 19-29% slower on 8191-start chunks.  x + y
    puts both over the lcm of their denominators, one gcd for the whole
    array, and has scale 1.  _starred hands f, and yields, only its start,
    f's values and sums, so those all have scale 1 and nums/den is the value.
    """

    __slots__ = ("nums", "den", "scale")

    def __init__(self, nums: list[int], den: int, scale: int = 1):
        self.nums, self.den, self.scale = nums, den, scale

    def __rmul__(self, weight: Fraction) -> "_SharedDenominator":
        return _SharedDenominator(self.nums, self.den * weight.denominator,
                                  self.scale * weight.numerator)

    def __add__(self, other: "_SharedDenominator") -> "_SharedDenominator":
        den = math.lcm(self.den, other.den)
        s, t = self.scale * (den // self.den), other.scale * (den // other.den)
        if s == 1:  # the running sum, over the newest tap's denominator
            return _SharedDenominator([a + t * b for a, b in zip(self.nums, other.nums)], den)
        return _SharedDenominator(
            [s * a + t * b for a, b in zip(self.nums, other.nums)], den)


def _sweep_chunk_rational(
    x0s: np.ndarray, params: MapParams, k: int, a: tuple[Fraction, ...], steps: int
) -> np.ndarray:
    """Final starred values for one chunk: the last value _starred yields
    on the whole chunk as one _SharedDenominator, equal to the scalar
    recursion's.

    With h = p/q a tent step sends each numerator N to p*N when 2N <= M
    (the tie at 1/2 goes LEFT) and to p*(M - N) otherwise, and the
    denominator M to q*M, so no step builds a Fraction or takes a gcd.
    Reducing would not keep the numbers smaller, since the reduced
    denominators grow as fast.  Each final becomes one Fraction, reduced
    by one gcd to the value the scalar recursion returns.  Exact
    arithmetic has no slack, so f raises, as clamp_unit does, on an
    average outside [0, 1]; the final average, which f never reads, is
    not checked.
    """
    b = params.backend
    p, q = params.h.numerator, params.h.denominator

    def f(x: _SharedDenominator) -> _SharedDenominator:
        nums, m = x.nums, x.den
        if min(nums) < 0 or max(nums) > m:  # no slack: clamp_unit raises
            b.clamp_unit(Fraction(next(n for n in nums if not 0 <= n <= m), m))
        for _ in range(k):
            nums = [p * n if 2 * n <= m else p * (m - n) for n in nums]
            m *= q
        return _SharedDenominator(nums, m)

    m = math.lcm(*(x.denominator for x in x0s))
    start = _SharedDenominator([x.numerator * (m // x.denominator) for x in x0s], m)
    for final in _starred(start, f, a, steps):
        pass
    return np.array([Fraction(n, final.den) for n in final.nums], dtype=object)


def sweep_chunks(
    each, spec: NetSpec, params: MapParams, k: int, coeffs: Coefficients,
    steps: int, tolerance: float, threads: int = 1, chunk_size: int | None = None,
):
    """each(points, finals, codes, distances) for every chunk of chunk_size
    points (None: DEFAULT_CHUNK_SIZE), yielded in net order.

    A chunk runs in one pass on a chunk_map worker, which builds its points,
    runs the chunk kernel, classifies the finals and calls each on the four
    arrays, so only each's result crosses back.  The arguments are checked
    here, before any chunk runs; threads is the worker count (0: one per CPU).
    """
    if k < 1:
        raise DomainError(f"power must be a positive integer, got {k}")
    if steps < TAPS:
        raise DomainError(f"sweep needs at least {TAPS} steps, got {steps}")
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
    if chunk_size < 1:
        raise DomainError(f"chunk size must be positive, got {chunk_size}")
    b = params.backend
    nworkers = _resolve_threads(threads)
    kernel = functools.partial(
        _sweep_chunk_rational if b.kind == "rational" else _sweep_chunk_rounded,
        params=params, k=k, a=tuple(map(b.check, coeffs.a)), steps=steps,
    )
    targets = _targets(params)

    def run_chunk(index: int):
        start = index * chunk_size
        points = build_net(spec, b, start, min(start + chunk_size, spec.size))
        if b.kind != "binary64":
            points = np.array(points, dtype=object)
        finals = kernel(points)
        return each(points, finals, *classify_finals(finals, targets, tolerance))

    return chunk_map(run_chunk, -(-spec.size // chunk_size), nworkers)


def sweep(
    spec: NetSpec, params: MapParams, k: int, coeffs: Coefficients,
    steps: int, tolerance: float, threads: int = 1, chunk_size: int | None = None,
) -> SweepResult:
    """Classify a stabilized run from every net point: sweep_chunks' arrays,
    concatenated, bit-identical for any worker count and chunk size."""
    chunks = sweep_chunks(lambda *arrays: arrays, spec, params, k, coeffs, steps,
                          tolerance, threads, chunk_size)
    return SweepResult(spec, steps, tolerance, *map(np.concatenate, zip(*chunks)))


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


def sqrt2_reference(precision: int) -> Decimal:
    """2 - sqrt(2) to `precision` fractional digits via integer square root.

    isqrt(2 * 10^(2p)) truncates sqrt(2) * 10^p to an integer, so the
    construction never touches any floating or library constant.  The
    integer becomes a Decimal directly, never through its decimal text,
    which Python refuses past 4300 digits.
    """
    if precision < 1:
        raise DomainError(f"precision must be positive, got {precision}")
    root = math.isqrt(2 * 10 ** (2 * precision))
    exact = decimal.Context(prec=decimal.MAX_PREC)
    return Decimal(2 * 10**precision - root).scaleb(-precision, context=exact)


def sqrt2_experiment(
    h_digits: str = SQRT2_SLOPE_DIGITS,
    precision: int = 70,
    steps: int = 600,
    flat_tol: float = DEFAULT_FLAT_TOL,
    jump_tol: float = 1e-2,
    min_flat: int = DEFAULT_MIN_FLAT,
) -> tuple[tuple[Decimal, ...], EscapeEvent | None]:
    """Orbit of 1/2 under a slope one whisker under sqrt(2), plus its escape.

    With h = sqrt(2) exactly, 1/2 maps in three steps onto the fixed point
    2 - sqrt(2).  A slope that merely agrees with sqrt(2) to 57 digits
    parks the orbit within ~1e-57 of that value, and the gap then grows by
    a factor h per step until the orbit visibly leaves: the same
    flat-then-jump signature as binary64, at a much smaller scale.
    """
    try:
        digit_count = len(Decimal(h_digits).as_tuple().digits)
    except decimal.InvalidOperation:  # Decimal's ConversionSyntax
        raise ParseError(f"not a decimal digit string: {h_digits!r}") from None
    if precision < digit_count:
        raise DomainError(
            f"precision {precision} cannot hold the {digit_count}-digit slope"
        )
    backend = FixedDecimal(precision)
    params = MapParams(backend.parse(h_digits), backend)
    points = orbit(backend.parse("0.5"), params, k=1, steps=steps)
    event = detect_escape(
        points, flat_tol=flat_tol, jump_tol=jump_tol, min_flat=min_flat
    )
    return points, event
