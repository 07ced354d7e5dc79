"""Initial-condition sweeps: the stabilized run from every start of a
uniform or triadic net, classified against the 2-cycle of T and its
fixed point (the targets) by classify_finals, the rule classify_outcome
applies to one run, on chunks of 8192 points.  16384 ran the binary64
kernel 4% faster in one process on a 2-vCPU host with a 2 MiB L2, but
doubles a chunk's memory and leaves nets of up to 16384 points one
chunk, for one worker.  Both chunk kernels run stabilize._starred, the
recursion stabilized_orbit runs on one value.  Each first proves, by
stabilize._bounded, that no average can leave [0, 1]: each weight is
>= 0 and their sum, each times the tent step's largest value h/2, is at
most 1.  Then it checks only the chunk's starts; for weights that fail
the bound it checks every average too, as stabilized_orbit does.  Chunk
boundaries depend only on the chunk size, so sweep output is
bit-identical across worker counts and chunk sizes.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import pickle
import signal
import threading
from fractions import Fraction
from typing import NamedTuple

from ._arrays import exact_tent_step, np, tent_step_array
from .backends import Backend, DomainError, ParseError, Scalar, _digits
from .stabilize import TAPS, Coefficients, _bounded, _starred
from .tentmap import MapParams

MAX_NET_SIZE = 10**7
DEFAULT_CHUNK_SIZE = 8192


class OutcomeKind(enum.Enum):
    CYCLE_LOW = "cycle_low"
    CYCLE_HIGH = "cycle_high"
    FIXED_POINT = "fixed_point"
    UNRESOLVED = "unresolved"


# an outcome code indexes KINDS; the first three follow the targets' order
KINDS = tuple(OutcomeKind)
UNRESOLVED_CODE = KINDS.index(OutcomeKind.UNRESOLVED)


class _NetSpec(NamedTuple):
    kind: str
    parameter: int


class NetSpec(_NetSpec):
    """A grid of starting points: uniform(N) is i/N, triadic(m) is i/(5*3^m)."""

    __slots__ = ()

    def __new__(cls, kind: str, parameter: int):
        if kind not in ("uniform", "triadic"):
            raise DomainError(f"unknown net kind {kind!r}")
        if parameter < 1:
            raise DomainError(f"net parameter must be positive, got {parameter}")
        self = super().__new__(cls, kind, parameter)
        # the size cap; 3^m > 2^m, so a triadic m past the cap's bit length is over
        huge = kind == "triadic" and parameter > MAX_NET_SIZE.bit_length()
        if huge or self.size > MAX_NET_SIZE:
            raise DomainError(f"net {self} has more than {MAX_NET_SIZE} points")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @classmethod
    def uniform(cls, n: int) -> "NetSpec":
        return cls(kind="uniform", parameter=n)

    @classmethod
    def triadic(cls, m: int) -> "NetSpec":
        return cls(kind="triadic", parameter=m)

    @classmethod
    def parse(cls, text: str) -> "NetSpec":
        kind, sep, num = text.partition(":")
        if not sep or kind not in ("uniform", "triadic") or not num.isdecimal():
            raise ParseError(
                f"expected 'uniform:N' or 'triadic:M', got {text!r}"
            )
        return cls(kind=kind, parameter=_digits(int, num))

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


class SweepResult(NamedTuple):
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


def build_net(spec: NetSpec, backend: Backend, start: int = 0,
              stop: int | None = None) -> np.ndarray | list[Scalar]:
    """Grid points start through stop - 1 (all of them by default) in index
    order, each i/D as the backend parses it: a float64 array under
    binary64, whose division rounds i/D correctly as _ratio does, else a
    list of backend scalars."""
    stop = spec.size if stop is None else stop
    denom = spec.denominator
    if backend.kind == "binary64":
        return np.arange(start, stop, dtype=np.float64) / denom
    return [backend._ratio(i, denom) for i in range(start, stop)]


def fixed_point(params: MapParams) -> Scalar:
    """The interior fixed point h/(h+1); the origin is also fixed."""
    h = params.h
    with params.backend.context():
        return h / (h + 1)


def two_cycle(params: MapParams) -> tuple[Scalar, Scalar]:
    """The 2-cycle (h/(1+h^2), h^2/(1+h^2)), rounded as enumerate_cycles'
    census rounds it: the low point, then one left-branch step, h*lo."""
    h = params.h
    with params.backend.context():
        lo = h / (1 + h * h)
        return lo, h * lo


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


def _cpus() -> int:
    """The CPUs this process may run on, by its affinity mask where there is one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise DomainError(f"thread count must be nonnegative, got {threads}")
    return threads or _cpus()


def _serve(work, indices: range, results):
    """A worker: answer each index with (True, work(index)) or (False, the
    exception it raised), each one pickle on its pipe, then exit."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the workers
    for index in indices:
        try:
            reply = (True, work(index))
        except Exception as exc:  # raised in the parent when index comes up
            reply = (False, exc)
        pickle.dump(reply, results, 5)
        results.flush()
    os._exit(0)


def chunk_map(work, count: int, threads: int = 1):
    """work(0), ..., work(count - 1), yielded in that order.

    The indices run on min(threads, count, CPUs) worker processes forked
    from this one, so work reads its inputs from the memory it inherits
    and only the result crosses a pipe, as one protocol-5 pickle, which
    writes a large array, such as a chunk's rows, straight from its memory
    and reads it straight into a new buffer of its own, so that no result
    kept shares one.  Worker w computes the indices w, w + workers, ... in
    turn and writes each result's pickle to its one pipe, whose write
    blocks while the pipe is full: results wait in the workers, not here,
    and the workers compute while the caller consumes.  Reading the pipes
    in turn yields the indices in order.  An exception raised by work is
    raised here when its index comes up, as the serial map raises it; a
    worker's death, before or inside a reply, raises RuntimeError.
    One worker or one index runs the plain serial map, and so does a
    process with other threads alive, since a fork copies only the
    calling thread and whatever locks the others held.
    threading.active_count() sees only Python threads, so a native
    thread pool relies on its own fork handlers; numpy, imported through
    _arrays, starts none, since _arrays asks OpenBLAS for one thread.
    threads = 0 means one per CPU.
    """
    workers = min(_resolve_threads(threads), count, _cpus())
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield from map(work, range(count))
        return
    pids, results = [], []  # each worker's pid and answers
    try:
        for w in range(workers):
            results_fd, results_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker keeps only its own write end
                try:
                    for fd in (results_fd, *(f.fileno() for f in results)):
                        os.close(fd)
                    _serve(work, range(w, count, workers), open(results_end, "wb"))
                finally:  # on an error; _serve exits with 0 once its indices are done
                    os._exit(1)
            pids.append(pid)
            os.close(results_end)
            results.append(open(results_fd, "rb"))
        for index in range(count):
            w = index % workers
            try:
                ok, value = pickle.load(results[w])
            except (EOFError, pickle.UnpicklingError):  # the pipe ended: reap the worker
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
                raise RuntimeError(f"worker process exited with code {code}")
            if not ok:
                raise value
            yield value
            del value  # so that the next result arrives without this one alive
    finally:
        for f in results:
            f.close()
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def _sweep_chunk_rounded(
    x0s: np.ndarray, params: MapParams, k: int, a: tuple[Scalar, ...], steps: int,
) -> np.ndarray:
    """Final starred values for one chunk: the last value _starred yields
    on the whole array, float64 under binary64 and Decimals (dtype=object)
    under decimal, whose context makes each array operation round as the
    scalar one.  The starts, and for weights that fail _bounded each average
    too, snap into [0, 1] by clamp_unit, which raises beyond the backend's
    slack, when a min and a max find them outside; the final average is not."""
    b, h = params.backend, params.h
    bounded = _bounded(params, a)

    def clamped(x: np.ndarray) -> np.ndarray:
        if not (x.min() >= 0 and x.max() <= 1):  # NaN too
            x = np.array(list(map(b.clamp_unit, x.tolist())))
        return x

    def f(x: np.ndarray) -> np.ndarray:
        x = x if bounded else clamped(x)
        for _ in range(k):
            x = tent_step_array(x, h)
        return x

    with b.context():
        for final in _starred(clamped(x0s), f, a, steps):
            pass
    return final


class _SharedDenominator:
    """Exact values as an object array of int numerators over one shared
    int denominator, with the two operations _starred combines values by.

    weight * x for a Fraction weight takes no gcd and multiplies no
    numerator: it keeps x's numerators, multiplies the denominator by the
    weight's, and defers the weight's numerator, as scale, into the next
    +.  Multiplying the numerators at * would be a second pass over them
    for each tap, which measured 19-29% slower on 8191-start chunks.  x + y
    puts both over the lcm of their denominators, one gcd for the whole
    array, and has scale 1; it adds into the fresh array t * y in place,
    so no second array of sums is alive, and leaves a running sum's
    numerators, whose factor is 1, as they are.  _starred hands f, and
    yields, only its start, f's values and sums, so those all have scale 1
    and nums/den is the value.
    """

    __slots__ = ("nums", "den", "scale")

    def __init__(self, nums: np.ndarray, den: int, scale: int = 1):
        self.nums, self.den, self.scale = nums, den, scale

    def __rmul__(self, weight: Fraction) -> "_SharedDenominator":
        return _SharedDenominator(self.nums, self.den * weight.denominator,
                                  self.scale * weight.numerator)

    def __add__(self, other: "_SharedDenominator") -> "_SharedDenominator":
        den = math.lcm(self.den, other.den)
        s, t = self.scale * (den // self.den), other.scale * (den // other.den)
        nums = t * other.nums
        nums += self.nums if s == 1 else s * self.nums
        return _SharedDenominator(nums, den)


def _sweep_chunk_rational(
    x0s: np.ndarray, params: MapParams, k: int, a: tuple[Fraction, ...], steps: int,
) -> np.ndarray:
    """Final starred values for one chunk: the last value _starred yields
    on the whole chunk as one _SharedDenominator, equal to the scalar
    recursion's.

    Each tent step is exact_tent_step on the numerators, over q times the
    shared denominator, so no step builds a Fraction or takes a gcd.  Reducing
    would not keep the numbers smaller, since the reduced denominators
    grow as fast.  Each final becomes one Fraction, reduced by one gcd to
    the value the scalar recursion returns.  A start outside [0, 1]
    raises, as clamp_unit does with no slack, and so does such an average
    for weights that fail _bounded; the final average is not checked.
    """
    b, h = params.backend, params.h
    bounded = _bounded(params, a)

    def checked(x: _SharedDenominator) -> _SharedDenominator:
        nums, m = x.nums, x.den
        if nums.min() < 0 or nums.max() > m:  # no slack
            b.clamp_unit(Fraction(next(n for n in nums if not 0 <= n <= m), m))
        return x

    def f(x: _SharedDenominator) -> _SharedDenominator:
        nums, m = (x if bounded else checked(x)).nums, x.den
        for _ in range(k):
            nums, m = exact_tent_step(nums, m, h), h.denominator * m
        return _SharedDenominator(nums, m)

    m = math.lcm(*(x.denominator for x in x0s))
    start = _SharedDenominator(
        np.array([x.numerator * (m // x.denominator) for x in x0s], dtype=object), m)
    for final in _starred(checked(start), f, a, steps):
        pass
    return np.array([Fraction(n, final.den) for n in final.nums], dtype=object)


def sweep_chunks(each, spec: NetSpec, params: MapParams, k: int, coeffs: Coefficients,
                 steps: int, tolerance: float, threads: int = 1):
    """each(points, finals, codes, distances) for every chunk of
    DEFAULT_CHUNK_SIZE points, read at the call, yielded in net order.

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
    chunk_size = DEFAULT_CHUNK_SIZE
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


def sweep(spec: NetSpec, params: MapParams, k: int, coeffs: Coefficients,
          steps: int, tolerance: float, threads: int = 1) -> SweepResult:
    """Classify a stabilized run from every net point: sweep_chunks' arrays,
    concatenated, bit-identical for any worker count and chunk size."""
    chunks = sweep_chunks(lambda *arrays: arrays, spec, params, k, coeffs, steps,
                          tolerance, threads)
    return SweepResult(spec, steps, tolerance, *map(np.concatenate, zip(*chunks)))
