"""Nets, sweeps, escape detection, and the fixed-precision slope experiment.

Frozen constants in this file were measured once from the scalar reference
recursion and are locked here as regression anchors; every one of them is
reproducible because the binary64 paths use only IEEE multiply and add in
a fixed order.  The 2 - sqrt(2) reference is cross-checked against exact
integer arithmetic, never against math.sqrt.
"""

import math
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab import basins
from tentlab.backends import (
    Binary64, DomainError, FixedDecimal, ParseError, Rational, make_backend,
)
from tentlab.basins import (
    KINDS,
    NetSpec,
    OutcomeKind,
    UNRESOLVED_CODE,
    build_net,
    chunk_map,
    classify_finals,
    classify_outcome,
    sweep,
    _SharedDenominator,
    _cpus,
    _sweep_chunk_rational,
    _sweep_chunk_rounded,
)
from tentlab.experiments import (
    SQRT2_SLOPE_DIGITS,
    EscapeEvent,
    detect_escape,
    sqrt2_experiment,
    sqrt2_reference,
)
from tentlab.stabilize import Coefficients, _bounded, build_coefficients, stabilized_orbit
from tentlab.tentmap import MapParams, orbit, tent_step

from test_stabilize import reference_run

# measured once at the default parameters; see module docstring
ESCAPE_INDEX_04 = 90
FLAT_VALUE_04 = 0.5999999999999999
UNRESOLVED_UNIFORM_1E5 = [
    0.0, 1e-05, 0.05813, 0.06429, 0.07345, 0.19912, 0.29944, 0.35284,
    0.42137, 0.47074, 0.52926, 0.57863, 0.64716, 0.70056, 0.80088,
    0.92655, 0.93571, 0.94187, 0.99999, 1.0,
]
COUNT_LOW_UNIFORM_1E5 = 57022
COUNT_HIGH_UNIFORM_1E5 = 42957


def classify_value_oracle(final_float, targets, tolerance):
    """The per-point rule the sweep once ran: a strict-< scan over the
    targets in order, then unresolved unless strictly inside tolerance."""
    lo, hi, fp = targets
    pairs = (
        (OutcomeKind.CYCLE_LOW, abs(final_float - lo)),
        (OutcomeKind.CYCLE_HIGH, abs(final_float - hi)),
        (OutcomeKind.FIXED_POINT, abs(final_float - fp)),
    )
    best_kind, best_dist = pairs[0]
    for kind, dist in pairs[1:]:
        if dist < best_dist:
            best_kind, best_dist = kind, dist
    if best_dist < tolerance:
        return best_kind, best_dist
    return OutcomeKind.UNRESOLVED, best_dist


def detect_escape_oracle(series, flat_tol=1e-9, jump_tol=1e-3, min_flat=30):
    """The quadratic scan detect_escape once ran: from every anchor, walk
    to the end of its flat stretch, then on to the first jump."""
    values = [float(x) for x in series]
    n = len(values)
    if n < min_flat:
        return None
    best = None  # (length, -start, escape)
    for i in range(n):
        anchor = values[i]
        j = i + 1
        while j < n and abs(values[j] - anchor) <= flat_tol:
            j += 1
        run = j - i
        if run < min_flat:
            continue
        if best is not None and run < best[0]:
            continue
        escape = next(
            (m for m in range(j, n) if abs(values[m] - anchor) >= jump_tol),
            None,
        )
        if escape is None:
            continue
        if best is None or run > best[0]:
            best = (run, -i, escape)
    if best is None:
        return None
    run, neg_start, escape = best
    return EscapeEvent(
        flat_value=series[-neg_start],
        flat_start=-neg_start,
        escape_index=escape,
        terminal_value=series[-1],
    )


@st.composite
def escape_cases(draw):
    """Runs of near-equal values around a base, gaps 0, +-tol and +-tol/2
    (twice that too, so a jump can clear the tolerance), with NaN, +-inf
    and +-0.0 mixed in; the tolerances are 0, the gaps themselves or
    infinite, where an infinite value's stretch runs on.  A run is up to 8
    values long, or up to 150, so that a series reaches past 500 values
    and a deque holds a long window."""
    tol = draw(st.sampled_from([0.5, 1e-3, 1e-9, 2.0**-40]))
    base = draw(st.sampled_from([0.0, 0.6, 1.0]))
    near = st.sampled_from([0.0, tol, -tol, tol / 2, -tol / 2, 2 * tol, -2 * tol])
    value = st.one_of(
        near.map(lambda gap: base + gap),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    )
    runs = draw(st.lists(st.tuples(value, st.integers(1, 8) | st.integers(1, 150)), max_size=12))
    series = [v for v, count in runs for _ in range(count)]
    tols = st.sampled_from([0.0, tol / 2, tol, 2 * tol, math.inf])
    return series, draw(tols), draw(tols), draw(st.integers(0, 6))


def assert_same_bits(result, base):
    for field in ("finals", "codes", "distances"):
        assert np.array_equal(getattr(result, field), getattr(base, field)), field


def b64_setup(h=1.5):
    return MapParams(h, Binary64()), build_coefficients(1.2)


def rat_setup():
    b = Rational()
    return MapParams(b.parse("3/2"), b), build_coefficients(b.parse("6/5"), b)


def dec_setup(precision=30):
    b = FixedDecimal(precision)
    return MapParams(b.parse("1.5"), b), build_coefficients(b.parse("1.2"), b)


@pytest.fixture(scope="module")
def uniform_1e5_sweep():
    params, coeffs = b64_setup()
    return sweep(NetSpec.uniform(100000), params, 2, coeffs, 50, 1e-3)


@pytest.fixture(scope="module")
def triadic5_sweep():
    params, coeffs = b64_setup()
    return sweep(NetSpec.triadic(5), params, 2, coeffs, 30, 1e-3)


@pytest.fixture(scope="module")
def run_04_b64():
    params, coeffs = b64_setup()
    return stabilized_orbit(0.4, params, 2, coeffs, 300)


class TestNetSpec:
    def test_parse_round_trip(self):
        spec = NetSpec.parse("uniform:100000")
        assert spec == NetSpec.uniform(100000)
        assert str(spec) == "uniform:100000"
        assert NetSpec.parse("triadic:5") == NetSpec.triadic(5)

    @pytest.mark.parametrize(
        "bad", ["uniform", "cubic:5", "uniform:", "uniform:-3", "triadic:2.5"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            NetSpec.parse(bad)

    def test_sizes(self):
        assert NetSpec.uniform(10).size == 11
        assert NetSpec.triadic(1).size == 16
        assert NetSpec.triadic(5).denominator == 1215

    def test_parameter_must_be_positive(self):
        with pytest.raises(DomainError):
            NetSpec.uniform(0)


class TestBuildNet:
    def test_uniform_10_rational(self):
        pts = build_net(NetSpec.uniform(10), Rational())
        assert pts == [Fraction(i, 10) for i in range(11)]

    def test_triadic_1_contains_known_fixed_point_starts(self):
        pts = build_net(NetSpec.triadic(1), Rational())
        assert Fraction(4, 15) in pts
        assert Fraction(11, 15) in pts
        assert pts == [Fraction(i, 15) for i in range(16)]

    def test_uniform_1e5_contains_04_and_06_exactly(self):
        pts = build_net(NetSpec.uniform(100000), Rational())
        assert Fraction(2, 5) in pts
        assert Fraction(3, 5) in pts

    def test_binary64_points_are_correctly_rounded(self):
        pts = build_net(NetSpec.uniform(7), Binary64())
        assert pts.dtype == np.float64
        assert pts.tolist() == [i / 7 for i in range(8)]

    @pytest.mark.parametrize(
        "spec", [NetSpec.uniform(10**5), NetSpec.triadic(5)], ids=str
    )
    def test_binary64_array_matches_scalar_division(self, spec):
        d = float(spec.denominator)
        pts = build_net(spec, Binary64())
        assert pts.tolist() == [i / d for i in range(spec.denominator + 1)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_uniform_powers_of_ten_never_contain_4_15(self, m):
        pts = build_net(NetSpec.uniform(10**m), Rational())
        assert Fraction(4, 15) not in pts

    def test_size_cap(self):
        with pytest.raises(DomainError):
            build_net(NetSpec.uniform(10**7), Binary64())


class TestClassifyOutcome:
    def test_01_reaches_upper_cycle_point(self):
        params, coeffs = b64_setup()
        run = stabilized_orbit(0.1, params, 2, coeffs, 50)
        kind, _ = classify_outcome(run[-1], params, 1e-3)
        assert kind is OutcomeKind.CYCLE_HIGH
        assert abs(run[-1] - 9 / 13) < 1e-3

    def test_04_still_reads_as_fixed_point_at_step_50(self):
        params, coeffs = b64_setup()
        run = stabilized_orbit(0.4, params, 2, coeffs, 50)
        kind, _ = classify_outcome(run[-1], params, 1e-3)
        assert kind is OutcomeKind.FIXED_POINT

    def test_far_value_unresolved(self):
        params, _ = b64_setup()
        kind, distance = classify_outcome(0.25, params, 1e-3)
        assert kind is OutcomeKind.UNRESOLVED
        assert distance == pytest.approx(abs(0.25 - 6 / 13), abs=1e-12)

    def test_exact_tie_prefers_cycle(self):
        params, _ = b64_setup()
        midpoint = (6 / 13 + 0.6) / 2
        kind, _ = classify_outcome(midpoint, params, 1.0)
        assert kind is OutcomeKind.CYCLE_LOW

    def test_distance_strictly_inside_tolerance(self):
        params, _ = b64_setup()
        d = abs(0.7 - 9 / 13)
        assert classify_outcome(0.7, params, d)[0] is OutcomeKind.UNRESOLVED
        assert classify_outcome(0.7, params, d * 1.001)[0] is OutcomeKind.CYCLE_HIGH

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, math.nan])
    def test_nonpositive_tolerance_rejected(self, tolerance):
        params, _ = b64_setup()
        with pytest.raises(DomainError, match="tolerance must be positive"):
            classify_outcome(0.7, params, tolerance)


def check_against_oracle(finals, targets, tolerance):
    codes, distances = classify_finals(np.array(finals), targets, tolerance)
    assert codes.dtype == np.int8
    assert distances.dtype == np.float64
    for final, code, dist in zip(finals, codes.tolist(), distances.tolist()):
        kind, want = classify_value_oracle(final, targets, tolerance)
        assert KINDS[code] is kind
        if math.isnan(want):  # a NaN's payload is not part of the contract
            assert math.isnan(dist)
        else:
            assert np.float64(dist).tobytes() == np.float64(want).tobytes()


# integers scaled by 2^-10 subtract exactly, so distances tie exactly and
# land exactly on the tolerance far more often than random floats do
dyadic = st.integers(-2048, 2048).map(lambda i: i / 1024)


class TestClassifyFinals:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
        st.floats(min_value=1e-12, max_value=2.0),
    )
    def test_matches_oracle_on_random_finals(self, finals, tolerance):
        check_against_oracle(finals, (6 / 13, 9 / 13, 0.6), tolerance)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(dyadic, min_size=1, max_size=20),
        st.tuples(dyadic, dyadic, dyadic),
        dyadic.filter(lambda t: t > 0),
    )
    def test_matches_oracle_on_exact_ties(self, finals, targets, tolerance):
        check_against_oracle(finals, targets, tolerance)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(dyadic, st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()),
                 min_size=1, max_size=200),
        st.tuples(dyadic, dyadic, dyadic),
        dyadic.filter(lambda t: t > 0),
    )
    def test_matches_the_gap_matrix(self, finals, targets, tolerance):
        # the (n, 3) formulation the columns replace: a row of gaps per
        # final, its min, and argmin's first minimum inside the tolerance
        gaps = np.abs(np.array(finals)[:, None] - np.array(targets))
        want = gaps.min(axis=1)
        want_codes = np.where(want < tolerance, gaps.argmin(axis=1), UNRESOLVED_CODE)
        codes, distances = classify_finals(np.array(finals), targets, tolerance)
        assert codes.tolist() == want_codes.tolist()
        assert np.array_equal(distances, want, equal_nan=True)

    def test_midpoint_tie_and_tolerance_boundary(self):
        targets = (0.25, 0.75, 0.5)
        codes, distances = classify_finals(
            np.array([0.5 - 0.125, 0.625, 0.5, 0.0]), targets, 0.25
        )
        assert [KINDS[c] for c in codes] == [
            OutcomeKind.CYCLE_LOW,  # low and fixed point tie at 0.125
            OutcomeKind.CYCLE_HIGH,  # high and fixed point tie at 0.125
            OutcomeKind.FIXED_POINT,
            OutcomeKind.UNRESOLVED,  # distance 0.25 equals the tolerance
        ]
        assert distances.tolist() == [0.125, 0.125, 0.0, 0.25]


class TestChunkMap:
    def test_yields_in_index_order_from_the_workers(self, forks):
        assert list(chunk_map(lambda i: i * i, 11, threads=2)) == [i * i for i in range(11)]
        pids = set(chunk_map(lambda i: os.getpid(), 6, threads=2))
        assert len(pids) == 2 and os.getpid() not in pids
        assert len(forks) == 4
        assert not forks.alive()

    def test_first_failing_index_raises_as_in_the_serial_map(self, forks):
        def work(i):
            if i >= 3:
                raise DomainError(f"chunk {i} failed")
            return i

        for threads in (1, 2):
            with pytest.raises(DomainError, match="^chunk 3 failed$"):
                list(chunk_map(work, 8, threads))
        assert len(forks) == 2
        assert not forks.alive()

    def test_a_worker_that_dies_fails_the_map(self, forks):
        def work(i):
            if i == 1:
                os._exit(3)
            return i

        with pytest.raises(RuntimeError, match="exited with code 3"):
            list(chunk_map(work, 4, threads=2))
        assert not forks.alive()

    def test_workers_stop_when_the_caller_stops_early(self, forks):
        results = chunk_map(lambda i: i, 10, threads=2)
        assert next(results) == 0
        results.close()
        assert len(forks) == 2
        assert not forks.alive()

    def test_workers_blocked_in_a_write_stop_when_the_caller_stops_early(self, forks):
        # a 1 MiB result overfills its pipe: once the caller has read results
        # 0 and 1, worker 0 waits in the write of 2 and worker 1 in that of 3
        results = chunk_map(lambda i: np.full(1 << 20, i, np.uint8), 10, threads=2)
        assert next(results)[0] == 0 and next(results)[0] == 1
        results.close()
        assert len(forks) == 2
        assert not forks.alive()

    def test_each_worker_has_one_pipe_which_only_it_writes(self, forks, monkeypatch):
        # the worker computes its stride of indices unasked, so the parent
        # keeps only the read end of the one pipe a worker has
        pipes, closed = [], []
        real_pipe, real_close = os.pipe, os.close
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])
        monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
        results = chunk_map(lambda i: i, 6, threads=2)
        assert next(results) == 0
        assert len(pipes) == len(forks) == 2
        assert closed == [write_end for _, write_end in pipes]
        assert list(results) == [1, 2, 3, 4, 5]
        assert not forks.alive()

    def test_small_arrays_keep_no_large_receive_buffer_alive(self, forks):
        # a 64 KiB array crosses out of band into a buffer of its own; a
        # tally-sized one stays in the pickle and owns only its own bytes
        def owner(buffer):  # what holds an array's memory, through views and memoryviews
            while True:
                is_view = isinstance(buffer, memoryview)
                base = buffer.obj if is_view else getattr(buffer, "base", None)
                if base is None:
                    return buffer
                buffer = base

        results = list(chunk_map(lambda i: (np.full(1 << 16, i, np.uint8), np.arange(4) + i),
                                 6, threads=2))
        assert len(forks) == 2
        for i, (big, tally) in enumerate(results):
            assert big.tolist() == [i] * (1 << 16) and tally.tolist() == [i, i + 1, i + 2, i + 3]
            assert memoryview(owner(big)).nbytes == big.nbytes
            assert memoryview(owner(tally)).nbytes == tally.nbytes
        assert len({id(owner(big)) for big, _ in results}) == 6

    def test_one_worker_or_one_index_runs_serially(self, forks):
        pid = os.getpid()
        assert list(chunk_map(lambda i: os.getpid(), 1, threads=100000)) == [pid]
        assert list(chunk_map(lambda i: os.getpid(), 3, threads=1)) == [pid] * 3
        assert forks == []

    def test_other_threads_alive_run_serially(self, forks):
        # a fork copies only the calling thread, not what the others hold
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            pids = list(chunk_map(lambda i: os.getpid(), 4, threads=2))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 4
        assert forks == []

    @pytest.mark.skipif(sys.platform != "linux", reason="threads are counted in /proc/self/task")
    @pytest.mark.skipif(_cpus() < 2, reason="OpenBLAS starts no thread on one CPU")
    @pytest.mark.skipif(
        "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        reason="numpy's BLAS is not OpenBLAS",
    )
    @pytest.mark.parametrize("asked, threads", [(None, 1), ("2", 2)])
    def test_import_starts_no_blas_thread_unless_asked(self, asked, threads):
        # an idle OpenBLAS pool spins on a CPU; the caller's own count wins.
        # tentlab.cycles imports numpy, through tentlab._arrays, as a census does
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if asked is not None:
            env["OPENBLAS_NUM_THREADS"] = asked
        code = ("import os, tentlab.cycles;"
                "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == [str(threads), str(asked)]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_cpus_are_those_the_affinity_mask_allows(self, monkeypatch):
        # a process pinned to one CPU of many runs serially, whatever threads asks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _cpus() == 1
        for threads in (0, 4):
            assert list(chunk_map(lambda i: os.getpid(), 4, threads)) == [os.getpid()] * 4


class TestSweep:
    def test_small_uniform_bookkeeping(self):
        params, coeffs = b64_setup()
        result = sweep(NetSpec.uniform(10), params, 2, coeffs, 50, 1e-3)
        assert result.points.dtype == result.finals.dtype == np.float64
        assert result.codes.dtype == np.int8
        assert result.distances.dtype == np.float64
        assert len(result.points) == len(result.finals) == 11
        assert len(result.codes) == len(result.distances) == 11
        assert sum(result.counts.values()) == 11

    def test_rational_sweep_holds_exact_scalars(self):
        params, coeffs = rat_setup()
        result = sweep(NetSpec.triadic(1), params, 2, coeffs, 20, 1e-3)
        assert result.points.dtype == result.finals.dtype == object
        assert result.points.tolist() == [Fraction(i, 15) for i in range(16)]
        for x0, final in zip(result.points, result.finals):
            run = stabilized_orbit(x0, params, 2, coeffs, 20)
            assert type(final) is Fraction
            assert final == run[-1]
            assert final == reference_run(x0, params, 2, coeffs.a, 20)[-1]
        assert sum(result.counts.values()) == 16

    def test_sweep_codes_match_classify_outcome(self):
        # the sweep and classify_outcome share one rule, on every backend
        for params, coeffs in (b64_setup(), rat_setup()):
            result = sweep(NetSpec.triadic(1), params, 2, coeffs, 20, 1e-3)
            for i, x0 in enumerate(result.points.tolist()):
                run = stabilized_orbit(x0, params, 2, coeffs, 20)
                kind, distance = classify_outcome(run[-1], params, 1e-3)
                assert kind is KINDS[result.codes[i]]
                assert distance == result.distances[i]

    def test_vector_path_matches_scalar_recursion(self, monkeypatch):
        monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", 16)
        params, coeffs = b64_setup()
        result = sweep(NetSpec.uniform(97), params, 2, coeffs, 40, 1e-3)
        for x0, final in zip(result.points.tolist(), result.finals.tolist()):
            assert final == reference_run(x0, params, 2, coeffs.a, 40)[-1]

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", 128)
        for params, coeffs in (b64_setup(), rat_setup(), dec_setup()):
            base = sweep(NetSpec.uniform(1500), params, 2, coeffs, 30, 1e-3, threads=1)
            for threads in (2, 4):
                other = sweep(NetSpec.uniform(1500), params, 2, coeffs, 30, 1e-3,
                              threads=threads)
                assert_same_bits(other, base)

    def test_every_backend_runs_its_chunks_on_worker_processes(self, forks, monkeypatch):
        monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", 32)
        setups = (b64_setup(), rat_setup(), dec_setup())
        for params, coeffs in setups:
            spec = NetSpec.uniform(150)
            base = sweep(spec, params, 2, coeffs, 30, 1e-3, threads=1)
            assert forks == []
            other = sweep(spec, params, 2, coeffs, 30, 1e-3, threads=2)
            assert_same_bits(other, base)
            assert len(forks) == 2
            assert not forks.alive()
            forks.clear()

    def test_kept_chunks_stay_intact_until_the_last_arrives(self, forks, monkeypatch):
        # every chunk's four arrays cross out of band at 8192 points; each
        # must own its buffer, not share one that a later chunk overwrites
        monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", 8192)
        params, coeffs = b64_setup()
        spec = NetSpec.uniform(4 * 8192)
        runs = [list(basins.sweep_chunks(lambda *arrays: arrays, spec, params, 2, coeffs,
                                         20, 1e-3, threads=threads))
                for threads in (1, 2)]
        assert len(forks) == 2
        serial, forked = runs
        assert len(forked) == len(serial) == 5
        for got, want in zip(forked, serial):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_decimal_sweep_matches_scalar_recursion(self, monkeypatch):
        monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", 6)
        for precision in (12, 30):
            params, coeffs = dec_setup(precision)
            result = sweep(NetSpec.uniform(20), params, 2, coeffs, 25, 1e-3)
            for x0, final in zip(result.points.tolist(), result.finals.tolist()):
                assert final == reference_run(x0, params, 2, coeffs.a, 25)[-1]

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_power_rejected_on_every_backend(self, k):
        for params, coeffs in (b64_setup(), rat_setup(), dec_setup()):
            with pytest.raises(DomainError, match="power must be a positive integer"):
                sweep(NetSpec.uniform(10), params, k, coeffs, 30, 1e-3)

    @pytest.mark.parametrize("chunk_size", [1, 7, 128, 65536])
    def test_chunk_size_does_not_change_bits(self, monkeypatch, chunk_size):
        spec = NetSpec.uniform(300)
        for params, coeffs in (b64_setup(), rat_setup(), dec_setup()):
            monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", spec.size)
            base = sweep(spec, params, 2, coeffs, 30, 1e-3, threads=1)
            monkeypatch.setattr(basins, "DEFAULT_CHUNK_SIZE", chunk_size)
            for threads in (1, 2):
                other = sweep(spec, params, 2, coeffs, 30, 1e-3, threads=threads)
                assert_same_bits(other, base)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 12).flatmap(
            lambda q: st.integers(q + 1, 2 * q).map(lambda p: Fraction(p, q))
        ),
        sigma=st.fractions(min_value=Fraction(11, 10), max_value=3, max_denominator=12),
        k=st.integers(1, 3),
        steps=st.integers(6, 40),
        x0s=st.lists(st.fractions(0, 1, max_denominator=60), min_size=1, max_size=6),
    )
    def test_rational_kernel_matches_scalar_recursion(self, h, sigma, k, steps, x0s):
        # starts with mixed denominators, not only a net's
        b = Rational()
        params, coeffs = MapParams(h, b), build_coefficients(sigma, b)
        finals = _sweep_chunk_rational(np.array(x0s, dtype=object), params, k, coeffs.a, steps)
        for x0, final in zip(x0s, finals.tolist()):
            expected = stabilized_orbit(x0, params, k, coeffs, steps)[-1]
            assert type(final) is Fraction and final == expected
        # the weights pass the bound, so the kernel checked only the starts
        assert _bounded(params, coeffs.a)

    def test_shared_denominator_arithmetic_is_exact(self):
        # products of products and sums of two products, whose scales are
        # not 1, which _starred never forms, against Fractions
        def values(x):
            return [Fraction(n, x.den) * x.scale for n in x.nums]

        x = _SharedDenominator(np.array([1, 4, 9], dtype=object), 12)
        y = _SharedDenominator(np.array([5, 0, 7], dtype=object), 35)
        u, v, w = Fraction(3, 7), Fraction(5, 4), Fraction(-2, 9)
        xs, ys = values(x), values(y)
        assert values(u * (v * x)) == [u * v * a for a in xs]
        assert values(u * x + v * y) == [u * a + v * b for a, b in zip(xs, ys)]
        assert values(x + w * (u * y)) == [a + w * u * b for a, b in zip(xs, ys)]

    def test_weights_summing_past_one_raise_on_every_path(self):
        # six weights of 3/10 sum to 9/5, so an average leaves [0, 1] and
        # the next tent step refuses it, in the scalar and both array kernels
        for params, _ in (b64_setup(), rat_setup(), dec_setup()):
            b = params.backend
            w = b.parse("3/10")
            coeffs = Coefficients(sigma=b.parse("6/5"), a=(w,) * 6)
            with pytest.raises(DomainError, match="outside"):
                stabilized_orbit(b.parse("2/5"), params, 2, coeffs, 30)
            with pytest.raises(DomainError, match="outside"):
                sweep(NetSpec.uniform(20), params, 2, coeffs, 30, 1e-3)

    @pytest.mark.parametrize("kind", ["binary64", "rational", "decimal"])
    @pytest.mark.parametrize("sigma", ["101/100", "6/5", "3", "100"])
    @pytest.mark.parametrize("h", [f"{2**52 + 1}/{2**52}", "3/2", "19/10", "2"])
    def test_cli_weights_keep_every_average_in_the_unit_interval(self, kind, sigma, h):
        # the weights build_coefficients makes, as the CLI does, pass the bound
        b = make_backend(kind, 30 if kind == "decimal" else None)
        params = MapParams(b.parse(h), b)
        assert _bounded(params, build_coefficients(b.parse(sigma), b).a)

    @pytest.mark.parametrize("kind", ["binary64", "rational", "decimal"])
    def test_weights_past_the_bound_fail_it(self, kind):
        b = make_backend(kind, 30 if kind == "decimal" else None)
        params = MapParams(b.from_int(2), b)  # m = h/2 = 1, so B is the weights' sum
        zero, one, w = b.from_int(0), b.from_int(1), b.parse("3/10")
        with b.context():
            over = one + b.parse(f"1/{2**52}")
        assert _bounded(params, (zero,) * 5 + (one,))  # B = 1
        assert not _bounded(params, (zero,) * 5 + (over,))
        assert not _bounded(params, (w,) * 6)  # B = 9/5
        assert not _bounded(params, (-w, w, zero, zero, zero, one))  # B = 1, a weight < 0

    @pytest.mark.parametrize("kind", ["binary64", "rational", "decimal"])
    def test_bounded_kernels_still_check_their_starts(self, kind):
        # the weights pass the bound, so f checks no average, but a start
        # outside [0, 1] still snaps or raises as clamp_unit does
        b = make_backend(kind, 30 if kind == "decimal" else None)
        params, coeffs = MapParams(b.parse("19/10"), b), build_coefficients(b.parse("6/5"), b)
        kernel = _sweep_chunk_rational if kind == "rational" else _sweep_chunk_rounded
        assert _bounded(params, coeffs.a)
        with b.context():
            starts = [1 + b.parse(f"1/{2**52}"), -b.parse(f"1/{2**52}"),
                      1 + b.parse(f"2/{2**52}")]
        outcomes = []
        for x0 in starts:
            x0s = np.array([b.parse("1/4"), x0], dtype=np.float64 if kind == "binary64" else object)
            try:
                expected = stabilized_orbit(x0, params, 2, coeffs, 20)[-1]
            except DomainError:
                with pytest.raises(DomainError, match="outside"):
                    kernel(x0s, params, 2, coeffs.a, 20)
                outcomes.append("raises")
                continue
            final = kernel(x0s, params, 2, coeffs.a, 20).tolist()[1]
            assert type(final) is type(expected) and final == expected
            outcomes.append("snaps")
        # one ulp outside snaps in binary64, two raise; no slack elsewhere
        assert outcomes == (["snaps", "snaps", "raises"] if kind == "binary64"
                            else ["raises"] * 3)

    @pytest.mark.parametrize(
        "kind, overshoot, steps, raises",
        [
            ("binary64", "1", 7, False),  # 1 ulp over 1: snapped, as clamp_unit does
            ("binary64", "2", 7, True),  # 2 ulp over 1: beyond the slack
            ("binary64", "2", 6, False),  # the final average is never checked
            ("rational", "1", 7, True),  # exact arithmetic has no slack
            ("rational", "1", 6, False),
            ("decimal", "1", 7, True),  # no slack either
            ("decimal", "1", 6, False),
        ],
    )
    def test_array_kernels_check_and_snap_like_clamp_unit(
        self, kind, overshoot, steps, raises
    ):
        # with h = 2, k = 1 and x0 = 1/2 the taps are f(x0) = 1 and then 0s,
        # so x6 = w; w is 1 + 2^-52 * overshoot, and x7 = w * f(x6)
        b = make_backend(kind, 30 if kind == "decimal" else None)
        params = MapParams(b.from_int(2), b)
        with b.context():
            w = 1 + b.parse(f"{overshoot}/{2**52}")
        zero = b.from_int(0)
        coeffs = Coefficients(sigma=b.parse("6/5"), a=(w, zero, zero, zero, zero, w))
        spec = NetSpec.uniform(2)  # 0, 1/2 and 1
        if raises:
            with pytest.raises(DomainError, match="outside"):
                stabilized_orbit(b.parse("1/2"), params, 1, coeffs, steps)
            with pytest.raises(DomainError, match="outside"):
                sweep(spec, params, 1, coeffs, steps, 1e-3)
            return
        result = sweep(spec, params, 1, coeffs, steps, 1e-3)
        for x0, final in zip(result.points.tolist(), result.finals.tolist()):
            expected = stabilized_orbit(x0, params, 1, coeffs, steps)[-1]
            assert type(final) is type(expected) and final == expected
        if steps == 6:
            assert result.finals[1] == w  # returned unsnapped

    def test_validation(self):
        params, coeffs = b64_setup()
        with pytest.raises(DomainError):
            sweep(NetSpec.uniform(10), params, 2, coeffs, 5, 1e-3)
        with pytest.raises(DomainError):
            sweep(NetSpec.uniform(10), params, 2, coeffs, 50, 0.0)

    def test_uniform_1e5_fixed_points_are_exactly_04_06(self, uniform_1e5_sweep):
        result = uniform_1e5_sweep
        fixed = result.points[result.codes == KINDS.index(OutcomeKind.FIXED_POINT)]
        assert fixed.tolist() == [0.4, 0.6]

    def test_uniform_1e5_unresolved_set_frozen(self, uniform_1e5_sweep):
        result = uniform_1e5_sweep
        unresolved = result.points[result.codes == KINDS.index(OutcomeKind.UNRESOLVED)]
        assert unresolved.tolist() == UNRESOLVED_UNIFORM_1E5

    def test_uniform_1e5_cycle_counts_frozen(self, uniform_1e5_sweep):
        result = uniform_1e5_sweep
        assert result.counts[OutcomeKind.CYCLE_LOW] == COUNT_LOW_UNIFORM_1E5
        assert result.counts[OutcomeKind.CYCLE_HIGH] == COUNT_HIGH_UNIFORM_1E5
        assert sum(result.counts.values()) == 100001

    def test_triadic5_fixed_point_set(self, triadic5_sweep):
        result = triadic5_sweep
        fixed = result.points[result.codes == KINDS.index(OutcomeKind.FIXED_POINT)]
        assert fixed.tolist() == [324 / 1215, 486 / 1215, 729 / 1215, 891 / 1215]
        assert result.counts[OutcomeKind.FIXED_POINT] == 4 > 2

    def test_triadic5_23_45_is_kicked_off_the_fixed_point(self, triadic5_sweep):
        result = triadic5_sweep
        idx = 621  # 23/45 = 621/1215
        assert float(result.points[idx]) == 621 / 1215
        assert KINDS[result.codes[idx]] is OutcomeKind.UNRESOLVED
        assert 2e-3 < result.distances[idx] < 4e-3  # still closing in on the low point

    def test_fixed_point_rational_oracle(self, triadic5_sweep):
        # every point the sweep classified as FixedPoint must reach 3/5
        # exactly under exact rational arithmetic
        rat = Rational()
        rparams = MapParams(Fraction(3, 2), rat)
        fixed_code = KINDS.index(OutcomeKind.FIXED_POINT)
        for i in np.flatnonzero(triadic5_sweep.codes == fixed_code).tolist():
            x = Fraction(i, 1215)
            for _ in range(60):
                if x == Fraction(3, 5):
                    break
                x = tent_step(x, rparams, 2)
            assert x == Fraction(3, 5)


class TestDetectEscape:
    def test_flat_then_jump(self):
        series = [0.6] * 40 + [0.6 + 1e-6 * i for i in range(1, 21)] + [0.45]
        ev = detect_escape(series)
        assert ev is not None
        assert ev.flat_start == 0
        assert ev.flat_value == 0.6
        assert ev.escape_index == 60
        assert ev.terminal_value == 0.45

    def test_constant_series_never_escapes(self):
        assert detect_escape([0.6] * 100) is None

    def test_short_series(self):
        assert detect_escape([0.6] * 10) is None

    def test_pure_ramp_has_no_flat(self):
        series = [i * 1e-4 for i in range(100)]
        assert detect_escape(series) is None

    def test_longest_flat_wins(self):
        series = [0.3] * 35 + [0.7] * 50 + [0.2]
        ev = detect_escape(series)
        assert ev.flat_start == 35
        assert ev.flat_value == 0.7
        assert ev.escape_index == 85

    def test_tie_goes_to_earliest(self):
        series = [0.3] * 35 + [0.7] * 35 + [0.1]
        ev = detect_escape(series)
        assert ev.flat_start == 0
        assert ev.escape_index == 35

    @given(escape_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_quadratic_oracle(self, case):
        series, flat_tol, jump_tol, min_flat = case
        assert detect_escape(series, flat_tol, jump_tol, min_flat) == detect_escape_oracle(
            series, flat_tol, jump_tol, min_flat
        )

    @pytest.mark.parametrize("x0", ["2/5", "3/5", "4/15", "11/15"])
    def test_matches_quadratic_oracle_on_long_runs(self, x0):
        # the eventually-fixed starts, run on into the converged tail
        params, coeffs = b64_setup()
        run = stabilized_orbit(params.backend.parse(x0), params, 2, coeffs, 1500)
        series = run
        event = detect_escape(series)
        assert event is not None
        assert event == detect_escape_oracle(series)

    # each of the next three is quadratic for a walk from every anchor
    def test_stretches_that_run_to_the_end_never_escape(self):
        # every value lies within flat_tol of every other, so each stretch
        # runs to the end, although each later 0.6 is a jump from 0.0
        assert detect_escape([0.0, 0.6] * 100_000, flat_tol=1, jump_tol=0.5) is None

    def test_one_long_stretch_then_a_jump(self):
        event = detect_escape([0.6] * 100_000 + [0.1])
        assert event == EscapeEvent(0.6, 0, 100_000, 0.1)

    def test_nan_separated_stretches(self):
        # 1000 stretches of 200 values, each ended by a NaN, then the
        # longest, of 300, and a jump after its NaN: every stretch
        # qualifies, and the last wins
        series = ([0.6] * 200 + [math.nan]) * 1000 + [0.6] * 300 + [math.nan, 0.1]
        event = detect_escape(series)
        assert event == EscapeEvent(0.6, 201_000, 201_301, 0.1)

    def test_binary64_04_escapes_at_frozen_index(self, run_04_b64):
        ev = detect_escape(run_04_b64)
        assert ev is not None
        assert ev.flat_start == 1
        assert ev.flat_value == FLAT_VALUE_04
        assert abs(ev.flat_value - 0.6) < 1e-9
        assert ev.escape_index == ESCAPE_INDEX_04
        assert abs(ev.terminal_value - 6 / 13) < 1e-12

    def test_rational_04_never_escapes(self):
        params, coeffs = rat_setup()
        run = stabilized_orbit(Fraction(2, 5), params, 2, coeffs, 300)
        assert detect_escape(run) is None

    def test_escape_dichotomy_over_eventually_fixed_starts(self):
        b64p, b64c = b64_setup()
        ratp, ratc = rat_setup()
        for text in ("2/5", "3/5", "4/15", "11/15"):
            frac = Fraction(text)
            rrun = stabilized_orbit(frac, ratp, 2, ratc, 120)
            assert detect_escape(rrun) is None
            assert rrun[-1] == Fraction(3, 5)
            brun = stabilized_orbit(
                float(frac.numerator) / float(frac.denominator), b64p, 2, b64c, 500
            )
            bev = detect_escape(brun)
            assert bev is not None
            assert bev.escape_index <= 500

    def test_23_45_leaves_in_exact_arithmetic_too(self):
        # the averaging window still holds f(23/45) = 2/5 when the first
        # averaged value is formed, so even exact arithmetic steps off the
        # fixed point: x*_6 = 3/5 - a_6/5, and the run drifts to the cycle
        params, coeffs = rat_setup()
        run = stabilized_orbit(Fraction(23, 45), params, 2, coeffs, 12)
        assert run[2] == Fraction(3, 5)
        assert run[5] == Fraction(3, 5)
        kicked = Fraction(3, 5) - coeffs.a[5] / 5
        assert run[6] == kicked
        assert run[7] != Fraction(3, 5)


class TestChaoticSeries:
    """The plain orbit of 1/2, which the series command writes."""

    def test_first_points(self):
        params, _ = b64_setup()
        o = orbit(params.backend.parse("0.5"), params, steps=5)
        assert o == (0.5, 0.75, 0.375, 0.5625, 0.65625, 0.515625)

    def test_tail_confined_to_core_interval(self):
        params, _ = b64_setup()
        o = orbit(params.backend.parse("0.5"), params, steps=300)
        assert all(0.375 <= x <= 0.75 for x in o[1:])

    def test_rational_backend(self):
        params, _ = rat_setup()
        o = orbit(params.backend.parse("0.5"), params, steps=3)
        assert o == (
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(3, 8),
            Fraction(9, 16),
        )


class TestSqrt2Reference:
    def test_leading_digits(self):
        ref = sqrt2_reference(70)
        assert str(ref).startswith("0.58578643762690495119831127579")

    def test_exact_integer_oracle(self):
        # 2 - ref must be the 70-digit truncation of sqrt(2)
        ref = sqrt2_reference(70)
        r = 2 - Fraction(*ref.as_integer_ratio())
        assert r * r <= 2
        assert (r + Fraction(1, 10**70)) ** 2 > 2

    def test_precision_validation(self):
        with pytest.raises(DomainError):
            sqrt2_reference(0)

    def test_past_the_int_text_limit(self):
        # 5000 digits: Python refuses the integer's decimal text past 4300
        ref = sqrt2_reference(5000)
        assert ref.as_tuple().exponent == -5000
        r = 2 - Fraction(*ref.as_integer_ratio())
        assert r * r <= 2
        assert (r + Fraction(1, 10**5000)) ** 2 > 2


class TestSqrt2Experiment:
    @pytest.fixture(scope="class")
    @staticmethod
    def full_run():
        return sqrt2_experiment(steps=600)

    def test_third_point_lands_near_reference(self, full_run):
        run, _ = full_run
        ref = sqrt2_reference(70)
        dev = abs(Fraction(*run[3].as_integer_ratio())
                  - Fraction(*ref.as_integer_ratio()))
        assert dev < Fraction(1, 10**55)
        assert Fraction(1, 10**59) < dev < Fraction(1, 10**57)

    def test_deviation_growth_is_geometric(self, full_run):
        run, _ = full_run
        ref = Fraction(*sqrt2_reference(70).as_integer_ratio())
        devs = [
            abs(Fraction(*x.as_integer_ratio()) - ref) for x in run
        ]
        assert max(devs[3:121]) < Fraction(1, 10**40)
        assert devs[300] > Fraction(1, 10**40)
        # once the amplified gap dominates the constant offset between the
        # reference and the true fixed point, 100 steps multiply it by h^100
        assert float(devs[203] / devs[103]) == pytest.approx(2.0**50, rel=1e-6)

    def test_escape_event_window(self, full_run):
        _, event = full_run
        assert event is not None
        assert event.flat_start == 3
        assert 300 <= event.escape_index <= 450
        assert event.escape_index == 373

    def test_short_runs_report_no_escape(self):
        _, event = sqrt2_experiment(steps=3)
        assert event is None
        _, event = sqrt2_experiment(steps=40)
        assert event is None

    def test_precision_must_hold_slope(self):
        with pytest.raises(DomainError):
            sqrt2_experiment(precision=50)

    def test_custom_slope_string(self):
        run, _ = sqrt2_experiment(h_digits="1.5", precision=20, steps=10)
        assert run[1] == Decimal("0.75")
