"""Command-line behavior: exit codes, artifact bytes, manifests, SVG."""

import csv
import functools
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from tentlab import cli, experiments
from tentlab.backends import DomainError
from tentlab.cli import build_parser, replay_manifest, run_command
from tentlab.svgplot import TableFile, render_plot, render_svg


SUBCOMMANDS = (
    "simulate", "cycles", "stabilize", "sweep", "escape",
    "series", "sqrt2", "fib", "spectrum",
)


# one invocation of every subcommand, plus a decimal run
REPLAY_SET = [
    ["simulate", "--h", "1.7", "--x0", "0.3", "--steps", "25"],
    ["stabilize", "--x0", "0.2", "--steps", "40", "--plot", "line"],
    ["sweep", "--net", "uniform:50", "--steps", "20"],
    ["fib", "--steps", "30", "--phase"],
    ["spectrum", "--mu", "-2.25", "2.25"],
    ["cycles", "--h", "1.8", "--period", "3", "--onset"],
    ["escape", "--steps", "120"],
    ["series", "--steps", "40"],
    ["sqrt2", "--steps", "100"],
    ["stabilize", "--backend", "decimal", "--precision", "30"],
]


# sha256 of (sweep.csv, sweep.json) for --net uniform:1000, recorded before
# the sweep held its results as arrays; the rows and counts must not change
UNIFORM_1000_DIGESTS = (
    "944afcadc8816818a6046b02a94e4a5afce3dc977ec1a09a728a98c083415548",
    "e824598285e387eaa43000c74f858e8e62a6f6ca0a3931e87059658cc92fdf80",
)
PINNED_SWEEPS = [
    pytest.param(["--net", "uniform:1000", "--threads", "1"], UNIFORM_1000_DIGESTS,
                 id="uniform-threads1"),
    pytest.param(["--net", "uniform:1000", "--threads", "2"], UNIFORM_1000_DIGESTS,
                 id="uniform-threads2"),
    pytest.param(
        ["--net", "triadic:2", "--backend", "rational"],
        ("9b385f15329cbbc416a4b7b0760d0bab6848edf04cf1ae7df2b0df53aa1979c0",
         "1f5dcad86accc516749aa364d1ab90e7aa3aaf2ca10effca492d9c37f532ebb1"),
        id="triadic-rational",
    ),
    # recorded from the per-point Fraction recursion, before the rational
    # sweep ran on shared-denominator integers
    pytest.param(
        ["--h", "19/10", "--k", "1", "--net", "uniform:60", "--backend", "rational"],
        ("1e17fbc6acb1996cf22d8f8018c0cc9e726020f0045d504a67e76287eeef4b32",
         "06666bf7de9ec30d1a48acff702a969ffd842d20e4e9cc8e3c5e0c197fba875a"),
        id="uniform-rational-h19_10-k1",
    ),
    pytest.param(
        ["--k", "3", "--net", "triadic:1", "--steps", "30", "--backend", "rational"],
        ("20718b36ee81ba6fc349075c5ccffbcab4b95c60efab9181a37b2fd9674c26dc",
         "6c9e474748592b7d577c82a1ac37b64e2fd588f98338e5663c5af9dab9abfec5"),
        id="triadic-rational-k3",
    ),
    # recorded from the serial per-point decimal sweep, before decimal ran
    # as a chunk kernel on the worker pool
    pytest.param(
        ["--net", "uniform:200", "--steps", "20", "--backend", "decimal",
         "--precision", "30"],
        ("92fcc24e1679926ed804d0cfc747f9eb408ac954da3655bc8f7aa0925e57e83e",
         "90f412086ea4a1ec3dd22df76f15b6ca2c08614b56443d6a65b644d9b66d9d7d"),
        id="uniform-decimal",
    ),
]


def sweep_digests(out: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("sweep.csv", "sweep.json")
    )


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run_command(["simulate", "--out", str(tmp_path)]) == 0

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_command(["simulate", "--bogus", "1"]) == 2

    def test_no_subcommand(self, capsys):
        assert run_command([]) == 2

    def test_help_is_success(self, capsys):
        assert run_command(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_version_is_success(self, capsys):
        assert run_command(["--version"]) == 0

    def test_slope_out_of_range(self, tmp_path, capsys):
        code = run_command(["cycles", "--h", "2.5", "--out", str(tmp_path)])
        assert code == 2
        assert "slope" in capsys.readouterr().err

    def test_unparseable_scalar(self, tmp_path, capsys):
        code = run_command(
            ["simulate", "--x0", "zero", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_decimal_without_precision(self, tmp_path):
        code = run_command(
            ["simulate", "--backend", "decimal", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["escape", "--flat-tol", "nan"], "flat tolerance must be finite and nonnegative"),
            (["escape", "--flat-tol", "-0.5"], "flat tolerance must be finite and nonnegative"),
            (["sqrt2", "--flat-tol", "inf"], "flat tolerance must be finite and nonnegative"),
            (["escape", "--jump-tol", "nan"], "jump tolerance must be positive and finite"),
            (["escape", "--jump-tol", "-1"], "jump tolerance must be positive and finite"),
            (["sqrt2", "--jump-tol", "0"], "jump tolerance must be positive and finite"),
            (["escape", "--min-flat", "-5"], "min-flat must be nonnegative"),
            (["escape", "--min-flat", "1.5"], "invalid int value: '1.5'"),
            (["sweep", "--tol", "inf"], "tolerance must be positive and finite"),
            (["stabilize", "--tol", "inf"], "tolerance must be positive and finite"),
        ],
    )
    def test_flag_out_of_bounds_rejected_before_out(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_flag_bounds_admit_their_edges(self, tmp_path):
        argv = ["escape", "--flat-tol", "0", "--min-flat", "0", "--jump-tol", "1e300"]
        assert run_command([*argv, "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "escape.json")["event"] is None

    def test_start_outside_unit_interval(self, tmp_path):
        code = run_command(
            ["simulate", "--x0", "1.25", "--out", str(tmp_path)]
        )
        assert code == 2


class TestSimulate:
    def test_zero_step_golden_csv(self, tmp_path):
        assert (
            run_command(
                ["simulate", "--x0", "0.5", "--steps", "0", "--out", str(tmp_path)]
            )
            == 0
        )
        assert (tmp_path / "orbit.csv").read_bytes() == b"n,x\n0,0.5\n"

    def test_row_count_and_lf_endings(self, tmp_path):
        run_command(["simulate", "--steps", "10", "--out", str(tmp_path)])
        blob = (tmp_path / "orbit.csv").read_bytes()
        assert b"\r" not in blob
        assert blob.count(b"\n") == 12  # header + 11 points

    def test_rational_backend_exact_column(self, tmp_path):
        run_command(
            [
                "simulate",
                "--h",
                "3/2",
                "--x0",
                "2/5",
                "--steps",
                "2",
                "--backend",
                "rational",
                "--out",
                str(tmp_path),
            ]
        )
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines == ["n,x", "0,2/5", "1,3/5", "2,3/5"]


class TestCycles:
    def test_two_cycle_json(self, tmp_path):
        run_command(
            [
                "cycles",
                "--h",
                "1.5",
                "--period",
                "2",
                "--backend",
                "rational",
                "--out",
                str(tmp_path),
            ]
        )
        doc = read_json(tmp_path / "cycles.json")
        assert doc["count"] == 1
        assert doc["cycles"][0]["points"] == ["6/13", "9/13"]
        assert doc["cycles"][0]["itinerary"] == "LR"
        assert doc["cycles"][0]["multiplier"] == "-9/4"

    def test_onset_flag(self, tmp_path):
        run_command(
            ["cycles", "--period", "3", "--onset", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "cycles.json")
        assert doc["onset"]["threshold"] == pytest.approx(
            (1 + math.sqrt(5)) / 2, abs=1e-10
        )

    def test_unsupported_onset_period_rejected_before_enumeration(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("enumerate_cycles ran before the onset check")

        monkeypatch.setattr(cli, "enumerate_cycles", refuse)
        out = tmp_path / "out"
        assert run_command(["cycles", "--period", "4", "--onset", "--out", str(out)]) == 2
        assert "no onset polynomial stored for period 4" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_lists_every_point(self, tmp_path):
        run_command(
            ["cycles", "--h", "1.8", "--period", "3", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "cycles.json")
        lines = (tmp_path / "cycles.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * doc["count"]

    # sha256 of (cycles.csv, cycles.json), recorded before the census became
    # one walk over the Lyndon prefix tree; the census must not change
    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                ["--h", "2", "--period", "12"],
                ("9384a3c655d48654da6ae09a9c927ea31946112f0baebe4ad1c675c2615b0eb0",
                 "2236693789319bb04a79d033b65df741a72efe1a37654b4269fee523ba47ea7e"),
            ),
            (
                ["--h", "3/2", "--period", "10", "--backend", "rational"],
                ("6bb339fabde82dd646c9393fc32f81d1258501a8562a2bf85c4dd35bfc0aab60",
                 "0f4c8bab21a1b71990f272d1cc406426a00b1e446d1365ada2aaaf49f56434df"),
            ),
            (
                ["--h", "1.7", "--period", "9", "--backend", "decimal", "--precision", "30"],
                ("c779485632f1272aec0cfc38ea6c59e8ed3a2f1cd8f4f0ffdff28f9926f009d8",
                 "0701190333c70ebb25b182b7e1ec3cfa769447507b53b3c01bb778912a82b6cf"),
            ),
        ],
        ids=["binary64-h2-n12", "rational-h3_2-n10", "decimal30-h1.7-n9"],
    )
    def test_artifact_bytes_pinned(self, tmp_path, argv, digests):
        assert run_command(["cycles", *argv, "--out", str(tmp_path)]) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("cycles.csv", "cycles.json")
        )
        assert got == digests


class TestStabilize:
    def test_high_cycle_classification(self, tmp_path):
        run_command(
            ["stabilize", "--x0", "0.3", "--steps", "50", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "stabilize.json")
        assert doc["classified_target"] == "cycle_high"
        assert abs(float(doc["final_value"]) - 9 / 13) < 1e-3
        assert len(doc["coefficients"]) == 6
        header = (tmp_path / "stabilize.csv").read_text().splitlines()[0]
        assert header == "n,x_star"

    def test_sigma_parsed_by_backend(self, tmp_path):
        run_command(
            [
                "stabilize",
                "--h",
                "3/2",
                "--sigma",
                "6/5",
                "--x0",
                "2/5",
                "--backend",
                "rational",
                "--out",
                str(tmp_path),
            ]
        )
        doc = read_json(tmp_path / "stabilize.json")
        assert doc["final_value"] == "3/5"
        assert doc["classified_target"] == "fixed_point"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys, tol):
        # the same check and message as sweep
        out = tmp_path / "out"
        assert run_command(["stabilize", "--tol", tol, "--out", str(out)]) == 2
        assert "tolerance must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_counts_and_csv_header(self, tmp_path):
        run_command(
            ["sweep", "--net", "uniform:200", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "sweep.json")
        assert doc["size"] == 201
        assert sum(doc["counts"].values()) == 201
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "x0,outcome,final,distance"
        assert len(lines) == 202

    def test_bad_net_spec(self, tmp_path):
        assert (
            run_command(["sweep", "--net", "grid:10", "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize("argv, digests", PINNED_SWEEPS)
    def test_artifact_bytes_pinned(self, tmp_path, argv, digests):
        assert run_command(["sweep", *argv, "--out", str(tmp_path)]) == 0
        assert sweep_digests(tmp_path) == digests

    @pytest.mark.parametrize("argv, digests", PINNED_SWEEPS)
    def test_artifact_bytes_do_not_depend_on_workers(
        self, tmp_path, monkeypatch, forks, argv, digests
    ):
        # small chunks, so that every net has several
        monkeypatch.setattr(cli, "sweep", functools.partial(experiments.sweep, chunk_size=7))
        monkeypatch.setattr(cli, "DEFAULT_CHUNK_SIZE", 11)
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        for threads in ("1", "2", "0"):
            out = tmp_path / threads
            assert run_command(["sweep", *argv, "--threads", threads, "--out", str(out)]) == 0
            assert sweep_digests(out) == digests
        # two workers for the sweep and two for sweep.csv, at 2 and at 0 (one per CPU)
        assert len(forks) == 8
        assert not any(proc.is_alive() for proc in forks)

    def test_worker_error_exits_as_the_serial_run_does(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        kernel = experiments._sweep_chunk_binary64

        def refuse_upper_half(x0s, **kwargs):
            if x0s[0] >= 0.5:
                raise DomainError(f"chunk from {float(x0s[0])!r} refused")
            return kernel(x0s, **kwargs)

        monkeypatch.setattr(experiments, "_sweep_chunk_binary64", refuse_upper_half)
        monkeypatch.setattr(cli, "sweep", functools.partial(experiments.sweep, chunk_size=64))
        seen = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            code = run_command(["sweep", "--net", "uniform:1000", "--threads", threads,
                                "--out", str(out)])
            seen.append((code, capsys.readouterr().err, out.exists()))
        # chunk 8, from 512/1000, is the first to fail in net order
        assert seen == [(2, "tentlab: error: chunk from 0.512 refused\n", False)] * 2
        assert len(forks) == 2

    def test_thread_count_is_capped_without_starting_a_pool(self, tmp_path, forks):
        # one chunk caps the workers at one; never ask for many processes
        argv = ["sweep", "--net", "uniform:1000", "--threads", "100000", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        assert sweep_digests(tmp_path) == UNIFORM_1000_DIGESTS
        assert forks == []

    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize(
        "backend",
        [[], ["--backend", "rational"], ["--backend", "decimal", "--precision", "30"]],
        ids=["binary64", "rational", "decimal"],
    )
    def test_nonpositive_power_rejected(self, tmp_path, capsys, backend, k):
        out = tmp_path / "out"
        assert run_command(["sweep", "--k", k, *backend, "--out", str(out)]) == 2
        assert "power must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestEscape:
    def test_default_run_reports_event(self, tmp_path):
        run_command(["escape", "--out", str(tmp_path)])
        doc = read_json(tmp_path / "escape.json")
        event = doc["event"]
        assert event["flat_start"] == 1
        assert event["escape_index"] == 90
        assert abs(event["flat_value"] - 0.6) < 1e-12

    def test_rational_run_has_no_event(self, tmp_path):
        run_command(
            [
                "escape",
                "--h",
                "3/2",
                "--x0",
                "2/5",
                "--backend",
                "rational",
                "--out",
                str(tmp_path),
            ]
        )
        assert read_json(tmp_path / "escape.json")["event"] is None


class TestSeries:
    def test_row_count(self, tmp_path):
        run_command(["series", "--steps", "300", "--out", str(tmp_path)])
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert len(lines) == 302
        assert lines[0] == "n,x"
        assert lines[1] == "0,0.5"


class TestFib:
    def test_summary_fields(self, tmp_path):
        run_command(["fib", "--out", str(tmp_path)])
        doc = read_json(tmp_path / "fib.json")
        assert doc["predicted_escape"] == 60
        assert doc["observed_escape"] == 60
        assert doc["a_u"] == pytest.approx(4.0018e-13, rel=1e-3)

    def test_phase_artifacts(self, tmp_path):
        run_command(
            ["fib", "--steps", "20", "--phase", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "fib.json")
        assert doc["unstable_slope"] == pytest.approx((1 + math.sqrt(5)) / 2)
        assert doc["stable_slope"] == pytest.approx(-2 / (1 + math.sqrt(5)))
        lines = (tmp_path / "phase.csv").read_text().splitlines()
        assert lines[0] == "x,x_next"
        assert len(lines) == 21

    def test_integer_start_crosses_at_eleven(self, tmp_path):
        run_command(
            [
                "fib",
                "--x1",
                "1",
                "--steps",
                "15",
                "--threshold",
                "100",
                "--out",
                str(tmp_path),
            ]
        )
        doc = read_json(tmp_path / "fib.json")
        assert doc["observed_escape"] == 11
        assert doc["predicted_escape"] == 11


class TestSpectrum:
    def test_default_derives_equilibria(self, tmp_path):
        run_command(["spectrum", "--out", str(tmp_path)])
        doc = read_json(tmp_path / "spectrum.json")
        mus = [e["mu"] for e in doc["entries"]]
        assert mus == [-2.25, 2.25, -2.25]
        assert [e["stable"] for e in doc["entries"]] == [True, False, True]

    def test_explicit_mu_list(self, tmp_path):
        run_command(
            ["spectrum", "--mu", "1.0", "0.0", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "spectrum.json")
        assert doc["entries"][0]["radius"] == pytest.approx(1.0, abs=1e-10)
        assert doc["entries"][1]["radius"] == 0.0


class TestBackends:
    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["stabilize"], "stabilize.json"),
            (["sweep", "--net", "uniform:20"], "sweep.json"),
            (["escape", "--steps", "120"], "escape.json"),
            (["spectrum"], "spectrum.json"),
        ],
        ids=["stabilize", "sweep", "escape", "spectrum"],
    )
    def test_decimal_backend_runs(self, tmp_path, argv, artifact):
        flags = ["--backend", "decimal", "--precision", "30", "--out", str(tmp_path)]
        assert run_command(argv + flags) == 0
        assert (tmp_path / artifact).is_file()
        assert (tmp_path / artifact.replace(".json", ".csv")).is_file()

    def test_rational_plot_renders(self, tmp_path):
        argv = ["simulate", "--backend", "rational", "--h", "3/2", "--x0", "2/5",
                "--plot", "line", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        assert "<polyline" in (tmp_path / "orbit.svg").read_text(encoding="utf-8")


class TestManifest:
    def test_fields(self, tmp_path):
        run_command(["simulate", "--steps", "3", "--out", str(tmp_path)])
        doc = read_json(tmp_path / "manifest.json")
        assert doc["schema"] == 1
        assert doc["command"] == "simulate"
        assert doc["parameters"]["h"] == "1.5"
        assert doc["parameters"]["steps"] == "3"
        assert "orbit.csv" in doc["artifacts"]
        assert "manifest.json" in doc["artifacts"]
        assert isinstance(doc["wall_time_seconds"], float)
        assert doc["tool_version"]

    def test_every_artifact_listed_and_present(self, tmp_path):
        run_command(
            ["stabilize", "--plot", "line", "--out", str(tmp_path)]
        )
        doc = read_json(tmp_path / "manifest.json")
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert doc["artifacts"] == produced

    @pytest.mark.parametrize("argv", REPLAY_SET)
    def test_replay_reproduces_bytes(self, tmp_path, argv):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_command(argv + ["--out", str(first)]) == 0
        assert replay_manifest(first / "manifest.json", second) == 0
        names = [
            p.name for p in first.iterdir() if p.suffix in (".csv", ".svg")
        ]
        assert names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_parameter_keys_are_the_long_flags(self, tmp_path, capsys, command):
        assert run_command([command, "--help"]) == 0
        flags = set(re.findall(r"--([a-z][a-z0-9-]*)", capsys.readouterr().out))
        argv = [command, "--out", str(tmp_path)]
        if command == "sqrt2":
            argv += ["--steps", "50"]
        assert run_command(argv) == 0
        keys = set(read_json(tmp_path / "manifest.json")["parameters"])
        assert keys == flags - {"help", "out"}

    @pytest.mark.parametrize(
        "argv",
        REPLAY_SET + [
            ["sweep", "--net", "triadic:2", "--backend", "rational"],
            ["sweep", "--net", "uniform:20", "--backend", "decimal", "--precision", "30"],
        ],
    )
    def test_csv_artifacts_need_no_quoting(self, tmp_path, argv):
        # the writer joins cells with commas and quotes nothing, so every
        # line must read back through csv.reader as its plain split
        assert run_command(argv + ["--out", str(tmp_path)]) == 0
        tables = sorted(tmp_path.glob("*.csv"))
        assert tables
        for table in tables:
            lines = table.read_bytes().decode("utf-8").split("\n")
            assert lines.pop() == ""
            with open(table, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == [line.split(",") for line in lines]

    def test_replay_rejects_unknown_schema(self, tmp_path, capsys):
        bogus = tmp_path / "manifest.json"
        bogus.write_text('{"schema": 99, "command": "simulate"}')
        assert replay_manifest(bogus, tmp_path / "out") == 2


class TestRenderPlot:
    def make_table(self, rows, header=("n", "x")):
        return TableFile(path=None, header=header, rows=rows)

    def test_deterministic_bytes(self, tmp_path):
        table = self.make_table((("0", "0.5"), ("1", "0.75"), ("2", "0.375")))
        a = render_plot(table, "line", tmp_path / "a.svg").read_bytes()
        b = render_plot(table, "line", tmp_path / "b.svg").read_bytes()
        assert a == b
        assert b"timestamp" not in a.lower()

    def test_viewport_is_fixed(self):
        text = render_svg(self.make_table((("0", "0.5"),)), "scatter")
        assert 'width="800"' in text
        assert 'height="500"' in text
        assert 'viewBox="0 0 800 500"' in text

    def test_header_labels_axes(self):
        text = render_svg(
            self.make_table((("1", "2"),), header=("time", "value")), "line"
        )
        assert ">time<" in text
        assert ">value<" in text

    def test_empty_table_renders_axes_only(self):
        text = render_svg(self.make_table(()), "line")
        assert "<polyline" not in text
        assert "<circle" not in text
        assert "<rect" in text

    def test_scatter_emits_circles(self):
        text = render_svg(
            self.make_table((("0", "1"), ("1", "2"))), "scatter"
        )
        assert text.count("<circle") == 2

    def test_non_numeric_column_rejected(self):
        table = TableFile(
            path=None,
            header=("x0", "outcome"),
            rows=(("0.5", "cycle_low"),),
        )
        with pytest.raises(DomainError):
            render_svg(table, "line")

    def test_picks_first_two_numeric_columns(self):
        table = TableFile(
            path=None,
            header=("x0", "outcome", "final", "distance"),
            rows=(("0.25", "cycle_low", "0.46", "0.001"),),
        )
        text = render_svg(table, "scatter")
        assert ">x0<" in text
        assert ">final<" in text

    def test_unknown_style_rejected(self):
        with pytest.raises(DomainError):
            render_svg(self.make_table((("1", "2"),)), "bars")

    def test_ragged_row_rejected(self):
        with pytest.raises(DomainError):
            TableFile(path=None, header=("a", "b"), rows=(("1",),))

    def test_round_trip_through_csv(self, tmp_path):
        run_command(
            ["simulate", "--steps", "5", "--plot", "line", "--out", str(tmp_path)]
        )
        table = TableFile.read(tmp_path / "orbit.csv")
        assert table.header == ("n", "x")
        assert render_svg(table, "line") == (
            tmp_path / "orbit.svg"
        ).read_text(encoding="utf-8")


class TestParserDefaults:
    def test_documented_defaults(self):
        parser = build_parser()
        ns = parser.parse_args(["stabilize"])
        assert ns.h == "1.5"
        assert ns.k == 2
        assert ns.sigma == "1.2"
        assert ns.steps == 50
        assert ns.tol == 1e-3
        assert ns.backend == "binary64"
