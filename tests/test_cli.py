"""Command-line behavior: exit codes, artifact bytes, manifests, SVG."""

import csv
import hashlib
import json
import math
import os
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab import MapParams, NetSpec, build_coefficients, cli, experiments, svgplot, sweeprows
from tentlab.backends import TEXT_BLOCK, Binary64, DomainError, make_backend
from tentlab.cli import build_parser, replay_manifest, run_command
from tentlab.cycles import Census
from tentlab.svgplot import as_float, svg_pieces


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
    # recorded before the rational sweep ran through _starred; weights with
    # more than one denominator (sigma = 7/5)
    pytest.param(
        ["--h", "19/10", "--sigma", "7/5", "--k", "3", "--net", "uniform:60",
         "--backend", "rational"],
        ("a3256a93e47660a4a9353df4bccd64c6d6510d54529462939fa3033065b0ef3e",
         "b6c2b6bd01d8e482af29aaf6fb590786c57ae4afc043ea595755a7c0981a3d78"),
        id="uniform-rational-h19_10-sigma7_5-k3",
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


def plot_of_csv(path: Path, style: str) -> str:
    """The SVG svg_pieces gives for a CSV's first two numeric columns,
    read back with csv and as_float: the plot --plot must have written."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    columns = []
    for j, label in enumerate(header):
        try:
            columns.append((label, [as_float(row[j]) for row in rows]))
        except ValueError:  # a column of outcome names
            pass
    (x_label, xs), (y_label, ys) = columns[:2]
    return "".join(svg_pieces((x_label, y_label), xs, ys, style))


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
        "argv",
        [
            ["simulate", "--precision", "30", "--steps", "3"],
            ["sweep", "--backend", "rational", "--precision", "5"],
        ],
    )
    def test_precision_without_decimal_rejected_before_out(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert "backend takes no precision" in capsys.readouterr().err
        assert not out.exists()

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
            (["spectrum", "--mu", "nan"], "mu must be finite"),
            (["spectrum", "--mu", "1.5", "inf"], "mu must be finite"),
            (["fib", "--threshold", "inf"], "threshold must be positive and finite"),
        ],
    )
    def test_flag_out_of_bounds_rejected_before_out(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fib", "--x0", "1" + "0" * 400], "rounds past the binary64 range"),
            (["fib", "--x1", "1" + "0" * 400 + "/3"], "rounds past the binary64 range"),
            (["fib", "--backend", "rational", "--x0", "1" + "0" * 400],
             "lies past the binary64 range"),
            (["fib", "--backend", "decimal", "--precision", "30", "--x0", "1" + "0" * 400],
             "unstable coordinate is inf, not finite"),
            (["fib", "--x0", "17" + "0" * 307, "--x1", "17" + "0" * 307],  # 1.7e308 each
             "unstable coordinate is inf, not finite"),
            (["sqrt2", "--h-digits", "abc"], "not a decimal digit string"),
        ],
        ids=["fib-x0-digits", "fib-x1-fraction", "fib-rational-x0", "fib-decimal-x0",
             "fib-overflowing-modes", "sqrt2-h-digits"],
    )
    def test_value_out_of_range_rejected_before_out(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fib_threshold_near_the_float_range(self, tmp_path):
        # log(threshold / |a_u|) would overflow; the difference of logs does not
        assert run_command(["fib", "--threshold", "1e300", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "fib.json")
        assert doc["predicted_escape"] > 1400 and doc["observed_escape"] is None

    def test_flag_bounds_admit_their_edges(self, tmp_path):
        argv = ["escape", "--flat-tol", "0", "--min-flat", "0", "--jump-tol", "1e300"]
        assert run_command([*argv, "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "escape.json")["event"] is None

    def test_start_outside_unit_interval(self, tmp_path):
        code = run_command(
            ["simulate", "--x0", "1.25", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["stabilize", "escape", "sweep", "spectrum"])
    def test_overflowing_sigma_rejected_before_out(self, tmp_path, capsys, command):
        # sigma^7 overflows binary64, so the weights would be NaN
        out = tmp_path / "out"
        assert run_command([command, "--sigma", "1" + "0" * 60, "--out", str(out)]) == 2
        assert "gives non-finite weights" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--x0", "1/" + "1" * 5000, "--steps", "2"],
            ["fib", "--x0", "1/" + "1" * 5000],
            ["fib", "--backend", "rational", "--x0", "0." + "1" * 5000],
            ["simulate", "--backend", "decimal", "--precision", "30", "--x0", "1/" + "1" * 5000],
        ],
        ids=["simulate-fraction", "fib-fraction", "fib-rational-decimal", "simulate-decimal"],
    )
    def test_numeral_past_the_int_text_limit_rejected_before_out(self, tmp_path, capsys, argv):
        limit = sys.get_int_max_str_digits()
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert f"passes the {limit}-digit limit on integer text" in capsys.readouterr().err
        assert not out.exists()
        assert sys.get_int_max_str_digits() == limit

    def test_sqrt2_past_the_int_text_limit(self, tmp_path):
        argv = ["sqrt2", "--precision", "5000", "--steps", "5", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        assert len(read_json(tmp_path / "sqrt2.json")["reference"]) == 5002  # "0." and the digits


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
            # recorded before the census formatted its cells a column at a
            # time and wrote cycles.json without json's pure-Python encoder
            (
                ["--h", "2", "--period", "1"],
                ("f8b2146a8ccf24c189a43865e91ba8f2ffaacf80df72a3a17a26501ff09551a7",
                 "cdad1030b934a8584037bb6750725ce57e1fbb563f3c56233de8a6d5f33aa8ef"),
            ),
            (
                ["--h", "2", "--period", "2"],
                ("c75406fe02519f479d0d2511d95e1815a1eeeee25424b011ecd25fd16ae02364",
                 "9d5e464443b0a537e71a7b23dfb60d9d197993c354f200ad3d3c199da5be6cd3"),
            ),
            (
                ["--h", "2", "--period", "16"],
                ("111c35f902f206a832a57affd60b2bdab81e80aa60c90a79239462b2a4379dc6",
                 "75080739cef662ef59e5b2958242066ea985369a90b0b6c3da1851e5b7367837"),
            ),
            (
                ["--h", "1.9", "--period", "7", "--onset"],
                ("e3d26f664bbda5033046ce26b5a818c452822c92bcff5036533fd04cffd6b911",
                 "ff735c8f7267d4714452514857580c47d45176ed8fee3ae250e91a4d77baaf8e"),
            ),
            (
                ["--h", "3/2", "--period", "1", "--backend", "rational"],
                ("02946044e9ea0f7469b1bfa720c394045d28581482dd90a62e21e26bfea54427",
                 "4ff1b921584517ef86cd461743fd9918ed82e6bea6371f16c67624daa61acaeb"),
            ),
            (
                ["--h", "2", "--period", "14", "--backend", "rational"],
                ("e683e9b55bad744fc8a74f81a81c23376327412a8981135d9942e62f4e7f69dc",
                 "76a48928732a20ca92512240e5188e55fc6c2e4d8347ccddfe8262e0206b4b04"),
            ),
            (
                ["--h", "2", "--period", "12", "--backend", "decimal", "--precision", "30"],
                ("ef1e6c1e37a5555c70faa74f8c9826a35a5d26d786b20c96940c4b0a45dcbd1e",
                 "77fb5538d80a652e634cebd96b6444c79e2eba053cf09c75ce993a1270fcefa7"),
            ),
            (
                ["--h", "1.9", "--period", "12", "--backend", "decimal", "--precision", "400"],
                ("0db42f6d166ef77c6224d302c76f1afc8ed0a986cb7423fb0ada53def79f866a",
                 "2f38389d54ca21c02f09ece822671e339667cfb64a49b3db7b585c04d9eb1d44"),
            ),
            # recorded before the census kept its cycles as per-cycle columns;
            # h = 1 + 10**-2200 gives 2-cycle points of some 4400 digits, past
            # the int-to-text limit, and binary64 n=20 finds 7964 of the 52377
            # cycles, the fixed closing tolerance's defect included
            (
                ["--h", f"{10**2200 + 1}/{10**2200}", "--period", "2", "--backend", "rational"],
                ("799714b8774a2b7ca11f20cd0d947ec4ded86fe56ce6582847ed41bf3a05d1cd",
                 "42ad3c8f818dc160464b44cb7b482b12749bb705960213fddc7c7143a073270e"),
            ),
            (
                ["--h", "19/10", "--period", "14", "--backend", "rational"],
                ("cf905a02dc03b724739b5f1d27bc84a63374b0122437d75c68c826c34232e5cb",
                 "94956984cdd32141acc6e788eae2eb3f7c117df0fb372e1e2d150563f19b6ea3"),
            ),
            (
                ["--h", "2", "--period", "20"],
                ("096513f83399b8e9626e3992b38ff4cc05ed0a7091e820abace94e9fead74c88",
                 "2fe73627e53f6058867ef9832f0105cd32bfea7185ee081f0727e8addcf7d5a0"),
            ),
            (
                ["--h", "2", "--period", "14", "--backend", "decimal", "--precision", "30"],
                ("8d6fed69f2d8518f3329bd1fc006abc42ea2c668830040fad89bb983def7d573",
                 "2be04988375a7b494ea41b4662abd808ee3f72c8837a08134fbf367ab2b59c2f"),
            ),
        ],
        ids=["binary64-h2-n12", "rational-h3_2-n10", "decimal30-h1.7-n9",
             "binary64-h2-n1", "binary64-h2-n2", "binary64-h2-n16", "binary64-h1.9-n7-onset",
             "rational-h3_2-n1", "rational-h2-n14", "decimal30-h2-n12", "decimal400-h1.9-n12",
             "rational-h1+1e-2200-n2", "rational-h19_10-n14", "binary64-h2-n20",
             "decimal30-h2-n14"],
    )
    def test_artifact_bytes_pinned(self, tmp_path, argv, digests):
        assert run_command(["cycles", *argv, "--out", str(tmp_path)]) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("cycles.csv", "cycles.json")
        )
        assert got == digests

    @pytest.mark.parametrize("backend", [
        ["--backend", "binary64"], ["--backend", "decimal", "--precision", "30"],
        ["--backend", "rational"],
    ], ids=["binary64", "decimal30", "rational"])
    def test_census_formats_each_point_once(self, tmp_path, monkeypatch, backend):
        calls = []
        texts = Census.texts

        def count(census, start, stop):
            calls.append(start)
            return texts(census, start, stop)

        monkeypatch.setattr(Census, "texts", count)
        assert run_command(["cycles", "--h", "2", "--period", "12", *backend,
                            "--out", str(tmp_path)]) == 0
        found = read_json(tmp_path / "cycles.json")["count"]
        assert found == 335
        assert calls == list(range(0, found, TEXT_BLOCK // 13))  # three blocks, each once

    def test_rerun_replaces_each_artifact(self, tmp_path):
        """A re-run writes each artifact as a new file: a hard link to the
        old one keeps its bytes, and a shorter census into the same --out
        equals a fresh run."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        names = ("cycles.csv", "cycles.json")
        assert run_command(["cycles", "--h", "2", "--period", "10", "--out", str(out)]) == 0
        old = {name: (out / name).read_bytes() for name in names}
        for name in names:
            os.link(out / name, tmp_path / f"old_{name}")
        for directory in (out, fresh):
            assert run_command(["cycles", "--h", "2", "--period", "4",
                                "--out", str(directory)]) == 0
        for name in names:
            assert (tmp_path / f"old_{name}").read_bytes() == old[name]
            assert (out / name).read_bytes() == (fresh / name).read_bytes() != old[name]


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


    def test_rational_run_past_the_int_text_limit(self, tmp_path):
        # the 1000-step run's late terms have some 4750 digits, past the
        # 4300 that str() of an int allows, which this must not raise
        limit = sys.get_int_max_str_digits()
        for steps, plot in ((900, []), (1000, ["--plot", "line"])):
            argv = ["stabilize", "--backend", "rational", "--steps", str(steps), *plot,
                    "--out", str(tmp_path / str(steps))]
            assert run_command(argv) == 0
        short, long = ((tmp_path / n / "stabilize.csv").read_text().splitlines()
                       for n in ("900", "1000"))
        assert len(short) == 902 and long[:902] == short  # the header and rows 0-900
        assert len(long[-1]) > 2 * 4300
        svg = (tmp_path / "1000" / "stabilize.svg").read_text()
        assert svg == plot_of_csv(tmp_path / "1000" / "stabilize.csv", "line")
        assert "nan" not in svg and "inf" not in svg
        assert sys.get_int_max_str_digits() == limit


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

    @pytest.mark.parametrize(
        "net", ["uniform:10000000", "triadic:14", "triadic:100000000"]
    )
    def test_net_over_the_cap_rejected_before_any_work(self, tmp_path, capsys, net):
        # triadic:100000000 would take 3^100000000 to size, so the cap is
        # applied to m first
        out = tmp_path / "out"
        assert run_command(["sweep", "--net", net, "--out", str(out)]) == 2
        assert "points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, digests", PINNED_SWEEPS)
    def test_artifact_bytes_pinned(self, tmp_path, argv, digests):
        assert run_command(["sweep", *argv, "--out", str(tmp_path)]) == 0
        assert sweep_digests(tmp_path) == digests

    @pytest.mark.parametrize("argv, digests", PINNED_SWEEPS)
    def test_artifact_bytes_do_not_depend_on_workers(
        self, tmp_path, monkeypatch, forks, argv, digests
    ):
        # small chunks, so that every net has several
        monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", 7)
        for threads in ("1", "2", "0"):
            out = tmp_path / threads
            assert run_command(["sweep", *argv, "--threads", threads, "--out", str(out)]) == 0
            assert sweep_digests(out) == digests
        # two workers for the one pass per chunk, at 2 and at 0 (one per CPU)
        assert len(forks) == 4
        assert not forks.alive()

    def test_worker_error_exits_as_the_serial_run_does(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        kernel = experiments._sweep_chunk_rounded

        def refuse_upper_half(x0s, **kwargs):
            if x0s[0] >= 0.5:
                raise DomainError(f"chunk from {float(x0s[0])!r} refused")
            return kernel(x0s, **kwargs)

        monkeypatch.setattr(experiments, "_sweep_chunk_rounded", refuse_upper_half)
        monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", 64)
        seen = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            code = run_command(["sweep", "--net", "uniform:1000", "--threads", threads,
                                "--out", str(out)])
            seen.append((code, capsys.readouterr().err, out.exists()))
        # chunk 8, from 512/1000, is the first to fail in net order
        assert seen == [(2, "tentlab: error: chunk from 0.512 refused\n", False)] * 2
        assert len(forks) == 2

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_worker_error_keeps_what_out_already_held(
        self, tmp_path, monkeypatch, capsys, forks, threads
    ):
        kernel = experiments._sweep_chunk_rounded

        def refuse_third_chunk(x0s, **kwargs):
            if x0s[0] >= 0.128:
                raise DomainError("refused")
            return kernel(x0s, **kwargs)

        monkeypatch.setattr(experiments, "_sweep_chunk_rounded", refuse_third_chunk)
        monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", 64)
        (tmp_path / "notes.txt").write_text("unrelated")
        argv = ["sweep", "--net", "uniform:1000", "--threads", threads, "--plot", "line"]
        assert run_command([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "tentlab: error: refused\n"
        # two chunks were on disk when the third failed; only the old file is left
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
        assert (tmp_path / "notes.txt").read_text() == "unrelated"

    @pytest.mark.parametrize(
        "backend",
        [["--net", "uniform:200"],
         ["--net", "uniform:60", "--h", "3/2", "--backend", "rational"],
         ["--net", "uniform:40", "--backend", "decimal", "--precision", "30"]],
        ids=["binary64", "rational", "decimal"],
    )
    @pytest.mark.parametrize("style", ["scatter", "line"])
    def test_plot_equals_the_plot_of_the_written_csv(
        self, tmp_path, monkeypatch, forks, backend, style
    ):
        # the floats the workers send must be the cells sweep.csv holds
        svgs = set()
        for chunk_size in (5, 16, 65536):
            monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", chunk_size)
            for threads in ("1", "2"):
                out = tmp_path / f"{chunk_size}-{threads}"
                argv = ["sweep", *backend, "--steps", "20", "--threads", threads,
                        "--plot", style, "--out", str(out)]
                assert run_command(argv) == 0
                svg = (out / "sweep.svg").read_text(encoding="utf-8")
                assert svg == plot_of_csv(out / "sweep.csv", style)
                svgs.add(svg)
        assert len(svgs) == 1
        assert len(forks) == 4  # two per chunk size that leaves two chunks or more

    @pytest.mark.parametrize(
        "backend",
        [[], ["--h", "3/2", "--backend", "rational"],
         ["--backend", "decimal", "--precision", "30"]],
        ids=["binary64", "rational", "decimal"],
    )
    def test_artifacts_do_not_depend_on_chunks_around_the_default(
        self, tmp_path, monkeypatch, forks, backend
    ):
        # 8194 points: two chunks at each size, the second of 3, 2 and 1 points
        assert experiments.DEFAULT_CHUNK_SIZE == 8192
        seen = set()
        for chunk_size in (8191, 8192, 8193):
            monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", chunk_size)
            for threads in ("1", "2"):
                out = tmp_path / f"{chunk_size}-{threads}"
                argv = ["sweep", "--net", "uniform:8193", *backend, "--steps", "8",
                        "--threads", threads, "--plot", "line", "--out", str(out)]
                assert run_command(argv) == 0
                seen.add(tuple((out / name).read_bytes() for name in ("sweep.csv", "sweep.svg")))
        assert len(seen) == 1
        svg = (out / "sweep.svg").read_text(encoding="utf-8")
        assert svg == plot_of_csv(out / "sweep.csv", "line")
        assert len(forks) == 6  # two per chunk size

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_binary64_rows_refuse_an_object_array(
        self, tmp_path, monkeypatch, capsys, forks, threads
    ):
        # the dtype is checked once a chunk, in place of a check per value
        kernel = experiments._sweep_chunk_rounded
        monkeypatch.setattr(experiments, "_sweep_chunk_rounded",
                            lambda x0s, **kwargs: kernel(x0s, **kwargs).astype(object))
        monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", 64)
        out = tmp_path / "out"
        argv = ["sweep", "--net", "uniform:200", "--threads", threads, "--out", str(out)]
        assert run_command(argv) == 2
        assert capsys.readouterr().err == (
            "tentlab: error: expected binary64 values (float64), got object array\n"
        )
        assert not out.exists()

    def test_binary64_rows_survive_the_next_chunk(self):
        # one row table is reused from chunk to chunk; a chunk's rows are a
        # copy of it, left as they were when a later chunk refills the table
        rows = sweeprows.sweep_rows(Binary64(), False)
        chunks = [np.linspace(0.1, 0.9, n) for n in (50, 80, 30)]
        texts = []
        for points in chunks:
            codes = np.arange(len(points), dtype=np.int8) % 4
            texts.append(rows(points, points / 3, codes, points / 7)[0])
        for text, points in zip(texts, chunks):
            assert text.dtype == np.uint8
            want = "".join(f"{x!r},{experiments.KINDS[i % 4].value},{x / 3!r},{x / 7!r}\n"
                           for i, x in enumerate(points.tolist()))
            assert bytes(text).decode("ascii") == want

    @pytest.mark.parametrize("backend", ["binary64", "rational", "decimal"])
    def test_plotted_floats_are_the_cells_written(self, monkeypatch, backend):
        # decimal writes its values quantized, so only parsing the cells
        # is exact on every backend; at 10 digits 1/70 writes as 0.0142857143
        b = make_backend(backend, 10 if backend == "decimal" else None)
        params = MapParams.parse("3/2", b)
        coeffs = build_coefficients(b.parse("6/5"), b)
        chunks = experiments.sweep_chunks(
            sweeprows.sweep_rows(b, True), NetSpec.uniform(70), params, 2, coeffs, 20, 1e-3,
            chunk_size=16,
        )
        for rows, _, (xs, ys) in chunks:
            # binary64 rows are the bytes of a uint8 array, the others a string
            text = rows if isinstance(rows, str) else bytes(rows).decode("ascii")
            cells = [row.split(",") for row in text.splitlines()]
            assert xs.tolist() == [as_float(row[0]) for row in cells]
            assert ys.tolist() == [as_float(row[2]) for row in cells]

    def test_parent_memory_does_not_grow_with_the_net(self, tmp_path, monkeypatch):
        # parent memory is O(workers x chunk): at --threads 1 one chunk at a
        # time, whatever the size of the net
        monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", 512)
        peaks = []
        for size in (1024, 4096, 16384):  # the first run warms up caches
            argv = ["sweep", "--net", f"uniform:{size}", "--threads", "1",
                    "--out", str(tmp_path / str(size))]
            tracemalloc.start()
            try:
                assert run_command(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # measured on CPython 3.11: 284 kB and 311 kB.  A parent that holds
        # the net's columns and rows grows by about 230 bytes a point, and
        # by 2.8 MB from 4096 points to 16384.
        assert peaks[2] < peaks[1] + 64 * 1024

    @pytest.mark.parametrize("backend", ["binary64", "rational"])
    def test_census_memory_per_point_found(self, tmp_path, backend):
        # the census keeps a handful of values a cycle and formats its points
        # a block at a time, so its peak grows by far less than a Python
        # object a point found
        peaks, points = [], []
        for n in (10, 14, 16):  # the first run warms up caches
            out = tmp_path / str(n)
            argv = ["cycles", "--h", "2", "--period", str(n), "--backend", backend,
                    "--out", str(out)]
            tracemalloc.start()
            try:
                assert run_command(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            points.append(n * read_json(out / "cycles.json")["count"])
        # measured on CPython 3.11: 2.4 bytes a point on binary64 and 15 on
        # rational; a Cycle of Python numbers for every cycle took 89 and 145
        assert peaks[2] - peaks[1] <= 32 * (points[2] - points[1])

    def test_plotted_sweep_memory_grows_only_by_the_plotted_columns(
        self, tmp_path, monkeypatch
    ):
        # under --plot the parent keeps two float64 columns, 16 bytes a point,
        # and renders them a slice at a time, never as whole-column lists
        monkeypatch.setattr(experiments, "DEFAULT_CHUNK_SIZE", 512)
        peaks = []
        for size in (1024, 4096, 16384):  # the first run warms up caches
            argv = ["sweep", "--net", f"uniform:{size}", "--threads", "1",
                    "--plot", "scatter", "--out", str(tmp_path / str(size))]
            tracemalloc.start()
            try:
                assert run_command(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # measured on CPython 3.11: 1.11 MB and 1.31 MB, 16 bytes a point, the
        # two columns filled in place.  Holding them once in chunks and once
        # concatenated took 33 bytes a point, and rendering whole-column lists
        # of the scaled values adds about 64 bytes a point more.
        assert peaks[2] < peaks[1] + 24 * (16384 - 4096)

    def test_binary64_cells_skip_repr(self, tmp_path, monkeypatch):
        # Binary64.cells writes the sweep's numbers, and its integer path,
        # not the repr fallback, writes at least 99% of them, so that a
        # slide into the fallback fails here and not only in the benchmark
        written, fallbacks = [], []
        cells = Binary64.cells

        def counted(self, values, out):
            written.append(len(values))
            fallbacks.append(cells(self, values, out))
            return fallbacks[-1]

        monkeypatch.setattr(Binary64, "cells", counted)
        argv = ["sweep", "--net", "uniform:100000", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        assert sum(written) == 3 * 100_001
        # measured: 4, the x0 cells 0.0 and 1.0 and the finals from them
        assert sum(fallbacks) <= 0.01 * sum(written)

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

    def test_decimal_artifact_bytes_pinned(self, tmp_path):
        # recorded when the event's values reached escape.json as floats;
        # they now come as the run's Decimals and float() writes them alike
        argv = ["escape", "--backend", "decimal", "--precision", "30", "--steps", "300"]
        assert run_command([*argv, "--out", str(tmp_path)]) == 0
        assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("escape.csv", "escape.json")] == [
            "1f4f48815851c4eb22979b23ab2fbb70b8894f786611009db9e295a01046cd93",
            "55b50c930e8307d1a43a3076284eb84fe2132eabc22c7d008b0ca57cbde95470",
        ]
        assert read_json(tmp_path / "escape.json")["event"]["escape_index"] == 203


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

    def test_rational_plot_past_the_float_range(self, tmp_path):
        # x_1600 is about phi^1600, some 10^334: its cell plots as inf
        argv = ["fib", "--backend", "rational", "--steps", "1600", "--plot", "line",
                "--out", str(tmp_path)]
        assert run_command(argv) == 0
        last = (tmp_path / "fib.csv").read_text().splitlines()[-1].split(",")[1]
        assert as_float(last) == math.inf
        assert as_float("-" + last) == -math.inf
        assert (tmp_path / "fib.svg").read_text() == plot_of_csv(tmp_path / "fib.csv", "line")


    @pytest.mark.parametrize("backend", ["binary64", "rational"])
    def test_plot_past_the_float_range_draws_its_finite_points(self, tmp_path, backend):
        argv = ["fib", "--backend", backend, "--steps", "1600", "--plot", "line",
                "--out", str(tmp_path)]
        assert run_command(argv) == 0
        svg = (tmp_path / "fib.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        finite = sum(math.isfinite(as_float(line.split(",")[1]))
                     for line in (tmp_path / "fib.csv").read_text().splitlines()[1:])
        assert 1000 < finite < 1601
        assert svg.count(",") == finite  # one x,y pair a drawn point


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


# the census's edge cases: empty, one point a cycle, an onset record, and
# the exact and decimal cells
CENSUSES = [
    ["--h", "1.5", "--period", "3"],
    ["--period", "1"],
    ["--h", "1.9", "--period", "7", "--onset"],
    ["--backend", "rational", "--h", "3/2", "--period", "12"],
    ["--backend", "decimal", "--precision", "30", "--h", "2", "--period", "8"],
]


class TestWriteJson:
    """JSON artifacts are json.dumps' bytes, cycles.json written a cycle at a time too."""

    def test_bytes_equal_json_dumps(self, tmp_path):
        for i, argv in enumerate(CENSUSES):
            out = tmp_path / str(i)
            assert run_command(["cycles", *argv, "--out", str(out)]) == 0
            text = (out / "cycles.json").read_bytes()
            doc = json.loads(text)
            assert text == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(), argv
            assert doc["count"] == len(doc["cycles"]), argv
            assert (doc["count"] == 0) == (i == 0), argv  # only the first census is empty

    def test_json_encoder_runs_do_not_grow_with_the_census(self, tmp_path, monkeypatch):
        runs = []
        iterencode = json.JSONEncoder.iterencode

        def count(self, o, *args, **kwargs):
            runs.append(o)
            return iterencode(self, o, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "iterencode", count)
        counts = []
        for period in ("2", "12"):
            runs.clear()
            out = tmp_path / period
            assert run_command(["cycles", "--h", "2", "--period", period, "--out", str(out)]) == 0
            counts.append(len(runs))
        assert read_json(tmp_path / "12" / "cycles.json")["count"] == 335
        assert counts[0] == counts[1] == 2  # cycles.json's head and tail, and the manifest

    @pytest.mark.parametrize("argv", REPLAY_SET, ids=lambda argv: "-".join(argv[:3]))
    def test_no_artifact_uses_the_pure_python_encoder(self, tmp_path, monkeypatch, argv):
        """json.dumps(indent=2) builds json's pure-Python encoder once a call.
        It may be built once per JSON document written, the whole document
        at once, and never for a CSV, an SVG, a row, a cycle or a point."""
        built = []
        make_iterencode = json.encoder._make_iterencode

        def count(*args, **kwargs):
            built.append(args)
            return make_iterencode(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", count)
        assert run_command([*argv, "--out", str(tmp_path)]) == 0
        documents = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".json")
        assert "manifest.json" in documents
        assert len(built) == len(documents), documents


class TestRunner:
    def test_a_name_yielded_again_appends_to_its_file(self, tmp_path, monkeypatch):
        def stub(ns, b, params, coeffs):
            yield "a.csv", ["x\n", "1\n"]
            yield "b.csv", ["y\n2\n"]
            yield "a.csv", iter(["3\n"])

        monkeypatch.setitem(cli.COMMANDS, "stub", ("yields a.csv twice", stub, ()))
        assert run_command(["stub", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "a.csv").read_text() == "x\n1\n3\n"
        assert (tmp_path / "b.csv").read_text() == "y\n2\n"
        artifacts = read_json(tmp_path / "manifest.json")["artifacts"]
        assert artifacts == ["a.csv", "b.csv", "manifest.json"]

    def test_census_failing_in_a_later_block_leaves_nothing(self, tmp_path, monkeypatch):
        texts = Census.texts
        calls = []

        def fail_second(census, start, stop):
            calls.append(start)
            if len(calls) == 2:
                raise RuntimeError("second block")
            return texts(census, start, stop)

        monkeypatch.setattr(Census, "texts", fail_second)
        out = tmp_path / "out"
        assert run_command(["cycles", "--h", "2", "--period", "12", "--out", str(out)]) == 1
        assert len(calls) == 2
        assert not out.exists()


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

    def test_rerun_removes_the_artifacts_it_no_longer_writes(self, tmp_path):
        # an earlier run's SVG, which its manifest lists, goes; an unlisted file stays
        (tmp_path / "notes.txt").write_text("unrelated")
        argv = ["simulate", "--steps", "10", "--out", str(tmp_path)]
        assert run_command([*argv, "--plot", "line"]) == 0
        assert (tmp_path / "orbit.svg").exists()
        assert run_command(argv) == 0
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == ["manifest.json", "notes.txt", "orbit.csv"]
        assert read_json(tmp_path / "manifest.json")["artifacts"] == [
            "manifest.json", "orbit.csv"]

    def test_rerun_removes_only_plain_file_names_the_old_manifest_lists(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "victim.csv", out / "sub" / "inner.csv", out / "unlisted.csv",
                out / "sub2"]
        for path in kept[:3]:
            path.write_text("kept")
        kept[3].mkdir()
        (out / "stale.csv").write_text("stale")
        listed = ["../victim.csv", "sub/inner.csv", str(tmp_path / "victim.csv"), "..", ".",
                  "", "sub", "sub2", "stale.csv", "nul\0.csv", 7, None]
        (out / "manifest.json").write_text(json.dumps({"schema": 1, "artifacts": listed}))
        assert run_command(["simulate", "--steps", "3", "--out", str(out)]) == 0
        assert all(path.exists() for path in kept)
        assert not (out / "stale.csv").exists()
        # a manifest of another schema is not tentlab's: nothing it lists goes
        (out / "stale.csv").write_text("stale")
        (out / "manifest.json").write_text(json.dumps({"schema": 2, "artifacts": ["stale.csv"]}))
        assert run_command(["simulate", "--steps", "3", "--out", str(out)]) == 0
        assert (out / "stale.csv").exists()

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


PLOTTED = [
    (command, backend)
    for command in ("simulate", "stabilize", "escape", "series", "fib", "spectrum", "sweep")
    for backend in ("binary64", "rational", "decimal")
] + [("sqrt2", None)]


class TestRenderPlot:
    def render(self, xs, ys, style, labels=("n", "x")):
        return "".join(svg_pieces(labels, np.array(xs, dtype=float),
                                  np.array(ys, dtype=float), style))

    @pytest.mark.parametrize("style", ["line", "scatter"])
    @pytest.mark.parametrize("command, backend", PLOTTED)
    def test_svg_is_the_plot_of_its_csv(self, tmp_path, command, backend, style):
        flags = {None: [], "decimal": ["--backend", "decimal", "--precision", "30"]}.get(
            backend, ["--backend", backend])
        assert run_command([command, *flags, "--plot", style, "--out", str(tmp_path)]) == 0
        stem = {"simulate": "orbit"}.get(command, command)
        svg = (tmp_path / f"{stem}.svg").read_text(encoding="utf-8")
        assert svg == plot_of_csv(tmp_path / f"{stem}.csv", style)

    def test_deterministic_bytes(self):
        xs, ys = [0, 1, 2], [0.5, 0.75, 0.375]
        a = "".join(svg_pieces(("n", "x"), xs, ys, "line"))
        b = "".join(svg_pieces(("n", "x"), xs, ys, "line"))
        assert a == b
        assert "timestamp" not in a.lower()

    def test_viewport_is_fixed(self):
        text = self.render([0], [0.5], "scatter")
        assert 'width="800"' in text
        assert 'height="500"' in text
        assert 'viewBox="0 0 800 500"' in text

    def test_header_labels_axes(self):
        text = self.render([1], [2], "line", labels=("time", "value"))
        assert ">time<" in text
        assert ">value<" in text

    def test_empty_table_renders_axes_only(self):
        text = self.render([], [], "line")
        assert "<polyline" not in text
        assert "<circle" not in text
        assert "<rect" in text

    def test_scatter_emits_circles(self):
        text = self.render([0, 1], [1, 2], "scatter")
        assert text.count("<circle") == 2

    def test_picks_first_two_numeric_columns(self, tmp_path):
        # sweep.csv's columns are x0, outcome, final and distance
        argv = ["sweep", "--net", "uniform:4", "--plot", "scatter", "--out", str(tmp_path)]
        assert run_command(argv) == 0
        text = (tmp_path / "sweep.svg").read_text(encoding="utf-8")
        assert ">x0<" in text
        assert ">final<" in text

    def test_unknown_style_rejected(self):
        with pytest.raises(DomainError):
            svg_pieces(("n", "x"), [1], [2], "bars")

    @pytest.mark.parametrize("style", ["line", "scatter"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_points_off_the_finite_plane_are_left_out(self, style, bad):
        # the SVG is that of the finite points alone, on either axis, the first point too
        xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [bad, 0.5, 0.25, 0.75, bad, 1.0]
        kept_xs, kept_ys = zip(*((x, y) for x, y in zip(xs, ys) if math.isfinite(y)))
        want = self.render(kept_xs, kept_ys, style)
        assert "nan" not in want and "inf" not in want
        assert self.render(xs, ys, style) == want
        assert self.render(ys, xs, style) == self.render(kept_ys, kept_xs, style)

    def test_no_finite_point_renders_axes_only(self):
        text = self.render([0.0, 1.0], [math.nan, math.inf], "line")
        assert text == self.render([], [], "line")

    @pytest.mark.parametrize("ys", [[1e300, 1.5e308, -1.7e308], [1e20], [1e20, 1e20]])
    def test_values_near_the_float_range_stay_finite(self, ys):
        text = self.render(range(len(ys)), ys, "line")
        assert "nan" not in text and "inf" not in text

    def test_a_power_of_two_unit_keeps_the_marks(self):
        # past 2**51 an axis counts in a power of two, which rounds nothing
        ys = [0.1, 0.7, 1.9, 0.3, 1e-3]
        marks = []
        for scale in (1.0, 2.0**60, 2.0**1020):  # the last overflowed _scale
            text = self.render(range(len(ys)), [y * scale for y in ys], "line")
            marks.append(re.search(r'<polyline points="([^"]*)"', text).group(1))
        assert marks[0] == marks[1] == marks[2]

    def test_as_float_reads_cells_past_the_int_text_limit(self):
        b = make_backend("rational")
        for x in (Fraction(3**10000 + 1, 3**10000 - 7), Fraction(-(2**20000), 3**12000),
                  Fraction(1, 3**10000), Fraction(7**6000, 3)):
            cell = b.serialize(x)
            assert len(cell) > 4300
            want = float(x) if abs(x) < 2**1024 else math.inf if x > 0 else -math.inf
            assert as_float(cell) == want

    def test_round_trip_through_csv(self, tmp_path):
        run_command(
            ["simulate", "--steps", "5", "--plot", "line", "--out", str(tmp_path)]
        )
        assert (tmp_path / "orbit.csv").read_text().startswith("n,x\n")
        assert plot_of_csv(tmp_path / "orbit.csv", "line") == (
            tmp_path / "orbit.svg"
        ).read_text(encoding="utf-8")


# columns on which Python's min and max depend on the order of comparisons:
# NaN first, NaN opening a later slice of 2 and of 3 (index 6), NaN in
# mid-slice, infinities, and ties of -0.0 with 0.0
AXIS_COLUMNS = [
    [math.nan, 0.5, 1.0, -2.0, 3.0, 0.25, 0.75, 1.5],
    [0.5, 1.0, -2.0, 3.0, 0.25, 0.75, math.nan, 1.5],
    [0.5, 1.0, -2.0, 3.0, math.nan, 0.75, 0.25, 1.5],
    [0.5, math.nan, 1.0, math.nan, -2.0, 3.0, 0.25],
    [0.5, math.inf, -math.inf, 1.0, 2.0, -1.0, 0.0],
    [math.inf, math.inf, math.inf],
    [-0.0, 0.0, 0.0, -0.0, 1.0, -0.0, 0.0],
    [0.0, -0.0, 0.0, -0.0],
    [1.0, -0.0, 0.5, 0.0, -0.0, 0.25, 0.0],
    [2.0],
    [],
]


class TestStreamedRender:
    LENGTHS = (1, 2, 3, svgplot._SLICE)

    @pytest.mark.parametrize("xs", AXIS_COLUMNS)
    @pytest.mark.parametrize("style", ["line", "scatter"])
    def test_render_does_not_depend_on_the_slice_length(
        self, monkeypatch, xs, style
    ):
        ys = xs[3:] + xs[:3]  # the specials at other rows on the other axis
        texts = set()
        for length in self.LENGTHS:
            monkeypatch.setattr(svgplot, "_SLICE", length)
            texts.add("".join(svg_pieces(("x", "y"), np.array(xs, dtype=float),
                                         np.array(ys, dtype=float), style)))
        assert len(texts) == 1

    @pytest.mark.parametrize("values", AXIS_COLUMNS)
    def test_axis_range_is_min_and_max_of_the_list(self, monkeypatch, values):
        values = [v for v in values if not math.isnan(v)]  # svg_pieces passes no NaN
        if values:
            lo, hi = min(values), max(values)
            want = (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)
        else:
            want = (0.0, 1.0)
        for length in self.LENGTHS:
            monkeypatch.setattr(svgplot, "_SLICE", length)
            # repr tells -0.0 and 0.0 apart where == would not
            assert repr(svgplot._axis_range(np.array(values))) == repr(want)


def mark_cells(values):
    """svgplot's .2f text of each value, all of them in [1, 1024)."""
    words = svgplot._cells(svgplot._hundredths(np.array(values, dtype=np.float64)))
    return [row.tobytes().replace(b"\0", b"").decode() for row in words]


# the ends of [1, 1024), where the integer cells hold
MARK_EDGES = [1.0, np.nextafter(1.0, 2.0), np.nextafter(1024.0, 0.0), 1023.995, 1023.994999]
# the bit patterns of [1, 1024)
MARK_BITS = (int(np.float64(1.0).view(np.uint64)), int(np.float64(1024.0).view(np.uint64)) - 1)
# finite values, with the edges of what _unit and _axis_range meet drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
     2.0**51, math.nextafter(2.0**51, 0.0), -(2.0**51), 2.0**52, 1.0, 0.5])


class TestMarkCells:
    """The SVG marks' integer .2f cells against format(v, ".2f")."""

    @given(st.lists(st.floats(min_value=1.0, max_value=1024.0, exclude_max=True), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_any_value_inside_writes_its_format(self, values):
        assert mark_cells(values) == [format(v, ".2f") for v in values]

    @given(st.lists(st.integers(*MARK_BITS), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern_inside_writes_its_format(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert mark_cells(values) == [format(v, ".2f") for v in values.tolist()]

    def test_exact_ties_and_their_neighbours(self):
        # k/8 is exact, so every odd k puts the third decimal at a tie that
        # rounds half-even; its neighbours round away from the tie
        eighths = np.arange(9, 8192) / 8
        values = np.concatenate([eighths, np.nextafter(eighths, 0.0),
                                 np.nextafter(eighths, np.inf), MARK_EDGES])
        assert mark_cells(values) == [format(v, ".2f") for v in values.tolist()]
        assert mark_cells([1.125, 1.375, np.nextafter(1.125, 2.0)]) == ["1.12", "1.38", "1.13"]

    @given(st.lists(st.tuples(FINITE, FINITE), max_size=40), st.sampled_from(["line", "scatter"]))
    @settings(max_examples=300, deadline=None)
    def test_every_mark_of_finite_columns_is_its_format(self, points, style):
        # finite columns scale into [1, 1024), where the integer cells hold
        xs, ys = (np.array([p[i] for p in points], dtype=np.float64) for i in (0, 1))
        want = []
        ends = ((svgplot._LEFT, svgplot._RIGHT), (svgplot._BOTTOM, svgplot._TOP))
        for v, (out_lo, out_hi) in zip((xs, ys), ends):
            v = v / svgplot._unit(v)
            scaled = svgplot._scale(v, *svgplot._axis_range(v), out_lo, out_hi)
            assert ((1.0 <= scaled) & (scaled < 1024.0)).all()
            want.append([format(p, ".2f") for p in scaled.tolist()])
        text = "".join(svg_pieces(("x", "y"), xs, ys, style))
        polyline = re.search(r'<polyline points="([^"]*)"', text)
        marks = ([tuple(m.split(",")) for m in polyline.group(1).split(" ")] if polyline
                 else re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', text))
        assert marks == list(zip(*want))


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
