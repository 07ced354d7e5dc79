"""What importing tentlab and running one subcommand load: the package's
names on first use, and only the library modules the subcommand runs."""

import json
import os
import subprocess
import sys

import pytest

import tentlab
from tentlab.cli import build_parser

SUBCOMMANDS = (
    "simulate", "cycles", "stabilize", "sweep", "escape",
    "series", "sqrt2", "fib", "spectrum",
)


def loaded_after(script: str, *args: str):
    """The JSON a fresh interpreter prints after running script, uncompiled
    modules compiled from source as in a checkout never imported before."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


# run argv into --out, then print the tentlab modules this process holds
RUN = """if True:
    import json, sys
    from tentlab.cli import run_command
    assert run_command(sys.argv[1:]) == 0
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "tentlab")))
"""


def run_loads(tmp_path, *argv: str) -> set[str]:
    return set(loaded_after(RUN, *argv, "--out", str(tmp_path / "out")))


class TestPackage:
    def test_every_public_name_resolves_to_its_module(self):
        for name in tentlab.__all__:
            value = getattr(tentlab, name)
            if name != "__version__":
                assert getattr(sys.modules[value.__module__], name) is value

    def test_dir_and_star_import_cover_all(self):
        script = """if True:
            import json, sys, tentlab
            loaded = sorted(m for m in sys.modules if m.startswith("tentlab."))
            listed = set(tentlab.__all__) <= set(dir(tentlab))
            names = {}
            exec("from tentlab import *", names)
            print(json.dumps([loaded, listed, sorted(set(names) - {"__builtins__"})]))
        """
        loaded, listed, bound = loaded_after(script)
        assert loaded == []  # import tentlab resolves no name yet
        assert listed
        assert bound == sorted(tentlab.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tentlab.no_such_name  # noqa: B018
        assert not hasattr(tentlab, "no_such_name")


class TestModulesARunLoads:
    def test_census_loads_only_its_modules(self, tmp_path):
        assert run_loads(tmp_path, "cycles", "--period", "5") == {
            "tentlab", "tentlab.cli", "tentlab.backends", "tentlab.tentmap", "tentlab.cycles",
        }

    @pytest.mark.parametrize("argv", [("escape",), ("sqrt2", "--steps", "100")],
                             ids=["escape", "sqrt2"])
    def test_escape_runs_skip_census_and_sweep_modules(self, tmp_path, argv):
        plain = run_loads(tmp_path, *argv)
        skipped = {"tentlab.cycles", "tentlab.sweeprows", "tentlab.fibonacci", "tentlab.svgplot"}
        assert not plain & skipped
        assert {"tentlab.experiments", "tentlab.stabilize"} <= plain
        assert run_loads(tmp_path, *argv, "--plot", "line") - plain == {"tentlab.svgplot"}

    def test_no_module_is_first_imported_after_a_sweep_forks(self, tmp_path):
        # os.fork records the tentlab modules present at each fork; on two
        # CPUs, whatever the host has, the net's three chunks fork two workers
        script = """if True:
            import json, os, sys
            from tentlab.cli import run_command
            os.sched_getaffinity = lambda pid: {0, 1}
            os.cpu_count = lambda: 2
            def tentlab_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "tentlab")
            at_forks, real_fork = [], os.fork
            def fork():
                at_forks.append(tentlab_modules())
                return real_fork()
            os.fork = fork
            assert run_command(sys.argv[1:]) == 0
            print(json.dumps([at_forks, tentlab_modules()]))
        """
        at_forks, after = loaded_after(script, "sweep", "--net", "uniform:20000", "--threads",
                                       "2", "--plot", "scatter", "--out", str(tmp_path))
        assert len(at_forks) == 2
        assert all(modules == after for modules in at_forks)
        assert "tentlab.cycles" not in after


class TestOneSubparser:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_equals_the_full_parsers(self, capsys, command):
        texts = []
        for parser in (build_parser([command, "--help"]), build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert f"usage: tentlab {command} " in texts[0]

    def test_a_named_subcommand_gets_its_parser_alone(self):
        parser = build_parser(["cycles"])
        assert parser.parse_args(["cycles", "--period", "3"]).period == 3
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["fib"])
        assert exc.value.code == 2
