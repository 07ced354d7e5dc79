"""What importing tentlab and running one subcommand load: the package's
names on first use, only the library modules the subcommand runs, and
numpy only for a subcommand that runs arrays; a parser alone loads only
the modules that hold its flags' defaults.  No run loads dataclasses, and
only numpy's own import loads inspect."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


# run argv, then print its exit status and the tentlab modules this process
# holds, and numpy, dataclasses and inspect if they are loaded
RUN = """if True:
    import contextlib, io, json, sys
    from tentlab.cli import run_command
    with contextlib.redirect_stdout(io.StringIO()):  # --help's and --version's text
        code = run_command(sys.argv[1:])
    print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "tentlab"
                                   or m in ("numpy", "dataclasses", "inspect"))]))
"""

# what every run loads: tentlab.cli's own imports
CLI = {"tentlab", "tentlab.cli", "tentlab.backends", "tentlab.tentmap"}
ARRAYS = {"tentlab._arrays", "numpy", "inspect"}  # numpy's own import loads inspect
HELD = {"tentlab.experiments", "tentlab.fibonacci"}
SWEEP = {"tentlab.stabilize", "tentlab.basins", "tentlab.sweeprows"}


def importers(top: str) -> list[str]:
    """The package's source files that import top or one of its submodules."""
    found = []
    for path in sorted(Path(tentlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
            if any(name.split(".")[0] == top for name in names):
                found.append(path.name)
    return found


def loads(*argv: str) -> tuple[int, set[str]]:
    code, modules = loaded_after(RUN, *argv)
    return code, set(modules)


def run_loads(tmp_path, *argv: str) -> set[str]:
    code, modules = loads(*argv, "--out", str(tmp_path / "out"))
    assert code == 0
    return modules


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

    def test_import_tentlab_cli_loads_no_numpy(self):
        script = "import json, sys, tentlab.cli; print(json.dumps('numpy' in sys.modules))"
        assert loaded_after(script) is False

    def test_import_tentlab_cli_loads_neither_dataclasses_nor_inspect(self):
        script = """if True:
            import json, sys, tentlab.cli
            print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
        """
        assert loaded_after(script) == []

    def test_one_module_imports_numpy(self):
        assert importers("numpy") == ["_arrays.py"]

    def test_no_module_imports_dataclasses(self):
        assert importers("dataclasses") == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tentlab.no_such_name  # noqa: B018
        assert not hasattr(tentlab, "no_such_name")


class TestModulesARunLoads:
    @pytest.mark.parametrize("argv, own", [
        (("cycles", "--period", "5"), {"tentlab.cycles"}),
        (("stabilize",), {"tentlab.stabilize", "tentlab.basins"}),
        (("spectrum",), {"tentlab.stabilize", "tentlab.cycles"}),
        (("sweep", "--net", "uniform:300"), SWEEP),
        (("sweep", "--net", "uniform:300", "--backend", "rational"), SWEEP),
    ], ids=["cycles", "stabilize", "spectrum", "sweep", "sweep-rational"])
    def test_array_runs_load_numpy_and_only_their_modules(self, tmp_path, argv, own):
        assert run_loads(tmp_path, *argv) == CLI | ARRAYS | own

    @pytest.mark.parametrize("argv, own", [
        (("escape",), {"tentlab.stabilize", "tentlab.experiments"}),
        (("escape", "--backend", "rational", "--steps", "100"),
         {"tentlab.stabilize", "tentlab.experiments"}),
        (("escape", "--backend", "decimal", "--precision", "30"),
         {"tentlab.stabilize", "tentlab.experiments"}),
        (("sqrt2", "--steps", "100"), {"tentlab.experiments"}),
        (("simulate",), set()),
        (("series",), set()),
        (("fib",), {"tentlab.fibonacci"}),
    ], ids=["escape", "escape-rational", "escape-decimal", "sqrt2", "simulate", "series", "fib"])
    def test_scalar_runs_load_no_numpy_unless_plotted(self, tmp_path, argv, own):
        plain = run_loads(tmp_path, *argv)
        assert plain == CLI | own
        assert run_loads(tmp_path, *argv, "--plot", "line") - plain == {"tentlab.svgplot", *ARRAYS}

    @pytest.mark.parametrize("argv, code, own", [
        (("--version",), 0, HELD), (("--help",), 0, HELD), ((), 2, HELD),
        (("frobnicate",), 2, HELD), (("cycles", "--bogus"), 2, set()),
    ], ids=["version", "help", "no-arguments", "unknown-subcommand", "usage-error"])
    def test_a_parser_alone_loads_only_the_defaults_it_reads(self, argv, code, own):
        # the full parser reads defaults that experiments and fibonacci hold
        assert loads(*argv) == (code, CLI | own)

    def test_no_module_is_first_imported_after_a_sweep_forks(self, tmp_path):
        # os.fork records the tentlab modules present at each fork; on two
        # CPUs, whatever the host has, the net's three chunks fork two workers
        script = """if True:
            import json, os, sys
            from tentlab.cli import run_command
            os.sched_getaffinity = lambda pid: {0, 1}
            os.cpu_count = lambda: 2
            def tentlab_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "tentlab"
                              or m in ("numpy", "dataclasses", "inspect"))
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
        assert {"tentlab.basins", "tentlab.svgplot", *ARRAYS} <= set(after)


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
