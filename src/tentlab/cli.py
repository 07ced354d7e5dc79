"""Command-line front end: experiment subcommands, CSV/JSON artifacts,
run manifests, and optional SVG plots.

Every subcommand writes its artifacts plus a manifest.json into --out.
One table declares each subcommand's flags; the same table names the
manifest's parameters, which record the exact parameter strings, so
feeding a manifest back through replay_manifest reproduces the CSV
artifacts byte for byte. Numeric flags that a backend interprets (--h,
--x0, --sigma, ...) are kept as strings all the way to Backend.parse,
which is what lets "--h 3/2 --backend rational" stay exact. Every
backend, decimal included, works with every subcommand that takes
--backend, and --plot renders rational columns such as "2/5" too.

A subcommand imports the library modules it runs where it runs them,
svgplot only under --plot, so a run compiles no module it does not run
and import tentlab.cli loads no numpy.  For an argv that names a
subcommand, build_parser adds that subcommand's parser alone (--help,
--version and an unknown name get every subcommand's, with the same
text); a flag default that a library module holds is read from it as
the parser is built.

A subcommand is a generator of (artifact name, pieces) pairs, str or
bytes-like pieces; _run builds the backend, MapParams and Coefficients
its flags ask for, and writes each artifact's pieces as soon as it is
yielded, every artifact and the manifest by the same one binary write.
A name may be yielded again: its pieces then go on the end of the file
opened for it, and every file stays open until the subcommand is done.
Each artifact is a new file: an old one of the same name is unlinked,
not truncated in place, which ext4 (auto_da_alloc) writes back to disk
when it is closed, making a re-run into the same --out an order of
magnitude slower; a hard link to the old file keeps its bytes, and what
the old manifest lists but the run did not write goes.  --out appears
only once the computation has validated its inputs; a run that fails
later deletes the artifacts it opened, and each directory it made for
--out, parents too.  A JSON document is json.dumps' text.  Under --plot
a subcommand also yields the SVG pieces of its first CSV's two columns
(x0 and final under sweep), parsed once from the cells just formatted.

Exit codes: 0 success, 2 validation problem (bad flags or bad values,
an --out that is not a directory), 1 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import math
import operator
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .backends import Binary64, BackendError, FixedDecimal, make_backend
from .tentmap import MapParams, orbit

DEFAULT_H = "1.5"
DEFAULT_K = 2
DEFAULT_SIGMA = "1.2"
DEFAULT_STEPS = 50
DEFAULT_TOL = 1e-3
DEFAULT_BACKEND = "binary64"

MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"


# --- flags: (long flag, add_argument keywords); the shared ones once here


def flag(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs


class Held(NamedTuple):
    """A flag default that a library module holds: read from the module,
    which it imports, as the parser is built."""

    module: str
    name: str

    def read(self):
        return getattr(importlib.import_module(f".{self.module}", __package__), self.name)


def bounded(kind: type, name: str, bound: str, ok):
    """An argparse type: kind(text), refused with exit 2 unless ok(value)."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {bound}, got {text}")
        return value

    return convert


def positive_finite(name: str):
    return bounded(float, name, "positive and finite", lambda v: 0 < v < math.inf)


def steps_flag(default: int) -> tuple[str, dict]:
    return flag("--steps", type=int, default=default)


def x0_flag(default: str) -> tuple[str, dict]:
    return flag("--x0", default=default, help="start value")


H = flag("--h", default=DEFAULT_H, help="map slope, e.g. 1.5 or 3/2")
K = flag("--k", type=bounded(int, "power", "a positive integer", lambda v: v >= 1),
         default=DEFAULT_K, help="iterate power")
SIGMA = flag("--sigma", default=DEFAULT_SIGMA, help="averaging parameter, above 1")
TOL = flag("--tol", type=positive_finite("tolerance"), default=DEFAULT_TOL,
           help="classification distance")
BACKEND = (
    flag("--backend", choices=("binary64", "rational", "decimal"),
         default=DEFAULT_BACKEND, help="number system for all map arithmetic"),
    flag("--precision", type=int, default=None,
         help="significant digits (decimal backend only)"),
)
PLOT = flag("--plot", choices=("line", "scatter"), default=None,
            help="also render the first CSV as an SVG in this style")
OUT = flag("--out", default=".", help="directory receiving artifacts and manifest.json")


def escape_flags(jump_tol: float | Held) -> tuple[tuple[str, dict], ...]:
    """The flat-then-jump detector's three thresholds."""
    return (
        flag("--flat-tol", default=Held("experiments", "DEFAULT_FLAT_TOL"),
             type=bounded(float, "flat tolerance", "finite and nonnegative",
                          lambda v: 0 <= v < math.inf)),
        flag("--jump-tol", type=positive_finite("jump tolerance"), default=jump_tol),
        flag("--min-flat", default=Held("experiments", "DEFAULT_MIN_FLAT"),
             type=bounded(int, "min-flat", "nonnegative", lambda v: v >= 0)),
    )


# --- artifacts and the runner


def _csv(header: tuple[str, ...], body):
    """A CSV's text: the header line, then the body's pieces as they come.
    Rows join their cells with plain commas: no cell tentlab writes needs quoting."""
    return itertools.chain([",".join(header) + "\n"], body)


def _json(doc: dict) -> str:
    """A JSON document's text: json.dumps' bytes with sorted keys, and a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parameter(value):
    """A parsed flag value as the manifest records it: numbers as strings."""
    if isinstance(value, list):
        return [_parameter(v) for v in value]
    return value if value is None or isinstance(value, (bool, str)) else str(value)


def _encoded(piece):
    return piece.encode() if isinstance(piece, str) else piece  # bytes-like pieces as they are


def _run(ns: argparse.Namespace) -> int:
    """Run a parsed subcommand: write its artifacts, then manifest.json."""
    t0 = time.perf_counter()
    out = Path(ns.out)
    there = next(path for path in (out, *out.parents) if path.exists())
    if not there.is_dir():  # a bad value, refused before the run creates anything
        print(f"tentlab: error: --out {out}: {there} is not a directory", file=sys.stderr)
        return 2
    b = make_backend(ns.backend, ns.precision) if "backend" in ns else None
    params = MapParams.parse(ns.h, b) if "h" in ns else None
    coeffs = None
    if "sigma" in ns:
        from .stabilize import build_coefficients

        coeffs = build_coefficients(b.parse(ns.sigma), b)
    made = []  # the directories this run creates for out, parents first
    listed = set()  # what a tentlab manifest already in out lists, before this run's replaces it
    with contextlib.suppress(OSError, ValueError, LookupError, TypeError):
        doc = json.loads((out / MANIFEST_NAME).read_bytes())
        listed = set(doc["artifacts"]) if doc["schema"] == MANIFEST_SCHEMA else set()
    opened = {}  # artifact name -> its file, open until the run ends

    def manifest():  # formatted as it is written, so it lists itself and times the run
        yield _json({
            "schema": MANIFEST_SCHEMA,
            "command": ns.command,
            "parameters": {
                name[2:]: _parameter(getattr(ns, name[2:].replace("-", "_")))
                for name, _ in ns.flags
            },
            "artifacts": sorted(opened),
            "tool_version": __version__,
            "wall_time_seconds": round(time.perf_counter() - t0, 6),
        })

    try:
        with contextlib.ExitStack() as files:
            artifacts = ns.compute(ns, b, params, coeffs)
            for name, pieces in itertools.chain(artifacts, [(MANIFEST_NAME, manifest())]):
                if not opened:  # out and its missing parents, each made as it is reached
                    for path in reversed((out, *out.parents)):
                        if not path.exists():
                            path.mkdir()
                            made.append(path)
                if name not in opened:  # else append to the file its first yield opened
                    (out / name).unlink(missing_ok=True)  # see the module docstring
                    opened[name] = files.enter_context(open(out / name, "wb"))
                opened[name].writelines(map(_encoded, pieces))
    except BaseException:  # leave no partial artifact set behind
        for name in opened:
            (out / name).unlink(missing_ok=True)
        for path in reversed(made):
            path.rmdir()
        raise
    for name in listed.difference(opened):  # stale; only plain file names, not ".."
        if isinstance(name, str) and name == Path(name).name not in ("", ".."):
            with contextlib.suppress(OSError, ValueError):  # ValueError: a NUL in it
                (out / name).unlink(missing_ok=True)
    return 0


# --- subcommands: each yields (artifact name, text pieces) in the order the
# artifacts are written, a name again to append to it, the pieces a
# generator where they can be, so that a large artifact is formatted as it
# is written: a CSV's from _csv, a JSON document's from _json, an SVG's
# from svg_pieces.  --out is added to every subcommand and is the one flag
# the manifest leaves out.

COMMANDS: dict[str, tuple] = {}  # name -> (help, compute, flags)


def command(name: str, help_text: str, *flags: tuple[str, dict]):
    def register(compute):
        COMMANDS[name] = (help_text, compute, flags)
        return compute

    return register


def _indexed(ns, stem: str, label: str, cells: list[str]):
    """stem.csv, the rows "n,cell" of a column, then under --plot stem.svg:
    the cells against their indices."""
    yield f"{stem}.csv", _csv(("n", label), (f"{i},{x}\n" for i, x in enumerate(cells)))
    if ns.plot is not None:
        from .svgplot import as_floats, svg_pieces

        yield f"{stem}.svg", svg_pieces(("n", label), range(len(cells)), as_floats(cells),
                                        ns.plot)


@command("simulate", "iterate T^k from a start point",
         H, K, x0_flag("0.5"), steps_flag(DEFAULT_STEPS), *BACKEND, PLOT)
def _cmd_simulate(ns, b, params, coeffs):
    run = orbit(b.parse(ns.x0), params, k=ns.k, steps=ns.steps)
    yield from _indexed(ns, "orbit", "x", b.texts(run))


# a cycle as json.dumps(indent=2, sort_keys=True) writes it in cycles.json's
# list.  The cells go in unescaped: they are ASCII numerals, p/q fractions
# among them, and itineraries are L and R, in which json.dumps escapes nothing.
_CYCLE_JSON = ('    {\n      "itinerary": "%s",\n      "multiplier": "%s",\n'
               '      "points": [\n        "%s"\n      ]\n    }')


@command("cycles", "enumerate the period-n cycles at h",
         H, flag("--period", type=int, default=2),
         flag("--onset", action="store_true",
              help="also report the onset threshold for the period"),
         *BACKEND)
def _cmd_cycles(ns, b, params, coeffs):
    from .cycles import enumerate_cycles, onset_threshold

    record = onset_threshold(ns.period) if ns.onset else None
    found = enumerate_cycles(params, ns.period)
    n = ns.period
    doc = {"h": b.serialize(params.h), "period": n, "count": len(found), "cycles": []}
    if record is not None:
        doc["onset"] = {"threshold": record.threshold, "polynomial": list(record.polynomial)}
    head, tail = _json(doc).split('"cycles": []')
    yield "cycles.json", [head + '"cycles": [']
    yield "cycles.csv", _csv(("cycle", "index", "point", "itinerary", "multiplier"), ())
    indices = [f"{j}," for j in range(n)]
    for start in range(0, len(found), found.block):  # each block formatted once, for both
        cells, itineraries, multipliers = found.texts(start, start + found.block)
        block = list(zip(itertools.count(start), (cells[i:i + n] for i in range(0, len(cells), n)),
                         itineraries, multipliers))
        yield "cycles.json", (  # a cycle's text at a time: one block's is megabytes
            (",\n" if i else "\n") + _CYCLE_JSON % (w, m, '",\n        "'.join(points))
            for i, points, w, m in block)
        yield "cycles.csv", (  # a cycle's rows: "i," "j,x" ",w,m\ni," "j,x" ... ",w,m\n"
            f"{i}," + f",{w},{m}\n{i},".join(map(operator.add, indices, points)) + f",{w},{m}\n"
            for i, points, w, m in block)
    yield "cycles.json", [("\n  ]" if len(found) else "]") + tail]


@command("stabilize", "run the six-tap averaged recursion from x0",
         H, K, SIGMA, x0_flag("0.5"), steps_flag(DEFAULT_STEPS), TOL, *BACKEND, PLOT)
def _cmd_stabilize(ns, b, params, coeffs):
    from .basins import classify_outcome
    from .stabilize import stabilized_orbit

    run = stabilized_orbit(b.parse(ns.x0), params, ns.k, coeffs, ns.steps)
    kind, distance = classify_outcome(run[-1], params, ns.tol)
    yield from _indexed(ns, "stabilize", "x_star", b.texts(run))
    yield "stabilize.json", [_json({
        "x0": b.serialize(run[0]),
        "sigma": b.serialize(coeffs.sigma),
        "coefficients": b.texts(coeffs.a),
        "final_value": b.serialize(run[-1]),
        "classified_target": kind.value,
        "distance": distance,
    })]


@command("sweep", "classify stabilized runs from every net point",
         flag("--net", default="uniform:1000",
              help="start-point net, uniform:N or triadic:M"),
         H, K, SIGMA, steps_flag(DEFAULT_STEPS), TOL,
         flag("--threads", type=int, default=0,
              help="worker processes that compute and classify the sweep's "
                   "chunks and format sweep.csv, at most one per chunk and "
                   "per CPU; 0 = one per CPU (default: 0)"),
         *BACKEND, PLOT)
def _cmd_sweep(ns, b, params, coeffs):
    from ._arrays import np
    from .basins import KINDS, NetSpec, sweep_chunks
    from .sweeprows import sweep_rows

    spec = NetSpec.parse(ns.net)
    plot = ns.plot is not None
    chunks = sweep_chunks(sweep_rows(b, plot), spec, params, ns.k, coeffs, ns.steps,
                          ns.tol, threads=ns.threads)
    tallies = []
    columns = (np.empty(spec.size), np.empty(spec.size)) if plot else ()

    def text():
        start = 0
        for rows, tally, plotted in chunks:
            tallies.append(tally)
            if plot:
                stop = start + len(plotted[0])
                for column, values in zip(columns, plotted):
                    column[start:stop] = values
                start = stop
            yield rows
            del rows, plotted  # as chunk_map drops its own reference

    yield "sweep.csv", _csv(("x0", "outcome", "final", "distance"), text())
    yield "sweep.json", [_json({
        "net": str(spec),
        "size": spec.size,
        "steps": ns.steps,
        "tolerance": ns.tol,
        "counts": {kind.value: int(n) for kind, n in zip(KINDS, sum(tallies)) if n},
    })]
    if plot:
        from .svgplot import svg_pieces

        yield "sweep.svg", svg_pieces(("x0", "final"), *columns, ns.plot)


def _event_doc(event, serialize):
    return None if event is None else {
        "flat_value": serialize(event.flat_value),
        "flat_start": event.flat_start,
        "escape_index": event.escape_index,
        "terminal_value": serialize(event.terminal_value),
    }


@command("escape", "find the flat-then-jump event in a stabilized run",
         H, K, SIGMA, x0_flag("0.4"), steps_flag(300),
         *escape_flags(Held("experiments", "DEFAULT_JUMP_TOL")), *BACKEND, PLOT)
def _cmd_escape(ns, b, params, coeffs):
    from .experiments import detect_escape
    from .stabilize import stabilized_orbit

    run = stabilized_orbit(b.parse(ns.x0), params, ns.k, coeffs, ns.steps)
    event = detect_escape(run, flat_tol=ns.flat_tol, jump_tol=ns.jump_tol, min_flat=ns.min_flat)
    yield from _indexed(ns, "escape", "x_star", b.texts(run))
    yield "escape.json", [_json({
        "x0": b.serialize(run[0]),
        "steps": ns.steps,
        "event": _event_doc(event, float),
    })]


@command("series", "plain chaotic orbit of 1/2 under T",
         H, steps_flag(DEFAULT_STEPS), *BACKEND, PLOT)
def _cmd_series(ns, b, params, coeffs):
    run = orbit(b.parse("0.5"), params, steps=ns.steps)
    yield from _indexed(ns, "series", "x", b.texts(run))


@command("sqrt2", "high-precision orbit pinned near 2 - sqrt(2)",
         flag("--h-digits", default=Held("experiments", "SQRT2_SLOPE_DIGITS"),
              help="decimal digit string for the slope"),
         flag("--precision", type=int, default=70),
         steps_flag(600), *escape_flags(1e-2), PLOT)
def _cmd_sqrt2(ns, b, params, coeffs):
    from .experiments import sqrt2_experiment, sqrt2_reference

    run, event = sqrt2_experiment(
        h_digits=ns.h_digits, precision=ns.precision, steps=ns.steps,
        flat_tol=ns.flat_tol, jump_tol=ns.jump_tol, min_flat=ns.min_flat,
    )
    reference = sqrt2_reference(ns.precision)
    b = FixedDecimal(ns.precision)
    deviations = [abs(float(x - reference)) for x in run]
    yield from _indexed(ns, "sqrt2", "deviation", Binary64().texts(deviations))
    yield "sqrt2.json", [_json({
        "precision": ns.precision,
        "steps": ns.steps,
        "reference": str(reference),
        "final_value": b.serialize(run[-1]),
        "event": _event_doc(event, b.serialize),
    })]


@command("fib", "additive recurrence with eigen-decomposition",
         x0_flag("1"), flag("--x1", default=Held("fibonacci", "NEAR_STABLE_X1")), steps_flag(100),
         flag("--threshold", type=positive_finite("threshold"), default=1.0),
         flag("--phase", action="store_true",
              help="also emit consecutive-pair coordinates and manifold slopes"),
         *BACKEND, PLOT)
def _cmd_fib(ns, b, params, coeffs):
    from .fibonacci import PHI, decompose, first_crossing, predict_escape_index, recurrence

    x0, x1 = b.parse(ns.x0), b.parse(ns.x1)
    run = recurrence(x0, x1, ns.steps, b)
    f0, f1 = b.to_float(x0), b.to_float(x1)
    data = decompose(f0, f1)
    doc = {
        "a_u": data.a_u,
        "a_s": data.a_s,
        "threshold": ns.threshold,
        "predicted_escape": predict_escape_index(f0, f1, ns.threshold),
        "observed_escape": first_crossing(run, ns.threshold),
    }
    cells = b.texts(run)
    yield from _indexed(ns, "fib", "x", cells)
    if ns.phase:
        yield "phase.csv", _csv(("x", "x_next"), (f"{x},{y}\n" for x, y in zip(cells, cells[1:])))
        doc["unstable_slope"] = PHI
        doc["stable_slope"] = -1.0 / PHI
    yield "fib.json", [_json(doc)]


@command("spectrum", "companion-map spectral radii for cell slopes mu",
         H, K, SIGMA,
         flag("--mu", type=bounded(float, "mu", "finite", math.isfinite), nargs="+",
              default=None, help="explicit slopes; default derives them from the equilibria"),
         *BACKEND, PLOT)
def _cmd_spectrum(ns, b, params, coeffs):
    from .stabilize import classify_equilibria, companion_spectrum

    if ns.mu is None:
        entries = [
            {"mu": b.to_float(r.slope), "radius": r.spectral_radius,
             "point": b.serialize(r.point), "stable": r.stable}
            for r in classify_equilibria(params, ns.k, coeffs)
        ]
    else:
        radii = [companion_spectrum(mu, coeffs)[1] for mu in ns.mu]
        entries = [{"mu": mu, "radius": radius, "point": None, "stable": radius < 1.0}
                   for mu, radius in zip(ns.mu, radii)]
    columns = [Binary64().texts([e[key] for e in entries]) for key in ("mu", "radius")]
    yield "spectrum.csv", _csv(("mu", "radius"), (f"{m},{r}\n" for m, r in zip(*columns)))
    if ns.plot is not None:
        from .svgplot import as_floats, svg_pieces

        yield "spectrum.svg", svg_pieces(("mu", "radius"), *map(as_floats, columns), ns.plot)
    yield "spectrum.json", [_json({"sigma": ns.sigma, "entries": entries})]


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of argv's alone when argv names one;
    the usage line lists every subcommand either way."""
    names = argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS)
    parser = argparse.ArgumentParser(
        prog="tentlab",
        description="Tent-map orbits, cycle algebra, six-tap stabilization, "
        "and escape experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # one subparser's usage line lists every subcommand; the full parser's
    # metavar stays None, so that its errors name the argument "command"
    every = "{" + ",".join(COMMANDS) + "}" if len(names) < len(COMMANDS) else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for cmd in names:
        help_text, compute, flags = COMMANDS[cmd]
        p = sub.add_parser(cmd, help=help_text)
        for name, kwargs in flags + (OUT,):
            p.add_argument(name, **{key: value.read() if isinstance(value, Held) else value
                                    for key, value in kwargs.items()})
        p.set_defaults(compute=compute, flags=flags)
    return parser


def run_command(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write artifacts; return exit status."""
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _run(ns)
    except BackendError as exc:
        print(f"tentlab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"tentlab: internal error: {exc}", file=sys.stderr)
        return 1


def replay_manifest(manifest_path: str | Path, out_dir: str | Path) -> int:
    """Re-run a recorded invocation, directing artifacts to out_dir.

    Reconstructs argv from the manifest's parameter strings; CSV artifacts
    of the replay are byte-identical to the originals.
    """
    doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if doc.get("schema") != MANIFEST_SCHEMA:
        print(
            f"tentlab: error: unsupported manifest schema {doc.get('schema')!r}",
            file=sys.stderr,
        )
        return 2
    argv: list[str] = [doc["command"]]
    for key, value in doc["parameters"].items():
        if value is None or value is False:
            continue
        argv.append(f"--{key}")
        if value is not True:
            argv.extend(map(str, value) if isinstance(value, list) else [str(value)])
    argv.extend(["--out", str(out_dir)])
    return run_command(argv)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
