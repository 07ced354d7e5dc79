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

A subcommand is a generator of (artifact name, contents) pairs; _run
builds the backend, MapParams and Coefficients its flags ask for, and
writes each artifact as soon as it is yielded, so --out appears only
once the computation has validated its inputs.

Exit codes: 0 success, 2 validation problem (bad flags or bad values),
1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import chain, islice
from pathlib import Path

from . import __version__
from .backends import BackendError, make_backend
from .cycles import enumerate_cycles, onset_threshold
from .experiments import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_FLAT_TOL,
    DEFAULT_MIN_FLAT,
    KINDS,
    SQRT2_SLOPE_DIGITS,
    NetSpec,
    chaotic_series,
    chunk_map,
    classify_outcome,
    detect_escape,
    sqrt2_experiment,
    sqrt2_reference,
    sweep,
)
from .fibonacci import (
    NEAR_STABLE_X1,
    PHI,
    decompose,
    first_crossing,
    predict_escape_index,
    recurrence,
)
from .stabilize import build_coefficients, classify_equilibria, companion_spectrum, stabilized_orbit
from .svgplot import TableFile, render_plot
from .tentmap import MapParams, orbit

DEFAULT_H = "1.5"
DEFAULT_K = 2
DEFAULT_SIGMA = "1.2"
DEFAULT_STEPS = 50
DEFAULT_TOL = 1e-3
DEFAULT_BACKEND = "binary64"

# sweep.csv rows per string; one string per chunk of 65536 rows (3.8 MB)
# raised the peak RSS of a later --plot by 3 MB
CSV_BLOCK_ROWS = 8192

MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"


# --- flags: (long flag, add_argument keywords); the shared ones once here


def flag(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs


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
K = flag("--k", type=int, default=DEFAULT_K, help="iterate power")
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


def escape_flags(jump_tol: float) -> tuple[tuple[str, dict], ...]:
    """The flat-then-jump detector's three thresholds."""
    return (
        flag("--flat-tol", default=DEFAULT_FLAT_TOL,
             type=bounded(float, "flat tolerance", "finite and nonnegative",
                          lambda v: 0 <= v < math.inf)),
        flag("--jump-tol", type=positive_finite("jump tolerance"), default=jump_tol),
        flag("--min-flat", default=DEFAULT_MIN_FLAT,
             type=bounded(int, "min-flat", "nonnegative", lambda v: v >= 0)),
    )


# --- artifacts and the runner


def _csv_lines(rows):
    """Plain comma-joined lines: no cell tentlab writes needs CSV quoting."""
    return (",".join(row) + "\n" for row in rows)


def _write_csv(path: Path, header: tuple[str, ...], text) -> None:
    """The header line, then the body's text pieces as they come."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_lines([header]))
        fh.writelines(text)


def _write_json(path: Path, doc) -> None:
    """Streamed to the file: the same bytes as json.dumps, without the
    whole text and its pieces in memory at once."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parameter(value):
    """A parsed flag value as the manifest records it: numbers as strings."""
    if isinstance(value, list):
        return [_parameter(v) for v in value]
    return value if value is None or isinstance(value, (bool, str)) else str(value)


def _run(ns: argparse.Namespace) -> int:
    """Run a parsed subcommand: its artifacts, its plot, then manifest.json."""
    t0 = time.perf_counter()
    b = make_backend(ns.backend, ns.precision) if "backend" in ns else None
    params = MapParams.parse(ns.h, b) if "h" in ns else None
    coeffs = build_coefficients(b.parse(ns.sigma), b) if "sigma" in ns else None
    out = Path(ns.out)
    artifacts = []
    for name, content in ns.compute(ns, b, params, coeffs):
        out.mkdir(parents=True, exist_ok=True)
        if name.endswith(".csv"):
            _write_csv(out / name, *content)
        else:
            _write_json(out / name, content)
        artifacts.append(name)
    if getattr(ns, "plot", None) is not None:
        table = out / next(n for n in artifacts if n.endswith(".csv"))
        svg = render_plot(TableFile.read(table), ns.plot, table.with_suffix(".svg"))
        artifacts.append(svg.name)
    doc = {
        "schema": MANIFEST_SCHEMA,
        "command": ns.command,
        "parameters": {
            name[2:]: _parameter(getattr(ns, name[2:].replace("-", "_")))
            for name, _ in ns.flags
        },
        "artifacts": sorted(artifacts + [MANIFEST_NAME]),
        "tool_version": __version__,
        "wall_time_seconds": round(time.perf_counter() - t0, 6),
    }
    _write_json(out / MANIFEST_NAME, doc)
    return 0


# --- subcommands: each yields (artifact name, contents) in the order the
# artifacts are written; a CSV's contents are (header, text), the text an
# iterable of whole lines or blocks of them (_csv_lines), a JSON
# artifact's the document.  The text is a generator where it can be, so a
# large CSV is serialized as it is written instead of held in memory.
# --out is added to every subcommand and is the one flag the manifest
# leaves out.

COMMANDS: dict[str, tuple] = {}


def command(name: str, help_text: str, *flags: tuple[str, dict]):
    def register(compute):
        COMMANDS[name] = (help_text, compute, flags)
        return compute

    return register


def _indexed(b, values):
    return _csv_lines((str(i), b.serialize(x)) for i, x in enumerate(values))


@command("simulate", "iterate T^k from a start point",
         H, K, x0_flag("0.5"), steps_flag(DEFAULT_STEPS), *BACKEND, PLOT)
def _cmd_simulate(ns, b, params, coeffs):
    run = orbit(b.parse(ns.x0), params, k=ns.k, steps=ns.steps)
    yield "orbit.csv", (("n", "x"), _indexed(b, run.points))


@command("cycles", "enumerate the period-n cycles at h",
         H, flag("--period", type=int, default=2),
         flag("--onset", action="store_true",
              help="also report the onset threshold for the period"),
         *BACKEND)
def _cmd_cycles(ns, b, params, coeffs):
    record = onset_threshold(ns.period) if ns.onset else None
    found = enumerate_cycles(params, ns.period)
    entries = [  # each value serialized once, for cycles.json and cycles.csv alike
        {
            "points": [b.serialize(x) for x in c.points],
            "itinerary": c.itinerary,
            "multiplier": b.serialize(c.multiplier),
        }
        for c in found
    ]
    doc = {
        "h": b.serialize(params.h),
        "period": ns.period,
        "count": len(found),
        "cycles": entries,
    }
    if record is not None:
        doc["onset"] = {
            "threshold": record.threshold,
            "polynomial": list(record.polynomial),
        }
    yield "cycles.json", doc
    rows = (
        (str(i), str(j), x, e["itinerary"], e["multiplier"])
        for i, e in enumerate(entries)
        for j, x in enumerate(e["points"])
    )
    yield "cycles.csv", (
        ("cycle", "index", "point", "itinerary", "multiplier"), _csv_lines(rows)
    )


@command("stabilize", "run the six-tap averaged recursion from x0",
         H, K, SIGMA, x0_flag("0.5"), steps_flag(DEFAULT_STEPS), TOL, *BACKEND, PLOT)
def _cmd_stabilize(ns, b, params, coeffs):
    run = stabilized_orbit(b.parse(ns.x0), params, ns.k, coeffs, ns.steps)
    outcome = classify_outcome(run, params, ns.tol)
    yield "stabilize.csv", (("n", "x_star"), _indexed(b, run.starred))
    yield "stabilize.json", {
        "x0": b.serialize(run.x0),
        "sigma": b.serialize(coeffs.sigma),
        "coefficients": [b.serialize(a) for a in coeffs.a],
        "final_value": b.serialize(run.starred[-1]),
        "classified_target": outcome.variant.value,
        "distance": outcome.distance,
    }


@command("sweep", "classify stabilized runs from every net point",
         flag("--net", default="uniform:1000",
              help="start-point net, uniform:N or triadic:M"),
         H, K, SIGMA, steps_flag(DEFAULT_STEPS), TOL,
         flag("--threads", type=int, default=None,
              help="worker processes that compute and classify the sweep's "
                   "chunks and format sweep.csv, at most one per chunk and "
                   "per CPU; 0 = one per CPU (default: TENTLAB_THREADS or 1)"),
         *BACKEND, PLOT)
def _cmd_sweep(ns, b, params, coeffs):
    spec = NetSpec.parse(ns.net)
    result = sweep(spec, params, ns.k, coeffs, ns.steps, ns.tol, threads=ns.threads)
    yield "sweep.csv", (
        ("x0", "outcome", "final", "distance"), _sweep_text(b, result, ns.threads)
    )
    yield "sweep.json", {
        "net": str(spec),
        "size": len(result.points),
        "steps": result.steps,
        "tolerance": result.tolerance,
        "counts": {kind.value: n for kind, n in result.counts.items()},
    }


def _sweep_text(b, result, threads):
    """sweep.csv's rows in net order, formatted on chunk_map's workers one
    chunk of the net each, as strings of CSV_BLOCK_ROWS rows."""
    names = [kind.value for kind in KINDS]
    columns = (result.points, result.codes, result.finals, result.distances)

    def chunk_text(index: int) -> list[str]:
        lo = index * DEFAULT_CHUNK_SIZE
        x0s, codes, finals, dists = (
            c[lo : lo + DEFAULT_CHUNK_SIZE].tolist() for c in columns
        )
        rows = zip(map(b.serialize, x0s), map(names.__getitem__, codes),
                   map(b.serialize, finals), map(repr, dists))
        return ["".join(_csv_lines(islice(rows, CSV_BLOCK_ROWS)))
                for _ in range(0, len(x0s), CSV_BLOCK_ROWS)]

    count = -(-len(result.points) // DEFAULT_CHUNK_SIZE)
    return chain.from_iterable(chunk_map(chunk_text, count, threads))


def _event_doc(event, serialize):
    if event is None:
        return None
    return {
        "flat_value": serialize(event.flat_value),
        "flat_start": event.flat_start,
        "escape_index": event.escape_index,
        "terminal_value": serialize(event.terminal_value),
    }


@command("escape", "find the flat-then-jump event in a stabilized run",
         H, K, SIGMA, x0_flag("0.4"), steps_flag(300), *escape_flags(DEFAULT_TOL),
         *BACKEND, PLOT)
def _cmd_escape(ns, b, params, coeffs):
    run = stabilized_orbit(b.parse(ns.x0), params, ns.k, coeffs, ns.steps)
    event = detect_escape(
        run.to_floats(), flat_tol=ns.flat_tol, jump_tol=ns.jump_tol, min_flat=ns.min_flat
    )
    yield "escape.csv", (("n", "x_star"), _indexed(b, run.starred))
    yield "escape.json", {
        "x0": b.serialize(run.x0),
        "steps": ns.steps,
        "event": _event_doc(event, float),
    }


@command("series", "plain chaotic orbit of 1/2 under T",
         H, steps_flag(DEFAULT_STEPS), *BACKEND, PLOT)
def _cmd_series(ns, b, params, coeffs):
    run = chaotic_series(params, ns.steps)
    yield "series.csv", (("n", "x"), _indexed(b, run.points))


@command("sqrt2", "high-precision orbit pinned near 2 - sqrt(2)",
         flag("--h-digits", default=SQRT2_SLOPE_DIGITS,
              help="decimal digit string for the slope"),
         flag("--precision", type=int, default=70),
         steps_flag(600), *escape_flags(1e-2), PLOT)
def _cmd_sqrt2(ns, b, params, coeffs):
    run, event = sqrt2_experiment(
        h_digits=ns.h_digits, precision=ns.precision, steps=ns.steps,
        flat_tol=ns.flat_tol, jump_tol=ns.jump_tol, min_flat=ns.min_flat,
    )
    reference = sqrt2_reference(ns.precision)
    b = run.params.backend
    rows = ((str(i), repr(abs(float(x - reference)))) for i, x in enumerate(run.points))
    yield "sqrt2.csv", (("n", "deviation"), _csv_lines(rows))
    yield "sqrt2.json", {
        "precision": ns.precision,
        "steps": ns.steps,
        "reference": str(reference),
        "final_value": b.serialize(run.points[-1]),
        "event": _event_doc(event, b.serialize),
    }


@command("fib", "additive recurrence with eigen-decomposition",
         x0_flag("1"), flag("--x1", default=NEAR_STABLE_X1), steps_flag(100),
         flag("--threshold", type=float, default=1.0),
         flag("--phase", action="store_true",
              help="also emit consecutive-pair coordinates and manifold slopes"),
         *BACKEND, PLOT)
def _cmd_fib(ns, b, params, coeffs):
    x0 = b.parse(ns.x0)
    x1 = b.parse(ns.x1)
    run = recurrence(x0, x1, ns.steps, b)
    data = decompose(b.to_float(x0), b.to_float(x1))
    doc = {
        "a_u": data.a_u,
        "a_s": data.a_s,
        "threshold": ns.threshold,
        "predicted_escape": predict_escape_index(
            b.to_float(x0), b.to_float(x1), ns.threshold
        ),
        "observed_escape": first_crossing(run, ns.threshold),
    }
    yield "fib.csv", (("n", "x"), _indexed(b, run.seq))
    if ns.phase:
        pairs = (
            (b.serialize(run.seq[i]), b.serialize(run.seq[i + 1]))
            for i in range(len(run.seq) - 1)
        )
        yield "phase.csv", (("x", "x_next"), _csv_lines(pairs))
        doc["unstable_slope"] = PHI
        doc["stable_slope"] = -1.0 / PHI
    yield "fib.json", doc


@command("spectrum", "companion-map spectral radii for cell slopes mu",
         H, K, SIGMA,
         flag("--mu", type=float, nargs="+", default=None,
              help="explicit slopes; default derives them from the equilibria"),
         *BACKEND, PLOT)
def _cmd_spectrum(ns, b, params, coeffs):
    entries = []
    if ns.mu is None:
        for report in classify_equilibria(params, ns.k, coeffs):
            entries.append(
                {
                    "mu": b.to_float(report.slope),
                    "radius": report.spectral_radius,
                    "point": b.serialize(report.point),
                    "stable": report.stable,
                }
            )
    else:
        for mu in ns.mu:
            _, radius = companion_spectrum(mu, coeffs)
            entries.append(
                {"mu": mu, "radius": radius, "point": None, "stable": radius < 1.0}
            )
    rows = [(repr(e["mu"]), repr(e["radius"])) for e in entries]
    yield "spectrum.csv", (("mu", "radius"), _csv_lines(rows))
    yield "spectrum.json", {"sigma": ns.sigma, "entries": entries}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentlab",
        description="Tent-map orbits, cycle algebra, six-tap stabilization, "
        "and escape experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (help_text, compute, flags) in COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        for name, kwargs in flags + (OUT,):
            p.add_argument(name, **kwargs)
        p.set_defaults(compute=compute, flags=flags)
    return parser


def run_command(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write artifacts; return exit status."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
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
        if value is True:
            argv.append(f"--{key}")
        elif isinstance(value, list):
            argv.append(f"--{key}")
            argv.extend(str(v) for v in value)
        else:
            argv.extend([f"--{key}", str(value)])
    argv.extend(["--out", str(out_dir)])
    return run_command(argv)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
