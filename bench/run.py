#!/usr/bin/env python3
"""tentlab's benchmark: CLI workloads timed end to end, layers from a trace.

Run from the root of a checkout (nothing needs installing; the children
import tentlab from ./src):

    python3 bench/run.py --workload sweep_b64 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1
    python3 bench/run.py --record-golden

Every invocation of a workload (bench/workloads.py) is a call of
`tentlab.cli.run_command` in a fresh child process (bench/child.py), one
after another: a closed loop with one client and at most two threads.

--trace 0  repeats the workload while it fits in --seconds (at least twice,
           three set-up-only children before each pass) and reports the
           end-to-end metrics: the median per pass of `wall_s` (child start
           to exit, summed over the invocations) and `peak_rss_mb` (largest
           child's own peak RSS), the median `setup_s` (child start until
           tentlab.cli is imported) and `ok_share` (invocations that passed
           every check).  Each child's times are scaled to the host's
           nominal speed by a gauge sampled inside it (bench/hostspeed.py).
--trace 1  runs the workload once untraced and once traced (bench/tracer.py),
           both gauged so that their difference is the tracing overhead,
           checks thread invariance where the workload has a serial twin,
           runs the layer micro-suite (bench/micro.py) and reports the
           per-layer metrics; --seconds is not used.

Either mode also probes the known decimal-backend CLI failure, untimed and
ungated, and prints its exit codes.  Each artifact except manifest.json is
checked against its sha256 in bench/golden.json and against hash-free
oracles; an invocation that exits nonzero or fails a check counts as
failed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import hostspeed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

RUN_LIMIT_S = 160.0  # per workload, children included
SETUP_PER_PASS = 3  # set-up-only children before each pass
MIN_PASSES = 2  # a median of one pass would carry the full pass-to-pass noise
SPAN_SELF_TIMES = (
    "experiments.sweep", "svgplot.table_read", "svgplot.render_plot",
    "cycles.enumerate_cycles", "stabilize.stabilized_orbit",
    "experiments.detect_escape",
)
TRACE_COUNTS = (
    "experiments.sweep.points", "cycles.found", "experiments.detect_escape.series_len",
    "backends.calls", "backends.serialize.calls", "tentmap.tent_step.calls",
)


class Runner:
    """Starts children one at a time and waits for each to end."""

    def __init__(self, workdir: Path, limit_s: float):
        self.workdir = workdir
        self.deadline = time.monotonic() + limit_s
        self.count = 0

    def child(self, mode: str, argv=(), trace: bool = False, gauge: bool = False) -> dict:
        self.count += 1
        result = self.workdir / f"child{self.count}.json"
        spec = {"mode": mode, "argv": list(argv), "trace": trace, "gauge": gauge,
                "src": str(SRC), "result": str(result)}
        env = {k: v for k, v in os.environ.items() if k != "TENTLAB_THREADS"}
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0))
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, "timed out"
        wall = time.monotonic() - t0
        doc = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {}
        result.unlink(missing_ok=True)
        return {
            "code": code,
            "wall": wall,
            "setup": doc["ready"] - t0 if "ready" in doc else None,
            "rss_mb": doc.get("maxrss_kb", 0) / 1024,
            "factor": (statistics.fmean(doc["gauge"]) / hostspeed.NOMINAL_S
                       if doc.get("gauge") else None),
            "stderr": stderr.strip().splitlines()[-1] if stderr.strip() else "",
            "doc": doc,
        }

    def invoke(self, argv, trace: bool = False, check=None, gauge: bool = False) -> dict:
        """Run one CLI invocation into a scratch directory, then delete it.

        The child record gains the artifacts' hashes and the errors found:
        a nonzero exit, or else whatever check(out) reports.
        """
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        rec = self.child("run", [*argv, "--out", str(out)], trace, gauge)
        rec["artifacts"] = artifacts(out) if out.is_dir() else {}
        rec["errors"] = [] if rec["code"] == 0 else [f"exit {rec['code']}: {rec['stderr']}"]
        if check is not None and rec["code"] == 0:
            try:
                rec["errors"] += check(out)
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                rec["errors"].append(f"oracle could not read the artifacts: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return rec


def artifacts(out: Path) -> dict:
    """sha256, size and line count of every artifact except the manifest."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        digest, size, lines = hashlib.sha256(), 0, 0
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
                lines += block.count(b"\n")
        found[path.name] = {"sha256": digest.hexdigest(), "bytes": size, "lines": lines}
    return found


def verify(runner: Runner, inv, golden: dict | None, trace: bool = False,
           gauge: bool = False) -> dict:
    """Run an invocation and list every way its output is wrong."""
    rec = runner.invoke(inv.argv, trace, inv.check, gauge)
    errors = rec["errors"]
    if golden is not None and rec["code"] == 0:
        want = golden.get(inv.key)
        got = {name: a["sha256"] for name, a in rec["artifacts"].items()}
        if want is None:
            errors.append("no golden hashes recorded")
        elif got != want:
            bad = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
            errors.append(f"hash mismatch: {', '.join(bad)}")
    defect = workloads.KNOWN_DEFECTS.get(inv.key)
    rec.update(errors=[e for e in errors if e != defect],
               known=[e for e in errors if e == defect], key=inv.key)
    return rec


def thread_twins(runner: Runner, name: str, golden: dict) -> list[str]:
    """Serial twins must write the same sweep.csv as the threaded runs."""
    errors = []
    for threaded, serial in workloads.THREAD_TWINS.get(name, []):
        rec = runner.invoke(serial)
        want = golden.get(" ".join(threaded), {}).get("sweep.csv")
        got = rec["artifacts"].get("sweep.csv", {}).get("sha256")
        if rec["code"] != 0 or got is None or got != want:
            errors.append(f"sweep.csv of '{' '.join(serial)}' differs from the threaded run")
    return errors


def decimal_probe(runner: Runner) -> dict:
    """Exit status and last stderr line of each known-failing decimal command."""
    codes = {}
    for argv in workloads.DECIMAL_PROBE:
        rec = runner.invoke(argv)
        codes[argv[0]] = (rec["code"], rec["stderr"])
    return codes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def scaled_wall(rec: dict) -> float:
    """A child's wall time at the host's nominal speed."""
    return rec["wall"] / rec["factor"] if rec["factor"] else rec["wall"]


def measure(runner: Runner, invs, golden: dict, seconds: float):
    """Untraced passes while they fit in `seconds`; samples per metric.

    Every child carries the host-speed gauge (hostspeed.py), and each of
    its times is divided by its own gauge factor.
    """
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "raw_wall_s": [],
               "host_factor": []}
    records = []
    t0 = time.monotonic()
    while True:
        setups = [runner.child("setup", gauge=True) for _ in range(SETUP_PER_PASS)]
        recs = [verify(runner, inv, golden, gauge=True) for inv in invs]
        records += recs
        raw_wall = sum(r["wall"] for r in recs)
        wall = sum(map(scaled_wall, recs))
        samples["raw_wall_s"].append(raw_wall)
        samples["host_factor"].append(raw_wall / wall)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(max(r["rss_mb"] for r in recs))
        samples["setup_s"] += [r["setup"] / r["factor"] for r in setups + recs
                               if r["setup"] is not None and r["factor"]]
        done, now = len(samples["wall_s"]), time.monotonic()
        if now > runner.deadline or (
                done >= MIN_PASSES and (now - t0) * (done + 1) / done > seconds):
            break
    failed = sum(1 for r in records if r["errors"])
    samples["ok_share"] = [(len(records) - failed) / len(records)]
    return samples, records


def trace_layers(runner: Runner, name: str, invs, golden: dict):
    """One untraced and one traced pass, the twins and the micro-suite."""
    plain = [verify(runner, inv, golden, gauge=True) for inv in invs]
    traced = [verify(runner, inv, golden, trace=True, gauge=True) for inv in invs]
    extra_errors = thread_twins(runner, name, golden)
    micro = runner.child("micro")

    metrics: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    absent: set[str] = set()
    orbit_calls = 0
    for rec in traced:
        doc = rec["doc"]
        for span, secs in tracer.self_times(doc.get("spans", [])).items():
            self_s[span] = self_s.get(span, 0.0) + secs
        for key, n in doc.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n
        orbit_calls += sum(1 for s in doc.get("spans", []) if s[0] == "stabilize.stabilized_orbit")
        absent.update(doc.get("absent", []))
    for span in SPAN_SELF_TIMES:
        metrics[f"{span}.self_s"] = self_s.get(span, 0.0)
    metrics["cli.self_s"] = self_s.get("cli.run_command", 0.0)
    for key in TRACE_COUNTS:
        metrics[key] = counts.get(key, 0)
    metrics["stabilize.stabilized_orbit.calls"] = orbit_calls
    arts = [a for rec in traced for a in rec["artifacts"].items()]
    metrics["cli.rows_written"] = sum(a["lines"] - 1 for n, a in arts if n.endswith(".csv"))
    metrics["cli.bytes_written"] = sum(a["bytes"] for _, a in arts)
    metrics["svgplot.svg_bytes"] = sum(a["bytes"] for n, a in arts if n.endswith(".svg"))
    metrics["trace_overhead_s"] = (sum(map(scaled_wall, traced))
                                   - sum(map(scaled_wall, plain)))
    metrics["src.lines"] = src_lines()
    micro_doc = micro["doc"].get("micro", {"metrics": {}, "errors": [f"exit {micro['code']}"]})
    metrics.update(micro_doc["metrics"])
    for err in micro_doc["errors"]:
        print(f"micro-suite: {err}")
    if absent:
        print(f"absent trace targets: {', '.join(sorted(absent))}")
    records = plain + traced
    if extra_errors:
        records.append({"errors": extra_errors, "key": "thread invariance"})
    return metrics, records


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[dict, dict]:
    """The result JSON for one workload, plus details kept by --save."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    invs = workloads.WORKLOADS[name](workloads.escape_start(seed))
    workdir = WORK / f"{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, RUN_LIMIT_S)
    try:
        if trace:
            values, records = trace_layers(runner, name, invs, golden)
            listed = spec["per_layer"]
            samples = {}
        else:
            samples, records = measure(runner, invs, golden, seconds)
            values = {k: quartiles(v)[1] for k, v in samples.items()}
            listed = spec["end_to_end"]
        probe = decimal_probe(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  invocations: "
          + "; ".join(inv.key for inv in invs))
    for rec in records:
        for err in rec["errors"]:
            print(f"FAILED {rec['key']}: {err}")
    for key, msg in sorted({(r["key"], m) for r in records for m in r.get("known", [])}):
        print(f"KNOWN DEFECT {key}: {msg}")
    print("decimal probe (untimed, ungated): " + "  ".join(
        f"{cmd}=exit {code}" for cmd, (code, _) in probe.items()))
    first_err = next((msg for code, msg in probe.values() if code), "")
    if first_err:
        print(f"  first error: {first_err}")
    if trace:
        values["cli.decimal_probe.nonzero_exits"] = sum(1 for code, _ in probe.values() if code)
    metrics = {}
    for m in listed:
        value = values.get(m["name"])
        if value is None:
            print(f"{m['name']}: not measured in this tree (absent)")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if m["name"] in samples:
            q1, med, q3 = quartiles(samples[m["name"]])
            print(f"{m['name']:<20} median {med:.6g} {m['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[m['name']])}")
        else:
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{m['name']:<44} {shown} {m['unit']}")
    for key, unit in (("raw_wall_s", "s, unscaled"), ("host_factor", "x nominal time")):
        if key in samples:
            q1, med, q3 = quartiles(samples[key])
            print(f"{key:<20} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}")
    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    walls: dict[str, list[float]] = {}
    for rec in records:
        if "wall" in rec:
            walls.setdefault(rec["key"], []).append(rec["wall"])
    detail = {
        "quartiles_n": {k: [*quartiles(v), len(v)] for k, v in samples.items()},
        "invocation_wall_s_median": {k: statistics.median(v) for k, v in walls.items()},
        "decimal_probe_exit_codes": {cmd: code for cmd, (code, _) in probe.items()},
    }
    return result, detail


def record_golden() -> int:
    """Rewrite golden.json from this tree; refuse if an oracle fails."""
    doc, errors = {}, []
    for name, build in workloads.WORKLOADS.items():
        workdir = WORK / f"{os.getpid()}-record"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = Runner(workdir, RUN_LIMIT_S * 2)
        doc[name] = {}
        try:
            variants = [inv for x0 in workloads.ESCAPE_STARTS for inv in build(x0)]
            for inv in {inv.key: inv for inv in variants}.values():
                rec = verify(runner, inv, None)
                errors += [f"{inv.key}: {e}" for e in rec["errors"]]
                doc[name][inv.key] = {n: a["sha256"] for n, a in rec["artifacts"].items()}
                print(f"{rec['wall']:8.2f} s  {inv.key}")
            errors += thread_twins(runner, name, doc[name])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def save(path: Path, label: str, result: dict) -> None:
    """Merge one result into a record file with the machine's description."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"runs": {}}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    doc.update(git_sha=sha, src_lines=src_lines(), nproc=os.cpu_count(), cpu=cpu,
               python=platform.python_version(), numpy=version("numpy"))
    doc["runs"][label] = result
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from the current tree")
    parser.add_argument("--save", type=Path, help="merge the result into this JSON record")
    args = parser.parse_args()
    if not (SRC / "tentlab" / "cli.py").is_file():
        print(f"bench: no tentlab sources at {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results, details = {}, {}
    try:
        for name in names:
            results[name], details[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), spec)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    if args.save:
        for name, result in results.items():
            save(args.save, f"{name}/trace{args.trace}/seed{args.seed}",
                 {**result, "detail": details[name]})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
