"""In-memory spans and counters, attached to tentlab from outside.

`install` wraps the public functions that `tentlab.cli` and
`tentlab.experiments` call, in every tentlab module that holds a reference
to them, so nothing under `src/` changes.  Spans are kept in a list and
handed back when the traced invocation ends; a layer's self time is its
span's duration minus the durations of its direct child spans.

A target that no longer exists is reported as absent instead of failing,
so a later refactor that removes a name only blanks its metric.  Wrapped
functions must run on the thread that opened the enclosing span: the
sweep's worker threads run only the numpy kernel, which is not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _add(counts: dict, name: str, n: int) -> None:
    counts[name] = counts.get(name, 0) + n


def _sweep_points(counts, args, result):
    _add(counts, "experiments.sweep.points", len(result.points))


def _series_len(counts, args, result):
    _add(counts, "experiments.detect_escape.series_len", len(args[0]))


def _cycles_found(counts, args, result):
    _add(counts, "cycles.found", len(result))


# span name -> (module, attribute path, hook adding counts from the call)
SPANS = {
    "experiments.sweep": ("tentlab.experiments", "sweep", _sweep_points),
    "experiments.detect_escape": ("tentlab.experiments", "detect_escape", _series_len),
    "experiments.sqrt2_experiment": ("tentlab.experiments", "sqrt2_experiment", None),
    "stabilize.stabilized_orbit": ("tentlab.stabilize", "stabilized_orbit", None),
    "stabilize.build_coefficients": ("tentlab.stabilize", "build_coefficients", None),
    "cycles.enumerate_cycles": ("tentlab.cycles", "enumerate_cycles", _cycles_found),
    "tentmap.orbit": ("tentlab.tentmap", "orbit", None),
    "svgplot.table_read": ("tentlab.svgplot", "TableFile.read", None),
    "svgplot.render_plot": ("tentlab.svgplot", "render_plot", None),
}

# counter name -> (module, attribute path); counted, too hot for a span each
CALL_COUNTERS = {
    "tentmap.tent_step.calls": ("tentlab.tentmap", "tent_step"),
}

BACKEND_OPS = ("parse", "from_int", "add", "sub", "mul", "div", "neg", "affine",
               "cmp_half", "clamp_unit", "to_float")


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index or -1], plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def spanned(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.absent.append(f"{name} (count hook)")
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _tentlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "tentlab" or n.startswith("tentlab."))]


def _patch(module_name: str, path: str, make) -> bool:
    """Replace module_name.path by make(original) wherever tentlab holds it."""
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError):
        return False
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
        return True
    wrapped = make(raw)
    for module in _tentlab_modules():
        for name, value in list(vars(module).items()):
            if value is raw:
                setattr(module, name, wrapped)
    return True


def install(rec: Recorder) -> None:
    """Wrap every target; names that do not resolve go to rec.absent."""
    for name, (module, path, hook) in SPANS.items():
        if not _patch(module, path, lambda fn, n=name, h=hook: rec.spanned(n, fn, h)):
            rec.absent.append(name)
    for name, (module, path) in CALL_COUNTERS.items():
        if not _patch(module, path, lambda fn, n=name: rec.counted(n, fn)):
            rec.absent.append(name)
    try:
        base = importlib.import_module("tentlab.backends").Backend
    except (ImportError, AttributeError):
        rec.absent += ["backends.calls", "backends.serialize.calls"]
        return
    classes = [base]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for cls in classes:
        for op in BACKEND_OPS + ("serialize",):
            if op in vars(cls):
                name = "backends.serialize.calls" if op == "serialize" else "backends.calls"
                setattr(cls, op, rec.counted(name, vars(cls)[op]))
    rec.counts.setdefault("backends.calls", 0)
    rec.counts.setdefault("backends.serialize.calls", 0)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name, summed over all its spans."""
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), cov in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start - cov) / 1e9
    return out
