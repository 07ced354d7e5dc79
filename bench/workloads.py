"""The benchmark's workloads: fixed lists of real `tentlab` invocations.

Each workload is a list of CLI argument vectors (without `--out`), plus an
oracle per invocation that checks the artifacts against facts that do not
depend on stored hashes.  `sweep_b64` and `cycles_census` read fixed grids;
in `exact_transients` the seed picks the start of both `escape` runs from
the eventually-fixed set that the test suite uses for the escape
dichotomy, so a claim can be re-checked on an unseen seed at equal cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# starts whose exact orbit lands on the fixed point h/(h+1) = 3/5 at h = 3/2
ESCAPE_STARTS = ("2/5", "3/5", "4/15", "11/15")
# binary64 escape index from 0.4, the run the README quotes
ESCAPE_INDEX_FROM_TWO_FIFTHS = 90

SWEEP_1E6 = ("sweep", "--net", "uniform:1000000", "--steps", "50", "--threads", "2")
SWEEP_1E6_SERIAL = ("sweep", "--net", "uniform:1000000", "--steps", "50", "--threads", "1")

# the decimal commands that exit 2 today; probed untimed, never gated
DECIMAL_PROBE = (
    ("stabilize", "--backend", "decimal", "--precision", "30"),
    ("sweep", "--backend", "decimal", "--precision", "30", "--net", "uniform:100"),
    ("escape", "--backend", "decimal", "--precision", "30"),
    ("spectrum", "--backend", "decimal", "--precision", "30"),
)


def mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def lyndon_count(n: int) -> int:
    """Binary Lyndon words of length n: (1/n) * sum over d | n of mu(d) 2^(n/d)."""
    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _check_sweep(size: int) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        doc = _read_json(out, "sweep.json")
        errors = []
        if doc["size"] != size:
            errors.append(f"sweep size {doc['size']} != {size}")
        if sum(doc["counts"].values()) != size:
            errors.append(f"sweep counts sum to {sum(doc['counts'].values())}, not {size}")
        return errors

    return check


def _check_cycles(period: int) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        found = _read_json(out, "cycles.json")["count"]
        want = lyndon_count(period)
        return [] if found == want else [f"{found} cycles of period {period}, Lyndon count {want}"]

    return check


def _check_b64_escape(x0: str) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        event = _read_json(out, "escape.json")["event"]
        if event is None:
            return [f"binary64 escape from {x0} reported no event"]
        if x0 == "2/5" and event["escape_index"] != ESCAPE_INDEX_FROM_TWO_FIFTHS:
            return [f"escape_index {event['escape_index']} != {ESCAPE_INDEX_FROM_TWO_FIFTHS}"]
        return []

    return check


def _check_rational_escape(out: Path) -> list[str]:
    errors = []
    if _read_json(out, "escape.json")["event"] is not None:
        errors.append("rational escape reported an event")
    lines = (out / "escape.csv").read_text(encoding="utf-8").splitlines()
    tail = {line.split(",")[1] for line in lines[2:]}
    if tail != {"3/5"}:
        errors.append(f"rational run left 3/5: {sorted(tail)[:3]}")
    return errors


def _check_sqrt2(out: Path) -> list[str]:
    if _read_json(out, "sqrt2.json")["event"] is None:
        return ["sqrt2 reported no event"]
    return []


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]] = field(compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def escape_start(seed: int) -> str:
    return random.Random(seed).choice(ESCAPE_STARTS)


def _sweep_b64(_x0: str) -> list[Invocation]:
    return [
        Invocation(SWEEP_1E6, _check_sweep(1_000_001)),
        Invocation(
            ("sweep", "--net", "uniform:100000", "--steps", "50", "--plot", "scatter"),
            _check_sweep(100_001),
        ),
    ]


def _cycles_census(_x0: str) -> list[Invocation]:
    return [
        Invocation(("cycles", "--h", "2", "--period", "16"), _check_cycles(16)),
        Invocation(
            ("cycles", "--h", "2", "--period", "14", "--backend", "rational"),
            _check_cycles(14),
        ),
    ]


def _exact_transients(x0: str) -> list[Invocation]:
    return [
        Invocation(
            ("sweep", "--net", "triadic:4", "--backend", "rational", "--steps", "50"),
            _check_sweep(5 * 3**4 + 1),
        ),
        Invocation(("escape", "--steps", "6000", "--x0", x0), _check_b64_escape(x0)),
        Invocation(
            ("escape", "--h", "3/2", "--sigma", "6/5", "--x0", x0,
             "--backend", "rational", "--steps", "300"),
            _check_rational_escape,
        ),
        Invocation(("sqrt2",), _check_sqrt2),
    ]


# workload name -> invocations for an escape start (only exact_transients uses it)
WORKLOADS = {
    "sweep_b64": _sweep_b64,
    "cycles_census": _cycles_census,
    "exact_transients": _exact_transients,
}

# Program defects present when this benchmark was defined, each matched by
# its exact oracle message.  Like a strict xfail, a match is reported on
# every run but not counted as a failed operation; any other message fails.
# binary64 enumerate_cycles closes a cycle only within a fixed 1e-12, which
# rounding amplified by the slope product 2^16 exceeds: 104 of the 4080
# period-16 cycles are dropped (a 1e-9 tolerance finds all 4080), while
# every period up to 15 matches its Lyndon count.
KNOWN_DEFECTS = {
    "cycles --h 2 --period 16": "3976 cycles of period 16, Lyndon count 4080",
}

# pairs whose sweep.csv must hash identically: (timed invocation, serial twin)
THREAD_TWINS = {"sweep_b64": [(SWEEP_1E6, SWEEP_1E6_SERIAL)]}
