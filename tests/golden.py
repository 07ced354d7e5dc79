"""The golden corpus, tests/golden.json, and its recorder.

The corpus maps each pinned argv, its words joined by single spaces, to
the sha256 of every artifact the run writes but manifest.json:
{argv: {artifact: sha256}}, the shape of each workload's entries in
bench/golden.json.  An entry may also hold a "note", which says what
older implementation its digests were recorded from; it is not an
artifact.  tests/test_golden.py runs every argv and compares the map.

    PYTHONPATH=src python tests/golden.py

runs every argv in the corpus against this tree and rewrites the file in
its one canonical form.  It prints one line for each argv and artifact
whose digest moved, "argv  artifact  old -> new" with "-" for none, and
nothing when none did.  If a run exits non-zero, it writes nothing and
exits 1.  To pin a new argv, add it with an empty map and record.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from tentlab.cli import run_command

CORPUS = Path(__file__).with_name("golden.json")
NOTE = "note"


def load() -> dict[str, dict[str, str]]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def dumps(corpus: dict) -> str:
    """The corpus's canonical text, bench/golden.json's form."""
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def artifacts(entry: dict[str, str]) -> dict[str, str]:
    """An entry's {artifact: sha256}, without its note."""
    return {name: digest for name, digest in entry.items() if name != NOTE}


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file in out but manifest.json."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name != "manifest.json"}


def run(argv: str, out: Path) -> dict[str, str] | None:
    """The digests of the run of argv into out, or None if it exits non-zero."""
    if run_command([*argv.split(" "), "--out", str(out)]) != 0:
        return None
    return digests(out)


def record() -> int:
    corpus, moved, failed = load(), [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (argv, entry) in enumerate(sorted(corpus.items())):
            got = run(argv, Path(tmp) / str(i))
            if got is None:
                failed.append(argv)
                continue
            want = artifacts(entry)
            moved += [f"{argv}  {name}  {want.get(name, '-')} -> {got.get(name, '-')}"
                      for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
            corpus[argv] = {**got, **({NOTE: entry[NOTE]} if NOTE in entry else {})}
    if failed:
        print("\n".join(f"exited non-zero, nothing written: {argv}" for argv in failed),
              file=sys.stderr)
        return 1
    CORPUS.write_text(dumps(corpus), encoding="utf-8")
    for line in moved:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(record())
