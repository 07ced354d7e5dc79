"""The golden corpus: each pinned argv writes the artifacts it was recorded with.

tests/golden.json holds every pinned digest and tests/golden.py records
it; see that module for the format and the recorder's command.
"""

import json
import re
from pathlib import Path

import pytest

import golden

CORPUS = golden.load()
BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def argv_id(argv: str) -> str:
    # the 4403-character slope of the long census would fill a line of output
    return " ".join(word if len(word) <= 40 else f"<{len(word)} chars>" for word in argv.split(" "))


@pytest.mark.parametrize("argv", sorted(CORPUS), ids=argv_id)
def test_artifact_bytes_pinned(tmp_path, argv):
    assert golden.run(argv, tmp_path) == golden.artifacts(CORPUS[argv])


def test_corpus_is_in_the_recorders_form():
    assert golden.CORPUS.read_text(encoding="utf-8") == golden.dumps(CORPUS)
    for argv, entry in CORPUS.items():
        assert all(argv.split(" ")), f"{argv!r} does not split back into its words"
        pinned = golden.artifacts(entry)
        assert pinned and all(re.fullmatch("[0-9a-f]{64}", d) for d in pinned.values()), argv
        assert isinstance(entry.get(golden.NOTE, ""), str), argv


def test_recorder_moves_nothing_on_this_tree(tmp_path, monkeypatch, capsys):
    text = golden.CORPUS.read_bytes()
    monkeypatch.setattr(golden, "CORPUS", tmp_path / "golden.json")
    golden.CORPUS.write_bytes(text)
    assert golden.record() == 0
    assert capsys.readouterr().out == ""
    assert golden.CORPUS.read_bytes() == text


def test_recorder_names_what_moved_and_writes_nothing_when_a_run_fails(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(golden, "CORPUS", tmp_path / "golden.json")
    pinned = {"sqrt2": {**CORPUS["sqrt2"], "sqrt2.csv": "0" * 64, "stale.csv": "1" * 64},
              "series --steps 20": {}}
    failing = golden.dumps({**pinned, "sweep --net uniform:x": {}})
    golden.CORPUS.write_text(failing, encoding="utf-8")
    assert golden.record() == 1
    assert golden.CORPUS.read_text(encoding="utf-8") == failing
    assert "sweep --net uniform:x" in capsys.readouterr().err

    golden.CORPUS.write_text(golden.dumps(pinned), encoding="utf-8")
    assert golden.record() == 0
    series = golden.load()["series --steps 20"]["series.csv"]
    assert capsys.readouterr().out.splitlines() == [
        f"series --steps 20  series.csv  - -> {series}",
        f"sqrt2  sqrt2.csv  {'0' * 64} -> {CORPUS['sqrt2']['sqrt2.csv']}",
        f"sqrt2  stale.csv  {'1' * 64} -> -",
    ]
    assert golden.load() == {"series --steps 20": {"series.csv": series}, "sqrt2": CORPUS["sqrt2"]}


def test_shared_entries_agree_with_the_benchmark():
    bench = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))
    shared = {
        (argv, name): (digest, CORPUS[argv][name])
        for entries in bench.values() for argv, artifacts in entries.items() if argv in CORPUS
        for name, digest in artifacts.items() if name in CORPUS[argv]
    }
    assert len(shared) >= 10  # so a renamed argv cannot leave the guard empty
    assert {key: pair for key, pair in shared.items() if pair[0] != pair[1]} == {}
