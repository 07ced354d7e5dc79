"""README's quickstart runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    comments = [line.split("  # ", 1)[1] for line in block.splitlines()
                if line.startswith("print(") and "  # " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 3
    for got, want in zip(printed, comments):
        # a comment ending in "..." gives the start of the line
        assert got.startswith(want[:-3]) if want.endswith("...") else got == want
