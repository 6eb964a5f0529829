"""The README's Python examples run, and each ``print`` writes what its
comment says."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: ``print(...)  # shown  (remark)``: the comment up to two spaces is the
#: line the call writes; a remark after them is not output.
PRINT = re.compile(r"^print\(.*\)\s+# (?P<shown>.*?)(?:  .*)?$")


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def promised_lines(block: str) -> list[str]:
    lines = [line for line in block.splitlines() if line.startswith("print(")]
    matches = [PRINT.match(line) for line in lines]
    assert all(matches), f"a print without its output in a comment: {lines}"
    return [m["shown"] for m in matches]


def test_python_examples_print_what_their_comments_say():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        assert out.getvalue().splitlines() == promised_lines(block)
