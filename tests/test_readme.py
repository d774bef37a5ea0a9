"""README's python code blocks run as written and print what their comments
say, so the README cannot name an API the package no longer has."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    """The body of every fenced ```python block, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_blocks_print_their_comments():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in python_blocks(README.read_text()):
            exec(compile(block, str(README), "exec"), {})
    overlap, p_e = printed.getvalue().splitlines()
    assert 0.0 <= float(overlap) < 1e-12  # ~0 : quasi-orthogonal
    assert p_e == "1.0"  # bright fringe
