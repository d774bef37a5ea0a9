"""README's python code blocks run as written and print what their comments
say, so the README cannot name an API the package no longer has; every
`subplanck` command of its CLI examples runs as written and exits 0; and its
install paragraph names every package of pyproject's `test` extra."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from subplanck import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def python_blocks(text: str) -> list[str]:
    """The body of every fenced ```python block, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def cli_examples(text: str) -> list[str]:
    """Each `subplanck` command of the sh block under "CLI examples", with its
    backslash continuations joined."""
    section = text.split("## CLI examples", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("subplanck ")]


EXAMPLES = cli_examples(README.read_text())


@pytest.mark.parametrize("line", EXAMPLES, ids=[f"{i:02d}_{line.split()[1]}" for i, line in enumerate(EXAMPLES)])
def test_cli_examples_run_as_written(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0


def test_python_blocks_print_their_comments():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in python_blocks(README.read_text()):
            exec(compile(block, str(README), "exec"), {})
    overlap, p_e = printed.getvalue().splitlines()
    assert 0.0 <= float(overlap) < 1e-12  # ~0 : quasi-orthogonal
    assert p_e == "1.0"  # bright fringe


def test_install_paragraph_names_every_test_package():
    # the paragraph that lists the `test` extra once left out one of its packages
    tomllib = pytest.importorskip("tomllib")
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    packages = [re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in extra]
    paragraph = next(p for p in README.read_text().split("\n\n") if "The `test` extra adds" in p)
    assert [name for name in packages if not re.search(rf"\b{re.escape(name)}\b", paragraph)] == []
