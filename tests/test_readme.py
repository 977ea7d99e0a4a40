"""The README's examples run or parse as written.

Each ```python block runs in a fresh namespace. A `print(...)` line ends
in `# <value>`, and the block's printed lines must equal those values in
order, so an example that prints something unannounced fails too. Each
`privote ...` line of the Command line block parses with the CLI's
parser, so a removed command or flag left in the README fails.
"""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from privote.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = re.findall(
    r"^privote (.*)$",
    re.search(r"^## Command line\n\n```\n(.*?)^```", TEXT, re.M | re.S)[1],
    re.M,
)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=range(len(BLOCKS)))
def test_readme_example(code):
    expected = re.findall(r"^print\(.*\)\s+#\s*(.+?)\s*$", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line))


def test_readme_shows_every_command():
    parser = build_parser()
    subs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {line.split()[0] for line in COMMANDS} == set(subs.choices)
