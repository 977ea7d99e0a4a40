"""The README's Python examples run as written and print what they say.

Each ```python block runs in a fresh namespace. A `print(...)` line ends
in `# <value>`, and the block's printed lines must equal those values in
order, so an example that prints something unannounced fails too.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=range(len(BLOCKS)))
def test_readme_example(code):
    expected = re.findall(r"^print\(.*\)\s+#\s*(.+?)\s*$", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
