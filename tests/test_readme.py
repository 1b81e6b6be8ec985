"""README.md's Python examples run as written and print what their comments say."""

import contextlib
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def _print_comments(block: str) -> list:
    """The trailing `# ...` text of each line that starts with print(, in order."""
    lines = block.splitlines()
    return [token.string[1:].strip()
            for token in tokenize.generate_tokens(io.StringIO(block).readline)
            if token.type == tokenize.COMMENT
            and lines[token.start[0] - 1].lstrip().startswith("print(")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_each_print_writes_its_trailing_comment(block):
    expected = _print_comments(block)
    assert len(expected) == sum(line.lstrip().startswith("print(") for line in block.splitlines())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
