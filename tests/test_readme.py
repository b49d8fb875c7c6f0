"""Every ```python block of README.md runs, each in a fresh namespace, so a
documented import path or call cannot break unnoticed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (the README line of the block's first statement, the block's code)
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded with blank lines, so a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "__readme__"})
