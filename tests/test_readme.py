"""Every ```python block of README.md runs, each in a fresh namespace, and
every `bench run` command of its ```sh blocks plans its grid, so a documented
import path, call or flag cannot break unnoticed."""

import re
import shlex
from pathlib import Path

import pytest

from csreject import cli, harness

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (the README line of the block's first statement, the block's code)
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
]
# (the README line of a `bench run` command, its arguments after `bench`), its continuation lines joined
RUNS = [
    (
        TEXT.count("\n", 0, block.start(1) + match.start()) + 1,
        shlex.split(match.group(0).replace("\\\n", " "), comments=True)[1:],
    )
    for block in re.finditer(r"^```sh\n(.*?)^```$", TEXT, re.S | re.M)
    for match in re.finditer(r"^bench run (?:.*\\\n)*.*$", block.group(1), re.M)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded with blank lines, so a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_has_bench_run_commands():
    assert len(RUNS) >= 3


@pytest.mark.parametrize("line, args", RUNS, ids=[f"README.md:{line}" for line, _ in RUNS])
def test_readme_bench_run_command_plans_its_grid(line, args, tmp_path, monkeypatch):
    # the grid is planned, its data built, and no cell trained
    monkeypatch.setattr(harness, "run_grid", lambda grid, groups, **kwargs: [])
    out = args.index("--out") + 1
    assert cli.main([*args[:out], str(tmp_path / args[out]), *args[out + 1 :]]) == 0
