"""README.md stays true: every ```python block runs, each in a fresh namespace; every `bench` command of its
```sh blocks parses under bench's own parser, and a `bench run` plans its grid; every `--option` the text gives
to `bench` is an option of that subcommand; the module table lists each module of the package once; and each
pointer to CHANGES.md quotes the start of an entry's bold title."""

import contextlib
import functools
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import csreject
from csreject import cli, harness

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
FENCES = list(re.finditer(r"^```(\w*)\n(.*?)^```$", TEXT, re.S | re.M))


def _line(pos: int) -> int:
    return TEXT.count("\n", 0, pos) + 1


# (the README line of the block's first statement, the block's code)
BLOCKS = [(_line(fence.start(2)), fence.group(2)) for fence in FENCES if fence.group(1) == "python"]
# (the README line of a `bench` command, its arguments after `bench`), its continuation lines joined
COMMANDS = [
    (_line(fence.start(2) + match.start()), shlex.split(match.group(0).replace("\\\n", " "), comments=True)[1:])
    for fence in FENCES
    if fence.group(1) == "sh"
    for match in re.finditer(r"^bench (?:.*\\\n)*.*$", fence.group(2), re.M)
]


def _option_uses() -> list[tuple[int, str | None, str]]:
    """(README line, subcommand, option) for each `--option` given to bench, in document order: in a `bench`
    command, or a code span that starts with `bench <cmd>`, to that subcommand; in a code span that starts with
    the option, to the subcommand that the text named last."""
    spans, start = [], 0
    for fence in [*FENCES, None]:
        end = fence.start() if fence else len(TEXT)
        spans += [(_line(m.start()), m.group(1)) for m in re.compile(r"`([^`\n]+)`").finditer(TEXT, start, end)]
        if fence:
            first, last = _line(fence.start()), _line(fence.end())
            spans += [(line, shlex.join(["bench", *args])) for line, args in COMMANDS if first <= line <= last]
            start = fence.end()
    uses, command = [], None
    for line, span in spans:
        named = re.match(r"bench (\w+)", span)
        if named:
            command = named.group(1)
        if named or span.startswith("--"):
            uses += [(line, command, option) for option in re.findall(r"(?<![\w-])--[\w-]+", span)]
    return uses


@functools.cache
def _options(command: str) -> frozenset:
    """The options that `bench <command> --help` lists."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return frozenset(re.findall(r"--[\w-]+", out.getvalue()))


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded with blank lines, so a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_has_bench_run_commands():
    assert len([args for _, args in COMMANDS if args[0] == "run"]) >= 3


@pytest.mark.parametrize("line, args", COMMANDS, ids=[f"README.md:{line}" for line, _ in COMMANDS])
def test_readme_bench_command_parses_and_a_run_plans_its_grid(line, args, tmp_path, monkeypatch):
    # a run plans its grid and builds its data, and no cell trains; the other commands stop once parsed
    monkeypatch.setattr(harness, "run_grid", lambda grid, groups, **kwargs: [])
    for name in ("cmd_aggregate", "cmd_audit", "cmd_gradcheck"):
        monkeypatch.setattr(cli, name, lambda args: 0)
    if "--out" in args:
        out = args.index("--out") + 1
        args = [*args[:out], str(tmp_path / args[out]), *args[out + 1 :]]
    assert cli.main(args) == 0


def test_every_option_given_to_bench_is_an_option_of_its_subcommand():
    uses = _option_uses()
    assert len(uses) >= 20
    assert [use for use in uses if use[1] is None or use[2] not in _options(use[1])] == []


def test_the_module_table_lists_each_module_once():
    listed = re.findall(r"^\| `csreject\.(\w+)` \|", TEXT, re.M)
    assert sorted(listed) == sorted(module.name for module in pkgutil.iter_modules(csreject.__path__))


def test_each_pointer_to_changes_quotes_the_start_of_an_entry_title():
    titles = re.findall(r"^- \*\*(.+?)\*\*", (README.parent / "CHANGES.md").read_text(), re.M)
    pointers = [
        title
        for match in re.finditer(r'Measured in CHANGES\.md:((?:\s+"[^"]+",?)+)', TEXT)
        for title in re.findall(r'"([^"]+)"', " ".join(match.group(1).split()))
    ]
    assert len(pointers) >= 7
    assert [pointer for pointer in pointers if not any(title.startswith(pointer) for title in titles)] == []
