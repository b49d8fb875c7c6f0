"""Replay `bench gradcheck --seed 0` against its golden lines.

Case names and PASS/FAIL must agree exactly. Each printed error (`.2e`) is a
finite-difference error at the rounding level, which another BLAS or numpy
may round differently, so it must only lie within a factor of ERR_FACTOR of
its golden value. To regenerate the golden file after a deliberate change of
results:

    PYTHONPATH=src python tests/test_golden_gradcheck.py
"""

import contextlib
import io
import os
import re

from csreject import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "gradcheck_seed0.txt")
LINE = re.compile(r"\[(PASS|FAIL)\] (.+): max rel err (\S+)")
ERR_FACTOR = 10.0


def _gradcheck_lines() -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["gradcheck", "--seed", "0"])
    return status, out.getvalue()


def _parse(text: str) -> list[tuple[str, str, float]]:
    cases = []
    for line in text.splitlines():
        match = LINE.fullmatch(line)
        assert match, line
        cases.append((match[2], match[1], float(match[3])))
    return cases


def test_gradcheck_lines_replay():
    status, text = _gradcheck_lines()
    with open(GOLDEN) as f:
        golden = _parse(f.read())
    cases = _parse(text)
    assert [(name, verdict) for name, verdict, _ in cases] == [(name, verdict) for name, verdict, _ in golden]
    for (name, _, err), (_, _, ref) in zip(cases, golden):
        assert ref / ERR_FACTOR <= err <= ref * ERR_FACTOR, (name, err, ref)
    assert status == 0


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        f.write(_gradcheck_lines()[1])
    print(f"wrote {GOLDEN}")
