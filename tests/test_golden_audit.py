"""Replay `bench audit` at the benchmark's arguments against its golden lines.

The audit lines print draw counts and disagreement counts, so they must agree
exactly. To regenerate the golden files after a deliberate change of results:

    PYTHONPATH=src python tests/test_golden_audit.py
"""

import contextlib
import io
import os

import pytest

from csreject import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEEDS = (0, 1, 5)
ARGS = ["audit", "--draws", "20000", "--calibration-draws", "30", "--excess-instances", "2000"]


def _golden(seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"audit_seed{seed}.txt")


def _audit_lines(seed: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([*ARGS, "--seed", str(seed)])
    return status, out.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_lines_replay_exactly(seed):
    status, text = _audit_lines(seed)
    with open(_golden(seed)) as f:
        assert text == f.read()
    assert status == 0


if __name__ == "__main__":
    for seed in SEEDS:
        with open(_golden(seed), "w") as f:
            f.write(_audit_lines(seed)[1])
        print(f"wrote {_golden(seed)}")
