"""Replay a small seeded grid over every method and setting against its golden rows.

Rates must agree to 1e-6 and reject counts exactly, so any change in the
decisions on any test row fails. To regenerate the golden file after a
deliberate change of results:

    PYTHONPATH=src python tests/test_golden_grid.py
"""

import dataclasses
import os

import pytest

from csreject.harness import GridSpec, read_csv, run_grid, write_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "grid.csv")
METHODS = ("cs-sigmoid", "cs-hinge", "sce", "defer", "angle", "always-reject")
# (setting, dataset); the PU setting needs a binary dataset
BLOCKS = [(s, ds) for s in ("clean", "noisy") for ds in ("twonorm", "gauss3")] + [("pu", "twonorm")]
TOL = 1e-6


def _grid(setting: str, dataset: str) -> GridSpec:
    return GridSpec(
        datasets=(dataset,), methods=METHODS, costs=(0.1, 0.3), trials=1, setting=setting, master_seed=0, epochs=3
    )


def _run_all():
    return [row for setting, ds in BLOCKS for row in run_grid(_grid(setting, ds))]


def test_golden_grid_replays():
    golden = {(r.setting, *r.key()): r for r in read_csv(GOLDEN)}
    rows = _run_all()
    assert len(golden) == len(rows) == 60
    for row in rows:
        ref = golden[(row.setting, *row.key())]
        assert not row.flagged
        assert (row.n_reject_distance, row.n_reject_ambiguity) == (ref.n_reject_distance, ref.n_reject_ambiguity), row
        for field in ("risk01c", "rejection_ratio", "accepted_error"):
            assert getattr(row, field) == pytest.approx(getattr(ref, field), abs=TOL), (field, row)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    # timings are not compared, and zeros keep a regenerated file's diff to what moved
    write_csv([dataclasses.replace(r, train_seconds=0.0) for r in _run_all()], GOLDEN)
    print(f"wrote {GOLDEN}")
