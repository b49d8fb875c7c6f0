"""Replay small seeded grids against their golden rows: one over every method
and setting, and one over the five trained methods on a CSV dataset in every
setting, run as `--jobs 2` runs it.

Rates must agree to 1e-6 and reject counts exactly, so any change in the
decisions on any test row fails. To regenerate the golden files after a
deliberate change of results:

    PYTHONPATH=src python tests/test_golden_grid.py
"""

import dataclasses
import os
import tempfile

import numpy as np
import pytest

from csreject.data import gen_twonorm
from csreject.harness import SETTINGS, GridSpec, _CSV_TYPES, _write_rows, cell_groups, read_csv, run_grid

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "grid.csv")
GOLDEN_CSV = os.path.join(os.path.dirname(GOLDEN), "grid_csv.csv")
METHODS = ("cs-sigmoid", "cs-hinge", "sce", "defer", "angle", "always-reject")
# (setting, dataset); the PU setting needs a binary dataset
BLOCKS = [(s, ds) for s in ("clean", "noisy") for ds in ("twonorm", "gauss3")] + [("pu", "twonorm")]
TOL = 1e-6


def _grid(setting: str, dataset: str) -> GridSpec:
    return GridSpec(
        datasets=(dataset,), methods=METHODS, costs=(0.1, 0.3), trials=1, setting=setting, master_seed=0, epochs=3
    )


def run_golden_grid():
    grids = [_grid(setting, ds) for setting, ds in BLOCKS]
    return [row for grid in grids for row in run_grid(grid, cell_groups(grid))]


# the seeds hash the dataset name, so the CSV grid runs on a relative path in
# the working directory
CSV_NAME = "twonorm.csv"


def run_csv_grid(jobs: int = 1):
    """The five trained methods in each setting on a seeded twonorm file with
    +-1 labels, written with six decimals as the benchmark writes its file."""
    ds, _ = gen_twonorm(4000, np.random.default_rng(2024))
    np.savetxt(CSV_NAME, np.column_stack([ds.X, 2 * ds.y - 3]), fmt="%.6f", delimiter=",")
    rows = []
    for setting in SETTINGS:
        grid = GridSpec(datasets=(CSV_NAME,), methods=METHODS[:5], costs=(0.1, 0.3), trials=1, setting=setting, epochs=3)
        rows += run_grid(grid, cell_groups(grid), jobs)
    return rows


def _replay(golden_path, rows, n):
    golden = {(r.setting, *r.key()): r for r in read_csv(golden_path)}
    assert len(golden) == len(rows) == n
    for row in rows:
        ref = golden[(row.setting, *row.key())]
        assert not row.flagged
        assert (row.n_reject_distance, row.n_reject_ambiguity) == (ref.n_reject_distance, ref.n_reject_ambiguity), row
        for field in ("risk01c", "rejection_ratio", "accepted_error"):
            assert getattr(row, field) == pytest.approx(getattr(ref, field), abs=TOL), (field, row)


def test_golden_grid_replays():
    _replay(GOLDEN, run_golden_grid(), 60)


def test_golden_csv_grid_replays(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _replay(GOLDEN_CSV, run_csv_grid(jobs=2), 30)


def _write_golden(rows, path):
    """The rows without the flagged column, which the replay asserts False, so
    that the files keep the 11-column header that read_csv also reads; timings
    are not compared, and zeros keep a regenerated file's diff to what moved."""
    columns = {name: parse for name, parse in _CSV_TYPES.items() if name != "flagged"}
    _write_rows([dataclasses.replace(r, train_seconds=0.0) for r in rows], path, columns)
    print(f"wrote {path}")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    _write_golden(run_golden_grid(), GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_golden(run_csv_grid(), GOLDEN_CSV)
