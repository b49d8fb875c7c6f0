"""Replay small seeded grids against their golden rows: one over every method
and setting, and one over the five trained methods on a CSV dataset.

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
from csreject.harness import GridSpec, read_csv, run_grid, write_csv

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


def _run_all():
    return [row for setting, ds in BLOCKS for row in run_grid(_grid(setting, ds))]


# the seeds hash the dataset name, so the CSV grid runs on a relative path in
# the working directory
CSV_NAME = "twonorm.csv"


def _run_csv():
    """The five trained methods on a seeded twonorm file with +-1 labels,
    written with six decimals as the benchmark writes its file."""
    ds, _ = gen_twonorm(4000, np.random.default_rng(2024))
    np.savetxt(CSV_NAME, np.column_stack([ds.X, 2 * ds.y - 3]), fmt="%.6f", delimiter=",")
    grid = GridSpec(datasets=(CSV_NAME,), methods=METHODS[:5], costs=(0.1, 0.3), trials=1, master_seed=0, epochs=3)
    return run_grid(grid)


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
    _replay(GOLDEN, _run_all(), 60)


def test_golden_csv_grid_replays(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _replay(GOLDEN_CSV, _run_csv(), 10)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    # timings are not compared, and zeros keep a regenerated file's diff to what moved
    write_csv([dataclasses.replace(r, train_seconds=0.0) for r in _run_all()], GOLDEN)
    print(f"wrote {GOLDEN}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_csv([dataclasses.replace(r, train_seconds=0.0) for r in _run_csv()], GOLDEN_CSV)
    print(f"wrote {GOLDEN_CSV}")
