"""Write every output that a change meant to keep results identical must keep.

Run it in a checkout of the parent commit and in the change, each into its
own directory, then compare the two:

    PYTHONPATH=src python tools/identity_outputs.py OUT_DIR
    diff -r PARENT_OUT CHANGE_OUT

An empty diff is the proof. OUT_DIR gets:
- golden_grid.csv and golden_grid_csv.csv: the grids of
  tests/test_golden_grid.py, rerun, with train_seconds as 0;
- run_<dataset>_<setting>_jobs<j>.csv: `bench run` rows without the
  train_seconds column, on synthetic twonorm, on gauss3 (no PU: it has three
  classes) and on a CSV file, in every setting, at --jobs 1 and 2; the
  command's report line goes to the matching .txt;
- audit_seed<s>.txt: `bench audit` at the benchmark's arguments, seeds 0, 1, 5;
- gradcheck_seed<s>.txt: `bench gradcheck`, seeds 0, 13 and 19; each .txt
  ends in the command's exit status;
- the input files the runs read (the CSV datasets).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

from csreject import cli  # noqa: E402
from csreject.harness import SETTINGS, write_csv  # noqa: E402
from test_golden_grid import run_csv_grid, run_golden_grid  # noqa: E402

# a small CSV dataset with +-1 labels; its relative name feeds the hashed seeds
CSV_DATASET = "tw.csv"
RUN_ARGS = ["--methods", "cs-sigmoid,cs-hinge,sce,defer,angle,always-reject", "--costs", "0.1,0.3", "--trials", "2",
            "--epochs", "3", "--seed", "42"]
AUDIT_ARGS = ["--draws", "20000", "--calibration-draws", "30", "--excess-instances", "2000"]


def _bench(argv, path: str) -> None:
    """Run `bench argv` in process and write its printed lines and its exit status to path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    with open(path, "w") as f:
        f.write(f"{out.getvalue()}exit status {status}\n")


def _drop_column(path: str, name: str) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col = rows[0].index(name)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(row[:col] + row[col + 1 :] for row in rows)


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    write_csv([dataclasses.replace(r, train_seconds=0.0) for r in run_golden_grid()], "golden_grid.csv")
    write_csv([dataclasses.replace(r, train_seconds=0.0) for r in run_csv_grid()], "golden_grid_csv.csv")

    rng = np.random.default_rng(0)
    y = np.where(rng.random(1000) < 0.5, 1, -1)
    X = rng.standard_normal((1000, 4)) + y[:, None]
    np.savetxt(CSV_DATASET, np.column_stack([X, y]), fmt="%.6f", delimiter=",")
    for dataset in ("twonorm", "gauss3", CSV_DATASET):
        for setting in SETTINGS:
            if setting == "pu" and dataset == "gauss3":
                continue
            for jobs in (1, 2):
                stem = f"run_{dataset.removesuffix('.csv')}_{setting}_jobs{jobs}"
                argv = ["run", "--dataset", dataset, "--setting", setting, "--jobs", str(jobs), *RUN_ARGS]
                _bench([*argv, "--out", f"{stem}.csv"], f"{stem}.txt")
                _drop_column(f"{stem}.csv", "train_seconds")

    for seed in (0, 1, 5):
        _bench(["audit", *AUDIT_ARGS, "--seed", str(seed)], f"audit_seed{seed}.txt")
    for seed in (0, 13, 19):
        _bench(["gradcheck", "--seed", str(seed)], f"gradcheck_seed{seed}.txt")
    print(f"wrote {len(os.listdir('.'))} files to {os.getcwd()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(sys.argv[1])
