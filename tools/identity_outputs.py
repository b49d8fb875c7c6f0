"""Write every output that a change meant to keep results identical must keep.

Run the change's copy with the parent commit's src and with the change's,
each into its own directory, then compare the two:

    PYTHONPATH=PARENT/src python tools/identity_outputs.py PARENT_OUT
    PYTHONPATH=src python tools/identity_outputs.py CHANGE_OUT
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
- train_digests.sha256: a SHA-256 of the trained parameters and the traces of
  fixed `models.train` and `weaksup.train_pu` stacks (TRAIN_STACKS), and each
  PU stack's clamp count, so that training proves identical bit for bit, not
  only to the digits a result row prints;
- draws.sha256: a SHA-256 of the X and y of seeded synthetic draws (DRAWS), of
  each oracle's posteriors on a seeded point set, and of the training,
  validation and test sets of synthetic trials (TRIALS), so that the data, the
  oracle and what cells train on prove identical bit for bit too;
- the input files the runs read (the CSV datasets).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

from csreject import cli, weaksup  # noqa: E402
from csreject.core import Dataset, RejectionCost  # noqa: E402
from csreject.data import gen_gauss_mixture  # noqa: E402
from csreject.harness import METHODS, SETTINGS, GridSpec, build_trial_data, dataset_info, write_csv  # noqa: E402
from csreject.models import TrainConfig, make_model, train  # noqa: E402
from test_golden_grid import run_csv_grid, run_golden_grid  # noqa: E402

# a small CSV dataset with +-1 labels; its relative name feeds the hashed seeds
CSV_DATASET = "tw.csv"
RUN_ARGS = ["--methods", "cs-sigmoid,cs-hinge,sce,defer,angle,always-reject", "--costs", "0.1,0.3", "--trials", "2",
            "--epochs", "3", "--seed", "42"]
AUDIT_ARGS = ["--draws", "20000", "--calibration-draws", "30", "--excess-instances", "2000"]
# (model kind, classes, methods of one score width): each stack trains its methods at two costs with
# models.train, and a two-class one with weaksup.train_pu too; the angle stack has scores of width 1
TRAIN_STACKS = [
    ("linear", 2, ("cs-sigmoid", "cs-ramp", "cs-hinge", "sce")),
    ("linear", 2, ("angle",)),
    ("mlp", 2, ("cs-sigmoid", "cs-logistic", "sce")),
    ("mlp", 3, ("cs-sigmoid", "cs-ramp", "sce")),
    ("mlp", 3, ("defer",)),
]

# (dataset, rows, seed): twonorm at its grid's 7400 rows and at its PU pool's 11100, gauss3 at its 12000
DRAWS = [("twonorm", 7400, 0), ("twonorm", 11100, 1), ("gauss3", 12000, 2)]
# (dataset, setting): build_trial_data's synthetic trials, at trials 0 and 1 of a grid seeded 42
TRIALS = [("twonorm", "clean"), ("twonorm", "noisy"), ("twonorm", "pu"), ("gauss3", "clean"), ("gauss3", "noisy")]


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


def _digest(models, traces, *counts) -> str:
    h = hashlib.sha256()
    for model in models:
        for key in sorted(model.params):
            h.update(model.params[key].tobytes())
    h.update(np.asarray(traces, dtype=float).tobytes())  # the bits of each trace entry, whatever its float type
    h.update(repr(counts).encode())
    return h.hexdigest()


def _stack(kind: str, K: int, cells):
    """Fresh models, losses and shuffle seeds for a stack of (method, cost) cells."""
    models = [make_model(kind, 3, METHODS[m].n_out(K), np.random.default_rng(i)) for i, (m, _) in enumerate(cells)]
    return models, [METHODS[m].loss_batch(K, RejectionCost(c)) for m, c in cells], list(range(10, 10 + len(cells)))


def _train_digests(path: str) -> None:
    """One line per TRAIN_STACKS stack and trainer: its name, the PU clamp count and the digest."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 3))
    # the PU batches of 32 draw 5 of the 30 positives per step, 40 per epoch, so a batch wraps around;
    # at prior 0.7 the implied-negative bracket goes negative in some steps of some cells
    positives, unlabeled = rng.normal(loc=1.0, size=(30, 3)), rng.normal(size=(200, 3))
    pu_data = Dataset(np.concatenate([positives, unlabeled]), np.repeat([1, 2], [30, 200]), 2)
    config = TrainConfig(epochs=6, batch_size=32, learning_rate=0.05)
    lines = []
    for kind, K, methods in TRAIN_STACKS:
        cells = [(method, cost) for method in methods for cost in (0.1, 0.3)]
        name = f"{kind} K={K} {','.join(methods)}"
        models, losses, seeds = _stack(kind, K, cells)
        data = Dataset(X, np.argmax(X[:, :K] + 0.5 * rng.normal(size=(300, K)), axis=1) + 1, K)
        lines.append(f"train {name}: {_digest(models, train(models, data, losses, config, seeds))}")
        if K == 2:
            models, losses, seeds = _stack(kind, K, cells)
            traces, clamps = weaksup.train_pu(models, pu_data, losses, 0.7, config, seeds)
            lines.append(f"train_pu {name}, {clamps} clamps: {_digest(models, traces, clamps)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _draw_digests(path: str) -> None:
    """One line per DRAWS draw: the digest of its X and y, and of its oracle's posteriors on 5000 seeded points;
    then one line per TRIALS trial: the digest of its sets' X and y."""
    lines = []
    for name, n, seed in DRAWS:
        data, oracle = gen_gauss_mixture(dataset_info(name).spec, n, np.random.default_rng(seed))
        points = 2.0 * np.random.default_rng(100 + seed).standard_normal((5000, data.X.shape[1]))
        eta = oracle.posterior(points)
        lines.append(f"{name} n={n} seed={seed}: X,y {_sha256(data.X, data.y)}, posterior {_sha256(eta)}")
    for name, setting in TRIALS:
        grid = GridSpec(datasets=(name,), setting=setting, master_seed=42, trials=2)
        for trial in range(grid.trials):
            sets = build_trial_data(grid, dataset_info(name), name, trial)
            digest = _sha256(*(a for part in (sets.train, sets.val, sets.test) for a in (part.X, part.y)))
            rows = ",".join(str(part.n) for part in (sets.train, sets.val, sets.test))
            lines.append(f"trial {name} {setting} {trial}: train,val,test {rows} rows, X,y {digest}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
    _train_digests("train_digests.sha256")
    _draw_digests("draws.sha256")
    print(f"wrote {len(os.listdir('.'))} files to {os.getcwd()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(sys.argv[1])
