"""The benchmark's workloads: the input files each one writes from its seed
and the `bench` command lines it runs.

A workload's timed section is one call of `csreject.cli.main` per command
line. Grid commands write their rows under WORK_DIR; the checker reads them
back with `harness.read_csv`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

WORK_DIR = os.path.join("perfbench", ".work")
GOLDEN_DIR = os.path.join("perfbench", "golden")
GOLDEN_SEED = 0

TWONORM_ROWS = 7400
TWONORM_DIM = 20


@dataclass(frozen=True)
class Grid:
    """One `bench run` call and the rows it must produce."""

    name: str
    dataset: str
    methods: tuple[str, ...]
    setting: str
    costs: tuple[float, ...]
    trials: int
    # size of the test split the rows are computed on, so that the reject
    # counts can be checked against rejection_ratio
    n_test: int
    epochs: int | None = None  # None: the CLI default (100)

    def out_path(self, workload: str, seed: int) -> str:
        return os.path.join(WORK_DIR, f"{workload}-{self.name}-s{seed}.csv")

    def golden_path(self, workload: str) -> str:
        return os.path.join(GOLDEN_DIR, f"{workload}-{self.name}.csv")

    def argv(self, workload: str, seed: int) -> list[str]:
        return [
            "run",
            "--dataset", self.dataset,
            "--methods", ",".join(self.methods),
            "--setting", self.setting,
            "--costs", ",".join(f"{c:g}" for c in self.costs),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--jobs", "1",
            "--out", self.out_path(workload, seed),
        ] + (["--epochs", str(self.epochs)] if self.epochs is not None else [])  # fmt: skip

    def cells(self) -> list[tuple]:
        """Expected row keys, as `ResultRow.key()` gives them."""
        return [(self.dataset, m, c, t) for m in self.methods for c in self.costs for t in range(self.trials)]


@dataclass(frozen=True)
class Audit:
    """One `bench audit` or `bench gradcheck` call and the lines it must print."""

    args: tuple[str, ...]
    # PASS/FAIL lines a complete run prints; fewer count as failures
    expected_lines: int

    def argv(self, workload: str, seed: int) -> list[str]:
        return list(self.args)


def twonorm_csv_path(seed: int) -> str:
    return os.path.join(WORK_DIR, f"twonorm-s{seed}.csv")


def write_twonorm_csv(path: str, seed: int) -> None:
    """Twonorm-distributed rows (20 features, label -1/+1 last), from the seed.

    Written to a temporary name and renamed, so a reader never sees half a file.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    y = np.where(rng.random(TWONORM_ROWS) < 0.5, 1, -1)
    X = rng.standard_normal((TWONORM_ROWS, TWONORM_DIM)) + (2.0 / np.sqrt(TWONORM_DIM)) * y[:, None]
    tmp = f"{path}.{os.getpid()}.tmp"
    np.savetxt(tmp, np.column_stack([X, y]), fmt="%.6f", delimiter=",")
    os.replace(tmp, path)


def grids(workload: str, seed: int) -> list[Grid]:
    if workload == "clean-csv":
        methods = ("cs-sigmoid", "cs-hinge", "sce", "defer", "angle")
        # split fractions (0.5, 0.1, 0.4) leave 2960 of 7400 rows for test
        return [Grid("clean", twonorm_csv_path(seed), methods, "clean", (0.2,), 1, 2960)]
    if workload == "weak-synth":
        methods = ("cs-sigmoid", "cs-ramp")
        # 40 epochs keep one repetition near 2 s, so a run holds enough
        # repetitions for a steady median on a noisy shared machine
        return [
            # PU fractions (0.5, 0.2, 0.3) of 7400 synthetic twonorm rows
            Grid("pu", "twonorm", methods, "pu", (0.2,), 1, 2220, epochs=40),
            # (0.5, 0.1, 0.4) of 12000 synthetic gauss3 rows; at cost 0.2 the
            # 0.25 label noise makes rejecting every row Bayes-optimal
            Grid("noisy", "gauss3", methods, "noisy", (0.4,), 1, 4800, epochs=40),
        ]
    return []


def audits(workload: str, seed: int) -> list[Audit]:
    if workload != "audit":
        return []
    return [
        # oracle equivalence, four calibration losses, the excess-risk chain
        # and the witness: seven lines
        Audit(
            ("audit", "--draws", "20000", "--calibration-draws", "30", "--excess-instances", "2000", "--seed", str(seed)),
            expected_lines=7,
        ),
        # the gradient suite at its default seed, as the acceptance gate runs it
        Audit(("gradcheck", "--seed", "0"), expected_lines=33),
    ]


WORKLOADS = ("clean-csv", "weak-synth", "audit")


def prepare(workload: str, seed: int) -> list:
    """Write the workload's input files and build its command list."""
    os.makedirs(WORK_DIR, exist_ok=True)
    if workload == "clean-csv":
        write_twonorm_csv(twonorm_csv_path(seed), seed)
    return grids(workload, seed) + audits(workload, seed)
