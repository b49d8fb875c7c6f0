"""Experiment grid runner: methods x costs x trials with seeded cells,
aggregation to mean +- standard error, and CSV emission."""

from __future__ import annotations

import csv
import functools
import hashlib
import os
import time
from dataclasses import astuple, dataclass
from itertools import compress
from typing import Callable

import numpy as np

from . import baselines, data as data_mod, weaksup
from .core import CODE_DISTANCE, Dataset, RejectionCost, compute_metrics
from .losses import MARGIN_LOSSES
from .models import TrainConfig, make_model, train
from .surrogate import cs_loss_batch, decide_batch

DEFAULT_COSTS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
SETTINGS = ("clean", "noisy", "pu")

CSV_HEADER = (
    "dataset,method,setting,cost,trial,risk01c,rejection_ratio,"
    "accepted_error,n_reject_distance,n_reject_ambiguity,train_seconds"
)
# the type of each CSV_HEADER column, in the order of ResultRow's fields
_CSV_TYPES = (str, str, str, float, int, float, float, float, int, int, float)


@dataclass(frozen=True)
class GridSpec:
    datasets: tuple[str, ...] = ("twonorm",)
    methods: tuple[str, ...] = ("cs-sigmoid", "cs-hinge")
    costs: tuple[float, ...] = DEFAULT_COSTS
    trials: int = 10
    setting: str = "clean"
    master_seed: int = 0
    noise_rate: float = 0.25
    prior: float = 0.7
    epochs: int | None = None  # None -> the per-setting default (100)
    batch_size: int | None = None  # None -> 256 (64 for PU)
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for c in self.costs:
            RejectionCost(c)
        if unknown := [m for m in self.methods if m not in METHODS]:
            raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")

    def dataset_infos(self) -> dict[str, DatasetInfo]:
        """Every dataset of the grid, resolved and checked against the setting."""
        infos = {name: dataset_info(name) for name in self.datasets}
        if self.setting == "pu" and (multiclass := [name for name, info in infos.items() if info.K != 2]):
            raise ValueError(f"the PU setting requires binary datasets; {multiclass} have more than two classes")
        return infos

    def cells(self):
        for ds in self.datasets:
            for method in self.methods:
                for cost in self.costs:
                    for trial in range(self.trials):
                        yield (ds, method, cost, trial)


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    method: str
    setting: str
    cost: float
    trial: int
    risk01c: float
    rejection_ratio: float
    accepted_error: float
    n_reject_distance: int
    n_reject_ambiguity: int
    train_seconds: float
    flagged: bool = False

    def key(self):
        return (self.dataset, self.method, self.cost, self.trial)


def _mix_seed(*parts) -> int:
    key = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# dataset registry


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    K: int
    model_kind: str
    total_n: int
    spec: data_mod.GaussianMixtureSpec | None = None
    csv_path: str | None = None


def _gauss3_spec() -> data_mod.GaussianMixtureSpec:
    means = 2.0 * np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    covs = np.stack([np.eye(2)] * 3)
    return data_mod.GaussianMixtureSpec(means, covs, np.full(3, 1 / 3))


def dataset_info(name: str) -> DatasetInfo:
    if name == "twonorm":
        return DatasetInfo(name, K=2, model_kind="linear", total_n=7400, spec=data_mod.twonorm_spec())
    if name == "gauss3":
        return DatasetInfo(name, K=3, model_kind="mlp", total_n=12000, spec=_gauss3_spec())
    if name.endswith(".csv"):
        loaded = _csv_dataset(name)
        kind = "linear" if loaded.K == 2 else "mlp"
        return DatasetInfo(name, K=loaded.K, model_kind=kind, total_n=loaded.n, csv_path=name)
    raise ValueError(f"unknown dataset {name!r} (expected twonorm, gauss3, or a .csv path)")


@functools.lru_cache(maxsize=8)
def _parse_csv(path: str, mtime_ns: int, size: int) -> Dataset:
    ds = data_mod.load_csv(path)
    # every cell of the process shares these arrays, so nothing may write to them
    ds.X.flags.writeable = False
    ds.y.flags.writeable = False
    return ds


def _csv_dataset(path: str) -> Dataset:
    """load_csv once per process; a changed modification time or size re-reads the file."""
    st = os.stat(path)
    return _parse_csv(path, st.st_mtime_ns, st.st_size)


def _source_dataset(info: DatasetInfo, n: int, rng: np.random.Generator) -> Dataset:
    if info.csv_path is not None:
        return _csv_dataset(info.csv_path)
    ds, _ = data_mod.gen_gauss_mixture(info.spec, n, rng)
    return ds


# ---------------------------------------------------------------------------
# method registry


@dataclass(frozen=True)
class Method:
    """One method of the grid. n_out(K): the score width. loss_batch(K, cost):
    the training loss (G, y) -> (losses, dG), or None for a rule that trains
    nothing. decide(G, K, cost, tuned): decision codes of test scores G.
    tune(model, val, K, cost): `tuned`, picked on the standardized validation split."""

    n_out: Callable[[int], int]
    loss_batch: Callable | None
    decide: Callable[..., np.ndarray]
    tune: Callable | None = None


def _cs_method(loss) -> Method:
    """The paper's method: L_CS with one margin loss, decided by the ensemble rule."""
    return Method(
        n_out=lambda K: K,
        loss_batch=lambda K, cost: lambda G, y: cs_loss_batch(loss, cost, G, y),
        decide=lambda G, K, cost, tuned: decide_batch(G),
    )


def _angle_config(K: int, cost: RejectionCost):
    return baselines.AngleConfig(K, baselines.bend_slopes(K, cost)[0])


# Each callable looks the package's functions up when it is called, so a
# wrapper installed on a module attribute sees every cell's calls.
METHODS: dict[str, Method] = {
    **{f"cs-{name}": _cs_method(loss) for name, loss in MARGIN_LOSSES.items()},
    # Chow 1970: softmax cross-entropy, then Chow's rule on tempered
    # probabilities; T = 1 is on the tuning grid, so tuning never loses to it
    "sce": Method(
        n_out=lambda K: K,
        loss_batch=lambda K, cost: baselines.sce_loss_batch,
        decide=lambda G, K, cost, T: baselines.sce_decide_batch(G, T, cost),
        tune=lambda model, val, K, cost: baselines.tune_temperature(model, val, cost),
    ),
    # Mozannar & Sontag 2020: a (K+1)-th rejection class
    "defer": Method(
        n_out=lambda K: K + 1,
        loss_batch=lambda K, cost: baselines.defer_loss_batch(cost),
        decide=lambda G, K, cost, tuned: baselines.defer_decide_batch(G),
    ),
    # Zhang, Wang & Qiao 2018: simplex-vertex scores and a bent hinge; the
    # untuned delta = 0 leads the candidates, so tuning never loses to it
    "angle": Method(
        n_out=lambda K: K - 1,
        loss_batch=lambda K, cost: baselines.angle_loss_batch(_angle_config(K, cost)),
        decide=lambda G, K, cost, delta: baselines.angle_decide_batch(G, baselines.angle_vertices(K), delta),
        tune=lambda model, val, K, cost: baselines.tune_delta(
            model, val, cost, _angle_config(K, cost), [0.0] + baselines.default_candidates()
        ),
    ),
    # the trivial reference: reject every row, for a risk of exactly c
    "always-reject": Method(
        n_out=lambda K: K, loss_batch=None, decide=lambda G, K, cost, tuned: np.full(len(G), CODE_DISTANCE)
    ),
}


# ---------------------------------------------------------------------------
# grouped training and per-cell execution


@dataclass(frozen=True)
class Trained:
    """A cell's part of its group's training: the model (None for a rule that
    trains nothing) and its trace, the split it is tuned and scored on, and
    its share of the group's training seconds."""

    model: object
    trace: list
    scaler: data_mod.Standardizer | None
    val_ds: Dataset
    test_ds: Dataset
    seconds: float


def cell_groups(grid: GridSpec, cells) -> list[list]:
    """The cells grouped by (dataset, trial, score width), in first-seen order.

    A cell's data seed depends on dataset, setting and trial only, so a
    group's cells share one split, and those that train share parameter
    shapes: one stack. Rules that train nothing form groups of their own.
    """
    infos = grid.dataset_infos()
    groups: dict = {}
    for cell in cells:
        ds_name, method_name, _, trial = cell
        method = METHODS[method_name]
        width = None if method.loss_batch is None else method.n_out(infos[ds_name].K)
        groups.setdefault((ds_name, trial, width), []).append(cell)
    return list(groups.values())


def train_group(grid: GridSpec, cells) -> list[Trained]:
    """Build the split of a group (see cell_groups) once and train its cells
    as one stack. Each cell keeps its hashed seeds for its init and its
    shuffles, so it gets the model and trace it gets when trained alone."""
    ds_name, _, _, trial = cells[0]
    info = grid.dataset_infos()[ds_name]
    data_seed = _mix_seed(grid.master_seed, ds_name, grid.setting, trial, "data")
    data_rng = np.random.default_rng(data_seed)
    source = _source_dataset(info, info.total_n, data_rng)
    fractions = (0.5, 0.2, 0.3) if grid.setting == "pu" else (0.5, 0.1, 0.4)
    train_ds, val_ds, test_ds = data_mod.split(source, fractions, seed=data_seed)

    epochs = grid.epochs if grid.epochs is not None else 100
    batch = grid.batch_size if grid.batch_size is not None else (64 if grid.setting == "pu" else 256)

    t0 = time.perf_counter()
    trains = [METHODS[method_name].loss_batch is not None for _, method_name, _, _ in cells]
    models, losses, configs = [], [], []
    for _, method_name, cost_value, _ in compress(cells, trains):
        method = METHODS[method_name]
        train_seed = _mix_seed(grid.master_seed, ds_name, grid.setting, trial, method_name, f"{cost_value:.6g}", "train")
        model_rng = np.random.default_rng(_mix_seed(train_seed, "init"))
        models.append(make_model(info.model_kind, train_ds.d, method.n_out(info.K), model_rng))
        losses.append(method.loss_batch(info.K, RejectionCost(cost_value)))
        configs.append(TrainConfig(learning_rate=grid.learning_rate, batch_size=batch, epochs=epochs, seed=train_seed))

    scaler, traces = None, []
    if not models:
        pass  # rules that train nothing
    elif grid.setting == "pu":
        if info.csv_path is None:
            # the synthetic source pool for PU draws is regenerated large enough
            # to honor the without-replacement protocol at prior 0.7
            pu_pool = _source_dataset(info, 3 * train_ds.n, data_rng)
            pu_cfg = weaksup.PUConfig.from_train_size(train_ds.n, grid.prior)
        else:
            # a file cannot be regenerated: draw from the training split only,
            # so that no validation or test row is trained on
            pu_pool = train_ds
            n_pos = int(np.count_nonzero(train_ds.y == 1))
            pu_cfg = weaksup.PUConfig.from_class_counts(n_pos, train_ds.n - n_pos, grid.prior)
        positives, unlabeled = weaksup.make_pu_dataset(pu_pool, pu_cfg, data_rng)
        feats = np.vstack([positives, unlabeled])
        scaler = data_mod.Standardizer(
            feats.mean(axis=0), np.sqrt(np.maximum(feats.var(axis=0), 1e-12))
        )
        positives = (positives - scaler.mean) / scaler.scale
        unlabeled = (unlabeled - scaler.mean) / scaler.scale
        traces, _ = weaksup.train_pu(models, losses, positives, unlabeled, grid.prior, configs)
    else:
        if grid.setting == "noisy":
            noise_rng = np.random.default_rng(_mix_seed(data_seed, "noise"))
            train_ds = weaksup.inject_uniform_noise(train_ds, grid.noise_rate, noise_rng)
        scaler, train_std = data_mod.standardize(train_ds)
        traces = train(models, train_std, losses, configs)

    seconds = (time.perf_counter() - t0) / len(cells)
    results = iter(zip(models, traces))
    return [Trained(*(next(results) if t else (None, [])), scaler, val_ds, test_ds, seconds) for t in trains]


def run_cell(grid: GridSpec, cell, trained: Trained | None = None) -> ResultRow:
    """Tune, decide and score one (dataset, method, cost, trial) cell.

    trained is the cell's part of its group's training (train_group);
    without it the cell trains alone, as a group of one.
    """
    if trained is None:
        (trained,) = train_group(grid, [cell])
    ds_name, method_name, cost_value, trial = cell
    method = METHODS[method_name]
    cost = RejectionCost(cost_value)
    K = dataset_info(ds_name).K

    t0 = time.perf_counter()
    model, trace, tuned, test_eval = trained.model, trained.trace, None, trained.test_ds
    if model is not None:
        test_eval = trained.scaler.apply(trained.test_ds)
        if method.tune is not None:
            tuned = method.tune(model, trained.scaler.apply(trained.val_ds), K, cost)

    # the cell's share of its group's training time plus its own tuning time
    train_seconds = trained.seconds + (time.perf_counter() - t0)
    # a rule without a model decides on scores of width 0
    G = model.scores(test_eval.X) if model is not None else np.empty((test_eval.n, 0))
    # a non-finite score would otherwise pass silently as a rejection
    flagged = bool(trace and not np.isfinite(trace[-1])) or not np.isfinite(G).all()
    codes = method.decide(G, K, cost, tuned)
    metrics = compute_metrics(codes, test_eval.y, cost)
    return ResultRow(
        dataset=ds_name,
        method=method_name,
        setting=grid.setting,
        cost=cost_value,
        trial=trial,
        risk01c=metrics.risk01c,
        rejection_ratio=metrics.rejection_ratio,
        accepted_error=metrics.accepted_error,
        n_reject_distance=metrics.n_reject_distance,
        n_reject_ambiguity=metrics.n_reject_ambiguity,
        train_seconds=train_seconds,
        flagged=flagged,
    )


def _run_group(grid: GridSpec, cells) -> list[ResultRow]:
    return [run_cell(grid, cell, trained) for cell, trained in zip(cells, train_group(grid, cells))]


def run_grid(grid: GridSpec, skip_keys=(), jobs: int = 1) -> list[ResultRow]:
    """Execute all cells not in skip_keys, one group of cell_groups at a time
    (jobs > 1: groups in parallel); output is canonically ordered."""
    skip = set(skip_keys)
    groups = cell_groups(grid, [c for c in grid.cells() if c not in skip])
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_group, [grid] * len(groups), groups))
    else:
        parts = [_run_group(grid, cells) for cells in groups]
    rows = [row for part in parts for row in part]
    return sorted(rows, key=lambda r: (r.dataset, r.method, r.cost, r.trial))


# ---------------------------------------------------------------------------
# aggregation and CSV


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    method: str
    setting: str
    cost: float
    n_trials: int
    risk01c_mean: float
    risk01c_se: float
    rejection_ratio_mean: float
    rejection_ratio_se: float
    accepted_error_mean: float
    accepted_error_se: float
    single_trial: bool = False


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(len(arr)))


def aggregate(rows) -> list[SummaryRow]:
    """Mean and standard error per (dataset, method, setting, cost) group."""
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to aggregate")
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.dataset, row.method, row.setting, row.cost), []).append(row)
    out = []
    for (ds, method, setting, cost), members in sorted(groups.items()):
        risk_m, risk_se = _mean_se([m.risk01c for m in members])
        rej_m, rej_se = _mean_se([m.rejection_ratio for m in members])
        err_m, err_se = _mean_se([m.accepted_error for m in members])
        out.append(
            SummaryRow(
                dataset=ds,
                method=method,
                setting=setting,
                cost=cost,
                n_trials=len(members),
                risk01c_mean=risk_m,
                risk01c_se=risk_se,
                rejection_ratio_mean=rej_m,
                rejection_ratio_se=rej_se,
                accepted_error_mean=err_m,
                accepted_error_se=err_se,
                single_trial=(len(members) == 1),
            )
        )
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_HEADER.split(","))
        for r in rows:
            out.writerow([_fmt(v) if parse is float else v for parse, v in zip(_CSV_TYPES, astuple(r))])


def read_csv(path) -> list[ResultRow]:
    """The rows of a result CSV; a wrong header or a malformed row, such as a
    last row a crash cut short, raises ValueError naming its line."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if ",".join(next(reader, [])) != CSV_HEADER:
            raise ValueError(f"{path}: line 1: unexpected result CSV header")
        for f in reader:
            if not f:
                continue
            try:
                if len(f) != len(_CSV_TYPES):
                    raise ValueError(f"{len(f)} fields, expected {len(_CSV_TYPES)}")
                rows.append(ResultRow(*(parse(v) for parse, v in zip(_CSV_TYPES, f))))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: not a result row: {exc}") from None
    return rows


def write_summary_csv(summaries, path, rescale_0_100: bool = False) -> None:
    scale = 100.0 if rescale_0_100 else 1.0
    header = (
        "dataset,method,setting,cost,n_trials,risk01c_mean,risk01c_se,"
        "rejection_ratio_mean,rejection_ratio_se,accepted_error_mean,accepted_error_se"
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header.split(","))
        for s in summaries:
            stats = (s.risk01c_mean, s.risk01c_se, s.rejection_ratio_mean, s.rejection_ratio_se)
            stats += (s.accepted_error_mean, s.accepted_error_se)
            out.writerow([s.dataset, s.method, s.setting, _fmt(s.cost), s.n_trials] + [_fmt(v * scale) for v in stats])
