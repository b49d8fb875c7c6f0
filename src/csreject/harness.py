"""Experiment grid runner: methods x costs x trials with seeded cells,
aggregation to mean +- standard error, and CSV emission."""

from __future__ import annotations

import csv
import functools
import hashlib
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, data as data_mod, weaksup
from .core import CODE_DISTANCE, Dataset, MetricsRecord, RejectionCost, compute_metrics
from .losses import MARGIN_LOSSES, get_loss
from .models import TrainConfig, make_model, train
from .surrogate import cs_loss_batch, decide_batch

DEFAULT_COSTS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
SETTINGS = ("clean", "noisy", "pu")

CSV_HEADER = (
    "dataset,method,setting,cost,trial,risk01c,rejection_ratio,"
    "accepted_error,n_reject_distance,n_reject_ambiguity,train_seconds"
)


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
# per-cell execution


def _method_n_out(method: str, K: int) -> int:
    if method.startswith("cs-") or method == "sce":
        return K
    if method == "defer":
        return K + 1
    if method == "angle":
        return K - 1
    if method == "always-reject":
        return K
    raise ValueError(f"unknown method {method!r}")


def _loss_batch_for(method: str, K: int, cost: RejectionCost):
    if method.startswith("cs-"):
        loss = get_loss(method[3:])
        return lambda G, y: cs_loss_batch(loss, cost, G, y)
    if method == "sce":
        return baselines.sce_loss_batch
    if method == "defer":
        return baselines.defer_loss_batch(cost)
    if method == "angle":
        a1, _ = baselines.bend_slopes(K, cost)
        return baselines.angle_loss_batch(baselines.AngleConfig(K, a1))
    raise ValueError(f"method {method!r} has no trainable loss")


def _decisions(method: str, G: np.ndarray, K: int, cost: RejectionCost, tuned: float | None) -> np.ndarray:
    """Decision codes of a trained method on its test scores G."""
    if method.startswith("cs-"):
        return decide_batch(G)
    if method == "sce":
        return baselines.sce_decide_batch(G, tuned if tuned is not None else 1.0, cost)
    if method == "defer":
        return baselines.defer_decide_batch(G)
    if method == "angle":
        return baselines.angle_decide_batch(G, baselines.angle_vertices(K), tuned if tuned is not None else 0.0)
    raise ValueError(method)


def run_cell(grid: GridSpec, cell) -> ResultRow:
    """Train and evaluate one (dataset, method, cost, trial) cell."""
    ds_name, method, cost_value, trial = cell
    cost = RejectionCost(cost_value)
    info = dataset_info(ds_name)
    data_seed = _mix_seed(grid.master_seed, ds_name, grid.setting, trial, "data")
    train_seed = _mix_seed(grid.master_seed, ds_name, grid.setting, trial, method, f"{cost_value:.6g}", "train")

    data_rng = np.random.default_rng(data_seed)
    source = _source_dataset(info, info.total_n, data_rng)
    fractions = (0.5, 0.2, 0.3) if grid.setting == "pu" else (0.5, 0.1, 0.4)
    train_ds, val_ds, test_ds = data_mod.split(source, fractions, seed=data_seed)

    epochs = grid.epochs if grid.epochs is not None else 100
    batch = grid.batch_size if grid.batch_size is not None else (64 if grid.setting == "pu" else 256)
    config = TrainConfig(learning_rate=grid.learning_rate, batch_size=batch, epochs=epochs, seed=train_seed)

    t0 = time.perf_counter()
    tuned = None
    flagged = False

    if method == "always-reject":
        scaler = None
        model = None
        trace = []
        test_eval = test_ds
    elif grid.setting == "pu":
        if info.K != 2:
            raise ValueError("the PU setting requires a binary dataset")
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
        model_rng = np.random.default_rng(_mix_seed(train_seed, "init"))
        model = make_model(info.model_kind, train_ds.d, _method_n_out(method, info.K), model_rng)
        term = weaksup.pu_loss_term(_loss_batch_for(method, info.K, cost))
        trace, _ = weaksup.train_pu(model, term, positives, unlabeled, grid.prior, config)
        test_eval = scaler.apply(test_ds)
        if method in ("sce", "angle"):
            val_eval = scaler.apply(val_ds)
            tuned = _tune(method, model, val_eval, info.K, cost)
    else:
        if grid.setting == "noisy":
            noise_rng = np.random.default_rng(_mix_seed(data_seed, "noise"))
            train_ds = weaksup.inject_uniform_noise(train_ds, grid.noise_rate, noise_rng)
        scaler, train_std = data_mod.standardize(train_ds)
        model_rng = np.random.default_rng(_mix_seed(train_seed, "init"))
        model = make_model(info.model_kind, train_ds.d, _method_n_out(method, info.K), model_rng)
        trace = train(model, train_std, _loss_batch_for(method, info.K, cost), config)
        test_eval = scaler.apply(test_ds)
        if method in ("sce", "angle"):
            tuned = _tune(method, model, scaler.apply(val_ds), info.K, cost)

    train_seconds = time.perf_counter() - t0
    if trace and not np.isfinite(trace[-1]):
        flagged = True

    if model is None:
        codes = np.full(test_eval.n, CODE_DISTANCE)
    else:
        G = model.scores(test_eval.X)
        # a non-finite score would otherwise pass silently as a rejection
        flagged = flagged or not np.isfinite(G).all()
        codes = _decisions(method, G, info.K, cost, tuned)
    metrics = compute_metrics(codes, test_eval.y, cost)
    return ResultRow(
        dataset=ds_name,
        method=method,
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


def _tune(method: str, model, val: Dataset, K: int, cost: RejectionCost) -> float:
    if method == "sce":
        # T = 1 is on the log grid, so tuning can never lose to the default
        return baselines.tune_temperature(model, val, cost)
    a1, _ = baselines.bend_slopes(K, cost)
    # delta = 0 (the untuned default) is prepended so tuning cannot regress
    candidates = [0.0] + baselines.default_candidates()
    return baselines.tune_delta(model, val, cost, baselines.AngleConfig(K, a1), candidates)


def run_grid(grid: GridSpec, skip_keys=(), jobs: int = 1) -> list[ResultRow]:
    """Execute all cells not in skip_keys; output is canonically ordered."""
    skip = set(skip_keys)
    cells = [c for c in grid.cells() if c not in skip]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_cell, [grid] * len(cells), cells))
    else:
        rows = [run_cell(grid, c) for c in cells]
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
            rates = (r.risk01c, r.rejection_ratio, r.accepted_error)
            out.writerow(
                [r.dataset, r.method, r.setting, _fmt(r.cost), r.trial, *map(_fmt, rates)]
                + [r.n_reject_distance, r.n_reject_ambiguity, _fmt(r.train_seconds)]
            )


def read_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if ",".join(next(reader, [])) != CSV_HEADER:
            raise ValueError("unexpected result CSV header")
        for f in reader:
            if not f:
                continue
            rows.append(
                ResultRow(
                    dataset=f[0],
                    method=f[1],
                    setting=f[2],
                    cost=float(f[3]),
                    trial=int(f[4]),
                    risk01c=float(f[5]),
                    rejection_ratio=float(f[6]),
                    accepted_error=float(f[7]),
                    n_reject_distance=int(f[8]),
                    n_reject_ambiguity=int(f[9]),
                    train_seconds=float(f[10]),
                )
            )
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
