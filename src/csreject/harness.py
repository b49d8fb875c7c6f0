"""Experiment grid runner: methods x costs x trials with seeded cells,
aggregation to mean +- standard error, and CSV emission."""

from __future__ import annotations

import csv
import functools
import hashlib
import os
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable, get_type_hints

import numpy as np

from . import baselines, data as data_mod, weaksup
from .core import CODE_DISTANCE, Dataset, RejectionCost, compute_metrics
from .losses import MARGIN_LOSSES
from .models import TrainConfig, make_model, train
from .surrogate import cs_loss_batch, decide_batch

DEFAULT_COSTS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
SETTINGS = ("clean", "noisy", "pu")
# the training, validation and test shares of a trial's split, and those of a PU trial
FRACTIONS, PU_FRACTIONS = (0.5, 0.1, 0.4), (0.5, 0.2, 0.3)


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
    epochs: int = 100

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for c in self.costs:
            RejectionCost(c)
        if unknown := [m for m in self.methods if m not in METHODS]:
            raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise rate must lie in [0, 1), got {self.noise_rate}")
        if not 0.0 < self.prior <= 1.0:
            raise ValueError(f"class prior must lie in (0, 1], got {self.prior}")
        for name, entries in (("dataset", self.datasets), ("method", self.methods), ("cost", [*map(_fmt, self.costs)])):
            if len(set(entries)) < len(entries):  # one key per cell; costs compare as the CSV and seeds print them
                raise ValueError(f"each {name} may appear once in a grid, got {list(entries)}")

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


def _parse_flag(text: str) -> bool:
    if text not in ("True", "False"):  # bool() would read "False" as True
        raise ValueError(f"flagged must be True or False, got {text!r}")
    return text == "True"


def _csv_columns(row_class) -> dict[str, Callable]:
    """The CSV columns of a row dataclass: each field, in order, with the parser of its type."""
    types = get_type_hints(row_class)
    return {f.name: _parse_flag if types[f.name] is bool else types[f.name] for f in fields(row_class)}


_CSV_TYPES = _csv_columns(ResultRow)
CSV_HEADER = ",".join(_CSV_TYPES)


def _mix_seed(*parts) -> int:
    key = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# dataset registry


@dataclass(frozen=True)
class DatasetInfo:
    total_n: int
    spec: data_mod.GaussianMixtureSpec | None = None
    data: Dataset | None = None  # a CSV's rows, read-only: every cell of the grid shares them

    def rows(self, n: int, rng: np.random.Generator) -> Dataset:
        """A CSV's rows, or n rows drawn from the mixture."""
        return self.data if self.data is not None else data_mod.gen_gauss_mixture(self.spec, n, rng)[0]


def _gauss3_spec() -> data_mod.GaussianMixtureSpec:
    means = 2.0 * np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    return data_mod.GaussianMixtureSpec(means, np.full(3, 1 / 3))


def dataset_info(name: str) -> DatasetInfo:
    if name == "twonorm":
        return DatasetInfo(total_n=7400, spec=data_mod.twonorm_spec())
    if name == "gauss3":
        return DatasetInfo(total_n=12000, spec=_gauss3_spec())
    if name.endswith(".csv"):
        try:
            ds = data_mod.load_csv(name)
            if ds.K < 2:
                raise ValueError("a dataset needs two classes or more; it has one class")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        _read_only(ds)
        return DatasetInfo(total_n=ds.n, data=ds)
    raise ValueError(f"unknown dataset {name!r} (expected twonorm, gauss3, or a .csv path)")


def _read_only(*datasets: Dataset) -> None:
    """Make the arrays of shared Datasets read-only."""
    for ds in datasets:
        ds.X.flags.writeable = ds.y.flags.writeable = False


@dataclass(frozen=True)
class TrialData:
    """A (dataset, trial)'s data, standardized on its training rows: what its cells train on (the
    training split, with noisy labels in the noisy setting, or the PU set of weaksup.make_pu_dataset)
    and its validation and test splits."""

    train: Dataset
    val: Dataset
    test: Dataset


def build_trial_data(grid: GridSpec, info: DatasetInfo, ds_name: str, trial: int) -> TrialData:
    """Draw a (dataset, trial)'s split, and its noisy labels or PU set, from its hashed data seed.
    Every group of the trial shares the arrays, so they are read-only; an error names the dataset and trial."""
    data_seed = _mix_seed(grid.master_seed, ds_name, grid.setting, trial, "data")
    data_rng = np.random.default_rng(data_seed)
    try:
        fractions = PU_FRACTIONS if grid.setting == "pu" else FRACTIONS
        train_ds, val_ds, test_ds = data_mod.split(info.rows(info.total_n, data_rng), fractions, seed=data_seed)
        if grid.setting == "pu":
            # a synthetic pool is drawn afresh, large enough for the protocol, once the training split's rows,
            # of which only the count is read, are let go; a file cannot be regenerated, so its draws come
            # from the training split, and no held-out row is trained on
            n_train = train_ds.n
            if info.data is None:
                del train_ds
                train_ds = info.rows(3 * n_train, data_rng)
            train_ds = weaksup.make_pu_dataset(train_ds, n_train, grid.prior, data_rng)
        elif grid.setting == "noisy":
            noise_rng = np.random.default_rng(_mix_seed(data_seed, "noise"))
            train_ds = weaksup.inject_uniform_noise(train_ds, grid.noise_rate, noise_rng)
        # the split's parts and the noisy or PU set are this call's own fresh arrays: standardized in place
        scaler, train_ds = data_mod.standardize(train_ds, out=train_ds.X)
    except ValueError as exc:
        raise ValueError(f"{ds_name}, trial {trial}: {exc}") from None
    data = TrialData(train_ds, scaler.apply(val_ds, out=val_ds.X), scaler.apply(test_ds, out=test_ds.X))
    _read_only(data.train, data.val, data.test)
    return data


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
        loss_batch=lambda K, cost: baselines.angle_loss_batch(K, baselines.bend_slopes(K, cost)[0]),
        decide=lambda G, K, cost, delta: baselines.angle_decide_batch(G, baselines.angle_vertices(K), delta),
        tune=lambda model, val, K, cost: baselines.tune_delta(model, val, cost, [0.0] + baselines.default_candidates()),
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
    """A cell's part of its group's training: the model (None for a rule that trains nothing),
    its trace and its training seconds."""

    model: object
    trace: list
    seconds: float


def cell_groups(grid: GridSpec, skip_keys=()) -> list[tuple[TrialData, list]]:
    """The grid's cells not in skip_keys, grouped by (dataset, trial, score width), in first-seen order,
    each group with its trial's data: the plan of a run (run_grid).

    Each dataset is resolved once and each pending cell's trial built once, here: a data error ends the
    grid before any cell trains, and no trial whose cells are all skipped is built. A group's cells that
    train share their trial's rows and parameter shapes: one stack. Rules that train nothing form groups
    of their own.
    """
    skip = set(skip_keys)
    infos, trials, groups = {}, {}, {}
    for cell in grid.cells():
        if cell in skip:
            continue
        ds_name, method_name, _, trial = cell
        if (ds_name, trial) not in trials:
            if ds_name not in infos:
                infos[ds_name] = dataset_info(ds_name)
            trials[ds_name, trial] = build_trial_data(grid, infos[ds_name], ds_name, trial)
        method, data = METHODS[method_name], trials[ds_name, trial]
        width = None if method.loss_batch is None else method.n_out(data.test.K)
        groups.setdefault((ds_name, trial, width), (data, []))[1].append(cell)
    return list(groups.values())


def train_group(grid: GridSpec, data: TrialData, cells) -> list[Trained]:
    """Train the cells of a group (see cell_groups) as one stack on their
    trial's data. Each cell keeps its hashed seeds for its init and its
    shuffles, so it gets the model and trace it gets when trained alone."""
    ds_name, _, _, trial = cells[0]
    if METHODS[cells[0][1]].loss_batch is None:  # a group of rules that train nothing, see cell_groups
        return [Trained(None, [], 0.0) for _ in cells]
    K = data.test.K

    t0 = time.perf_counter()
    models, losses, seeds = [], [], []
    for _, method_name, cost_value, _ in cells:
        method = METHODS[method_name]
        train_seed = _mix_seed(grid.master_seed, ds_name, grid.setting, trial, method_name, _fmt(cost_value), "train")
        model_rng = np.random.default_rng(_mix_seed(train_seed, "init"))
        models.append(make_model("linear" if K == 2 else "mlp", data.val.d, method.n_out(K), model_rng))
        losses.append(method.loss_batch(K, RejectionCost(cost_value)))
        seeds.append(train_seed)
    config = TrainConfig(batch_size=64 if grid.setting == "pu" else 256, epochs=grid.epochs)
    if grid.setting == "pu":
        traces, _ = weaksup.train_pu(models, data.train, losses, grid.prior, config, seeds)
    else:
        traces = train(models, data.train, losses, config, seeds)

    seconds = (time.perf_counter() - t0) / len(cells)
    return [Trained(model, trace, seconds) for model, trace in zip(models, traces)]


def run_cell(grid: GridSpec, cell, data: TrialData, trained: Trained) -> ResultRow:
    """Tune, decide and score one (dataset, method, cost, trial) cell on its
    trial's validation and test splits; trained is the cell's part of its
    group's training (train_group)."""
    ds_name, method_name, cost_value, trial = cell
    method = METHODS[method_name]
    cost = RejectionCost(cost_value)
    model, test_ds, K = trained.model, data.test, data.test.K

    t0 = time.perf_counter()
    tuned = method.tune(model, data.val, K, cost) if method.tune is not None else None
    # the cell's share of its group's training time plus its own tuning time
    train_seconds = trained.seconds + (time.perf_counter() - t0)
    # a rule without a model decides on scores of width 0
    G = model.scores(test_ds.X) if model is not None else np.empty((test_ds.n, 0))
    # a non-finite score would otherwise pass silently as a rejection
    flagged = bool(trained.trace and not np.isfinite(trained.trace[-1])) or not np.isfinite(G).all()
    codes = method.decide(G, K, cost, tuned)
    metrics = compute_metrics(codes, test_ds.y, cost)
    return ResultRow(ds_name, method_name, grid.setting, cost_value, trial, **vars(metrics),
                     train_seconds=train_seconds, flagged=flagged)


def _run_group(grid: GridSpec, group) -> list[ResultRow]:
    """The rows of one group of cell_groups; its data is read-only again, since arrays come out of a
    --jobs task's pickle writeable."""
    data, cells = group
    _read_only(data.train, data.val, data.test)
    return [run_cell(grid, cell, data, trained) for cell, trained in zip(cells, train_group(grid, data, cells))]


def run_grid(grid: GridSpec, groups, jobs: int = 1) -> list[ResultRow]:
    """Execute the groups of a plan (cell_groups), one at a time, or with jobs > 1 in parallel, one
    worker per group at most, each task carrying its group's trial data; output is canonically ordered."""
    jobs = min(jobs, len(groups))  # a pool starts all its workers at once
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(functools.partial(_run_group, grid), groups))
    else:
        parts = [_run_group(grid, group) for group in groups]
    rows = [row for part in parts for row in part]
    return sorted(rows, key=ResultRow.key)


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


_SUMMARY_TYPES = _csv_columns(SummaryRow)
# the metrics that a SummaryRow reports as a mean and a standard error
_SUMMARY_STATS = tuple(name.removesuffix("_mean") for name in _SUMMARY_TYPES if name.endswith("_mean"))


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(len(arr)))


def trial_groups(rows) -> dict[tuple, list[ResultRow]]:
    """The rows per (dataset, method, setting, cost), in key order; two rows of one trial raise ValueError."""
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.dataset, row.method, row.setting, row.cost), []).append(row)
    groups = dict(sorted(groups.items()))
    for key, members in groups.items():
        if len({m.trial for m in members}) < len(members):  # a copy would count as a trial in n_trials and the SE
            raise ValueError(f"repeated rows for {key}: trials {sorted(m.trial for m in members)}")
    return groups


def aggregate(rows) -> list[SummaryRow]:
    """Mean and standard error per (dataset, method, setting, cost) group."""
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to aggregate")
    out = []
    for key, members in trial_groups(rows).items():
        stats = {}
        for name in _SUMMARY_STATS:
            stats[f"{name}_mean"], stats[f"{name}_se"] = _mean_se([getattr(m, name) for m in members])
        out.append(SummaryRow(*key, n_trials=len(members), **stats))
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_rows(rows, path, columns: dict[str, Callable]) -> None:
    """A header of the columns, then one line per row dataclass; a float as _fmt.

    The lines go to a file beside path that then replaces it, so a write that
    fails leaves path as it was; a symbolic link is followed, not replaced."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(columns)
            for r in rows:
                out.writerow([_fmt(v) if parse is float else v for parse, v in zip(columns.values(), astuple(r))])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(rows, path) -> None:
    _write_rows(rows, path, _CSV_TYPES)


def read_csv(path) -> list[ResultRow]:
    """The rows of a result CSV; a wrong header or a malformed row, such as a
    last row a crash cut short, raises ValueError naming its line."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = ",".join(next(reader, []))
        # a file written before the flagged column reads as unflagged rows
        if header not in (CSV_HEADER, CSV_HEADER.removesuffix(",flagged")):
            raise ValueError(f"{path}: line 1: unexpected result CSV header")
        parsers = list(_CSV_TYPES.values())[: header.count(",") + 1]
        for f in reader:
            if not f:
                continue
            try:
                if len(f) != len(parsers):
                    raise ValueError(f"{len(f)} fields, expected {len(parsers)}")
                rows.append(ResultRow(*(parse(v) for parse, v in zip(parsers, f))))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: not a result row: {exc}") from None
    return rows


def write_summary_csv(summaries, path, rescale_0_100: bool = False) -> None:
    scale = 100.0 if rescale_0_100 else 1.0
    stats = [f"{name}_{part}" for name in _SUMMARY_STATS for part in ("mean", "se")]
    _write_rows([replace(s, **{k: getattr(s, k) * scale for k in stats}) for s in summaries], path, _SUMMARY_TYPES)
