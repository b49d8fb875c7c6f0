import concurrent.futures
import contextlib
import dataclasses
import io
import multiprocessing
import os
import pickle
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csreject import cli, core, data as data_mod, harness
from csreject.core import MetricsRecord
from csreject.harness import (
    GridSpec,
    ResultRow,
    aggregate,
    cell_groups,
    dataset_info,
    read_csv,
    run_cell,
    run_grid,
    write_csv,
    write_summary_csv,
)
from csreject.models import LinearModel, MlpModel

FAST = dict(trials=1, epochs=3)
# the result header before the flagged column; golden files and old --resume files use it
LEGACY_HEADER = (
    "dataset,method,setting,cost,trial,risk01c,rejection_ratio,"
    "accepted_error,n_reject_distance,n_reject_ambiguity,train_seconds"
)


def _strip_timing(row: ResultRow) -> tuple:
    d = dataclasses.asdict(row)
    d.pop("train_seconds")
    return tuple(sorted(d.items()))


def _run_alone(grid: GridSpec, cell) -> ResultRow:
    """The row of a cell trained alone, as a group of one: the reference of the grouped path."""
    ((data, _),) = cell_groups(grid, [other for other in grid.cells() if other != cell])
    return run_cell(grid, cell, data, harness.train_group(grid, data, [cell])[0])


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(setting="adversarial")
        with pytest.raises(ValueError):
            GridSpec(trials=0)
        with pytest.raises(ValueError):
            GridSpec(costs=(0.6,))

    def test_unknown_method_is_rejected_with_the_valid_names(self):
        for bad in ("cs-sigmod", "svm"):
            with pytest.raises(ValueError, match=rf"unknown methods \['{bad}'\].*'always-reject'.*'cs-sigmoid'"):
                GridSpec(methods=("cs-sigmoid", bad))

    def test_registry_has_a_cs_entry_per_margin_loss(self):
        from csreject.losses import MARGIN_LOSSES

        assert set(harness.METHODS) == {f"cs-{n}" for n in MARGIN_LOSSES} | {"sce", "defer", "angle", "always-reject"}
        assert [harness.METHODS[m].n_out(3) for m in ("cs-ramp", "sce", "defer", "angle")] == [3, 3, 4, 2]

    def test_cell_cardinality(self):
        grid = GridSpec(datasets=("twonorm",), methods=("cs-sigmoid", "cs-hinge"), costs=tuple(np.arange(0.1, 0.41, 0.05)), trials=10)
        assert len(list(grid.cells())) == 2 * 7 * 10


class TestDatasetInfo:
    def test_known_datasets(self):
        assert dataset_info("twonorm").spec.K == 2
        assert dataset_info("gauss3").spec.K == 3

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            dataset_info("imagenet")

    def test_csv_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        rows = ["%f,%f,%d" % (i * 0.1, -i * 0.2, (i % 2) + 1) for i in range(20)]
        p.write_text("\n".join(rows) + "\n")
        info = dataset_info(str(p))
        assert info.data.K == 2
        assert info.total_n == 20
        # the info holds the rows it was resolved from
        np.testing.assert_array_equal(info.data.X, data_mod.load_csv(str(p)).X)

    @pytest.mark.parametrize(
        "name, K, model_class",
        [("twonorm", 2, LinearModel), ("gauss3", 3, MlpModel), ("csv", 2, LinearModel), ("csv", 3, MlpModel)],
    )
    def test_the_model_kind_follows_the_class_count(self, tmp_path, name, K, model_class):
        # two classes train linear scores and more classes an MLP, with K scores for a cs method
        if name == "csv":
            path = tmp_path / "toy.csv"
            path.write_text("".join("%f,%f,%d\n" % (i * 0.1, -i * 0.2, i % K) for i in range(30)))
            name = str(path)
        grid = GridSpec(datasets=(name,), methods=("cs-sigmoid",), costs=(0.2,), trials=1, epochs=1)
        ((data, cells),) = cell_groups(grid)
        (trained,) = harness.train_group(grid, data, cells)
        assert type(trained.model) is model_class
        assert trained.model.scores(data.test.X).shape[1] == K


def _write_toy_csv(path, n):
    path.write_text("".join("%f,%f,%d\n" % (i * 0.1, -i * 0.2 + (i % 2), (i % 2) + 1) for i in range(n)))


def _n_rows(data) -> int:
    """The rows of a (non-PU) trial's splits together: the rows of the file it was built from."""
    return sum(part.n for part in (data.train, data.val, data.test))


class TestCsvLoading:
    def test_a_plan_parses_the_file_once_and_a_new_plan_rereads_changes(self, tmp_path, monkeypatch):
        p = tmp_path / "toy.csv"
        _write_toy_csv(p, 40)
        calls = []
        load = data_mod.load_csv
        monkeypatch.setattr(data_mod, "load_csv", lambda *a, **kw: calls.append(a) or load(*a, **kw))
        grid = GridSpec(datasets=(str(p),), methods=("cs-sigmoid", "sce", "always-reject"), costs=(0.2,), trials=2, epochs=3)
        groups = cell_groups(grid)
        assert len(calls) == 1
        assert len(run_grid(grid, groups)) == 6
        assert len(calls) == 1
        _write_toy_csv(p, 50)
        # the plan keeps the rows it read; a new plan reads the file again
        assert {_n_rows(data) for data, _ in groups} == {40}
        assert {_n_rows(data) for data, _ in cell_groups(grid)} == {50}
        assert len(calls) == 2

    def test_a_grid_runs_from_its_rows_once_the_file_is_gone(self, tmp_path):
        # the rows live in the plan, so neither this process nor a worker reopens the file
        p = tmp_path / "toy.csv"
        _write_toy_csv(p, 40)
        grid = GridSpec(datasets=(str(p),), methods=("cs-sigmoid", "always-reject"), costs=(0.2,), **FAST)
        groups = cell_groups(grid)
        p.unlink()
        serial = run_grid(grid, groups, jobs=1)
        parallel = run_grid(grid, groups, jobs=2)
        assert len(serial) == 2 and not any(r.flagged for r in serial)
        assert [_strip_timing(r) for r in serial] == [_strip_timing(r) for r in parallel]

    def test_shared_arrays_are_read_only(self, tmp_path):
        p = tmp_path / "toy.csv"
        _write_toy_csv(p, 20)
        ds = dataset_info(str(p)).data
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.y[0] = 2


class TestRunCell:
    def test_nonfinite_scores_flag_the_row(self, monkeypatch):
        def train_to_nan(models, data, losses, config, seeds):
            for model in models:
                model.params["W"][:] = np.nan
            return [[0.0] for _ in models]

        monkeypatch.setattr(harness, "train", train_to_nan)
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.2,), **FAST)
        row = _run_alone(grid, ("twonorm", "cs-sigmoid", 0.2, 0))
        assert row.flagged

    def test_the_metrics_record_holds_the_row_metrics_in_column_order(self):
        columns = [f.name for f in dataclasses.fields(ResultRow)]
        assert [f.name for f in dataclasses.fields(MetricsRecord)] == columns[5:10]

    def test_deterministic(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.2,), **FAST)
        cell = ("twonorm", "cs-sigmoid", 0.2, 0)
        r1 = _run_alone(grid, cell)
        r2 = _run_alone(grid, cell)
        assert _strip_timing(r1) == _strip_timing(r2)

    def test_always_reject_reference(self):
        grid = GridSpec(methods=("always-reject",), costs=(0.3,), **FAST)
        row = _run_alone(grid, ("twonorm", "always-reject", 0.3, 0))
        assert row.risk01c == pytest.approx(0.3)
        assert row.rejection_ratio == 1.0

    def test_metrics_identity_holds(self):
        grid = GridSpec(methods=("cs-hinge",), costs=(0.15,), **FAST)
        row = _run_alone(grid, ("twonorm", "cs-hinge", 0.15, 0))
        lhs = row.risk01c
        rhs = 0.15 * row.rejection_ratio + (1 - row.rejection_ratio) * row.accepted_error
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_noisy_setting_runs(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1,), setting="noisy", **FAST)
        row = _run_alone(grid, ("twonorm", "cs-sigmoid", 0.1, 0))
        assert np.isfinite(row.risk01c)
        assert not row.flagged

    def test_pu_setting_runs(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST)
        row = _run_alone(grid, ("twonorm", "cs-sigmoid", 0.1, 0))
        assert np.isfinite(row.risk01c)
        assert not row.flagged

    def test_pu_on_csv_draws_only_training_rows(self, tmp_path, monkeypatch):
        # distinct rows, so a positive or unlabeled row that equals a
        # validation or test row can only be that row
        rng = np.random.default_rng(4)
        path = tmp_path / "pu.csv"
        X = rng.normal(size=(2000, 3))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=2000) > 0, 1, 2)
        path.write_text("".join(",".join(map(repr, x.tolist())) + f",{label}\n" for x, label in zip(X, y)))
        parts, drawn = [], []
        split, make_pu = data_mod.split, harness.weaksup.make_pu_dataset
        monkeypatch.setattr(data_mod, "split", lambda *a, **kw: parts.extend(split(*a, **kw)) or parts[-3:])
        monkeypatch.setattr(harness.weaksup, "make_pu_dataset", lambda *a: drawn.append(make_pu(*a)) or drawn[-1])
        grid = GridSpec(datasets=(str(path),), methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST)
        row = _run_alone(grid, (str(path), "cs-sigmoid", 0.1, 0))
        assert np.isfinite(row.risk01c)
        train_ds, val_ds, test_ds = parts
        held_out = {tuple(x) for x in np.vstack([val_ds.X, test_ds.X])}
        (pu,) = drawn
        positives, unlabeled = pu.X[pu.y == 1], pu.X[pu.y == 2]
        assert len(positives) > 0 and len(unlabeled) > 0
        assert not any(tuple(x) in held_out for x in np.vstack([positives, unlabeled]))
        # the largest multiple of 200 that the training split's classes allow
        n_pos, n_neg = int((train_ds.y == 1).sum()), int((train_ds.y == 2).sum())
        n_u = len(unlabeled)
        assert n_u % 200 == 0 and len(positives) == n_u // 5
        fits = lambda m: m // 5 + int(0.7 * m) <= n_pos and m - int(0.7 * m) <= n_neg
        assert fits(n_u) and not fits(n_u + 200)

    def test_pu_on_a_plus_minus_one_csv_takes_its_raw_minus_one_rows_as_positives(self, tmp_path, monkeypatch):
        # load_csv maps the sorted raw labels to 1..K and make_pu_dataset takes class 1 as positive, so a
        # CSV's positive class is its smallest raw label: -1 of a file labelled +1/-1
        rng = np.random.default_rng(5)
        X, raw = rng.normal(size=(800, 3)), np.where(np.arange(800) % 4, -1, 1)  # -1 three in four, to serve the draw
        path = tmp_path / "pm.csv"
        path.write_text("".join(",".join(map(repr, x.tolist())) + f",{label}\n" for x, label in zip(X, raw)))
        raw_label = dict(zip(map(tuple, X.tolist()), raw.tolist()))
        drawn, make_pu = [], harness.weaksup.make_pu_dataset

        def draw(*args):
            pu = make_pu(*args)
            drawn.append((pu.X.copy(), pu.y.copy()))  # before the trial standardizes it in place
            return pu

        monkeypatch.setattr(harness.weaksup, "make_pu_dataset", draw)
        cell_groups(GridSpec(datasets=(str(path),), methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST))
        ((X_pu, y_pu),) = drawn
        raw_pu = np.array([raw_label[x] for x in map(tuple, X_pu.tolist())])
        assert (raw_pu[y_pu == 1] == -1).all()
        assert set(raw_pu[y_pu == 2].tolist()) == {-1, 1}

    def test_pu_requires_binary(self):
        grid = GridSpec(datasets=("gauss3",), methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST)
        with pytest.raises(ValueError):
            _run_alone(grid, ("gauss3", "cs-sigmoid", 0.1, 0))

    def test_same_trial_shares_data_across_methods(self):
        # the data seed depends on the trial but not the method, so the
        # always-reject risk (a pure function of the test labels) is shared
        g1 = GridSpec(methods=("always-reject",), costs=(0.2,), **FAST)
        g2 = GridSpec(methods=("always-reject", "cs-sigmoid"), costs=(0.2,), **FAST)
        r1 = _run_alone(g1, ("twonorm", "always-reject", 0.2, 0))
        r2 = _run_alone(g2, ("twonorm", "always-reject", 0.2, 0))
        assert _strip_timing(r1) == _strip_timing(r2)


class TestTrainGroup:
    @pytest.mark.parametrize("setting", ["clean", "noisy", "pu"])
    def test_splits_come_standardized_on_the_training_rows(self, setting, monkeypatch):
        # each entry is a Dataset and a copy of its rows as they were then: the trial standardizes its own
        # arrays in place. A synthetic trial draws its kept rows straight into one array: the training, validation
        # and test parts in that order, or in PU the held-out parts, with the PU set drawn on its own
        draws, picks, standardized = [], [], []
        draw, pick, standardize = data_mod.gen_gauss_mixture, harness.weaksup.pu_indices, data_mod.standardize
        raw = lambda ds: (ds, core.Dataset(ds.X.copy(), ds.y.copy(), ds.K))

        monkeypatch.setattr(
            data_mod, "gen_gauss_mixture", lambda *a, **kw: draws.append(raw(draw(*a, **kw)[0])) or (draws[-1][0], None)
        )
        monkeypatch.setattr(harness.weaksup, "pu_indices", lambda *a: picks.append(a) or pick(*a))
        monkeypatch.setattr(
            harness.data_mod, "standardize", lambda ds, **kw: standardized.append(raw(ds)) or standardize(ds, **kw)
        )
        grid = GridSpec(methods=("cs-sigmoid", "cs-hinge"), costs=(0.2,), setting=setting, **FAST)
        ((data, cells),) = cell_groups(grid)
        # one data.standardize call per trial in every setting, on the set the cells train on: the training
        # split, its rows with noisy labels, or the PU set; the PU setting used to standardize by hand
        assert len(standardized) == 1
        assert standardized[0][0].X is data.train.X
        ((drawn, drawn_raw),) = draws
        held_out = [data.val.n, data.test.n]
        sizes = held_out if setting == "pu" else [data.train.n, *held_out]
        assert drawn.n == sum(sizes)
        parts = np.split(np.arange(drawn.n), np.cumsum(sizes[:-1]))
        if setting != "pu":
            assert np.shares_memory(data.train.X, drawn.X)
            np.testing.assert_array_equal(standardized[0][1].X, drawn_raw.X[parts[0]])
        val_raw, test_raw = (drawn_raw.subset(p) for p in parts[-2:])
        for cell, trained in zip(cells, harness.train_group(grid, data, cells)):
            run_cell(grid, cell, data, trained)
        scaler = data_mod.Standardizer.fit(standardized[0][1].X)
        for got, raw_part in ((data.val, val_raw), (data.test, test_raw), (data.train, standardized[0][1])):
            want = scaler.apply(raw_part)
            np.testing.assert_array_equal(got.X, want.X)
            np.testing.assert_array_equal(got.y, want.y)
        # the held-out parts are views of the one draw
        assert np.shares_memory(data.val.X, drawn.X) and np.shares_memory(data.test.X, drawn.X)
        # one standardized split per trial, shared by the group's cells: the trial was drawn once
        assert len(picks) == (1 if setting == "pu" else 0)


def _whole_draw(spec, n, rng) -> core.Dataset:
    """An n-row mixture draw made whole: the labels, then each class's normals in one call."""
    y = rng.choice(spec.K, size=n, p=spec.priors) + 1
    X = np.empty((n, spec.d))
    for k in range(spec.K):
        mask = y == k + 1
        X[mask] = rng.standard_normal((int(mask.sum()), spec.d)) + spec.means[k]
    return core.Dataset(X, y, spec.K)


def _trial_of_whole_draws(grid, info, ds_name, trial) -> list[core.Dataset]:
    """A synthetic trial's training, validation and test sets built from whole draws, the reference of
    build_trial_data: the full draw and its split, then in PU a pool of three times the training split's rows
    and make_pu_dataset, or in noisy the noise; standardized on the training set."""
    data_seed = harness._mix_seed(grid.master_seed, ds_name, grid.setting, trial, "data")
    rng = np.random.default_rng(data_seed)
    fractions = harness.PU_FRACTIONS if grid.setting == "pu" else harness.FRACTIONS
    train, val, test = data_mod.split(_whole_draw(info.spec, info.total_n, rng), fractions, seed=data_seed)
    if grid.setting == "pu":
        train = harness.weaksup.make_pu_dataset(_whole_draw(info.spec, 3 * train.n, rng), train.n, grid.prior, rng)
    elif grid.setting == "noisy":
        train = harness.weaksup.inject_uniform_noise(
            train, grid.noise_rate, np.random.default_rng(harness._mix_seed(data_seed, "noise"))
        )
    scaler = data_mod.Standardizer.fit(train.X)
    return [scaler.apply(part) for part in (train, val, test)]


# twonorm's means with one positive row in five, and in a hundred
SKEWED, SCARCE = (
    harness.DatasetInfo(total_n=7400, spec=data_mod.GaussianMixtureSpec(data_mod.twonorm_spec().means, [p, 1 - p]))
    for p in (0.2, 0.01)
)


class TestSyntheticTrials:
    """A synthetic trial draws only the rows it keeps, and its sets are those of whole draws bit for bit."""

    @pytest.mark.parametrize(
        "dataset, setting, prior",
        [("twonorm", "clean", 0.7), ("twonorm", "noisy", 0.7), ("gauss3", "clean", 0.7), ("gauss3", "noisy", 0.7)]
        + [("twonorm", "pu", prior) for prior in (0.3, 0.5, 0.7, 1.0)],
    )
    def test_the_sets_are_those_of_whole_draws(self, dataset, setting, prior):
        info = dataset_info(dataset)
        for seed in range(3):
            grid = GridSpec(setting=setting, master_seed=seed, prior=prior, trials=4)
            for trial in (0, 3):
                data = harness.build_trial_data(grid, info, dataset, trial)
                want_sets = _trial_of_whole_draws(grid, info, dataset, trial)
                for got, want in zip((data.train, data.val, data.test), want_sets):
                    np.testing.assert_array_equal(got.X, want.X)
                    np.testing.assert_array_equal(got.y, want.y)
                    assert got.K == want.K

    def test_a_pool_short_of_positives_draws_a_smaller_unlabeled_set_of_the_same_rows(self):
        grid = GridSpec(setting="pu", prior=0.7, trials=2)
        for trial in (0, 1):
            data = harness.build_trial_data(grid, SKEWED, "skewed", trial)
            # about 2 220 positives serve 2 400 unlabeled rows, not the 3 600 of a balanced pool
            assert np.count_nonzero(data.train.y == 2) == 2400
            want_sets = _trial_of_whole_draws(grid, SKEWED, "skewed", trial)
            for got, want in zip((data.train, data.val, data.test), want_sets):
                np.testing.assert_array_equal(got.X, want.X)
                np.testing.assert_array_equal(got.y, want.y)

    def test_a_pool_that_serves_no_unlabeled_set_raises_the_same_error(self):
        grid = GridSpec(setting="pu", trials=1)
        with pytest.raises(ValueError) as want:
            _trial_of_whole_draws(grid, SCARCE, "scarce", 0)
        assert str(want.value).startswith("insufficient source data: ")
        with pytest.raises(ValueError) as got:
            harness.build_trial_data(grid, SCARCE, "scarce", 0)
        assert str(got.value) == f"scarce, trial 0: {want.value}"


class TestTrialDataMemory:
    """build_trial_data keeps one live copy of a trial's rows. The bounds are sums of array sizes, so that
    they hold across numpy versions; a trial used to keep its drawn rows and its raw split alive too."""

    # numpy's small temporaries: the split's permutation, index arrays and the finite-check masks
    SLACK = 2**18

    @staticmethod
    def _peak(build):
        """What build returns, and the peak of traced memory of a second call: the first allocates once-only
        caches."""
        build()
        tracemalloc.start()
        try:
            return build(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_synthetic_pu_trial_holds_only_its_held_out_parts_while_it_draws_its_pool(self):
        grid, info = GridSpec(setting="pu", trials=1), dataset_info("twonorm")
        data, peak = self._peak(lambda: harness.build_trial_data(grid, info, "twonorm", 0))
        n_pool = 3 * round(harness.PU_FRACTIONS[0] * info.total_n)
        _, pool_peak = self._peak(lambda: data_mod.gen_gauss_mixture(info.spec, n_pool, np.random.default_rng(0)))
        held_out = sum(a.nbytes for part in (data.val, data.test) for a in (part.X, part.y))
        assert peak < pool_peak + held_out + self.SLACK

    def test_a_synthetic_pu_trial_holds_its_kept_rows_one_draw_block_and_the_fit_temporary(self):
        # the trial used to draw 7400 rows and copy its split to count the training rows, then an
        # 11 100-row pool to keep 4 320 of its rows: a peak of about 4.1 MiB against about 2.0 MiB
        grid, info = GridSpec(setting="pu", trials=1), dataset_info("twonorm")
        data, peak = self._peak(lambda: harness.build_trial_data(grid, info, "twonorm", 0))
        kept = sum(a.nbytes for part in (data.train, data.val, data.test) for a in (part.X, part.y))
        block = data_mod.BLOCK_SIZE * data.train.X.itemsize
        # Standardizer.fit's variance takes one temporary of the training rows
        assert peak < kept + block + data.train.X.nbytes + self.SLACK

    def test_a_csv_clean_trial_holds_one_copy_of_its_rows(self, tmp_path):
        # twonorm-sized: 7400 rows of 20 features, label last
        rng = np.random.default_rng(5)
        y = np.where(rng.random(7400) < 0.5, 1, -1)
        path = tmp_path / "tw.csv"
        np.savetxt(path, np.column_stack([rng.standard_normal((7400, 20)) + 0.45 * y[:, None], y]), delimiter=",")
        grid, info = GridSpec(trials=1), dataset_info(str(path))
        data, peak = self._peak(lambda: harness.build_trial_data(grid, info, "tw.csv", 0))
        # the split copies each CSV row once; Standardizer.fit's variance takes one temporary of the training rows
        split = info.data.X.nbytes + info.data.y.nbytes
        assert peak < split + data.train.X.nbytes + self.SLACK


def _write_par_csv(tmp_path, n=1000, labels=(1, 2)) -> str:
    """An n-row binary CSV with three features, about half of its rows labelled each of labels;
    returns its path."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, 3))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=n) > 0, *labels)
    path = tmp_path / "par.csv"
    path.write_text("".join(",".join(map(repr, x.tolist())) + f",{label}\n" for x, label in zip(X, y)))
    return str(path)


def _shared_arrays(data) -> list:
    """A trial's data as a group receives it: the arrays that every group of the trial shares."""
    return [a for part in (data.train, data.val, data.test) for a in (part.X, part.y)]


def _write_one_class_csv(tmp_path) -> str:
    """A 200-row CSV whose label column holds one value; returns its path."""
    X = np.random.default_rng(3).normal(size=(200, 3))
    path = tmp_path / "one.csv"
    path.write_text("".join(",".join(map(repr, x.tolist())) + ",1\n" for x in X))
    return str(path)


@pytest.fixture
def pool_tasks(monkeypatch) -> list:
    """Run --jobs pools in this process, each task pickled and unpickled as a spawned worker receives
    it. The list gets (max_workers, the pickled tasks) per pool started."""
    pools = []

    class PicklingPool:
        def __init__(self, max_workers):
            self.tasks = []
            pools.append((max_workers, self.tasks))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            self.tasks += [pickle.dumps((fn, args)) for args in zip(*iterables)]
            return [fn(*args) for fn, args in map(pickle.loads, self.tasks)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    return pools


class TestRunGrid:
    def test_cardinality_and_order(self):
        grid = GridSpec(methods=("cs-sigmoid", "always-reject"), costs=(0.1, 0.2), trials=2, epochs=2)
        rows = run_grid(grid, cell_groups(grid))
        assert len(rows) == 2 * 2 * 2
        keys = [(r.dataset, r.method, r.cost, r.trial) for r in rows]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1, 0.2), trials=2, epochs=2)
        groups = cell_groups(grid)
        serial = run_grid(grid, groups, jobs=1)
        parallel = run_grid(grid, groups, jobs=2)
        assert [_strip_timing(r) for r in serial] == [_strip_timing(r) for r in parallel]

    # a CSV's PU positive class is its smallest raw label: the 1 rows of a 1,2 file, the -1 rows of a +-1 file
    @pytest.mark.parametrize(
        "setting, labels",
        [("clean", (1, 2)), ("pu", (1, 2)), ("clean", (1, -1)), ("pu", (1, -1))],
        ids=["clean", "pu", "clean-+-1", "pu-+-1"],
    )
    def test_parallel_matches_serial_on_a_csv_file(self, setting, labels, tmp_path):
        # the workers get their groups' trial data, not the file's path
        path = _write_par_csv(tmp_path, labels=labels)
        methods = ("cs-sigmoid", "sce", "always-reject")
        grid = GridSpec(datasets=(path,), methods=methods, costs=(0.2,), setting=setting, trials=2, epochs=2)
        groups = cell_groups(grid)
        serial = run_grid(grid, groups, jobs=1)
        parallel = run_grid(grid, groups, jobs=2)
        assert len(serial) == 6 and not any(r.flagged for r in serial)
        assert [_strip_timing(r) for r in serial] == [_strip_timing(r) for r in parallel]

    @pytest.mark.parametrize("setting", ["clean", "pu"])
    def test_a_pool_that_pickles_each_task_trains_on_read_only_data(self, setting, monkeypatch, tmp_path, pool_tasks):
        # each task carries the grid and one group with its trial's data, pickled as a spawned
        # worker receives it; the unpickled arrays a worker trains on are read-only, as in the serial path
        path = _write_par_csv(tmp_path)
        methods = ("cs-sigmoid", "always-reject")
        grid = GridSpec(datasets=(path,), methods=methods, costs=(0.1, 0.2), setting=setting, trials=2, epochs=2)
        groups = cell_groups(grid)
        seen = []
        train_group = harness.train_group

        def probe(grid, data, cells):
            seen.append(any(a.flags.writeable for a in _shared_arrays(data)))
            return train_group(grid, data, cells)

        monkeypatch.setattr(harness, "train_group", probe)
        parallel = run_grid(grid, groups, jobs=2)
        # two trials of two groups each: four groups, four tasks
        assert len(seen) == 4 and not any(seen)
        ((workers, tasks),) = pool_tasks
        assert workers == 2 and len(tasks) == 4
        monkeypatch.setattr(harness, "train_group", train_group)
        assert [_strip_timing(r) for r in parallel] == [_strip_timing(r) for r in run_grid(grid, groups, jobs=1)]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="a forked worker inherits the probe")
    def test_a_jobs_2_worker_trains_on_read_only_rows(self, monkeypatch, tmp_path):
        path = _write_par_csv(tmp_path)
        grid = GridSpec(datasets=(path,), methods=("cs-sigmoid", "always-reject"), costs=(0.2,), trials=2, epochs=2)
        train_group = harness.train_group

        def probe(grid, data, cells):
            flags = "rw" if any(a.flags.writeable for a in _shared_arrays(data)) else "ro"
            with open(tmp_path / f"probe-{os.getpid()}", "a") as f:
                f.write(flags + "\n")
            return train_group(grid, data, cells)

        monkeypatch.setattr(harness, "train_group", probe)
        rows = run_grid(grid, cell_groups(grid), jobs=2)
        assert len(rows) == 4
        probes = {p.name: p.read_text().split() for p in tmp_path.glob("probe-*")}
        assert probes and f"probe-{os.getpid()}" not in probes
        assert sum(map(len, probes.values())) == 4 and all(f == "ro" for flags in probes.values() for f in flags)

    @pytest.mark.parametrize(
        "dataset, setting",
        [("twonorm", "clean"), ("twonorm", "noisy"), ("twonorm", "pu"), ("gauss3", "clean"), ("gauss3", "noisy")],
    )
    def test_grouping_is_invisible_in_the_rows(self, dataset, setting, monkeypatch):
        # per trial, two losses x three costs and sce train as one stack,
        # angle (width K - 1) as another, and always-reject trains nothing
        methods = ("cs-sigmoid", "cs-ramp", "sce", "angle", "always-reject")
        grid = GridSpec(datasets=(dataset,), methods=methods, costs=(0.1, 0.25, 0.4), setting=setting, trials=2, epochs=2)
        # the skipped cells leave parts of three groups
        skip = [(dataset, "cs-sigmoid", 0.25, 0), (dataset, "cs-ramp", 0.1, 1), (dataset, "angle", 0.4, 1)]
        calls = []
        trainer = (harness.weaksup, "train_pu") if setting == "pu" else (harness, "train")
        original = getattr(*trainer)
        monkeypatch.setattr(*trainer, lambda models, *args: calls.append(len(models)) or original(models, *args))

        rows = run_grid(grid, cell_groups(grid, skip))
        assert sorted(calls) == [2, 3, 8, 8]
        calls.clear()
        alone = [_run_alone(grid, cell) for cell in grid.cells() if cell not in skip]
        assert calls == [1] * 21  # always-reject trains nothing
        alone.sort(key=lambda r: (r.dataset, r.method, r.cost, r.trial))
        assert len(rows) == 27
        assert [_strip_timing(r) for r in rows] == [_strip_timing(r) for r in alone]

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_each_dataset_and_trial_is_drawn_once(self, setting, monkeypatch, tmp_path):
        # every group used to draw its trial's split, noise or PU sets and standardization again
        # a synthetic trial and a CSV's split share split_order, and their PU sets pu_indices
        calls = []
        split, pick = data_mod.split_order, harness.weaksup.pu_indices
        monkeypatch.setattr(data_mod, "split_order", lambda *a, **kw: calls.append("split") or split(*a, **kw))
        monkeypatch.setattr(harness.weaksup, "pu_indices", lambda *a: calls.append("pu") or pick(*a))
        datasets = ("twonorm", _write_par_csv(tmp_path) if setting == "pu" else "gauss3")
        methods = ("cs-sigmoid", "sce", "defer", "angle", "always-reject")
        grid = GridSpec(datasets=datasets, methods=methods, costs=(0.2,), setting=setting, trials=2, epochs=1)
        assert len(run_grid(grid, cell_groups(grid))) == 20
        assert calls == (["split", "pu"] if setting == "pu" else ["split"]) * 4

    @pytest.mark.parametrize(
        "methods, skip_all, jobs, workers",
        [
            (("cs-sigmoid", "angle", "always-reject"), False, 8, [3]),
            (("cs-sigmoid", "angle", "always-reject"), False, 2, [2]),
            (("cs-sigmoid", "angle", "always-reject"), True, 8, []),
            (("cs-sigmoid", "cs-hinge"), False, 8, []),
        ],
    )
    def test_jobs_are_capped_at_the_number_of_groups(self, methods, skip_all, jobs, workers, pool_tasks):
        # a fork pool starts all its workers at its first submit, so a pool larger than
        # the groups forks idle workers, and one group or none needs no pool at all
        grid = GridSpec(methods=methods, costs=(0.2,), trials=1, epochs=1)
        skip = list(grid.cells()) if skip_all else []
        rows = run_grid(grid, cell_groups(grid, skip), jobs=jobs)
        assert [max_workers for max_workers, _ in pool_tasks] == workers
        assert len(rows) == (0 if skip_all else len(methods))

    def test_each_dataset_is_resolved_once(self, monkeypatch):
        # cell_groups and every train_group used to resolve every dataset again
        calls = []
        resolve = harness.dataset_info
        monkeypatch.setattr(harness, "dataset_info", lambda name: calls.append(name) or resolve(name))
        grid = GridSpec(datasets=("twonorm", "gauss3"), methods=("cs-hinge", "always-reject"), costs=(0.2,), trials=2, epochs=1)
        assert len(run_grid(grid, cell_groups(grid))) == 8
        assert sorted(calls) == ["gauss3", "twonorm"]

    def test_skip_keys_resume(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1,), trials=3, epochs=2)
        full = run_grid(grid, cell_groups(grid))
        partial = run_grid(grid, cell_groups(grid, [full[0].key()]))
        assert len(partial) == 2
        merged = sorted([full[0]] + partial, key=lambda r: r.trial)
        assert [_strip_timing(r) for r in merged] == [_strip_timing(r) for r in full]

    def test_skip_keys_leave_the_skipped_trials_undrawn(self, monkeypatch):
        # every trial's data used to be built, also for trials whose every cell was skipped
        calls = []
        split = data_mod.split_order
        monkeypatch.setattr(data_mod, "split_order", lambda *a, **kw: calls.append("split") or split(*a, **kw))
        grid = GridSpec(methods=("always-reject",), costs=(0.1, 0.2), trials=3, epochs=1)
        rows = run_grid(grid, cell_groups(grid, [cell for cell in grid.cells() if cell[3] != 1]))
        assert [(r.cost, r.trial) for r in rows] == [(0.1, 1), (0.2, 1)]
        assert len(calls) == 1

    def test_jobs_workers_get_no_csv_rows(self, tmp_path, pool_tasks):
        # a worker used to receive every CSV's rows with the grid, though only the
        # build of a trial's data, which runs before any worker starts, reads them
        path = _write_par_csv(tmp_path)
        grid = GridSpec(datasets=(path,), methods=("cs-sigmoid", "always-reject"), costs=(0.2,), trials=2, epochs=2)
        groups = cell_groups(grid)
        parallel = run_grid(grid, groups, jobs=2)
        ((_, tasks),) = pool_tasks
        rows = dataset_info(path).data
        assert len(tasks) == 4
        for task in tasks:
            assert b"DatasetInfo" not in task
            assert rows.X.tobytes() not in task and rows.y.tobytes() not in task
        assert [_strip_timing(r) for r in parallel] == [_strip_timing(r) for r in run_grid(grid, groups, jobs=1)]

    def test_a_jobs_worker_resolves_no_dataset(self, monkeypatch, tmp_path, pool_tasks):
        # a worker used to get a grid with every dataset resolved, written into the frozen grid's vars();
        # it trains and scores from its group's trial data alone, so it never resolves a dataset itself
        path = _write_par_csv(tmp_path)
        grid = GridSpec(datasets=(path, "gauss3"), methods=("cs-sigmoid", "angle"), costs=(0.2,), trials=2, epochs=1)
        calls = []
        resolve = harness.dataset_info
        monkeypatch.setattr(harness, "dataset_info", lambda name: calls.append(name) or resolve(name))
        groups = cell_groups(grid)
        assert calls == [path, "gauss3"]
        assert len(run_grid(grid, groups, jobs=2)) == 8
        assert len(pool_tasks) == 1 and len(calls) == 2


class TestAggregate:
    def _row(self, risk, trial, cost=0.1, method="m"):
        return ResultRow("twonorm", method, "clean", cost, trial, risk, 0.0, 0.0, 0, 0, 1.0)

    def test_hand_mean_and_se(self):
        rows = [self._row(1.0, 0), self._row(2.0, 1), self._row(3.0, 2)]
        s = aggregate(rows)[0]
        assert s.risk01c_mean == pytest.approx(2.0)
        assert s.risk01c_se == pytest.approx(1 / np.sqrt(3))
        assert s.n_trials == 3

    def test_identical_values_zero_se(self):
        rows = [self._row(0.5, t) for t in range(4)]
        assert aggregate(rows)[0].risk01c_se == 0.0

    def test_single_trial_flagged(self):
        s = aggregate([self._row(0.5, 0)])[0]  # n_trials == 1 flags a group of one trial
        assert s.n_trials == 1
        assert s.risk01c_se == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_a_repeated_row_is_rejected(self):
        # a copy used to count as one more trial in n_trials and the SE
        with pytest.raises(ValueError, match="repeated"):
            aggregate([self._row(0.5, 0), self._row(0.5, 1), self._row(0.6, 0)])

    def test_grouping(self):
        rows = [self._row(0.5, 0, cost=0.1), self._row(0.6, 0, cost=0.2)]
        assert len(aggregate(rows)) == 2


class TestCsv:
    def _rows(self):
        return [
            ResultRow("twonorm", "cs-sigmoid", "clean", 0.1, 0, 0.0123456, 0.25, 0.01, 3, 1, 2.5),
            ResultRow("twonorm", "cs-sigmoid", "clean", 0.1, 1, 0.0234567, 0.5, 0.02, 4, 0, 2.6),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        rows = self._rows()
        write_csv(rows, p)
        back = read_csv(p)
        assert len(back) == 2
        for a, b in zip(rows, back):
            assert a.key() == b.key()
            assert b.risk01c == pytest.approx(a.risk01c, rel=1e-5)
            assert b.n_reject_distance == a.n_reject_distance

    def test_empty_rows_header_only(self, tmp_path):
        p = tmp_path / "r.csv"
        write_csv([], p)
        content = p.read_text().strip().split("\n")
        assert len(content) == 1
        assert content[0].startswith("dataset,method,setting,cost,trial,risk01c")

    def test_foreign_header_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="line 1"):
            read_csv(p)

    @pytest.mark.parametrize(
        "tail",
        [
            "twonorm,cs-sigmoid,clean,0.1,1,0.02\n",
            "twonorm,cs-sigmoid,clean,0.1,one,0.02,0.5,0.02,4,0,2.6,False\n",
            "twonorm,cs-sigmoid,clean,0.1,1,0.02,0.5,0.02,4,0,2.6,False,extra\n",
            "twonorm,cs-sigmoid,clean,0.1,1,0.02,0.5,0.02,4,0,2.6,no\n",
        ],
        ids=["truncated", "non-integer trial", "extra field", "flag neither True nor False"],
    )
    def test_a_malformed_row_is_a_value_error_naming_its_line(self, tmp_path, tail):
        p = tmp_path / "r.csv"
        write_csv(self._rows(), p)  # a header and two rows
        with open(p, "a") as fh:
            fh.write(tail)
        with pytest.raises(ValueError, match="line 4"):
            read_csv(p)

    def test_comma_in_dataset_path_round_trips(self, tmp_path):
        p = tmp_path / "r.csv"
        rows = [dataclasses.replace(self._rows()[0], dataset="/tmp/a,b.csv"), self._rows()[1]]
        write_csv(rows, p)
        back = read_csv(p)
        assert [r.dataset for r in back] == ["/tmp/a,b.csv", "twonorm"]
        assert [r.key() for r in back] == [r.key() for r in rows]
        # ordinary rows keep the unquoted form the golden files use
        assert p.read_text().splitlines()[2] == "twonorm,cs-sigmoid,clean,0.1,1,0.0234567,0.5,0.02,4,0,2.6,False"

    def test_both_schemas_as_literal_lines(self, tmp_path):
        # golden files, --resume and downstream readers rely on these columns
        rows = self._rows()
        write_csv(rows, tmp_path / "r.csv")
        write_summary_csv(aggregate(rows), tmp_path / "s.csv", rescale_0_100=True)
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == (
            "dataset,method,setting,cost,trial,risk01c,rejection_ratio,"
            "accepted_error,n_reject_distance,n_reject_ambiguity,train_seconds,flagged"
        )
        assert (tmp_path / "s.csv").read_text().splitlines() == [
            "dataset,method,setting,cost,n_trials,risk01c_mean,risk01c_se,"
            "rejection_ratio_mean,rejection_ratio_se,accepted_error_mean,accepted_error_se",
            "twonorm,cs-sigmoid,clean,0.1,2,1.79012,0.555555,37.5,12.5,1.5,0.5",
        ]

    def test_a_write_that_fails_leaves_the_old_file_as_it_was(self, tmp_path, monkeypatch):
        # opening the target for writing used to empty it, so a --resume file lost its kept rows
        p = tmp_path / "r.csv"
        write_csv(self._rows(), p)
        before = p.read_bytes()
        real_writer = harness.csv.writer

        def failing_writer(fh, **kwargs):
            out, written = real_writer(fh, **kwargs), []

            def writerow(row):
                if len(written) == 2:  # the header and one row
                    raise OSError(28, "No space left on device")
                written.append(row)
                return out.writerow(row)

            return SimpleNamespace(writerow=writerow)

        monkeypatch.setattr(harness.csv, "writer", failing_writer)
        with pytest.raises(OSError):
            write_csv(self._rows()[::-1], p)
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["r.csv"]

    def test_a_linked_file_is_written_through_its_link(self, tmp_path):
        target, link = tmp_path / "r.csv", tmp_path / "link.csv"
        write_csv([], target)
        link.symlink_to(target)
        write_csv(self._rows(), link)
        assert link.is_symlink() and len(read_csv(target)) == 2

    def test_flagged_round_trips(self, tmp_path):
        # the flag used to be dropped, so --resume and aggregate saw a good row
        p = tmp_path / "r.csv"
        rows = [dataclasses.replace(self._rows()[0], flagged=True), self._rows()[1]]
        write_csv(rows, p)
        assert [r.flagged for r in read_csv(p)] == [True, False]

    def test_a_legacy_file_without_the_flag_column_reads_as_unflagged(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text(LEGACY_HEADER + "\ntwonorm,cs-sigmoid,clean,0.1,0,0.0123456,0.25,0.01,3,1,2.5\n")
        (row,) = read_csv(p)
        assert row == self._rows()[0] and not row.flagged

    def test_summary_rescale(self, tmp_path):
        rows = self._rows()
        summaries = aggregate(rows)
        p = tmp_path / "s.csv"
        write_summary_csv(summaries, p, rescale_0_100=True)
        line = p.read_text().strip().split("\n")[1].split(",")
        # mean risk 0.0179... rescaled to the 0-100 convention
        assert float(line[5]) == pytest.approx(100 * (0.0123456 + 0.0234567) / 2, rel=1e-4)


def _no_training(monkeypatch):
    fail = lambda *args, **kwargs: pytest.fail("a cell trained")
    monkeypatch.setattr(harness, "train", fail)
    monkeypatch.setattr(harness.weaksup, "train_pu", fail)
    monkeypatch.setattr(harness, "run_cell", fail)


class TestCliRun:
    BAD_ARGS = [
        ("--methods", "svm"),
        ("--costs", "0.7"),
        ("--trials", "0"),
        ("--epochs", "-1"),
        # batches are 256 rows, 64 in PU: there is no option to set them
        ("--batch-size", "32"),
        ("--dataset", "imagenet"),
        ("--dataset", "twonorm,gauss3", "--setting", "pu"),
        # out-of-range weak-supervision rates used to fail inside the first cell
        ("--setting", "noisy", "--noise-rate", "1.5"),
        ("--setting", "pu", "--prior", "0"),
        ("--setting", "pu", "--prior", "1.5"),
        ("--noise-rate", "-0.1"),
        # a worker count below 1 used to run serially without a word
        ("--jobs", "0"),
        ("--jobs", "-2"),
        # a repeated entry used to write one row per copy under one key
        ("--dataset", "twonorm,twonorm"),
        ("--methods", "cs-sigmoid,cs-hinge,cs-sigmoid"),
        ("--costs", "0.2,0.2"),
        # costs the result CSV writes alike share one key and one seed
        ("--costs", "0.2,0.2000001"),
        ("--costs", "0.1,0.1000000001"),
        # a cost outside (0, 0.5) has no rejection region, and nan compares as neither
        ("--costs", "0"),
        ("--costs", "0.5"),
        ("--costs", "-0.1"),
        ("--costs", "nan"),
        ("--costs", "inf"),
        # a comma list only: an empty entry, a word, a range
        ("--costs", "0.1,,0.2"),
        ("--costs", "abc"),
        ("--costs", "0.4:0.1:0.05"),
        ("--costs", "0.1:0.4:0"),
        ("--costs", "0.1:0.4:-0.05"),
        ("--costs", "0.1:0.4:1e-300"),
        ("--costs", "0.1:0.4:1e-7"),
    ]

    @pytest.mark.parametrize("bad", BAD_ARGS, ids=lambda bad: " ".join(bad))
    def test_bad_argument_is_a_usage_error_before_any_cell(self, bad, tmp_path, monkeypatch, capsys):
        from csreject import cli

        _no_training(monkeypatch)
        out = tmp_path / "r.csv"
        args = ["run", "--methods", "cs-sigmoid", "--costs", "0.2", "--trials", "1", "--out", str(out), *bad]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_seed_runs(self, tmp_path, capsys):
        # bench audit and bench gradcheck refuse a negative --seed; bench run hashes its seeds, so takes any
        from csreject import cli

        out = tmp_path / "r.csv"
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "1", "--seed", "-1", "--out", str(out)]
        assert cli.main(args) == 0
        assert len(harness.read_csv(out)) == 1

    def test_unknown_method_fails_before_any_cell(self, tmp_path, monkeypatch, capsys):
        from csreject import cli

        monkeypatch.setattr(harness, "run_cell", lambda *args: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        args = ["run", "--methods", "cs-sigmoid,cs-sigmod", "--costs", "0.2", "--trials", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "cs-sigmod" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_a_dataset_with_one_class_is_a_usage_error(self, setting, tmp_path, monkeypatch, capsys):
        from csreject import cli

        _no_training(monkeypatch)
        out = tmp_path / "r.csv"
        args = ["run", "--dataset", _write_one_class_csv(tmp_path), "--setting", setting, "--methods", "cs-sigmoid,angle"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--costs", "0.2", "--trials", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "one class" in capsys.readouterr().err
        assert not out.exists()

    def test_a_csv_too_small_for_the_pu_sets_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # it used to end in a traceback from make_pu_dataset, after the groups before it trained
        from csreject import cli

        _no_training(monkeypatch)
        out, path = tmp_path / "r.csv", _write_par_csv(tmp_path, 300)
        args = ["run", "--dataset", path, "--setting", "pu", "--methods", "cs-sigmoid"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--costs", "0.2", "--trials", "1", "--epochs", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert path in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "twonorm_first, labels",
        [(False, (1, 2)), (True, (1, 2)), (True, (1, -1))],
        ids=["csv", "twonorm,csv", "twonorm,+-1 csv"],
    )
    def test_a_balanced_csv_in_pu_is_a_usage_error_naming_the_dataset_and_trial(
        self, twonorm_first, labels, tmp_path, monkeypatch, capsys
    ):
        # 600 balanced rows pass any row count, but their 300-row training split holds too few
        # positives for the smallest PU draw; it used to end in a traceback after always-reject's
        # group, and the groups of a dataset listed before it, had run
        from csreject import cli

        _no_training(monkeypatch)
        out, path = tmp_path / "r.csv", _write_par_csv(tmp_path, 600, labels)
        dataset = f"twonorm,{path}" if twonorm_first else path
        args = ["run", "--dataset", dataset, "--setting", "pu", "--methods", "always-reject,cs-sigmoid"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--costs", "0.2", "--trials", "1", "--epochs", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert path in err and "trial 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["clean", "noisy"])
    @pytest.mark.parametrize("twonorm_first", [False, True], ids=["csv", "twonorm,csv"])
    def test_a_csv_too_small_for_a_validation_row_is_a_usage_error_naming_the_dataset_and_trial(
        self, setting, twonorm_first, tmp_path, monkeypatch, capsys
    ):
        # round(0.1 * 5) == 0 leaves the validation split empty; it used to end in a
        # traceback that did not name the dataset
        from csreject import cli

        _no_training(monkeypatch)
        out, path = tmp_path / "r.csv", tmp_path / "five.csv"
        _write_toy_csv(path, 5)
        dataset = f"twonorm,{path}" if twonorm_first else str(path)
        args = ["run", "--dataset", dataset, "--setting", setting, "--methods", "always-reject,cs-sigmoid"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--costs", "0.2", "--trials", "1", "--epochs", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{path}, trial 0: 5 rows leave a part of the split" in err
        assert not out.exists()

    def test_a_cost_range_is_a_usage_error_that_asks_for_a_comma_list(self, tmp_path, monkeypatch, capsys):
        _no_training(monkeypatch)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--methods", "cs-sigmoid", "--costs", "0.1:0.4:0.05", "--trials", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--costs takes a comma list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_a_csv_whose_features_overflow_the_variance_is_a_usage_error_naming_the_dataset_and_trial(
        self, setting, tmp_path, monkeypatch, capsys
    ):
        # features of magnitude 1e200 used to standardize to zeros: every row rejected, exit 0, 0 flagged
        _no_training(monkeypatch)
        rng = np.random.default_rng(0)
        out, path = tmp_path / "r.csv", tmp_path / "huge.csv"
        y = np.where(np.arange(800) % 4, 1, 2)  # three in four in class 1, so the PU draw is served
        np.savetxt(path, np.column_stack([rng.standard_normal((800, 3)) * 1e200, y]), delimiter=",")
        args = ["run", "--dataset", str(path), "--setting", setting, "--methods", "cs-sigmoid", "--costs", "0.2"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--trials", "1", "--epochs", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert f"{path}, trial 0: feature " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message", [("1,2,1\n3,x,2\n", "malformed row 1: "), ("", "empty CSV")], ids=["malformed", "empty"]
    )
    def test_a_csv_that_does_not_parse_is_a_usage_error_naming_the_file(
        self, text, message, tmp_path, monkeypatch, capsys
    ):
        # the message used to leave out the file, so with several datasets the user could not tell which failed
        _no_training(monkeypatch)
        out, path = tmp_path / "r.csv", tmp_path / "bad.csv"
        path.write_text(text)
        args = ["run", "--dataset", f"twonorm,{path}", "--methods", "cs-sigmoid", "--costs", "0.2", "--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_a_csv_with_no_feature_column_is_a_usage_error_naming_the_file(self, setting, tmp_path, monkeypatch, capsys):
        # a file of labels alone used to train models of no feature: all-reject rows, exit 0, 0 flagged
        _no_training(monkeypatch)
        out, path = tmp_path / "r.csv", tmp_path / "labelonly.csv"
        np.savetxt(path, np.where(np.arange(600) % 4, -1, 1), fmt="%d")  # -1 three in four, to serve the PU draw
        args = ["run", "--dataset", str(path), "--setting", setting, "--methods", "cs-sigmoid,sce,angle"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--costs", "0.2", "--trials", "1", "--epochs", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert f"{path}: a CSV needs a feature column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        # a range is refused at once, whatever its end or step
        ["", "0.1,,0.2", "abc", "0.1;0.2", "0.1:0.4:0.05", "0.2:0.2:0.1", "0.1:0.4", "0.1:0.4:inf", "0.1:inf:0.1",
         "-inf:0.4:0.1", "1e-10:0.4:1e-10", "0.1,0.2:0.4:0.1"],
    )
    def test_parse_costs_rejects_entries_that_are_not_numbers(self, text):
        with pytest.raises(ValueError, match="--costs takes a comma list"):
            cli._parse_costs(text)

    def test_the_default_costs_are_the_grid_defaults(self, tmp_path, monkeypatch):
        from csreject import cli

        grids = []
        monkeypatch.setattr(harness, "run_grid", lambda grid, groups, **kwargs: grids.append(grid) or [])
        assert cli.main(["run", "--methods", "always-reject", "--trials", "1", "--out", str(tmp_path / "r.csv")]) == 0
        assert grids[0].costs == harness.DEFAULT_COSTS

    def test_parse_costs_forms(self):
        from csreject import cli

        assert cli._parse_costs("0.1,0.25") == (0.1, 0.25)
        assert cli._parse_costs("0.2") == (0.2,)

    @pytest.mark.parametrize("resume", [[], ["--resume"]], ids=["fresh", "resume"])
    @pytest.mark.parametrize("where", ["same path", "dot prefix", "symbolic link"])
    def test_an_out_that_names_a_dataset_file_is_a_usage_error_before_anything_is_read(
        self, tmp_path, monkeypatch, capsys, resume, where
    ):
        # the rows used to replace the dataset they were trained on, with exit status 0
        from csreject import cli

        monkeypatch.setattr(data_mod, "load_csv", lambda path: pytest.fail("the dataset was read"))
        monkeypatch.setattr(harness, "read_csv", lambda path: pytest.fail("the result file was read"))
        _no_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        _write_toy_csv(tmp_path / "d.csv", 40)
        text = (tmp_path / "d.csv").read_text()
        (tmp_path / "link.csv").symlink_to("d.csv")
        out = {"same path": "d.csv", "dot prefix": os.path.join(".", "d.csv"), "symbolic link": "link.csv"}[where]
        args = ["run", "--dataset", "twonorm,d.csv", "--methods", "always-reject", "--costs", "0.2", "--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--out", out, *resume])
        assert exc.value.code == 2
        assert f"--out names the --dataset file: {out}\n" in capsys.readouterr().err
        assert (tmp_path / "d.csv").read_text() == text


class TestGridSpecTraining:
    def test_negative_epochs_are_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(epochs=-1)

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    @pytest.mark.parametrize("bad", [dict(noise_rate=-0.1), dict(noise_rate=1.0), dict(prior=0.0), dict(prior=1.5)])
    def test_rates_out_of_range_are_rejected_in_every_setting(self, bad, setting):
        with pytest.raises(ValueError):
            GridSpec(setting=setting, **bad)

    def test_defaults_and_zero_epochs_are_accepted(self):
        GridSpec()
        GridSpec(epochs=0)
        GridSpec(noise_rate=0.0, prior=1.0)  # the closed ends of the rates' ranges

    def test_pu_with_a_multiclass_dataset_fails_before_any_cell_trains(self, monkeypatch):
        _no_training(monkeypatch)
        grid = GridSpec(datasets=("twonorm", "gauss3"), methods=("cs-sigmoid",), costs=(0.2,), setting="pu", **FAST)
        with pytest.raises(ValueError, match="gauss3"):
            cell_groups(grid)

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_a_dataset_with_one_class_fails_before_any_cell_trains(self, setting, tmp_path, monkeypatch):
        # it used to train, then fail in angle's slopes or in the noise draw
        _no_training(monkeypatch)
        path = _write_one_class_csv(tmp_path)
        grid = GridSpec(datasets=(path,), methods=("cs-sigmoid", "angle"), costs=(0.2,), setting=setting, **FAST)
        with pytest.raises(ValueError, match="one class"):
            cell_groups(grid)

    @pytest.mark.parametrize("n", [300, 478, 480, 600])
    def test_a_csv_too_small_for_the_pu_sets_fails_before_any_cell_trains(self, n, tmp_path, monkeypatch):
        # the smallest draw takes 200 unlabeled rows, 140 of them positive at prior 0.7, and 40
        # positives: a training split of fewer than 240 rows, or of 240 to 300 balanced rows, used
        # to reach make_pu_dataset inside the first group to train, which then raised
        _no_training(monkeypatch)
        path = _write_par_csv(tmp_path, n)
        grid = GridSpec(datasets=("twonorm", path), methods=("cs-sigmoid",), costs=(0.2,), setting="pu", **FAST)
        with pytest.raises(ValueError, match="insufficient source data") as exc:
            cell_groups(grid)
        assert str(exc.value).startswith(f"{path}, trial 0: ")

    @pytest.mark.parametrize("setting", ["clean", "noisy"])
    def test_a_csv_too_small_for_a_validation_row_fails_before_any_cell_trains(self, setting, tmp_path, monkeypatch):
        _no_training(monkeypatch)
        path = tmp_path / "five.csv"
        _write_toy_csv(path, 5)
        methods = ("always-reject", "cs-sigmoid")
        grid = GridSpec(datasets=("twonorm", str(path)), methods=methods, costs=(0.2,), setting=setting, **FAST)
        with pytest.raises(ValueError, match="trial 0") as exc:
            cell_groups(grid)
        assert str(path) in str(exc.value)

    def test_a_csv_whose_training_split_serves_the_smallest_pu_draw_trains(self, tmp_path):
        # 800 rows, three in four positive: the 400-row training split serves 200 unlabeled rows
        rng = np.random.default_rng(7)
        y = np.where(rng.random(800) < 0.75, 1, 2)
        X = rng.normal(size=(800, 3)) + (y == 1)[:, None]
        path = tmp_path / "skewed.csv"
        path.write_text("".join(",".join(map(repr, x.tolist())) + f",{label}\n" for x, label in zip(X, y)))
        grid = GridSpec(datasets=(str(path),), methods=("cs-sigmoid",), costs=(0.2,), setting="pu", **FAST)
        groups = cell_groups(grid)
        (row,) = run_grid(grid, groups)
        assert not row.flagged
        # 40 positives, labelled 1, then 200 unlabeled rows, labelled 2
        np.testing.assert_array_equal(groups[0][0].train.y, np.repeat([1, 2], [40, 200]))

    @pytest.mark.parametrize("setting", ["clean", "noisy"])
    def test_a_csv_too_small_for_the_pu_sets_trains_in_the_other_settings(self, setting, tmp_path):
        path = _write_par_csv(tmp_path, 300)
        grid = GridSpec(datasets=(path,), methods=("cs-sigmoid",), costs=(0.2,), setting=setting, **FAST)
        (row,) = run_grid(grid, cell_groups(grid))
        assert not row.flagged


class TestCliResume:
    def test_resume_runs_cells_of_another_setting(self, tmp_path, capsys):
        from csreject import cli

        out = str(tmp_path / "r.csv")
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "1", "--out", out]
        assert cli.main(args) == 0
        assert cli.main(args + ["--setting", "noisy", "--resume"]) == 0
        assert "resuming: 0 rows" in capsys.readouterr().out
        assert sorted(r.setting for r in read_csv(out)) == ["clean", "noisy"]
        # the same setting again finds its row and runs nothing
        assert cli.main(args + ["--resume"]) == 0
        assert len(read_csv(out)) == 2

    def test_resume_reads_a_legacy_file_and_writes_the_flag_column(self, tmp_path, capsys):
        from csreject import cli

        out = tmp_path / "r.csv"
        out.write_text(LEGACY_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0\n")
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "2", "--out", str(out), "--resume"]
        assert cli.main(args) == 0
        assert "resuming: 1 rows already present" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == LEGACY_HEADER + ",flagged" and len(lines) == 3

    def test_a_kept_flagged_row_counts_in_the_report_and_the_exit_status(self, tmp_path, capsys):
        # only the rows of this run used to count: "(0 flagged)" and exit 0
        from csreject import cli

        out = tmp_path / "r.csv"
        out.write_text(harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,2960,0,0,True\n")
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "2", "--out", str(out)]
        assert cli.main(args + ["--resume"]) == 1
        assert f"wrote 2 rows to {out} (1 flagged)" in capsys.readouterr().out
        assert [r.flagged for r in read_csv(out)] == [True, False]
        # a run with nothing left to run reports the file it rewrites all the same
        assert cli.main(args + ["--resume"]) == 1
        assert f"wrote 2 rows to {out} (1 flagged)" in capsys.readouterr().out

    def test_kept_and_new_rows_are_written_in_key_order(self, tmp_path, capsys):
        from csreject import cli

        out = tmp_path / "r.csv"
        out.write_text(harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,1,0.2,1,0,2960,0,0,False\n")
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "2", "--out", str(out), "--resume"]
        assert cli.main(args) == 0
        assert "resuming: 1 rows already present" in capsys.readouterr().out
        assert [r.trial for r in read_csv(out)] == [0, 1]

    @pytest.mark.parametrize("kept, drawn", [([0, 1, 2], 0), ([0, 2], 1)], ids=["all kept", "one to run"])
    def test_a_resume_draws_only_the_trials_it_runs(self, kept, drawn, tmp_path, monkeypatch, capsys):
        # every trial's data used to be built, also for trials whose every row was kept
        from csreject import cli

        calls = []
        split = data_mod.split_order
        monkeypatch.setattr(data_mod, "split_order", lambda *a, **kw: calls.append("split") or split(*a, **kw))
        out = tmp_path / "r.csv"
        kept_rows = "".join(f"\ntwonorm,always-reject,clean,0.2,{t},0.2,1,0,2960,0,0,False" for t in kept)
        out.write_text(harness.CSV_HEADER + kept_rows + "\n")
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "3", "--out", str(out), "--resume"]
        assert cli.main(args) == 0
        assert len(calls) == drawn
        assert [r.trial for r in read_csv(out)] == [0, 1, 2]

    def test_a_data_error_in_a_trial_left_to_run_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # the trial named is the one the resume would run, and nothing trains or is written
        from csreject import cli

        _no_training(monkeypatch)
        path, out = tmp_path / "five.csv", tmp_path / "r.csv"
        _write_toy_csv(path, 5)
        text = harness.CSV_HEADER + f"\n{path},always-reject,clean,0.2,0,0.2,1,0,2,0,0,False\n"
        out.write_text(text)
        args = ["run", "--dataset", str(path), "--methods", "always-reject", "--costs", "0.2", "--trials", "2"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--out", str(out), "--resume"])
        assert exc.value.code == 2
        assert f"{path}, trial 1: 5 rows leave a part of the split" in capsys.readouterr().err
        assert out.read_text() == text

    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\n",
            harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0,False\ntwonorm,always-reject,clean,0.2,1,0.2\n",
        ],
        ids=["wrong header", "truncated last row"],
    )
    def test_an_unreadable_out_is_a_usage_error_before_any_cell(self, tmp_path, monkeypatch, capsys, text):
        from csreject import cli

        _no_training(monkeypatch)
        out = tmp_path / "r.csv"
        out.write_text(text)
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "1", "--out", str(out), "--resume"]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert f"{out}: line " in capsys.readouterr().err
        assert out.read_text() == text

    def test_a_repeated_row_is_a_usage_error_before_any_cell(self, tmp_path, monkeypatch, capsys):
        # the copy used to be kept and written back, and aggregate then refused the file
        from csreject import cli

        _no_training(monkeypatch)
        out = tmp_path / "r.csv"
        text = harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0,False" * 2 + "\n"
        out.write_text(text)
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "2", "--out", str(out), "--resume"]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "repeated rows" in capsys.readouterr().err
        assert out.read_text() == text

    @pytest.mark.parametrize("resume", [[], ["--resume"]], ids=["fresh", "resume"])
    def test_an_out_in_a_missing_directory_is_a_usage_error_before_any_cell(self, tmp_path, monkeypatch, capsys, resume):
        from csreject import cli

        _no_training(monkeypatch)
        out = tmp_path / "missing" / "r.csv"
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "1", "--out", str(out), *resume]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert str(out.parent) in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("resume", [[], ["--resume"]], ids=["fresh", "resume"])
    @pytest.mark.parametrize("where", ["directory", "empty", "trailing separator"])
    def test_an_out_that_names_a_directory_is_a_usage_error_before_any_cell(
        self, tmp_path, monkeypatch, capsys, resume, where
    ):
        # an empty --out used to run the grid and then fail to write the file, with exit status 1,
        # and an --out of "newdir/" wrote a file named newdir
        from csreject import cli

        _no_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        out = {"directory": str(tmp_path), "empty": "", "trailing separator": "newdir" + os.sep}[where]
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "1", "--out", out, *resume]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert f"--out must name a file in an existing directory: {out}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCliAggregate:
    @pytest.mark.parametrize(
        "text",
        [
            None,
            "",
            harness.CSV_HEADER + "\n",
            "a,b,c\ntwonorm,always-reject\n",
            harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2\n",
            LEGACY_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0\n" * 2,
        ],
        ids=["missing file", "empty file", "header only", "foreign header", "short row", "repeated row"],
    )
    def test_an_unreadable_in_is_a_usage_error(self, tmp_path, capsys, text):
        from csreject import cli

        infile, out = tmp_path / "r.csv", tmp_path / "s.csv"
        if text is not None:
            infile.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["aggregate", "--in", str(infile), "--out", str(out)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["directory", "missing directory", "empty", "trailing separator"])
    def test_an_unwritable_out_is_a_usage_error_before_the_input_is_read(self, tmp_path, monkeypatch, capsys, where):
        from csreject import cli

        monkeypatch.setattr(harness, "read_csv", lambda path: pytest.fail("the input was read"))
        monkeypatch.chdir(tmp_path)
        out = {
            "directory": str(tmp_path),
            "missing directory": str(tmp_path / "missing" / "s.csv"),
            "empty": "",
            "trailing separator": "newdir" + os.sep,
        }[where]
        with pytest.raises(SystemExit) as exc:
            cli.main(["aggregate", "--in", str(tmp_path / "r.csv"), "--out", out])
        assert exc.value.code == 2
        assert f"--out must name a file in an existing directory: {out}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["same path", "dot prefix", "symbolic link"])
    def test_an_out_that_names_the_in_file_is_a_usage_error_before_the_input_is_read(
        self, tmp_path, monkeypatch, capsys, where
    ):
        # the summary used to replace the rows it was read from, with exit status 0
        from csreject import cli

        monkeypatch.setattr(harness, "read_csv", lambda path: pytest.fail("the input was read"))
        monkeypatch.chdir(tmp_path)
        text = harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0,False\n"
        (tmp_path / "r.csv").write_text(text)
        (tmp_path / "link.csv").symlink_to("r.csv")
        out = {"same path": "r.csv", "dot prefix": os.path.join(".", "r.csv"), "symbolic link": "link.csv"}[where]
        with pytest.raises(SystemExit) as exc:
            cli.main(["aggregate", "--in", "r.csv", "--out", out])
        assert exc.value.code == 2
        assert f"--out names the --in file: {out}\n" in capsys.readouterr().err
        assert (tmp_path / "r.csv").read_text() == text

    def test_a_result_file_aggregates(self, tmp_path, capsys):
        from csreject import cli

        infile, out = tmp_path / "r.csv", tmp_path / "s.csv"
        rows = "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0,False\ntwonorm,always-reject,clean,0.2,1,0.3,0.5,0.1,750,0,0,False"
        infile.write_text(harness.CSV_HEADER + rows + "\n")
        for rescale, stats in [([], "0.25,0.05,0.75,0.25,0.05,0.05"), (["--rescale"], "25,5,75,25,5,5")]:
            assert cli.main(["aggregate", "--in", str(infile), "--out", str(out), *rescale]) == 0
            assert "wrote 1 summary rows" in capsys.readouterr().out
            assert out.read_text().splitlines() == [
                "dataset,method,setting,cost,n_trials,risk01c_mean,risk01c_se,"
                "rejection_ratio_mean,rejection_ratio_se,accepted_error_mean,accepted_error_se",
                "twonorm,always-reject,clean,0.2,2," + stats,
            ]


# the property draws its grids from these; sce, defer and angle stack at
# other score widths than the cs-* methods, and always-reject trains nothing
PROPERTY_METHODS = ("cs-sigmoid", "cs-hinge", "cs-ramp", "sce", "defer", "angle", "always-reject")
PROPERTY_COSTS = (0.1, 0.15, 0.2, 0.3, 0.4)
MAX_CELLS = 4 * 3 * 2  # methods x costs x trials


@pytest.fixture(scope="module")
def property_csv(tmp_path_factory) -> str:
    """A 600-row binary CSV, about three quarters positive, so that its
    training split serves the PU sets; returns its path."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(600, 3))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=600) > -0.7, 1, 2)
    path = tmp_path_factory.mktemp("property") / "property.csv"
    path.write_text("".join(",".join(map(repr, x.tolist())) + f",{label}\n" for x, label in zip(X, y)))
    return str(path)


def _printed(rows, path) -> list[tuple]:
    """Rows as a result file holds them, without train_seconds."""
    write_csv(rows, path)
    return [_strip_timing(r) for r in read_csv(path)]


class TestGroupingInvariance:
    """A row depends on its cell's key and the grid's values only: not on
    which cells share a stack, the order in which groups run, which cells a
    --resume run kept, or --jobs."""

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        setting=st.sampled_from(harness.SETTINGS),
        methods=st.lists(st.sampled_from(PROPERTY_METHODS), min_size=1, max_size=4, unique=True),
        costs=st.lists(st.sampled_from(PROPERTY_COSTS), min_size=1, max_size=3, unique=True),
        trials=st.integers(1, 2),
        epochs=st.integers(1, 3),
        pieces=st.lists(st.integers(0, 2), min_size=MAX_CELLS, max_size=MAX_CELLS),
        jobs=st.just(1),
    )
    # a pool is slow to start, so one grid of six groups runs at --jobs 2
    @example(
        setting="pu", methods=["cs-sigmoid", "angle", "always-reject"], costs=[0.2, 0.4], trials=2, epochs=2,
        pieces=[0, 1, 2] * 8, jobs=2,
    )
    def test_rows_do_not_depend_on_how_the_cells_are_grouped(
        self, property_csv, setting, methods, costs, trials, epochs, pieces, jobs
    ):
        grid = GridSpec(
            datasets=(property_csv,), methods=tuple(methods), costs=tuple(costs), trials=trials, setting=setting,
            epochs=epochs,
        )
        cells = list(grid.cells())
        planned = run_grid(grid, cell_groups(grid))
        rows = [_strip_timing(r) for r in planned]
        assert len(rows) == len(cells)

        alone = sorted((_run_alone(grid, cell) for cell in cells), key=ResultRow.key)
        assert [_strip_timing(r) for r in alone] == rows

        # the groups in reverse order, and each group's cells reversed in its stack
        reverse = [(data, group[::-1]) for data, group in cell_groups(grid)[::-1]]
        assert [_strip_timing(r) for r in run_grid(grid, reverse)] == rows

        if jobs > 1:
            plan = cell_groups(grid)
            assert len(plan) > 1  # one group runs without a pool
            assert [_strip_timing(r) for r in run_grid(grid, plan, jobs=jobs)] == rows

        # pieces of the plan as --resume runs them: each piece but the last
        # skips every other cell, and the last resumes the file of the rest
        piece_of = dict(zip(cells, pieces))
        kept = []
        for piece in sorted(set(piece_of.values()))[:-1]:
            kept += run_grid(grid, cell_groups(grid, [c for c in cells if piece_of[c] != piece]))
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "rows.csv")
            if kept:
                write_csv(kept, out)
            args = ["run", "--dataset", property_csv, "--methods", ",".join(methods), "--setting", setting]
            args += ["--costs", ",".join(map(str, costs)), "--trials", str(trials), "--epochs", str(epochs)]
            args += ["--seed", str(grid.master_seed), "--resume", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(args)
            assert [_strip_timing(r) for r in read_csv(out)] == _printed(planned, os.path.join(tmp, "plan.csv"))
