import dataclasses

import numpy as np
import pytest

from csreject import data as data_mod, harness
from csreject.harness import (
    GridSpec,
    ResultRow,
    aggregate,
    dataset_info,
    read_csv,
    run_cell,
    run_grid,
    write_csv,
    write_summary_csv,
)

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
        assert dataset_info("twonorm").K == 2
        assert dataset_info("twonorm").model_kind == "linear"
        assert dataset_info("gauss3").K == 3
        assert dataset_info("gauss3").model_kind == "mlp"

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            dataset_info("imagenet")

    def test_csv_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        rows = ["%f,%f,%d" % (i * 0.1, -i * 0.2, (i % 2) + 1) for i in range(20)]
        p.write_text("\n".join(rows) + "\n")
        info = dataset_info(str(p))
        assert info.K == 2
        assert info.total_n == 20
        # the info holds the rows it was resolved from
        np.testing.assert_array_equal(info.data.X, data_mod.load_csv(str(p)).X)

    @pytest.mark.parametrize("K, kind", [(2, "linear"), (3, "mlp")])
    def test_csv_model_kind_follows_the_class_count(self, tmp_path, K, kind):
        p = tmp_path / "toy.csv"
        p.write_text("".join("%f,%f,%d\n" % (i * 0.1, -i * 0.2, i % K) for i in range(30)))
        info = dataset_info(str(p))
        assert (info.K, info.model_kind) == (K, kind)


def _write_toy_csv(path, n):
    path.write_text("".join("%f,%f,%d\n" % (i * 0.1, -i * 0.2 + (i % 2), (i % 2) + 1) for i in range(n)))


class TestCsvLoading:
    def test_grid_parses_file_once_and_rereads_changes(self, tmp_path, monkeypatch):
        p = tmp_path / "toy.csv"
        _write_toy_csv(p, 40)
        calls = []
        load = data_mod.load_csv
        monkeypatch.setattr(data_mod, "load_csv", lambda *a, **kw: calls.append(a) or load(*a, **kw))
        grid = GridSpec(datasets=(str(p),), methods=("cs-sigmoid", "sce", "always-reject"), costs=(0.2,), **FAST)
        assert len(run_grid(grid)) == 3
        assert len(calls) == 1
        _write_toy_csv(p, 50)
        # the grid keeps the rows it read; a new grid reads the file again
        assert grid.dataset_infos[str(p)].total_n == 40
        assert dataclasses.replace(grid).dataset_infos[str(p)].total_n == 50
        assert len(calls) == 2

    def test_a_grid_runs_from_its_rows_once_the_file_is_gone(self, tmp_path):
        # the rows live on the grid, so neither this process nor a worker reopens the file
        p = tmp_path / "toy.csv"
        _write_toy_csv(p, 40)
        grid = GridSpec(datasets=(str(p),), methods=("cs-sigmoid", "always-reject"), costs=(0.2,), **FAST)
        assert grid.dataset_infos[str(p)].total_n == 40
        p.unlink()
        serial = run_grid(grid, jobs=1)
        parallel = run_grid(grid, jobs=2)
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
        def train_to_nan(models, data, loss_batches, configs):
            for model in models:
                model.params["W"][:] = np.nan
            return [[0.0] for _ in models]

        monkeypatch.setattr(harness, "train", train_to_nan)
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.2,), **FAST)
        row = run_cell(grid, ("twonorm", "cs-sigmoid", 0.2, 0))
        assert row.flagged

    def test_deterministic(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.2,), **FAST)
        cell = ("twonorm", "cs-sigmoid", 0.2, 0)
        r1 = run_cell(grid, cell)
        r2 = run_cell(grid, cell)
        assert _strip_timing(r1) == _strip_timing(r2)

    def test_always_reject_reference(self):
        grid = GridSpec(methods=("always-reject",), costs=(0.3,), **FAST)
        row = run_cell(grid, ("twonorm", "always-reject", 0.3, 0))
        assert row.risk01c == pytest.approx(0.3)
        assert row.rejection_ratio == 1.0

    def test_metrics_identity_holds(self):
        grid = GridSpec(methods=("cs-hinge",), costs=(0.15,), **FAST)
        row = run_cell(grid, ("twonorm", "cs-hinge", 0.15, 0))
        lhs = row.risk01c
        rhs = 0.15 * row.rejection_ratio + (1 - row.rejection_ratio) * row.accepted_error
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_noisy_setting_runs(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1,), setting="noisy", **FAST)
        row = run_cell(grid, ("twonorm", "cs-sigmoid", 0.1, 0))
        assert np.isfinite(row.risk01c)
        assert not row.flagged

    def test_pu_setting_runs(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST)
        row = run_cell(grid, ("twonorm", "cs-sigmoid", 0.1, 0))
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
        monkeypatch.setattr(harness.weaksup, "make_pu_dataset", lambda *a: drawn.extend(make_pu(*a)) or drawn[-2:])
        grid = GridSpec(datasets=(str(path),), methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST)
        row = run_cell(grid, (str(path), "cs-sigmoid", 0.1, 0))
        assert np.isfinite(row.risk01c)
        train_ds, val_ds, test_ds = parts
        held_out = {tuple(x) for x in np.vstack([val_ds.X, test_ds.X])}
        positives, unlabeled = drawn
        assert len(positives) > 0 and len(unlabeled) > 0
        assert not any(tuple(x) in held_out for x in np.vstack([positives, unlabeled]))
        # the largest multiple of 200 that the training split's classes allow
        n_pos, n_neg = int((train_ds.y == 1).sum()), int((train_ds.y == 2).sum())
        n_u = len(unlabeled)
        assert n_u % 200 == 0 and len(positives) == n_u // 5
        fits = lambda m: m // 5 + int(0.7 * m) <= n_pos and m - int(0.7 * m) <= n_neg
        assert fits(n_u) and not fits(n_u + 200)

    def test_pu_requires_binary(self):
        grid = GridSpec(datasets=("gauss3",), methods=("cs-sigmoid",), costs=(0.1,), setting="pu", **FAST)
        with pytest.raises(ValueError):
            run_cell(grid, ("gauss3", "cs-sigmoid", 0.1, 0))

    def test_same_trial_shares_data_across_methods(self):
        # the data seed depends on the trial but not the method, so the
        # always-reject risk (a pure function of the test labels) is shared
        g1 = GridSpec(methods=("always-reject",), costs=(0.2,), **FAST)
        g2 = GridSpec(methods=("always-reject", "cs-sigmoid"), costs=(0.2,), **FAST)
        r1 = run_cell(g1, ("twonorm", "always-reject", 0.2, 0))
        r2 = run_cell(g2, ("twonorm", "always-reject", 0.2, 0))
        assert _strip_timing(r1) == _strip_timing(r2)


class TestTrainGroup:
    @pytest.mark.parametrize("setting", ["clean", "noisy", "pu"])
    def test_splits_come_standardized_on_the_training_rows(self, setting, monkeypatch):
        parts, drawn = [], []
        split, make_pu = data_mod.split, harness.weaksup.make_pu_dataset
        monkeypatch.setattr(data_mod, "split", lambda *a, **kw: parts.extend(split(*a, **kw)) or parts[-3:])
        monkeypatch.setattr(harness.weaksup, "make_pu_dataset", lambda *a: drawn.extend(make_pu(*a)) or drawn[-2:])
        grid = GridSpec(methods=("cs-sigmoid", "cs-hinge"), costs=(0.2,), setting=setting, **FAST)
        first, second = harness.train_group(grid, list(grid.cells()))
        train_ds, val_ds, test_ds = parts
        # the PU setting trains on its positive and unlabeled draws
        scaler = data_mod.Standardizer.fit(np.vstack(drawn) if setting == "pu" else train_ds.X)
        for got, raw in ((first.val_ds, val_ds), (first.test_ds, test_ds)):
            want = scaler.apply(raw)
            np.testing.assert_array_equal(got.X, want.X)
            np.testing.assert_array_equal(got.y, want.y)
        # one standardized split per group, shared by its cells
        assert second.val_ds is first.val_ds and second.test_ds is first.test_ds


class TestRunGrid:
    def test_cardinality_and_order(self):
        grid = GridSpec(methods=("cs-sigmoid", "always-reject"), costs=(0.1, 0.2), trials=2, epochs=2)
        rows = run_grid(grid)
        assert len(rows) == 2 * 2 * 2
        keys = [(r.dataset, r.method, r.cost, r.trial) for r in rows]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1, 0.2), trials=2, epochs=2)
        serial = run_grid(grid, jobs=1)
        parallel = run_grid(grid, jobs=2)
        assert [_strip_timing(r) for r in serial] == [_strip_timing(r) for r in parallel]

    @pytest.mark.parametrize("setting", ["clean", "pu"])
    def test_parallel_matches_serial_on_a_csv_file(self, setting, tmp_path):
        # the workers get the file's rows pickled with the grid, not its path
        rng = np.random.default_rng(7)
        X = rng.normal(size=(1000, 3))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=1000) > 0, 1, 2)
        path = tmp_path / "par.csv"
        path.write_text("".join(",".join(map(repr, x.tolist())) + f",{label}\n" for x, label in zip(X, y)))
        methods = ("cs-sigmoid", "sce", "always-reject")
        grid = GridSpec(datasets=(str(path),), methods=methods, costs=(0.2,), setting=setting, trials=2, epochs=2)
        serial = run_grid(grid, jobs=1)
        parallel = run_grid(grid, jobs=2)
        assert len(serial) == 6 and not any(r.flagged for r in serial)
        assert [_strip_timing(r) for r in serial] == [_strip_timing(r) for r in parallel]

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

        rows = run_grid(grid, skip_keys=skip)
        assert sorted(calls) == [2, 3, 8, 8]
        calls.clear()
        alone = [run_cell(grid, cell) for cell in grid.cells() if cell not in skip]
        assert calls == [1] * 21  # always-reject trains nothing
        alone.sort(key=lambda r: (r.dataset, r.method, r.cost, r.trial))
        assert len(rows) == 27
        assert [_strip_timing(r) for r in rows] == [_strip_timing(r) for r in alone]

    def test_each_dataset_is_resolved_once(self, monkeypatch):
        # cell_groups and every train_group used to resolve every dataset again
        calls = []
        resolve = harness.dataset_info
        monkeypatch.setattr(harness, "dataset_info", lambda name: calls.append(name) or resolve(name))
        grid = GridSpec(datasets=("twonorm", "gauss3"), methods=("cs-hinge", "always-reject"), costs=(0.2,), trials=2, epochs=1)
        assert len(run_grid(grid)) == 8
        assert sorted(calls) == ["gauss3", "twonorm"]

    def test_skip_keys_resume(self):
        grid = GridSpec(methods=("cs-sigmoid",), costs=(0.1,), trials=3, epochs=2)
        full = run_grid(grid)
        partial = run_grid(grid, skip_keys=[full[0].key()])
        assert len(partial) == 2
        merged = sorted([full[0]] + partial, key=lambda r: r.trial)
        assert [_strip_timing(r) for r in merged] == [_strip_timing(r) for r in full]


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
        ("--batch-size", "0"),
        ("--dataset", "imagenet"),
        ("--dataset", "twonorm,gauss3", "--setting", "pu"),
        ("--costs", "0.4:0.1:0.05"),
        # a step <= 0 used to append costs forever
        ("--costs", "0.1:0.4:0"),
        ("--costs", "0.1:0.4:-0.05"),
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

    @pytest.mark.parametrize("text", ["0.1:0.4:0", "0.1:0.4:-0.05", "0.4:0.1:0.05", "0.1:0.4", ""])
    def test_parse_costs_rejects_steps_that_never_end_and_empty_lists(self, text):
        from csreject import cli

        with pytest.raises(ValueError):
            cli._parse_costs(text)

    def test_parse_costs_forms(self):
        from csreject import cli

        assert cli._parse_costs("0.1,0.25") == (0.1, 0.25)
        assert cli._parse_costs("0.1:0.4:0.05") == (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
        assert cli._parse_costs("0.2:0.2:0.1") == (0.2,)


class TestGridSpecTraining:
    @pytest.mark.parametrize("bad", [dict(epochs=-1), dict(batch_size=0)])
    def test_bad_training_settings_are_rejected(self, bad):
        with pytest.raises(ValueError):
            GridSpec(**bad)

    @pytest.mark.parametrize("setting", harness.SETTINGS)
    @pytest.mark.parametrize("bad", [dict(noise_rate=-0.1), dict(noise_rate=1.0), dict(prior=0.0), dict(prior=1.5)])
    def test_rates_out_of_range_are_rejected_in_every_setting(self, bad, setting):
        with pytest.raises(ValueError):
            GridSpec(setting=setting, **bad)

    def test_defaults_and_zero_epochs_are_accepted(self):
        GridSpec()
        GridSpec(epochs=0, batch_size=1)
        GridSpec(noise_rate=0.0, prior=1.0)  # the closed ends of the rates' ranges

    def test_pu_with_a_multiclass_dataset_fails_before_any_cell_trains(self, monkeypatch):
        _no_training(monkeypatch)
        grid = GridSpec(datasets=("twonorm", "gauss3"), methods=("cs-sigmoid",), costs=(0.2,), setting="pu", **FAST)
        with pytest.raises(ValueError, match="gauss3"):
            run_grid(grid)


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
    def test_an_out_that_names_a_directory_is_a_usage_error_before_any_cell(self, tmp_path, monkeypatch, capsys, resume):
        from csreject import cli

        _no_training(monkeypatch)
        args = ["run", "--methods", "always-reject", "--costs", "0.2", "--trials", "1", "--out", str(tmp_path), *resume]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert str(tmp_path) in capsys.readouterr().err
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

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_an_unwritable_out_is_a_usage_error_before_the_input_is_read(self, tmp_path, monkeypatch, capsys, where):
        from csreject import cli

        monkeypatch.setattr(harness, "read_csv", lambda path: pytest.fail("the input was read"))
        out = tmp_path if where == "directory" else tmp_path / "missing" / "s.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["aggregate", "--in", str(tmp_path / "r.csv"), "--out", str(out)])
        assert exc.value.code == 2
        assert str(out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_result_file_aggregates(self, tmp_path, capsys):
        from csreject import cli

        infile, out = tmp_path / "r.csv", tmp_path / "s.csv"
        infile.write_text(harness.CSV_HEADER + "\ntwonorm,always-reject,clean,0.2,0,0.2,1,0,1500,0,0,False\n")
        assert cli.main(["aggregate", "--in", str(infile), "--out", str(out)]) == 0
        assert "wrote 1 summary rows" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 2
