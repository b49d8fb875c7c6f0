import warnings

import numpy as np
import pytest

from csreject import cli
from csreject.data import (
    GaussianMixtureSpec,
    PosteriorOracle,
    Standardizer,
    gen_gauss_mixture,
    gen_twonorm,
    load_csv,
    mixture_features,
    split,
    standardize,
    twonorm_spec,
)
from csreject.harness import dataset_info, read_csv


class TestSpecValidation:
    def test_priors_must_be_simplex(self):
        with pytest.raises(ValueError):
            GaussianMixtureSpec(np.zeros((2, 2)), np.array([0.7, 0.7]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            GaussianMixtureSpec(np.zeros((2, 2)), np.array([0.5, 0.3, 0.2]))


class TestTwonorm:
    def test_posterior_at_origin_is_balanced(self):
        oracle = PosteriorOracle(twonorm_spec())
        np.testing.assert_allclose(oracle.posterior(np.zeros((1, 20))), [[0.5, 0.5]], atol=1e-12)

    def test_posterior_at_class_mean_is_confident(self):
        spec = twonorm_spec()
        oracle = PosteriorOracle(spec)
        assert oracle.posterior(spec.means[:1])[0, 0] > 0.97

    def test_bayes_error_near_the_known_value(self):
        # the oracle classifier's 0-1 error for this construction is
        # Phi(-2) ~ 0.0228
        rng = np.random.default_rng(0)
        data, oracle = gen_twonorm(100_000, rng)
        pred = np.argmax(oracle.posterior(data.X), axis=1) + 1
        err = (pred != data.y).mean()
        assert err == pytest.approx(0.023, abs=0.003)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_twonorm(1, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        d1, _ = gen_twonorm(100, np.random.default_rng(1))
        d2, _ = gen_twonorm(100, np.random.default_rng(1))
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.y, d2.y)
        d3, _ = gen_twonorm(100, np.random.default_rng(2))
        assert not np.array_equal(d1.X, d3.X)


class TestGaussMixture:
    def test_single_class_posterior_is_one(self):
        spec = GaussianMixtureSpec(np.zeros((1, 2)), np.array([1.0]))
        _, oracle = gen_gauss_mixture(spec, 10, np.random.default_rng(3))
        np.testing.assert_allclose(oracle.posterior(np.array([[5.0, -3.0]])), [[1.0]])

    def test_equidistant_point_has_uniform_posterior(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        spec = GaussianMixtureSpec(means, np.full(4, 0.25))
        oracle = PosteriorOracle(spec)
        np.testing.assert_allclose(oracle.posterior(np.zeros((1, 2))), 0.25, atol=1e-12)

    def test_posterior_normalization(self):
        rng = np.random.default_rng(4)
        means = rng.normal(size=(3, 4))
        spec = GaussianMixtureSpec(means, np.array([0.2, 0.5, 0.3]))
        oracle = PosteriorOracle(spec)
        eta = oracle.posterior(rng.normal(size=(50, 4)))
        np.testing.assert_allclose(eta.sum(axis=1), 1.0, atol=1e-12)
        assert (eta >= 0).all()

    def test_oracle_classifier_dominates(self):
        # the exact-posterior classifier beats a fixed linear rule within MC noise
        rng = np.random.default_rng(5)
        data, oracle = gen_twonorm(20_000, rng)
        bayes_err = (np.argmax(oracle.posterior(data.X), axis=1) + 1 != data.y).mean()
        crude = np.where(data.X[:, 0] > 0.3, 1, 2)  # deliberately offset threshold
        crude_err = (crude != data.y).mean()
        se = np.sqrt(bayes_err * (1 - bayes_err) / data.n)
        assert bayes_err <= crude_err + 3 * se


SPECS = [pytest.param(twonorm_spec(), id="twonorm"), pytest.param(dataset_info("gauss3").spec, id="gauss3")]


class TestIdentityCovariance:
    """The mixtures are drawn and scored without numpy.linalg, bit for bit as its general forms do at I."""

    @pytest.mark.parametrize("n", [1, 7, 7400, 11_100])  # at n = 1 a class draws no rows
    @pytest.mark.parametrize("spec", SPECS)
    def test_the_draw_is_numpys_sampler_bit_for_bit(self, spec, n):
        for seed in range(10):
            data, _ = gen_gauss_mixture(spec, n, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            y = rng.choice(spec.K, size=n, p=spec.priors) + 1
            X = np.empty((n, spec.d))
            for k in range(spec.K):
                mask = y == k + 1
                if mask.any():
                    X[mask] = rng.multivariate_normal(spec.means[k], np.eye(spec.d), size=int(mask.sum()))
            np.testing.assert_array_equal(data.y, y)
            np.testing.assert_array_equal(data.X, X)

    @pytest.mark.parametrize("spec", SPECS)
    def test_the_oracle_is_the_solve_and_cholesky_form_bit_for_bit(self, spec):
        X = 2.0 * np.random.default_rng(0).standard_normal((5000, spec.d))
        logj = np.empty((len(X), spec.K))
        for k in range(spec.K):
            cov = np.eye(spec.d)
            diff = X - spec.means[k]
            maha = (diff * np.linalg.solve(cov, diff.T).T).sum(axis=1)
            logdet = 2.0 * np.log(np.diag(np.linalg.cholesky(cov))).sum()
            logj[:, k] = np.log(spec.priors[k]) - 0.5 * (maha + logdet)
        a_max = logj.max(axis=1, keepdims=True)
        eta = np.exp(logj - (a_max + np.log(np.exp(logj - a_max).sum(axis=1, keepdims=True))))
        assert np.array_equal(PosteriorOracle(spec).posterior(X), eta)

    @pytest.mark.parametrize("n", [7, 7400, 11_100])
    @pytest.mark.parametrize("spec", SPECS)
    def test_kept_rows_are_the_full_draws_rows_and_the_generator_ends_as_it_does(self, spec, n):
        # a trial draws only the rows it keeps; the draws that follow it must not move
        for seed in range(3):
            full_rng = np.random.default_rng(seed)
            full, _ = gen_gauss_mixture(spec, n, full_rng)
            order = np.random.default_rng(100 + seed).permutation(n)
            for keep in (order, order[: n // 3], order[n // 2 :][::-1], np.arange(n)[::-1]):
                rng = np.random.default_rng(seed)
                data, _ = gen_gauss_mixture(spec, n, rng, keep=keep)
                np.testing.assert_array_equal(data.X, full.X[keep])
                np.testing.assert_array_equal(data.y, full.y[keep])
                assert rng.bit_generator.state == full_rng.bit_generator.state
            # no kept row, as a PU pool's first pass draws it (a Dataset needs a row: the features alone)
            rng = np.random.default_rng(seed)
            labels = rng.choice(spec.K, size=n, p=spec.priors) + 1
            assert mixture_features(spec, labels, [], rng).shape == (0, spec.d)
            assert rng.bit_generator.state == full_rng.bit_generator.state

    def test_a_repeated_kept_row_is_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            gen_gauss_mixture(twonorm_spec(), 10, np.random.default_rng(0), keep=[3, 1, 3])

    @pytest.mark.parametrize("dataset, setting", [("twonorm", "pu"), ("gauss3", "noisy")])
    def test_a_synthetic_grid_calls_no_linalg(self, dataset, setting, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("svd", "cholesky", "solve", "eigh", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        out = tmp_path / "r.csv"
        argv = ["run", "--dataset", dataset, "--setting", setting, "--methods", "cs-sigmoid", "--costs", "0.2",
                "--trials", "1", "--epochs", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(read_csv(out)) == 1


class TestLoadCsv:
    def test_label_remap_sorted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\n0.3,0.4,-1\n0.5,0.6,1\n")
        ds = load_csv(p)
        assert ds.K == 2
        assert list(ds.y) == [2, 1, 2]  # -1 -> 1, +1 -> 2

    def test_malformed_row_names_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\nx,4,2\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n3,4\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(p)

    def test_non_integer_labels_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1.5\n")
        with pytest.raises(ValueError, match="integer"):
            load_csv(p)

    @pytest.mark.parametrize("label", ["2.00001", "inf", "-inf", "nan"])
    def test_labels_must_be_exact_finite_integers(self, tmp_path, label):
        # allclose let 2.00001 through as a third class and inf as a class of its own
        p = tmp_path / "d.csv"
        p.write_text(f"1,2,1\n3,4,2\n5,6,{label}\n")
        with pytest.raises(ValueError, match="integer"):
            load_csv(p)

    def test_the_features_are_a_view_of_the_parsed_rows(self, tmp_path):
        # np.delete copied every feature column: a second copy of the file's rows at the peak
        X = np.arange(12.0).reshape(4, 3)
        p = tmp_path / "d.csv"
        np.savetxt(p, np.column_stack([X, [1, -1, 1, -1]]), delimiter=",")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.X, X)
        assert ds.X.base is not None and ds.X.base.shape == (4, 4)


class TestLoadCsvContract:
    """The file forms load_csv reads and the errors it raises."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"1.5,2,1\n3,4.25,-1\n5,6,1\n",
            b"\n\n\n1.5,2,1\n\n3,4.25,-1\n5,6,1\n\n",
            b"1.5,2,1\r\n\r\n3,4.25,-1\r\n5,6,1\r\n",
            b"1.5,2,1\n3,4.25,-1\n5,6,1",
        ],
        ids=["plain", "blank lines", "CRLF", "no final newline"],
    )
    def test_blank_lines_and_line_ends(self, tmp_path, raw):
        p = tmp_path / "d.csv"
        p.write_bytes(raw)
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.X, [[1.5, 2.0], [3.0, 4.25], [5.0, 6.0]])
        assert list(ds.y) == [2, 1, 2] and ds.K == 2

    def test_a_header_is_a_malformed_row(self, tmp_path):
        # the label is the last column and no line is skipped but blank ones
        p = tmp_path / "d.csv"
        p.write_text("\na,b,label\n1,2,1\n")
        with pytest.raises(ValueError, match="^malformed row 1: "):
            load_csv(p)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=repr)
    def test_no_data_rows_is_an_empty_csv(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="empty CSV"):
            load_csv(p)

    def test_a_label_column_alone_is_refused(self, tmp_path):
        # it used to give a Dataset of no feature, on which every model trained on nothing
        p = tmp_path / "d.csv"
        p.write_text("1\n-1\n1\n")
        with pytest.raises(ValueError, match="^a CSV needs a feature column"):
            load_csv(p)

    @pytest.mark.parametrize("text", ["1,2,1\n#3,4,2\n", "1,2,1\n# a comment\n", "1,2,1\n3,4,2 # note\n"])
    def test_a_hash_is_no_comment(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="malformed row 1"):
            load_csv(p)

    @pytest.mark.parametrize("bad", ["5,6", "5,6,1,7", "5,x,1", "5,,1", "5,6,1,", "   "])
    def test_ragged_and_non_numeric_rows_name_the_same_index(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        p.write_text(f"1,2,1\n3,4,2\n{bad}\n7,8,1\n")
        with pytest.raises(ValueError, match="^malformed row 2: "):
            load_csv(p)

    def test_a_field_only_python_reads_is_an_error(self, tmp_path):
        # float() takes digit underscores, numpy's parser does not: no row is
        # named then, and the parser's own message stands
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n1_0,4,2\n")
        with pytest.raises(ValueError, match="1_0"):
            load_csv(p)

    @pytest.mark.parametrize("bad", ["5,6", "5,x,1"])
    def test_a_row_index_counts_the_blank_lines(self, tmp_path, bad):
        # a ragged row used to be counted among the data rows only
        p = tmp_path / "d.csv"
        p.write_text(f"\n\n1,2,1\n{bad}\n")
        with pytest.raises(ValueError, match="^malformed row 3: "):
            load_csv(p)

    @pytest.mark.parametrize("fmt", ["%.6f", "repr"])
    def test_numbers_parse_bit_identical_to_float(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-12, 12, (200, 4))
        values[0] = [-0.0, 0.0, -1e-9, 1e300]
        values[1] = [5e-324, -2.5e-308, 1.7976931348623157e308, 1 / 3]
        fields = [[repr(v) if fmt == "repr" else fmt % v for v in row] for row in values.tolist()]
        p = tmp_path / "d.csv"
        p.write_text("".join(",".join(row) + f",{i % 2}\n" for i, row in enumerate(fields)))
        expected = np.array([[float(v) for v in row] for row in fields])
        # a bit pattern view compares the sign of zero as well
        np.testing.assert_array_equal(load_csv(p).X.view(np.int64), expected.view(np.int64))


class TestSplit:
    def _data(self, n=100):
        rng = np.random.default_rng(6)
        return type(gen_twonorm(2, rng)[0])(rng.normal(size=(n, 2)), rng.integers(1, 3, n), 2)

    def test_fraction_sizes(self):
        parts = split(self._data(100), (0.5, 0.1, 0.4), seed=0)
        assert [p.n for p in parts] == [50, 10, 40]

    def test_same_seed_same_split(self):
        d = self._data()
        a = split(d, (0.7, 0.3), seed=1)
        b = split(d, (0.7, 0.3), seed=1)
        np.testing.assert_array_equal(a[0].X, b[0].X)

    def test_union_is_original_multiset(self):
        d = self._data(60)
        parts = split(d, (0.5, 0.5), seed=2)
        merged = np.vstack([p.X for p in parts])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, d.X))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split(self._data(), (0.5, 0.6), seed=0)

    def test_a_part_left_empty_is_refused(self):
        # round(0.1 * 5) == 0: the middle part would hold no row
        with pytest.raises(ValueError, match=r"5 rows leave a part of the split at fractions \[0.5, 0.1, 0.4\] empty"):
            split(self._data(5), (0.5, 0.1, 0.4), seed=0)


class TestStandardize:
    def test_train_becomes_centered_unit(self):
        rng = np.random.default_rng(7)
        from csreject.core import Dataset

        train = Dataset(rng.normal(loc=3.0, scale=5.0, size=(200, 4)), np.ones(200, dtype=int), 1)
        _, out = standardize(train)
        assert np.abs(out.X.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(out.X.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        from csreject.core import Dataset

        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        _, out = standardize(Dataset(X, np.ones(10, dtype=int), 1))
        np.testing.assert_allclose(out.X[:, 0], 0.0)

    @pytest.mark.parametrize(
        "columns, feature",
        # a variance whose squared deviations pass the float maximum; a mean whose sum does
        [(([1e308, -1e308, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0]), 0), (([0.0, 1.0, 2.0, 3.0], [1e308] * 4), 1)],
    )
    def test_a_feature_whose_mean_or_scale_overflows_is_refused_by_index(self, columns, feature):
        # the scale was inf with only a RuntimeWarning, and apply divided the feature to zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"feature {feature} "):
                Standardizer.fit(np.column_stack(columns))

    def test_other_splits_use_train_statistics(self):
        from csreject.core import Dataset

        rng = np.random.default_rng(8)
        train = Dataset(rng.normal(size=(100, 2)), np.ones(100, dtype=int), 1)
        test = Dataset(rng.normal(loc=10.0, size=(50, 2)), np.ones(50, dtype=int), 1)
        transform, _ = standardize(train)
        out = transform.apply(test)
        # the shifted test set keeps its offset under the train statistics
        assert out.X.mean() > 5.0
