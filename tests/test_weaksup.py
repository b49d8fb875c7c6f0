import numpy as np
import pytest

from csreject.core import Dataset, RejectionCost, compute_metrics
from csreject.losses import get_loss
from csreject.models import LinearModel, TrainConfig, make_model
from csreject.surrogate import cs_loss_batch
from csreject.weaksup import (
    PUConfig,
    inject_uniform_noise,
    make_pu_dataset,
    pu_loss_term,
    pu_risk_nn,
    pu_risk_unbiased,
    train_pu,
)


def _sigmoid_term():
    """Plain binary sigmoid term: phi(g) for +1 (label 1), phi(-g) for -1 (label 2), on 1-column scores."""
    loss = get_loss("sigmoid")

    def batch(G, y):
        sign = np.where(y == 1, 1.0, -1.0)
        return loss.value(sign * G[:, 0]), (sign * loss.grad(sign * G[:, 0]))[:, None]

    return pu_loss_term(batch)


def _cs_term(loss, cost):
    return pu_loss_term(lambda G, y: cs_loss_batch(loss, cost, G, y))


class TestUniformNoise:
    def _data(self, n=1000, K=4, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(n, 3)), rng.integers(1, K + 1, size=n), K=K)

    def test_zero_rate_is_identity(self):
        data = self._data()
        out = inject_uniform_noise(data, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out.y, data.y)

    def test_exact_flip_count(self):
        data = self._data(n=1000)
        out = inject_uniform_noise(data, 0.25, np.random.default_rng(2))
        assert (out.y != data.y).sum() == 250

    def test_features_and_order_preserved(self):
        data = self._data(n=200)
        out = inject_uniform_noise(data, 0.3, np.random.default_rng(3))
        assert out.X is data.X
        assert out.n == data.n

    def test_binary_flips_to_opposite(self):
        data = self._data(n=400, K=2, seed=4)
        out = inject_uniform_noise(data, 0.5, np.random.default_rng(5))
        changed = out.y != data.y
        assert changed.sum() == 200
        np.testing.assert_array_equal(out.y[changed], 3 - data.y[changed])

    def test_labels_stay_in_range(self):
        data = self._data(n=500, K=5, seed=6)
        out = inject_uniform_noise(data, 0.4, np.random.default_rng(7))
        assert out.y.min() >= 1 and out.y.max() <= 5
        # flipped labels always land on a different class
        assert not np.any((out.y != data.y) & (out.y == data.y))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            inject_uniform_noise(self._data(), 1.0, np.random.default_rng(0))


class TestPUConfig:
    def test_from_train_size(self):
        cfg = PUConfig.from_train_size(3700)
        assert cfg.n_unlabeled == 3600
        assert cfg.n_positive == 720
        assert cfg.prior == 0.7

    def test_from_class_counts_takes_the_largest_multiple_of_200(self):
        # 400 needs 80 + 280 positives and 120 negatives; 600 needs 540 positives
        cfg = PUConfig.from_class_counts(500, 500)
        assert (cfg.n_unlabeled, cfg.n_positive, cfg.prior) == (400, 80, 0.7)
        # the negatives bind: 400 would need 120
        assert PUConfig.from_class_counts(5000, 100).n_unlabeled == 200
        with pytest.raises(ValueError):
            PUConfig.from_class_counts(179, 1000)

    def test_tiny_pool_rejected(self):
        with pytest.raises(ValueError):
            PUConfig.from_train_size(150)

    def test_validation(self):
        with pytest.raises(ValueError):
            PUConfig(prior=0.0, n_unlabeled=100, n_positive=20)
        with pytest.raises(ValueError):
            PUConfig(prior=0.7, n_unlabeled=0, n_positive=20)


class TestMakePU:
    def _tagged_source(self, n_pos, n_neg):
        # class-1 features are strictly positive, class-2 strictly negative,
        # so sample origin is readable from the sign
        Xp = np.arange(1, n_pos + 1, dtype=float)[:, None]
        Xn = -np.arange(1, n_neg + 1, dtype=float)[:, None]
        X = np.vstack([Xp, Xn])
        y = np.concatenate([np.ones(n_pos, dtype=int), np.full(n_neg, 2)])
        return Dataset(X, y, K=2)

    def test_composition_counts(self):
        data = self._tagged_source(1200, 600)
        cfg = PUConfig(prior=0.7, n_unlabeled=1000, n_positive=200)
        positives, unlabeled = make_pu_dataset(data, cfg, np.random.default_rng(8))
        assert len(positives) == 200
        assert (positives > 0).all()
        assert len(unlabeled) == 1000
        assert (unlabeled > 0).sum() == 700
        assert (unlabeled < 0).sum() == 300

    def test_without_replacement(self):
        data = self._tagged_source(1200, 600)
        cfg = PUConfig(prior=0.7, n_unlabeled=1000, n_positive=200)
        positives, unlabeled = make_pu_dataset(data, cfg, np.random.default_rng(9))
        used = np.concatenate([positives[:, 0], unlabeled[:, 0]])
        assert len(np.unique(used)) == len(used)

    def test_insufficient_source(self):
        data = self._tagged_source(100, 600)
        cfg = PUConfig(prior=0.7, n_unlabeled=1000, n_positive=200)
        with pytest.raises(ValueError, match="insufficient"):
            make_pu_dataset(data, cfg, np.random.default_rng(10))

    def test_multiclass_rejected(self):
        data = Dataset(np.zeros((10, 1)), np.tile([1, 2, 3], 4)[:10], K=3)
        with pytest.raises(ValueError):
            make_pu_dataset(data, PUConfig(prior=0.7, n_unlabeled=4, n_positive=1), np.random.default_rng(0))


class TestRiskEstimators:
    def test_unbiased_hand_value_at_zero_scores(self):
        term = _sigmoid_term()
        score_fn = lambda X: np.zeros((len(X), 1))
        pos = np.zeros((10, 1))
        unl = np.zeros((20, 1))
        # 0.7*0.5 - 0.7*0.5 + 0.5
        assert pu_risk_unbiased(term, 0.7, pos, unl, score_fn) == pytest.approx(0.5)

    def test_nn_hand_value_at_zero_scores(self):
        term = _sigmoid_term()
        score_fn = lambda X: np.zeros((len(X), 1))
        pos = np.zeros((10, 1))
        unl = np.zeros((20, 1))
        # 0.35 + max(0, 0.5 - 0.35)
        assert pu_risk_nn(term, 0.7, pos, unl, score_fn) == pytest.approx(0.5)

    def test_zero_prior_reduces_to_unlabeled_mean(self):
        term = _sigmoid_term()
        rng = np.random.default_rng(11)
        unl = rng.normal(size=(30, 1))
        score_fn = lambda X: X
        loss = get_loss("sigmoid")
        expected = loss.value(-unl[:, 0]).mean()
        assert pu_risk_unbiased(term, 0.0, np.zeros((5, 1)), unl, score_fn) == pytest.approx(expected)

    def test_nn_dominates_unbiased(self):
        term = _sigmoid_term()
        rng = np.random.default_rng(12)
        for _ in range(50):
            pos = rng.normal(loc=1.0, size=(15, 1))
            unl = rng.normal(size=(40, 1))
            score_fn = lambda X: X
            u = pu_risk_unbiased(term, 0.7, pos, unl, score_fn)
            n = pu_risk_nn(term, 0.7, pos, unl, score_fn)
            assert n >= u - 1e-12

    def test_empty_inputs_rejected(self):
        term = _sigmoid_term()
        with pytest.raises(ValueError):
            pu_risk_unbiased(term, 0.7, np.zeros((0, 1)), np.zeros((5, 1)), lambda X: X)
        with pytest.raises(ValueError):
            pu_risk_nn(term, 0.7, np.zeros((5, 1)), np.zeros((0, 1)), lambda X: X)


class TestCsPuLossTerm:
    def test_matches_full_surrogate(self):
        cost = RejectionCost(0.2)
        loss = get_loss("sigmoid")
        term = _cs_term(loss, cost)
        rng = np.random.default_rng(13)
        G = rng.normal(size=(6, 2))
        vp = term(G, +1)[0]
        vn = term(G, -1)[0]
        for g1, g2, p, n in zip(G[:, 0], G[:, 1], vp, vn):
            # c * phi(g_y) + (1 - c) * phi(-g_other), one row at a time
            assert p == pytest.approx(0.2 * loss.value(g1) + 0.8 * loss.value(-g2))
            assert n == pytest.approx(0.2 * loss.value(g2) + 0.8 * loss.value(-g1))


class TestTrainPU:
    def test_per_row_signs_match_one_call_per_sign(self):
        rng = np.random.default_rng(20)
        Gp, Gu = rng.normal(size=(7, 2)), rng.normal(size=(11, 2))
        for name in ("sigmoid", "ramp"):
            term = _cs_term(get_loss(name), RejectionCost(0.2))
            losses, dG = term(np.vstack([Gp, Gu, Gp]), np.repeat([+1, -1, -1], [7, 11, 7]))
            parts = [term(Gp, +1), term(Gu, -1), term(Gp, -1)]
            np.testing.assert_array_equal(losses, np.concatenate([p[0] for p in parts]))
            np.testing.assert_array_equal(dG, np.vstack([p[1] for p in parts]))

    def test_one_loss_call_per_scores_and_sign(self, monkeypatch):
        from csreject import weaksup

        calls, steps = [], []
        cost, loss = RejectionCost(0.1), get_loss("sigmoid")
        term = pu_loss_term(lambda G, y: calls.append(len(G)) or cs_loss_batch(loss, cost, G, y))
        step = weaksup.adam_step
        monkeypatch.setattr(weaksup, "adam_step", lambda *a: steps.append(1) or step(*a))
        rng = np.random.default_rng(17)
        pos, unl = rng.normal(loc=1.0, size=(40, 3)), rng.normal(size=(160, 3))
        model = make_model("linear", 3, 2, np.random.default_rng(18))
        train_pu(model, term, pos, unl, 0.7, TrainConfig(epochs=3, batch_size=32, seed=19))
        assert len(steps) > 0
        # one call per step holds the positives at +1, the unlabeled at -1 and the positives at -1
        assert len(calls) == len(steps)

    def test_small_run_learns_something(self):
        rng = np.random.default_rng(14)
        d = 5
        pos = rng.normal(loc=1.0, size=(100, d))
        # unlabeled at prior 0.7
        unl = np.vstack([rng.normal(loc=1.0, size=(280, d)), rng.normal(loc=-1.0, size=(120, d))])
        cost = RejectionCost(0.1)
        term = _cs_term(get_loss("sigmoid"), cost)
        model = make_model("linear", d, 2, np.random.default_rng(15))
        trace, clamp_count = train_pu(model, term, pos, unl, 0.7, TrainConfig(epochs=30, batch_size=64, seed=16))
        assert np.isfinite(trace).all()
        assert trace[-1] <= trace[0]
        assert clamp_count >= 0
        # the learned scores separate the two clusters
        gp = model.scores(np.full((1, d), 1.0))
        gn = model.scores(np.full((1, d), -1.0))
        assert gp[0, 0] > gn[0, 0]

    def test_empty_sets_rejected(self):
        term = _cs_term(get_loss("sigmoid"), RejectionCost(0.1))
        model = LinearModel(2, 2)
        with pytest.raises(ValueError):
            train_pu(model, term, np.zeros((0, 2)), np.zeros((5, 2)), 0.7, TrainConfig(epochs=1))
