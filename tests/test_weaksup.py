import numpy as np
import pytest

from csreject.core import Dataset, RejectionCost, compute_metrics
from csreject.losses import get_loss
from csreject.models import LinearModel, TrainConfig, make_model
from csreject.surrogate import cs_loss_batch
from csreject.weaksup import (
    inject_uniform_noise,
    make_pu_dataset,
    pu_risk_nn,
    pu_risk_unbiased,
    train_pu,
)


def _sigmoid_loss(G, y):
    """Plain binary sigmoid loss: phi(g) for +1 (label 1), phi(-g) for -1 (label 2), on 1-column scores."""
    loss = get_loss("sigmoid")
    sign = np.where(y == 1, 1.0, -1.0)
    return loss.value(sign * G[:, 0]), (sign * loss.grad(sign * G[:, 0]))[:, None]


def _cs_loss(loss, cost):
    return lambda G, y: cs_loss_batch(loss, cost, G, y)


def _pu_set(positives, unlabeled):
    """The PU set of make_pu_dataset's layout: the positives, labelled 1, then the unlabeled rows, labelled 2."""
    return Dataset(np.concatenate([positives, unlabeled]), np.repeat([1, 2], [len(positives), len(unlabeled)]), 2)


def _former_pu_risks(loss_batch, prior, positives, unlabeled, score_fn):
    """The estimators as they were before one loss call on [Gp, Gu, Gp]: one
    call per scores and sign, numpy means, (unbiased, non-negative)."""
    Gp, Gu = score_fn(positives), score_fn(unlabeled)
    p_pos = loss_batch(Gp, np.full(len(Gp), 1))[0].mean()
    p_neg = loss_batch(Gp, np.full(len(Gp), 2))[0].mean()
    u_neg = loss_batch(Gu, np.full(len(Gu), 2))[0].mean()
    unbiased = float(prior * p_pos - prior * p_neg + u_neg)
    return unbiased, float(prior * p_pos + max(0.0, u_neg - prior * p_neg))


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


def _tagged_source(n_pos, n_neg):
    # class-1 features are strictly positive, class-2 strictly negative,
    # so sample origin is readable from the sign
    Xp = np.arange(1, n_pos + 1, dtype=float)[:, None]
    Xn = -np.arange(1, n_neg + 1, dtype=float)[:, None]
    X = np.vstack([Xp, Xn])
    y = np.concatenate([np.ones(n_pos, dtype=int), np.full(n_neg, 2)])
    return Dataset(X, y, K=2)


class TestPUSizes:
    def _sizes(self, n_pos, n_neg, max_unlabeled, prior=0.7):
        data = _tagged_source(n_pos, n_neg)
        pu = make_pu_dataset(data, max_unlabeled, prior, np.random.default_rng(0))
        return int((pu.y == 2).sum()), int((pu.y == 1).sum())

    def test_unlabeled_size_is_the_bound_truncated_to_a_multiple_of_200(self):
        assert self._sizes(3400, 1100, 3700) == (3600, 720)

    def test_takes_the_largest_multiple_of_200_the_classes_serve(self):
        # 400 needs 80 + 280 positives and 120 negatives; 600 needs 540 positives
        assert self._sizes(500, 500, 1000) == (400, 80)
        # the negatives bind: 400 would need 120
        assert self._sizes(5000, 100, 5100)[0] == 200
        with pytest.raises(ValueError):
            self._sizes(179, 1000, 1179)

    def test_tiny_pool_rejected(self):
        with pytest.raises(ValueError):
            self._sizes(100, 50, 150)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._sizes(1200, 600, 1000, prior=0.0)
        with pytest.raises(ValueError):
            self._sizes(1200, 600, 0)


class TestMakePU:
    def test_composition_counts(self):
        data = _tagged_source(1200, 600)
        pu = make_pu_dataset(data, 1000, 0.7, np.random.default_rng(8))
        # the positives first, labelled 1, then the unlabeled rows, labelled 2
        assert pu.K == 2
        np.testing.assert_array_equal(pu.y, np.repeat([1, 2], [200, 1000]))
        positives, unlabeled = pu.X[:200], pu.X[200:]
        assert len(positives) == 200
        assert (positives > 0).all()
        assert len(unlabeled) == 1000
        assert (unlabeled > 0).sum() == 700
        assert (unlabeled < 0).sum() == 300

    def test_without_replacement(self):
        data = _tagged_source(1200, 600)
        used = make_pu_dataset(data, 1000, 0.7, np.random.default_rng(9)).X[:, 0]
        assert len(np.unique(used)) == len(used)

    def test_insufficient_source(self):
        data = _tagged_source(100, 600)
        with pytest.raises(ValueError, match="insufficient"):
            make_pu_dataset(data, 1000, 0.7, np.random.default_rng(10))

    def test_multiclass_rejected(self):
        data = Dataset(np.zeros((10, 1)), np.tile([1, 2, 3], 4)[:10], K=3)
        with pytest.raises(ValueError):
            make_pu_dataset(data, 4, 0.7, np.random.default_rng(0))


class TestRiskEstimators:
    def test_unbiased_hand_value_at_zero_scores(self):
        score_fn = lambda X: np.zeros((len(X), 1))
        pos = np.zeros((10, 1))
        unl = np.zeros((20, 1))
        # 0.7*0.5 - 0.7*0.5 + 0.5
        assert pu_risk_unbiased(_sigmoid_loss, 0.7, _pu_set(pos, unl), score_fn) == pytest.approx(0.5)

    def test_nn_hand_value_at_zero_scores(self):
        score_fn = lambda X: np.zeros((len(X), 1))
        pos = np.zeros((10, 1))
        unl = np.zeros((20, 1))
        # 0.35 + max(0, 0.5 - 0.35)
        assert pu_risk_nn(_sigmoid_loss, 0.7, _pu_set(pos, unl), score_fn) == pytest.approx(0.5)

    def test_zero_prior_reduces_to_unlabeled_mean(self):
        rng = np.random.default_rng(11)
        unl = rng.normal(size=(30, 1))
        score_fn = lambda X: X
        loss = get_loss("sigmoid")
        expected = loss.value(-unl[:, 0]).mean()
        assert pu_risk_unbiased(_sigmoid_loss, 0.0, _pu_set(np.zeros((5, 1)), unl), score_fn) == pytest.approx(expected)

    def test_nn_dominates_unbiased(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pos = rng.normal(loc=1.0, size=(15, 1))
            unl = rng.normal(size=(40, 1))
            score_fn = lambda X: X
            u = pu_risk_unbiased(_sigmoid_loss, 0.7, _pu_set(pos, unl), score_fn)
            n = pu_risk_nn(_sigmoid_loss, 0.7, _pu_set(pos, unl), score_fn)
            assert n >= u - 1e-12

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            pu_risk_unbiased(_sigmoid_loss, 0.7, _pu_set(np.zeros((0, 1)), np.zeros((5, 1))), lambda X: X)
        with pytest.raises(ValueError):
            pu_risk_nn(_sigmoid_loss, 0.7, _pu_set(np.zeros((5, 1)), np.zeros((0, 1))), lambda X: X)

    def test_a_set_of_three_classes_is_rejected(self):
        # its rows labelled 3 would otherwise drop out of both sample sets unseen
        data = Dataset(np.zeros((6, 1)), np.array([1, 2, 3, 1, 2, 3]), K=3)
        for risk in (pu_risk_unbiased, pu_risk_nn):
            with pytest.raises(ValueError, match="two classes"):
                risk(_sigmoid_loss, 0.7, data, lambda X: X)


    @pytest.mark.parametrize("name", ["sigmoid", "ramp", "logistic"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_match_the_former_per_sign_calls(self, name, kind):
        # nn keeps the former grouping, pos_term + max(0, bracket), so it is
        # bit-identical; unbiased now adds the bracket to the positive term
        rng = np.random.default_rng(30)
        loss = _cs_loss(get_loss(name), RejectionCost(0.15))
        clamped = 0
        for _ in range(40):
            n_p, n_u = (int(v) for v in rng.integers(1, 300, size=2))
            d = int(rng.integers(1, 6))
            model = make_model(kind, d, 2, rng)
            pos, unl = rng.normal(loc=0.5, size=(n_p, d)), rng.normal(size=(n_u, d))
            prior = float(rng.uniform(0.05, 1.0))
            unbiased, nn = _former_pu_risks(loss, prior, pos, unl, model.scores)
            clamped += nn != unbiased
            assert pu_risk_nn(loss, prior, _pu_set(pos, unl), model.scores) == nn
            assert pu_risk_unbiased(loss, prior, _pu_set(pos, unl), model.scores) == pytest.approx(unbiased, rel=1e-12, abs=0)
        assert 0 < clamped < 40, "the draws should clamp the bracket in some cases but not all"


class TestCsPuLossTerm:
    def test_matches_full_surrogate(self):
        cost = RejectionCost(0.2)
        loss = get_loss("sigmoid")
        batch = _cs_loss(loss, cost)
        rng = np.random.default_rng(13)
        G = rng.normal(size=(6, 2))
        vp = batch(G, np.full(6, 1))[0]
        vn = batch(G, np.full(6, 2))[0]
        for g1, g2, p, n in zip(G[:, 0], G[:, 1], vp, vn):
            # c * phi(g_y) + (1 - c) * phi(-g_other), one row at a time
            assert p == pytest.approx(0.2 * loss.value(g1) + 0.8 * loss.value(-g2))
            assert n == pytest.approx(0.2 * loss.value(g2) + 0.8 * loss.value(-g1))


class TestTrainPU:
    def test_per_row_signs_match_one_call_per_sign(self):
        rng = np.random.default_rng(20)
        Gp, Gu = rng.normal(size=(7, 2)), rng.normal(size=(11, 2))
        for name in ("sigmoid", "ramp"):
            batch = _cs_loss(get_loss(name), RejectionCost(0.2))
            losses, dG = batch(np.vstack([Gp, Gu, Gp]), np.repeat([1, 2, 2], [7, 11, 7]))
            parts = [batch(Gp, np.full(7, 1)), batch(Gu, np.full(11, 2)), batch(Gp, np.full(7, 2))]
            np.testing.assert_array_equal(losses, np.concatenate([p[0] for p in parts]))
            np.testing.assert_array_equal(dG, np.vstack([p[1] for p in parts]))

    def test_one_loss_call_per_scores_and_sign(self, monkeypatch):
        from csreject import weaksup

        calls, steps = [], []
        cost, loss = RejectionCost(0.1), get_loss("sigmoid")
        counted = lambda G, y: calls.append(len(G)) or cs_loss_batch(loss, cost, G, y)
        step = weaksup.adam_step
        monkeypatch.setattr(weaksup, "adam_step", lambda *a: steps.append(1) or step(*a))
        rng = np.random.default_rng(17)
        pos, unl = rng.normal(loc=1.0, size=(40, 3)), rng.normal(size=(160, 3))
        model = make_model("linear", 3, 2, np.random.default_rng(18))
        train_pu([model], _pu_set(pos, unl), [counted], 0.7, TrainConfig(epochs=3, batch_size=32), [19])
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
        loss = lambda G, y: cs_loss_batch(get_loss("sigmoid"), cost, G, y)
        model = make_model("linear", d, 2, np.random.default_rng(15))
        (trace,), clamp_count = train_pu([model], _pu_set(pos, unl), [loss], 0.7, TrainConfig(epochs=30, batch_size=64), [16])
        assert np.isfinite(trace).all()
        assert trace[-1] <= trace[0]
        assert clamp_count >= 0
        # the learned scores separate the two clusters
        gp = model.scores(np.full((1, d), 1.0))
        gn = model.scores(np.full((1, d), -1.0))
        assert gp[0, 0] > gn[0, 0]

    def test_empty_sets_rejected(self):
        loss = lambda G, y: cs_loss_batch(get_loss("sigmoid"), RejectionCost(0.1), G, y)
        model = LinearModel(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_pu([model], _pu_set(np.zeros((0, 2)), np.zeros((5, 2))), [loss], 0.7, TrainConfig(epochs=1), [0])
        with pytest.raises(ValueError):
            train_pu([model], _pu_set(np.zeros((5, 2)), np.zeros((0, 2))), [loss], 0.7, TrainConfig(epochs=1), [0])
        three_classes = Dataset(np.zeros((6, 2)), np.array([1, 2, 3, 1, 2, 3]), K=3)
        with pytest.raises(ValueError, match="two classes"):
            train_pu([model], three_classes, [loss], 0.7, TrainConfig(epochs=1), [0])
