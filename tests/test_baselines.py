import numpy as np
import pytest

from csreject.baselines import (
    AngleConfig,
    angle_decide,
    angle_decide_batch,
    angle_loss_grad,
    angle_vertices,
    bend_slopes,
    bent_hinge,
    bent_hinge_grad,
    default_candidates,
    defer_decide,
    defer_loss_grad,
    sce_decide,
    sce_decide_batch,
    sce_loss_grad,
    softmax,
    tune_delta,
    tune_temperature,
)
from csreject.core import Dataset, RejectionCost
from csreject.models import LinearModel


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(3), 2.0), np.full(3, 1 / 3))

    def test_argmax_invariant_under_temperature(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(size=4)
            base = np.argmax(softmax(g, 1.0))
            for T in (0.01, 0.5, 3.0, 10.0):
                assert np.argmax(softmax(g, T)) == base

    def test_hand_value(self):
        np.testing.assert_allclose(softmax(np.array([np.log(2), 0.0]), 1.0), [2 / 3, 1 / 3])

    def test_positive_temperature_required(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(2), 0.0)

    def test_stability_at_huge_logits(self):
        p = softmax(np.array([1e4, 0.0]), 1.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


class TestCandidates:
    def test_grid_shape(self):
        cands = default_candidates()
        assert len(cands) == 29
        assert cands[0] == pytest.approx(1e-3)
        assert cands[19] == pytest.approx(1.0)
        assert cands[20:] == [float(k) for k in range(2, 11)]


class TestSce:
    def test_uniform_loss_is_log2(self):
        loss, _ = sce_loss_grad(np.zeros(2), 1)
        assert loss == pytest.approx(np.log(2))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, grad = sce_loss_grad(rng.normal(size=4), int(rng.integers(1, 5)))
            assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        g = rng.normal(size=3)
        _, grad = sce_loss_grad(g, 2)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            num = (sce_loss_grad(g + e, 2)[0] - sce_loss_grad(g - e, 2)[0]) / (2 * h)
            assert grad[k] == pytest.approx(num, abs=1e-6)

    def test_decide_confident(self):
        # p = (0.85, 0.15): logits chosen to produce that softmax
        g = np.log(np.array([0.85, 0.15]))
        assert sce_decide(g, 1.0, RejectionCost(0.2)).label == 1

    def test_decide_uncertain_rejects(self):
        g = np.log(np.array([0.7, 0.3]))
        assert sce_decide(g, 1.0, RejectionCost(0.2)).is_reject

    def test_temperature_extremes(self):
        g = np.array([0.4, 0.1])
        cost = RejectionCost(0.2)
        assert not sce_decide(g, 1e-6, cost).is_reject  # T -> 0: confidence -> 1
        assert sce_decide(g, 1e6, cost).is_reject  # T -> inf: confidence -> 1/K


class TestTuneTemperature:
    def _val(self):
        X = np.array([[2.0], [1.5], [-2.0], [-1.5]])
        y = np.array([1, 1, 2, 2])
        return Dataset(X, y, K=2)

    def _model(self, scale):
        model = LinearModel(1, 2)
        model.params["W"] = np.array([[scale], [-scale]])
        return model

    def test_single_candidate(self):
        assert tune_temperature(self._model(1.0), self._val(), RejectionCost(0.2), [0.7]) == 0.7

    def test_tie_goes_to_smallest(self):
        # a perfectly separated model accepts correctly at any temperature here
        T = tune_temperature(self._model(10.0), self._val(), RejectionCost(0.2), [0.5, 1.0, 2.0])
        assert T == 0.5

    def test_overconfident_model_benefits_from_tuning(self):
        # scores are confidently wrong on one point: a large T pushes
        # confidence below the threshold and swaps an error for a rejection
        X = np.array([[2.0], [-2.0], [0.3]])
        y = np.array([1, 2, 2])
        val = Dataset(X, y, K=2)
        model = self._model(5.0)
        cost = RejectionCost(0.2)
        from csreject.core import compute_metrics

        def risk(T):
            decisions = sce_decide_batch(model.scores(val.X), T, cost)
            return compute_metrics(decisions, val.y, cost).risk01c

        T = tune_temperature(model, val, cost)
        assert risk(T) < risk(1.0)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            tune_temperature(self._model(1.0), self._val(), RejectionCost(0.2), [])


class TestDefer:
    def test_uniform_hand_value(self):
        loss, _ = defer_loss_grad(np.zeros(3), 1, RejectionCost(0.25))
        assert loss == pytest.approx(1.75 * np.log(3))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, grad = defer_loss_grad(rng.normal(size=4), int(rng.integers(1, 4)), RejectionCost(0.3))
            assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(4)
        cost = RejectionCost(0.3)
        h = 1e-6
        g = rng.normal(size=4)
        _, grad = defer_loss_grad(g, 2, cost)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            num = (defer_loss_grad(g + e, 2, cost)[0] - defer_loss_grad(g - e, 2, cost)[0]) / (2 * h)
            assert grad[k] == pytest.approx(num, abs=1e-6)

    def test_raw_printed_form_is_negation(self):
        g = np.array([0.3, -0.5, 0.1])
        l1, g1 = defer_loss_grad(g, 1, RejectionCost(0.25))
        l2, g2 = defer_loss_grad(g, 1, RejectionCost(0.25), raw_printed_form=True)
        assert l2 == pytest.approx(-l1)
        np.testing.assert_allclose(g2, -g1)

    def test_decide_rejection_slot(self):
        assert defer_decide(np.array([1.0, 2.0, 5.0])).is_reject
        assert defer_decide(np.array([5.0, 2.0, 1.0])).label == 1

    def test_tie_with_rejection_slot_predicts(self):
        assert defer_decide(np.array([3.0, 1.0, 3.0])).label == 1


class TestAngleVertices:
    def test_binary_vertices_are_signs(self):
        np.testing.assert_allclose(angle_vertices(2), [[1.0], [-1.0]])

    @pytest.mark.parametrize("K", range(2, 11))
    def test_simplex_invariants(self, K):
        V = angle_vertices(K)
        np.testing.assert_allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(V.sum(axis=0), 0.0, atol=1e-9)
        gram = V @ V.T
        off = gram[~np.eye(K, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / (K - 1), atol=1e-9)

    def test_K_too_small(self):
        with pytest.raises(ValueError):
            angle_vertices(1)


class TestBendSlopes:
    def test_positive_over_the_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            K = int(rng.integers(2, 11))
            c = float(rng.uniform(0.01, 0.49))
            a1, a2 = bend_slopes(K, RejectionCost(c))
            assert a1 > 0 and a2 > 0

    def test_hand_values(self):
        a1, a2 = bend_slopes(3, RejectionCost(0.25))
        assert a1 == pytest.approx((3 - 1 - 0.25) / (3 * 0.25 - 0.25))
        assert a2 == pytest.approx(2 * 0.75 / 0.25)


class TestBentHinge:
    def test_pieces(self):
        assert bent_hinge(-1.0, 3.0) == pytest.approx(4.0)
        assert bent_hinge(0.5, 3.0) == pytest.approx(0.5)
        assert bent_hinge(2.0, 3.0) == 0.0

    def test_grad_pieces(self):
        assert bent_hinge_grad(-0.5, 3.0) == -3.0
        assert bent_hinge_grad(0.5, 3.0) == -1.0
        assert bent_hinge_grad(2.0, 3.0) == 0.0
        # right-hand convention at the kinks
        assert bent_hinge_grad(0.0, 3.0) == -1.0
        assert bent_hinge_grad(1.0, 3.0) == 0.0

    def test_positive_slope_required(self):
        with pytest.raises(ValueError):
            bent_hinge(0.0, 0.0)


class TestAngleLoss:
    def test_zero_scores(self):
        cfg = AngleConfig(3, 2.0)
        loss, _ = angle_loss_grad(np.zeros(2), 1, cfg)
        assert loss == pytest.approx(2.0)  # (K-1) * bent_hinge(0)

    def test_binary_confident_score_has_zero_loss(self):
        cfg = AngleConfig(2, 2.0)
        loss, grad = angle_loss_grad(np.array([3.0]), 1, cfg)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_finite_difference_away_from_kinks(self):
        rng = np.random.default_rng(6)
        cfg = AngleConfig(4, 1.7)
        h = 1e-6
        for _ in range(20):
            g = rng.normal(size=3) + 0.01
            u = -cfg.vertices @ g
            if np.any(np.abs(u) < 1e-3) or np.any(np.abs(u - 1) < 1e-3):
                continue
            y = int(rng.integers(1, 5))
            _, grad = angle_loss_grad(g, y, cfg)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                num = (angle_loss_grad(g + e, y, cfg)[0] - angle_loss_grad(g - e, y, cfg)[0]) / (2 * h)
                assert grad[k] == pytest.approx(num, abs=1e-5)


class TestAngleDecide:
    def test_small_projections_reject(self):
        cfg = AngleConfig(3, 2.0, delta=1.0)
        assert angle_decide(np.array([0.1, -0.1]), cfg).is_reject

    def test_binary_confident_predicts(self):
        cfg = AngleConfig(2, 2.0, delta=0.5)
        assert angle_decide(np.array([2.0]), cfg).label == 1

    def test_zero_delta_never_rejects_nonzero_scores(self):
        cfg = AngleConfig(2, 2.0, delta=0.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = rng.normal(size=1)
            if g[0] == 0:
                continue
            assert not angle_decide(g, cfg).is_reject


class TestSoftThreshold:
    def test_values(self):
        from csreject.baselines import soft_threshold

        assert soft_threshold(0.3, 0.5) == 0.0
        assert soft_threshold(1.2, 0.5) == pytest.approx(0.7)
        assert soft_threshold(-1.2, 0.5) == pytest.approx(-0.7)

    def test_negative_delta(self):
        from csreject.baselines import soft_threshold

        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestTuneDelta:
    def _setup(self):
        model = LinearModel(1, 1)
        model.params["W"] = np.array([[1.0]])
        cfg = AngleConfig(2, 2.0)
        return model, cfg

    def test_single_candidate(self):
        model, cfg = self._setup()
        val = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 2]), K=2)
        assert tune_delta(model, val, RejectionCost(0.2), cfg, [0.4]) == 0.4

    def test_huge_delta_rejects_everything(self):
        model, cfg = self._setup()
        val = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 2]), K=2)
        big = AngleConfig(2, 2.0, delta=1e6)
        from csreject.core import compute_metrics

        decisions = angle_decide_batch(model.scores(val.X), big.vertices, big.delta)
        m = compute_metrics(decisions, val.y, RejectionCost(0.2))
        assert m.risk01c == pytest.approx(0.2)

    def test_intermediate_delta_wins(self):
        # one confidently wrong point (better rejected) and one confidently
        # right point: delta = 1 beats both 0 (accepts the error) and 3
        # (rejects the good prediction too)
        model, cfg = self._setup()
        val = Dataset(np.array([[0.5], [2.0]]), np.array([2, 1]), K=2)
        chosen = tune_delta(model, val, RejectionCost(0.25), cfg, [0.0, 1.0, 3.0])
        assert chosen == 1.0
