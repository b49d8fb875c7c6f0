import numpy as np
import pytest

from csreject.core import Dataset, Decision, RejectionCost
from csreject.losses import MARGIN_LOSSES, get_loss
from csreject.surrogate import (
    cs_loss_batch,
    cs_surrogate_grad,
    cs_surrogate_loss,
    decide,
    decide_batch,
    empirical_risk,
    pointwise_conditional_risk,
    pointwise_conditional_risk_per_class,
)

COST = RejectionCost(0.25)


class TestSurrogateLoss:
    def test_hinge_hand_value(self):
        # c*phi(0.5) + (1-c)*phi(0.5) with phi the hinge
        v = cs_surrogate_loss(get_loss("hinge"), COST, np.array([0.5, -0.5]), 1)
        assert v == pytest.approx(0.5)

    def test_sigmoid_zero_scores(self):
        v = cs_surrogate_loss(get_loss("sigmoid"), COST, np.array([0.0, 0.0]), 1)
        assert v == pytest.approx(0.5)

    def test_sigmoid_vanishes_at_confident_scores(self):
        g = np.array([50.0, -50.0, -50.0])
        v = cs_surrogate_loss(get_loss("sigmoid"), COST, g, 1)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        G = rng.normal(size=(20, 4))
        y = rng.integers(1, 5, size=20)
        for name in ("sigmoid", "hinge", "squared", "savage"):
            loss = get_loss(name)
            losses, dG = cs_loss_batch(loss, COST, G, y)
            for i in range(20):
                assert losses[i] == pytest.approx(cs_surrogate_loss(loss, COST, G[i], y[i]))
                np.testing.assert_allclose(dG[i], cs_surrogate_grad(loss, COST, G[i], y[i]))


    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_stacked_call_equals_one_call_per_part(self, name, K):
        # one value and one grad call on [-G, g_y] against the formula with
        # separate calls on -G and g_y; kinks, zeros and +-800 included
        rng = np.random.default_rng(K)
        G = rng.normal(size=(120, K)) * 3.0
        G.flat[:6] = [0.0, 1.0, -1.0, 800.0, -800.0, 0.0][: G.size]
        y = rng.integers(1, K + 1, size=120)
        loss, c = get_loss(name), COST.c
        rows, k = np.arange(120), y - 1
        gy = G[rows, k]
        neg = loss.value(-G)
        ref_losses = c * loss.value(gy) + (1.0 - c) * (neg.sum(axis=1) - neg[rows, k])
        ref_dG = -(1.0 - c) * loss.grad(-G)
        ref_dG[rows, k] = c * loss.grad(gy)
        losses, dG = cs_loss_batch(loss, COST, G, y)
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(dG, ref_dG)


class TestSurrogateGrad:
    def test_sigmoid_hand_value(self):
        grad = cs_surrogate_grad(get_loss("sigmoid"), COST, np.array([0.0, 0.0]), 1)
        np.testing.assert_allclose(grad, [-0.0625, 0.1875])

    def test_hinge_flat_component(self):
        grad = cs_surrogate_grad(get_loss("hinge"), COST, np.array([2.0, 0.0]), 1)
        assert grad[0] == 0.0

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for name in ("sigmoid", "logistic", "squared", "tangent"):
            loss = get_loss(name)
            for _ in range(20):
                g = rng.normal(size=3)
                y = int(rng.integers(1, 4))
                grad = cs_surrogate_grad(loss, COST, g, y)
                for k in range(3):
                    e = np.zeros(3)
                    e[k] = h
                    num = (
                        cs_surrogate_loss(loss, COST, g + e, y) - cs_surrogate_loss(loss, COST, g - e, y)
                    ) / (2 * h)
                    assert grad[k] == pytest.approx(num, abs=1e-5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        loss = get_loss("logistic")
        g = rng.normal(size=4)
        y = 2
        perm = np.array([2, 0, 3, 1])
        v1 = cs_surrogate_loss(loss, COST, g, y)
        v2 = cs_surrogate_loss(loss, COST, g[perm], int(np.where(perm == y - 1)[0][0]) + 1)
        assert v1 == pytest.approx(v2)
        g1 = cs_surrogate_grad(loss, COST, g, y)
        g2 = cs_surrogate_grad(loss, COST, g[perm], int(np.where(perm == y - 1)[0][0]) + 1)
        np.testing.assert_allclose(g1[perm], g2)


class TestEmpiricalRisk:
    def test_single_sample(self):
        loss = get_loss("sigmoid")
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([1]), K=2)
        score_fn = lambda X: np.tile([0.3, -0.4], (len(X), 1))
        assert empirical_risk(loss, COST, score_fn, ds) == pytest.approx(
            cs_surrogate_loss(loss, COST, np.array([0.3, -0.4]), 1)
        )

    def test_duplication_invariance(self):
        loss = get_loss("hinge")
        X = np.array([[1.0], [2.0]])
        y = np.array([1, 2])
        score_fn = lambda X: np.hstack([X, -X])
        r1 = empirical_risk(loss, COST, score_fn, Dataset(X, y, 2))
        r2 = empirical_risk(loss, COST, score_fn, Dataset(np.vstack([X, X]), np.tile(y, 2), 2))
        assert r1 == pytest.approx(r2)

    def test_mean_of_hand_values(self):
        loss = get_loss("hinge")
        ds = Dataset(np.zeros((2, 1)), np.array([1, 1]), K=2)
        G = np.array([[0.5, -0.5], [1.0, 0.6]])
        score_fn = lambda X: G
        v0 = cs_surrogate_loss(loss, COST, G[0], 1)
        v1 = cs_surrogate_loss(loss, COST, G[1], 1)
        assert empirical_risk(loss, COST, score_fn, ds) == pytest.approx((v0 + v1) / 2)


class TestDecide:
    def test_all_negative_is_distance(self):
        d = decide(np.array([-0.1, -0.2, -3.0]))
        assert d.reject_reason == "distance"

    def test_two_positive_is_ambiguity(self):
        d = decide(np.array([0.4, 0.2, -1.0]))
        assert d.reject_reason == "ambiguity"

    def test_unique_positive_predicts(self):
        d = decide(np.array([0.4, -0.2, -1.0]))
        assert d.label == 1

    def test_zero_is_not_positive(self):
        assert decide(np.array([0.0, 0.0])).reject_reason == "distance"

    def test_total_case_coverage(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            g = rng.normal(size=int(rng.integers(2, 6)))
            d = decide(g)
            n_pos = (g > 0).sum()
            if n_pos == 0:
                assert d.reject_reason == "distance"
            elif n_pos == 1:
                assert d.label == int(np.argmax(g)) + 1
            else:
                assert d.reject_reason == "ambiguity"

    def test_batch_matches_scalar(self):
        G = np.array([[0.1, -0.1], [-1.0, -2.0], [0.5, 0.5]])
        assert [Decision.from_code(code) for code in decide_batch(G)] == [decide(g) for g in G]


class TestPointwiseRisk:
    def test_one_hot_reduces_to_loss(self):
        loss = get_loss("squared")
        g = np.array([0.2, -0.7, 0.1])
        eta = np.array([0.0, 1.0, 0.0])
        assert pointwise_conditional_risk(loss, COST, g, eta) == pytest.approx(
            cs_surrogate_loss(loss, COST, g, 2)
        )

    def test_balanced_sigmoid_hand_value(self):
        v = pointwise_conditional_risk(get_loss("sigmoid"), COST, np.zeros(2), np.array([0.5, 0.5]))
        assert v == pytest.approx(0.5)

    def test_invalid_simplex(self):
        with pytest.raises(ValueError):
            pointwise_conditional_risk(get_loss("hinge"), COST, np.zeros(2), np.array([0.7, 0.7]))

    def test_per_class_decomposition_identity(self):
        rng = np.random.default_rng(5)
        for name in ("sigmoid", "hinge", "squared", "logistic", "ramp"):
            loss = get_loss(name)
            for _ in range(50):
                K = int(rng.integers(2, 6))
                eta = rng.dirichlet(np.ones(K))
                g = rng.normal(size=K)
                direct = pointwise_conditional_risk(loss, COST, g, eta)
                decomposed = pointwise_conditional_risk_per_class(loss, COST, g, eta).sum()
                assert abs(direct - decomposed) < 1e-12
