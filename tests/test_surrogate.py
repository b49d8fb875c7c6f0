import numpy as np
import pytest

from csreject.core import Dataset, Decision, RejectionCost
from csreject.losses import MARGIN_LOSSES, get_loss
from csreject.models import LinearModel, TrainConfig, train
from csreject.surrogate import (
    cs_loss_batch,
    decide,
    decide_batch,
    pointwise_conditional_risk_per_class,
)
from csreject.theory import conditional_risk_minimizer

COST = RejectionCost(0.25)


def _loss(loss, g, y):
    """cs_loss_batch on one row: (loss, score gradient)."""
    losses, dG = cs_loss_batch(loss, COST, np.asarray(g, dtype=float)[None], np.array([y]))
    return float(losses[0]), dG[0]


def _row_reference(loss, g, y):
    """c * phi(g_y) + (1 - c) * sum_{y' != y} phi(-g_y') and its gradient, one row."""
    c, k = COST.c, y - 1
    value = c * loss.value(g[k]) + (1.0 - c) * loss.value(-np.delete(g, k)).sum()
    grad = -(1.0 - c) * loss.grad(-g)
    grad[k] = c * loss.grad(g[k])
    return value, grad


def _pointwise_risk(loss, g, eta):
    """The posterior-weighted surrogate loss at one input: eta @ the cs_loss_batch losses of g at labels 1..K."""
    K = len(eta)
    return float(eta @ cs_loss_batch(loss, COST, np.tile(g, (K, 1)), np.arange(1, K + 1))[0])


def _empirical_risk(loss, G, y):
    """The first entry of train's risk trace, for a model that scores each row of G as itself.

    One epoch of one full batch takes the mean loss at the initial parameters, before the Adam step.
    """
    G = np.asarray(G, dtype=float)
    model = LinearModel(G.shape[1], G.shape[1])
    model.params["W"][:] = np.eye(G.shape[1])
    data = Dataset(G, np.asarray(y), K=G.shape[1])
    batch = lambda S, labels: cs_loss_batch(loss, COST, S, labels)
    return train(model, data, batch, TrainConfig(batch_size=len(G), epochs=1))[0]


class TestSurrogateLoss:
    def test_hinge_hand_value(self):
        # c*phi(0.5) + (1-c)*phi(0.5) with phi the hinge
        v, _ = _loss(get_loss("hinge"), [0.5, -0.5], 1)
        assert v == pytest.approx(0.5)

    def test_sigmoid_zero_scores(self):
        v, _ = _loss(get_loss("sigmoid"), [0.0, 0.0], 1)
        assert v == pytest.approx(0.5)

    def test_sigmoid_vanishes_at_confident_scores(self):
        g = np.array([50.0, -50.0, -50.0])
        v, _ = _loss(get_loss("sigmoid"), g, 1)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        G = rng.normal(size=(20, 4))
        y = rng.integers(1, 5, size=20)
        for name in ("sigmoid", "hinge", "squared", "savage"):
            loss = get_loss(name)
            losses, dG = cs_loss_batch(loss, COST, G, y)
            for i in range(20):
                value, grad = _row_reference(loss, G[i], y[i])
                assert losses[i] == pytest.approx(value)
                np.testing.assert_allclose(dG[i], grad)

    def test_large_own_class_margin_keeps_the_other_classes_exact(self):
        # phi(-40) of the own class is clamped to e^30 ~ 1e13; a row sum that
        # includes it and subtracts it again loses the other classes' digits
        G, y = np.array([[40.0, 2.0, 3.0]]), np.array([1])
        losses, _ = cs_loss_batch(get_loss("exponential"), RejectionCost(0.2), G, y)
        assert losses[0] == pytest.approx(21.979674417694657, rel=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_stacked_call_equals_one_call_per_part(self, name, K):
        # one value_grad call on [-G, g_y], indexed by flat position, against
        # the formula with 2-D indexing and separate calls on -G and g_y;
        # kinks, zeros and +-800 included
        rng = np.random.default_rng(K)
        G = rng.normal(size=(120, K)) * 3.0
        G.flat[:6] = [0.0, 1.0, -1.0, 800.0, -800.0, 0.0][: G.size]
        y = rng.integers(1, K + 1, size=120)
        loss, c = get_loss(name), COST.c
        rows, k = np.arange(120), y - 1
        gy = G[rows, k]
        neg = loss.value(-G)
        neg[rows, k] = 0.0
        ref_losses = c * loss.value(gy) + (1.0 - c) * sum(neg[:, j] for j in range(K))
        ref_dG = -(1.0 - c) * loss.grad(-G)
        ref_dG[rows, k] = c * loss.grad(gy)
        losses, dG = cs_loss_batch(loss, COST, G, y)
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(dG, ref_dG)


class TestSurrogateGrad:
    def test_sigmoid_hand_value(self):
        _, grad = _loss(get_loss("sigmoid"), [0.0, 0.0], 1)
        np.testing.assert_allclose(grad, [-0.0625, 0.1875])

    def test_hinge_flat_component(self):
        _, grad = _loss(get_loss("hinge"), [2.0, 0.0], 1)
        assert grad[0] == 0.0

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for name in ("sigmoid", "logistic", "squared", "tangent"):
            loss = get_loss(name)
            for _ in range(20):
                g = rng.normal(size=3)
                y = int(rng.integers(1, 4))
                _, grad = _loss(loss, g, y)
                for k in range(3):
                    e = np.zeros(3)
                    e[k] = h
                    num = (_loss(loss, g + e, y)[0] - _loss(loss, g - e, y)[0]) / (2 * h)
                    assert grad[k] == pytest.approx(num, abs=1e-5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        loss = get_loss("logistic")
        g = rng.normal(size=4)
        y = 2
        perm = np.array([2, 0, 3, 1])
        v1, g1 = _loss(loss, g, y)
        v2, g2 = _loss(loss, g[perm], int(np.where(perm == y - 1)[0][0]) + 1)
        assert v1 == pytest.approx(v2)
        np.testing.assert_allclose(g1[perm], g2)


class TestEmpiricalRisk:
    def test_single_sample(self):
        loss = get_loss("sigmoid")
        assert _empirical_risk(loss, [[0.3, -0.4]], [1]) == pytest.approx(_loss(loss, [0.3, -0.4], 1)[0])

    def test_duplication_invariance(self):
        loss = get_loss("hinge")
        G = np.array([[1.0, -1.0], [2.0, -2.0]])
        y = np.array([1, 2])
        assert _empirical_risk(loss, G, y) == pytest.approx(_empirical_risk(loss, np.vstack([G, G]), np.tile(y, 2)))

    def test_mean_of_hand_values(self):
        loss = get_loss("hinge")
        G = np.array([[0.5, -0.5], [1.0, 0.6]])
        v0, v1 = _loss(loss, G[0], 1)[0], _loss(loss, G[1], 1)[0]
        assert _empirical_risk(loss, G, [1, 1]) == pytest.approx((v0 + v1) / 2)


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
        assert pointwise_conditional_risk_per_class(loss, COST, g, eta).sum() == pytest.approx(_loss(loss, g, 2)[0])

    def test_balanced_sigmoid_hand_value(self):
        v = _pointwise_risk(get_loss("sigmoid"), np.zeros(2), np.array([0.5, 0.5]))
        assert v == pytest.approx(0.5)

    def test_invalid_simplex(self):
        # the minimizer of the pointwise risk, which the calibration audit runs, checks its posterior
        with pytest.raises(ValueError):
            conditional_risk_minimizer(get_loss("hinge"), np.array([0.7, 0.7]), COST)

    def test_per_class_decomposition_identity(self):
        rng = np.random.default_rng(5)
        for name in ("sigmoid", "hinge", "squared", "logistic", "ramp"):
            loss = get_loss(name)
            for _ in range(50):
                K = int(rng.integers(2, 6))
                eta = rng.dirichlet(np.ones(K))
                g = rng.normal(size=K)
                direct = _pointwise_risk(loss, g, eta)
                decomposed = pointwise_conditional_risk_per_class(loss, COST, g, eta).sum()
                assert abs(direct - decomposed) < 1e-12
