import numpy as np
import pytest

from csreject.checks import check_margin_losses
from csreject.losses import (
    MARGIN_LOSSES,
    argmin_weighted_conditional_risk,
    binary_conditional_risk,
    get_loss,
    phi_eval,
    phi_grad,
)

CONVEX = {"squared", "squared_hinge", "exponential", "logistic", "hinge"}
SYMMETRIC = {"ramp", "sigmoid"}


class TestRegistry:
    def test_all_nine_present(self):
        assert set(MARGIN_LOSSES) == {
            "squared",
            "squared_hinge",
            "exponential",
            "logistic",
            "hinge",
            "savage",
            "tangent",
            "ramp",
            "sigmoid",
        }

    def test_property_flags(self):
        for name, spec in MARGIN_LOSSES.items():
            assert spec.convex == (name in CONVEX)
            assert spec.symmetric == (name in SYMMETRIC)
            assert spec.calibrated

    def test_get_loss_unknown(self):
        with pytest.raises(KeyError):
            get_loss("perceptron")


class TestValues:
    def test_sigmoid_at_zero(self):
        assert phi_eval(get_loss("sigmoid"), 0.0) == pytest.approx(0.5)

    def test_hinge_at_one(self):
        assert phi_eval(get_loss("hinge"), 1.0) == 0.0

    def test_squared_at_minus_one(self):
        assert phi_eval(get_loss("squared"), -1.0) == pytest.approx(4.0)

    def test_point_values_against_formulas(self):
        z = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(phi_eval(get_loss("squared_hinge"), z), np.maximum(0, 1 - z) ** 2)
        np.testing.assert_allclose(phi_eval(get_loss("exponential"), z), np.exp(-z))
        np.testing.assert_allclose(phi_eval(get_loss("logistic"), z), np.log1p(np.exp(-z)))
        np.testing.assert_allclose(phi_eval(get_loss("savage"), z), (1 + np.exp(2 * z)) ** -2)
        np.testing.assert_allclose(phi_eval(get_loss("tangent"), z), (2 * np.arctan(z) - 1) ** 2)
        np.testing.assert_allclose(phi_eval(get_loss("ramp"), z), np.clip(0.5 - 0.5 * z, 0, 1))
        np.testing.assert_allclose(phi_eval(get_loss("sigmoid"), z), 1 / (1 + np.exp(z)))

    def test_logistic_stable_for_huge_arguments(self):
        loss = get_loss("logistic")
        assert np.isfinite(phi_eval(loss, -800.0))
        assert phi_eval(loss, -800.0) == pytest.approx(800.0)
        assert phi_eval(loss, 800.0) == 0.0

    def test_exponential_clamped(self):
        assert phi_eval(get_loss("exponential"), -1000.0) == pytest.approx(np.exp(30))


class TestGradients:
    def test_sigmoid_grad_at_zero(self):
        assert phi_grad(get_loss("sigmoid"), 0.0) == pytest.approx(-0.25)

    def test_squared_grad_at_zero(self):
        assert phi_grad(get_loss("squared"), 0.0) == pytest.approx(-2.0)

    def test_hinge_flat_region(self):
        assert phi_grad(get_loss("hinge"), 2.0) == 0.0

    def test_subgradient_conventions_at_kinks(self):
        assert phi_grad(get_loss("hinge"), 1.0) == 0.0
        assert phi_grad(get_loss("squared_hinge"), 1.0) == 0.0
        assert phi_grad(get_loss("ramp"), -1.0) == -0.5
        assert phi_grad(get_loss("ramp"), 1.0) == 0.0

    def test_finite_difference_grid(self):
        results = check_margin_losses()
        for name, (err, ok) in results.items():
            assert ok, f"{name}: max rel err {err}"


class TestShapeProperties:
    def test_symmetry_constant_one(self):
        z = np.linspace(-50, 50, 2001)
        for name in SYMMETRIC:
            loss = get_loss(name)
            np.testing.assert_allclose(loss.value(z) + loss.value(-z), 1.0, atol=1e-12)

    def test_convexity_on_random_pairs(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-10, 10, size=500)
        b = rng.uniform(-10, 10, size=500)
        for name in CONVEX:
            loss = get_loss(name)
            mid = loss.value((a + b) / 2)
            assert (mid <= (loss.value(a) + loss.value(b)) / 2 + 1e-12).all(), name


class TestConditionalRisk:
    def test_symmetric_loss_balanced_posterior(self):
        for v in (-3.0, 0.0, 1.7):
            assert binary_conditional_risk(get_loss("sigmoid"), 0.5, v) == pytest.approx(0.5)

    def test_hinge_pure_positive(self):
        assert binary_conditional_risk(get_loss("hinge"), 1.0, 1.0) == 0.0

    def test_squared_hand_value(self):
        assert binary_conditional_risk(get_loss("squared"), 0.7, 0.0) == pytest.approx(1.0)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            binary_conditional_risk(get_loss("hinge"), 1.2, 0.0)


class TestArgmin:
    def test_squared_closed_form(self):
        v = argmin_weighted_conditional_risk(get_loss("squared"), 0.8, 0.2)
        assert v == pytest.approx(0.6, abs=1e-6)

    def test_symmetric_tie_reports_zero(self):
        for name in MARGIN_LOSSES:
            assert argmin_weighted_conditional_risk(get_loss(name), 0.3, 0.3) == 0.0

    def test_hinge_kink_minimizer(self):
        v = argmin_weighted_conditional_risk(get_loss("hinge"), 0.9, 0.1)
        assert v == pytest.approx(1.0, abs=1e-3)
        assert v > 0

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError):
            argmin_weighted_conditional_risk(get_loss("hinge"), 0.0, 0.0)
        with pytest.raises(ValueError):
            argmin_weighted_conditional_risk(get_loss("hinge"), -0.1, 0.2)

    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_calibration_sign(self, name):
        # minimizer's sign matches the Bayes decision for every non-tied eta
        loss = get_loss(name)
        for eta1 in np.arange(0.05, 0.96, 0.05):
            if abs(eta1 - 0.5) < 1e-9:
                continue
            v = argmin_weighted_conditional_risk(loss, eta1, 1.0 - eta1)
            assert np.sign(v) == np.sign(2 * eta1 - 1), (name, eta1, v)


class TestBatchedArgmin:
    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_matches_per_pair_scalar_calls(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(41)
        w_pos, w_neg = rng.uniform(0, 1, size=40), rng.uniform(0, 1, size=40)
        w_pos[:4] = w_neg[:4]  # ties report 0
        w_pos[4:6] = 0.0
        w_neg[6:8] = 0.0
        batched = argmin_weighted_conditional_risk(loss, w_pos, w_neg)
        assert batched.shape == (40,)
        scalar = np.array([argmin_weighted_conditional_risk(loss, float(p), float(n)) for p, n in zip(w_pos, w_neg)])
        assert isinstance(argmin_weighted_conditional_risk(loss, 0.0, 0.4), float)
        np.testing.assert_allclose(batched, scalar, atol=1e-6)
        np.testing.assert_array_equal(np.sign(batched), np.sign(scalar))
        assert (batched[:4] == 0.0).all()

    def test_array_shapes_are_kept(self):
        w = np.array([[0.8, 0.3], [0.1, 0.5]])
        out = argmin_weighted_conditional_risk(get_loss("squared"), w, 1.0 - w)
        assert out.shape == (2, 2)
        # closed form for the squared loss: v* = w_pos - w_neg over w_pos + w_neg = 1
        np.testing.assert_allclose(out, 2 * w - 1, atol=1e-6)

    def test_any_bad_pair_raises(self):
        with pytest.raises(ValueError):
            argmin_weighted_conditional_risk(get_loss("hinge"), np.array([0.2, -0.1]), np.array([0.3, 0.3]))
        with pytest.raises(ValueError):
            argmin_weighted_conditional_risk(get_loss("hinge"), np.array([0.2, 0.0]), np.array([0.3, 0.0]))
