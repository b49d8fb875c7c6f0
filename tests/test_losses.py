import tracemalloc

import numpy as np
import pytest

from csreject.checks import check_margin_losses
from csreject.core import RejectionCost
from csreject.losses import (
    _SCAN_CHUNK,
    _VALUE_BLOCK,
    MARGIN_LOSSES,
    MarginLossSpec,
    _expit,
    _kept_spans,
    argmin_weighted_conditional_risk,
    get_loss,
)
from csreject.surrogate import pointwise_conditional_risk_per_class
from csreject.theory import conditional_risk_minimizer

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

    def test_get_loss_unknown(self):
        with pytest.raises(KeyError):
            get_loss("perceptron")


class TestValues:
    def test_sigmoid_at_zero(self):
        assert get_loss("sigmoid").value(0.0) == pytest.approx(0.5)

    def test_hinge_at_one(self):
        assert get_loss("hinge").value(1.0) == 0.0

    def test_squared_at_minus_one(self):
        assert get_loss("squared").value(-1.0) == pytest.approx(4.0)

    def test_point_values_against_formulas(self):
        z = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(get_loss("squared_hinge").value(z), np.maximum(0, 1 - z) ** 2)
        np.testing.assert_allclose(get_loss("exponential").value(z), np.exp(-z))
        np.testing.assert_allclose(get_loss("logistic").value(z), np.log1p(np.exp(-z)))
        np.testing.assert_allclose(get_loss("savage").value(z), (1 + np.exp(2 * z)) ** -2)
        np.testing.assert_allclose(get_loss("tangent").value(z), (2 * np.arctan(z) - 1) ** 2)
        np.testing.assert_allclose(get_loss("ramp").value(z), np.clip(0.5 - 0.5 * z, 0, 1))
        np.testing.assert_allclose(get_loss("sigmoid").value(z), 1 / (1 + np.exp(z)))

    def test_logistic_stable_for_huge_arguments(self):
        loss = get_loss("logistic")
        assert np.isfinite(loss.value(-800.0))
        assert loss.value(-800.0) == pytest.approx(800.0)
        assert loss.value(800.0) == 0.0

    def test_exponential_clamped(self):
        assert get_loss("exponential").value(-1000.0) == pytest.approx(np.exp(30))


class TestGradients:
    def test_sigmoid_grad_at_zero(self):
        assert get_loss("sigmoid").grad(0.0) == pytest.approx(-0.25)

    def test_squared_grad_at_zero(self):
        assert get_loss("squared").grad(0.0) == pytest.approx(-2.0)

    def test_hinge_flat_region(self):
        assert get_loss("hinge").grad(2.0) == 0.0

    def test_subgradient_conventions_at_kinks(self):
        assert get_loss("hinge").grad(1.0) == 0.0
        assert get_loss("squared_hinge").grad(1.0) == 0.0
        assert get_loss("ramp").grad(-1.0) == -0.5
        assert get_loss("ramp").grad(1.0) == 0.0

    def test_finite_difference_grid(self):
        results = check_margin_losses()
        for name, (err, ok) in results.items():
            assert ok, f"{name}: max rel err {err}"


# each loss's gradient as a formula of its own, apart from the value
UNFUSED_GRADS = {
    "squared": lambda z: -2.0 * (1.0 - z),
    "squared_hinge": lambda z: -2.0 * np.maximum(0.0, 1.0 - z),
    "exponential": lambda z: -np.exp(np.minimum(-z, 30.0)),
    "logistic": lambda z: -_expit(-z),
    "hinge": lambda z: np.where(z < 1.0, -1.0, 0.0),
    "savage": lambda z: -4.0 * _expit(-2.0 * z) ** 2 * (1.0 - _expit(-2.0 * z)),
    "tangent": lambda z: 4.0 * (2.0 * np.arctan(z) - 1.0) / (1.0 + z**2),
    "ramp": lambda z: np.where((z >= -1.0) & (z < 1.0), -0.5, 0.0),
    "sigmoid": lambda z: -_expit(z) * _expit(-z),
}
# signed zeros, the kinks and their neighbours, the exponential's clamp at
# -30 and below it, and |z| > 709, where exp overflows
EDGE_Z = np.array(
    [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 5e-324, -5e-324]
    + [-29.999, -30.0, -30.001, -31.0, -100.0, -700.0]
    + [709.0, -709.0, 709.79, -709.79, 710.0, -710.0, 1e4, -1e4, 1e300, -1e300]
)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestValueGrad:
    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_value_and_gradient_equal_the_unfused_formulas_bit_for_bit(self, name):
        loss = MARGIN_LOSSES[name]
        z = np.concatenate([EDGE_Z, np.linspace(-40.0, 40.0, 801)])
        with np.errstate(all="ignore"):
            phi, dphi = loss.value_grad(z)
            assert _bits(phi) == _bits(loss.value(z))
            assert _bits(dphi) == _bits(UNFUSED_GRADS[name](z))
            assert _bits(loss.grad(z)) == _bits(dphi)


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
    """The weighted binary conditional risk eta*c*phi(v) + (1-eta)*(1-c)*phi(-v), one per class."""

    COST = RejectionCost(0.2)

    def _risk(self, name, g, eta):
        return pointwise_conditional_risk_per_class(get_loss(name), self.COST, np.asarray(g), np.asarray(eta))

    def test_symmetric_loss_balanced_posterior(self):
        # at eta = 1 - c both weights are c(1 - c), and the sigmoid has phi(v) + phi(-v) = 1
        for v in (-3.0, 0.0, 1.7):
            assert self._risk("sigmoid", [v, 0.0], [0.8, 0.2])[0] == pytest.approx(0.2 * 0.8)

    def test_hinge_pure_positive(self):
        np.testing.assert_array_equal(self._risk("hinge", [1.0, -1.0], [1.0, 0.0]), [0.0, 0.0])

    def test_squared_hand_value(self):
        # phi(0) = 1: each entry is eta*c + (1-eta)*(1-c)
        np.testing.assert_allclose(self._risk("squared", [0.0, 0.0], [0.7, 0.3]), [0.38, 0.62])

    def test_eta_out_of_range(self):
        # the minimizer of this risk, which the calibration audit runs, checks its posterior
        with pytest.raises(ValueError):
            conditional_risk_minimizer(get_loss("hinge"), np.array([1.2, -0.2]), self.COST)


class TestArgmin:
    def test_squared_closed_form(self):
        v = argmin_weighted_conditional_risk(get_loss("squared"), 0.8, 0.2)
        assert v == pytest.approx(0.6, abs=1e-6)

    def test_symmetric_tie_reports_zero(self):
        for name in MARGIN_LOSSES:
            assert argmin_weighted_conditional_risk(get_loss(name), 0.3, 0.3) == 0.0

    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_zero_attains_the_minimum_at_equal_weights(self, name):
        # the tie answer above is taken without a scan, so it is right only if
        # v = 0 minimizes phi(v) + phi(-v); the sigmoid's sum is 1 up to 1 ulp
        loss = get_loss(name)
        grid = np.arange(-20.0, 20.0 + 1e-3 / 2, 1e-3)
        least = (loss.value(grid) + loss.value(-grid)).min()
        at_zero = 2.0 * loss.value(np.zeros(1))[0]
        assert at_zero <= least * (1.0 + 1e-12), (at_zero, least)
        w = np.array([0.3, 1.0, 1e-300, 1e300])
        assert (argmin_weighted_conditional_risk(loss, w, w) == 0.0).all()

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

    @pytest.mark.parametrize(
        "name, w_pos, w_neg",
        [("sigmoid", 0.3, np.nan), ("sigmoid", np.nan, 0.3), ("hinge", np.inf, 0.2), ("hinge", 0.2, -np.inf)],
    )
    def test_a_weight_that_is_not_finite_raises(self, name, w_pos, w_neg):
        # a NaN passes a `< 0` check, and an infinite weight gives an infinite objective
        with pytest.raises(ValueError, match="finite"):
            argmin_weighted_conditional_risk(get_loss(name), w_pos, w_neg)
        with pytest.raises(ValueError, match="finite"):
            argmin_weighted_conditional_risk(get_loss(name), np.array([0.2, w_pos]), np.array([0.7, w_neg]))

    def test_a_loss_that_is_not_finite_on_the_grid_raises(self):
        steep = MarginLossSpec("steep", lambda z: np.exp(-50.0 * np.asarray(z)), None)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            argmin_weighted_conditional_risk(steep, 0.7, 0.3)

    def test_any_bad_pair_raises(self):
        with pytest.raises(ValueError):
            argmin_weighted_conditional_risk(get_loss("hinge"), np.array([0.2, -0.1]), np.array([0.3, 0.3]))
        with pytest.raises(ValueError):
            argmin_weighted_conditional_risk(get_loss("hinge"), np.array([0.2, 0.0]), np.array([0.3, 0.0]))


def _one_pair_scan_argmin(loss, w_pos, w_neg, bound=20.0, grid_step=1e-3):
    """The former argmin_weighted_conditional_risk: every grid point scanned
    for every pair, one pair at a time, then the same golden-section search."""
    w_pos, w_neg = np.broadcast_arrays(np.asarray(w_pos, dtype=float), np.asarray(w_neg, dtype=float))
    out = np.zeros(w_pos.shape)
    todo = w_pos != w_neg
    wp, wn = w_pos[todo], w_neg[todo]
    grid = np.arange(-bound, bound + grid_step / 2, grid_step)
    A, B = loss.value(grid), loss.value(-grid)
    obj, scratch = np.empty_like(grid), np.empty_like(grid)
    best = np.empty(len(wp), dtype=int)
    for j in range(len(wp)):
        np.add(np.multiply(wp[j], A, out=obj), np.multiply(wn[j], B, out=scratch), out=obj)
        best[j] = np.argmin(obj)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, len(grid) - 1)]

    def f(v):
        return wp * loss.value(v) + wn * loss.value(-v)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        left = f1 < f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x_new = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f_new = f(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    out[todo] = (a + b) / 2.0
    return float(out) if out.ndim == 0 else out


# the miscalibration witness of theory.miscalibrated_witness: a sign-flipped sigmoid
FLIPPED_SIGMOID = MarginLossSpec(
    "flipped_sigmoid",
    value=lambda z: 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float))),
    value_grad=lambda z: (_expit(z), _expit(z) * _expit(-np.asarray(z, dtype=float))),
)
# (bound, grid_step): the default 40 001 points, then 101, 4 001 and 257
# points; only the first is a whole number of 256-point blocks plus 65
SCAN_GRIDS = [(20.0, 1e-3), (5.0, 0.1), (2.0, 1e-3), (1.28, 0.01)]


def _weight_sets(seed):
    """Four weight sets: uniform draws with exact ties, near-ties at a ratio
    of 1 +- 1e-6, zero weights, and weights of 1e-300 and 1e300."""
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 1.0, size=12), rng.uniform(0.0, 1.0, size=12)
    uniform = (np.concatenate([u, u[:2]]), np.concatenate([v, u[:2]]))
    near = (np.concatenate([u, u]), np.concatenate([u * (1.0 + 1e-6), u * (1.0 - 1e-6)]))
    zeros = (np.concatenate([np.zeros(4), u[:4], u[4:8]]), np.concatenate([v[:4], np.zeros(4), v[4:8]]))
    tiny, huge = 1e-300, 1e300
    extreme = (
        np.array([tiny, 0.5, tiny, 3 * tiny, huge, 1.0, huge, 0.3 * huge, tiny, huge]),
        np.array([0.5, tiny, 0.0, tiny, 1.0, huge, 0.0, huge, huge, tiny]),
    )
    return [uniform, near, zeros, extreme]


class TestBoundedScanIdentity:
    """The minimizer equals the one-pair full-grid scan bit for bit."""

    @pytest.mark.parametrize("bound, grid_step", SCAN_GRIDS)
    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES) + ["flipped_sigmoid"])
    def test_equals_the_full_grid_scan_bit_for_bit(self, name, bound, grid_step):
        loss = FLIPPED_SIGMOID if name == "flipped_sigmoid" else get_loss(name)
        # a weight of 1e300 times a steep loss overflows to inf at the grid's end
        with np.errstate(over="ignore"):
            for w_pos, w_neg in _weight_sets(len(name)):
                got = argmin_weighted_conditional_risk(loss, w_pos, w_neg, bound=bound, grid_step=grid_step)
                ref = _one_pair_scan_argmin(loss, w_pos, w_neg, bound=bound, grid_step=grid_step)
                assert _bits(got) == _bits(ref), (name, bound, w_pos, w_neg)

    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_blocked_loss_values_are_the_bits_of_the_whole_grid(self, name):
        # the minimizer fills A and B a block at a time
        loss = get_loss(name)
        grid = np.arange(-20.0, 20.0 + 1e-3 / 2, 1e-3)
        for z in (grid, -grid):
            blocked = np.concatenate([loss.value(z[s : s + _VALUE_BLOCK]) for s in range(0, len(z), _VALUE_BLOCK)])
            assert _bits(blocked) == _bits(loss.value(z)), name

    @pytest.mark.parametrize("bound, grid_step", [(20.0, 1e-3), (2.0, 1e-4)])
    @pytest.mark.parametrize("name", ["hinge", "ramp", "sigmoid"])
    def test_spans_wider_than_a_scan_chunk_equal_the_full_grid_scan_bit_for_bit(self, name, bound, grid_step):
        # flat objectives keep long spans: the ramp's minimum is flat on
        # [1, bound], the hinge's objective is near flat on [-1, 1] at
        # near-equal weights, and the sigmoid's everywhere
        loss = get_loss(name)
        grid = np.arange(-bound, bound + grid_step / 2, grid_step)
        A, B = loss.value(grid), loss.value(-grid)
        widest = 0
        for w_pos, w_neg in _weight_sets(7):
            todo = w_pos != w_neg
            lo, hi = _kept_spans(A, B, w_pos[todo], w_neg[todo])
            widest = max(widest, (hi - lo).max())
            with np.errstate(over="ignore"):
                got = argmin_weighted_conditional_risk(loss, w_pos, w_neg, bound=bound, grid_step=grid_step)
                ref = _one_pair_scan_argmin(loss, w_pos, w_neg, bound=bound, grid_step=grid_step)
            assert _bits(got) == _bits(ref), (name, w_pos, w_neg)
        if (name, bound) != ("hinge", 20.0):  # the hinge's spans on the default grid are 2 816 points
            assert widest > _SCAN_CHUNK, widest

    def test_an_objective_that_is_inf_on_the_whole_grid_gives_its_first_point(self):
        # 1e300 * 1e10 overflows at every grid point, so every chunk's least
        # value is inf: a running minimum that starts at inf is never set
        huge = MarginLossSpec("huge", lambda z: 1e10 * (2.0 + np.tanh(np.asarray(z, dtype=float))), None)
        w_pos, w_neg = np.array([1e300, 0.5e300, 2e300, 1e299]), np.array([0.7e300, 1e300, 1e300, 3e299])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(w_pos.min() * huge.value(np.array([-20.0]))).all()
            got = argmin_weighted_conditional_risk(huge, w_pos, w_neg)
            ref = _one_pair_scan_argmin(huge, w_pos, w_neg)
        assert _bits(got) == _bits(ref)


class TestWorkingSet:
    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_a_default_grid_call_holds_less_than_five_grid_widths(self, name):
        # the grid, A and B are three widths; the scan buffers and the
        # bounds of a block of pairs are small and of a fixed size
        loss = get_loss(name)
        eta = np.random.default_rng(5).uniform(0.0, 1.0, size=100)
        w_pos, w_neg = 0.2 * eta, 0.8 * (1.0 - eta)
        argmin_weighted_conditional_risk(loss, w_pos, w_neg)
        tracemalloc.start()
        try:
            argmin_weighted_conditional_risk(loss, w_pos, w_neg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 40_001 * 8, peak
