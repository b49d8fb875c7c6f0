import os
import subprocess
import sys

import numpy as np
import pytest

import csreject

from csreject.core import Decision, RejectionCost
from csreject.theory import (
    FiniteDistribution,
    audit_calibration,
    audit_excess_chain,
    audit_excess_random,
    audit_oracle_equivalence,
    bayes_cs_binary,
    binary_three_way,
    chow_rule,
    conditional_risk_minimizer,
    ensemble_chow,
    miscalibrated_witness,
    psi_inverse,
    psi_transform,
    random_simplex,
)


class TestChowRule:
    def test_confident_posterior_predicts(self):
        d = chow_rule(np.array([0.85, 0.10, 0.05]), RejectionCost(0.2))
        assert d.label == 1

    def test_uncertain_posterior_rejects(self):
        assert chow_rule(np.array([0.6, 0.3, 0.1]), RejectionCost(0.2)).is_reject

    def test_boundary_tie_rejects(self):
        # max eta exactly 1 - c: the non-strict inequality rejects
        assert chow_rule(np.array([0.80, 0.15, 0.05]), RejectionCost(0.2)).is_reject

    def test_near_half_cost_degenerates_continuously(self):
        cost = RejectionCost(0.499)
        assert chow_rule(np.array([0.502, 0.498]), cost).label == 1
        assert chow_rule(np.array([0.501, 0.499]), cost).is_reject

    def test_invalid_simplex(self):
        with pytest.raises(ValueError):
            chow_rule(np.array([0.7, 0.7]), RejectionCost(0.2))


class TestBayesBinary:
    def test_above_threshold(self):
        assert bayes_cs_binary(0.85, 0.8) == 1

    def test_exactly_at_threshold_is_negative(self):
        assert bayes_cs_binary(0.80, 0.8) == -1

    def test_half_threshold_is_ordinary_bayes(self):
        assert bayes_cs_binary(0.7, 0.5) == 1
        assert bayes_cs_binary(0.3, 0.5) == -1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bayes_cs_binary(1.2, 0.5)
        with pytest.raises(ValueError):
            bayes_cs_binary(0.5, 0.0)


class TestBinaryThreeWay:
    def test_confident_positive(self):
        assert binary_three_way(0.9, RejectionCost(0.2)).label == 1

    def test_confident_negative(self):
        assert binary_three_way(0.1, RejectionCost(0.2)).label == 2

    def test_middle_band_rejects(self):
        assert binary_three_way(0.5, RejectionCost(0.2)).is_reject


class TestEnsembleChow:
    def test_tied_posteriors_reject_and_agree(self):
        eta = np.array([0.5, 0.5, 0.0])
        cost = RejectionCost(0.2)
        d = ensemble_chow(eta, cost)
        assert d.is_reject
        assert chow_rule(eta, cost).is_reject

    def test_confident_posterior_predicts(self):
        assert ensemble_chow(np.array([0.85, 0.10, 0.05]), RejectionCost(0.2)).label == 1

    def test_two_positive_verdicts_raise(self):
        # within the 1e-9 simplex tolerance, yet both posteriors exceed 1 - c
        with pytest.raises(ValueError):
            ensemble_chow(np.array([0.5 + 3e-10] * 2), RejectionCost(0.5 - 1e-10))

    def test_two_positive_verdicts_raise_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        script = (
            "import numpy as np\n"
            "from csreject.core import RejectionCost\n"
            "from csreject.theory import ensemble_chow\n"
            "try:\n"
            "    print(ensemble_chow(np.array([0.5 + 3e-10] * 2), RejectionCost(0.5 - 1e-10)))\n"
            "except ValueError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(csreject.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert out.stdout.strip() == "raised", out.stdout + out.stderr

    def test_random_agreement_sweep(self):
        checked, disagreements = audit_oracle_equivalence(n_draws=5000, seed=11)
        assert checked > 4900
        assert disagreements == 0


class TestPsi:
    def test_hinge_is_identity(self):
        cost = RejectionCost(0.3)
        assert psi_inverse("hinge", cost, 0.37) == 0.37
        assert psi_transform("hinge", cost, 0.37) == 0.37

    def test_zero_maps_to_zero(self):
        for c in (0.1, 0.25, 0.4):
            assert psi_inverse("squared", RejectionCost(c), 0.0) == 0.0
            assert psi_transform("squared", RejectionCost(c), 0.0) == 0.0

    def test_squared_frozen_value(self):
        # non-negative root of theta^2 - eps*theta*(1-2c) - 2c(1-c)*eps = 0
        # at c = 0.25, eps = 0.1
        v = psi_inverse("squared", RejectionCost(0.25), 0.1)
        assert v == pytest.approx(0.22025624, abs=1e-7)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cost = RejectionCost(float(rng.uniform(0.01, 0.49)))
            eps = float(rng.uniform(0, 2))
            theta = psi_inverse("squared", cost, eps)
            assert psi_transform("squared", cost, theta) == pytest.approx(eps, abs=1e-10)

    def test_monotone_nondecreasing(self):
        eps = np.linspace(0, 1, 101)
        for name in ("squared", "hinge"):
            vals = [psi_inverse(name, RejectionCost(0.2), float(e)) for e in eps]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_unsupported_loss(self):
        with pytest.raises(ValueError):
            psi_inverse("sigmoid", RejectionCost(0.2), 0.1)


class TestFiniteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([0.5, 0.6]), np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([1.0]), np.array([[0.7, 0.7]]))

    def test_K(self):
        d = FiniteDistribution(np.array([1.0]), np.array([[0.2, 0.3, 0.5]]))
        assert d.K == 3


class TestExcessChain:
    def _simple_instance(self):
        weights = np.array([0.4, 0.6])
        etas = np.array([[0.9, 0.1], [0.45, 0.55]])
        return FiniteDistribution(weights, etas), RejectionCost(0.2)

    def test_optimal_scores_have_zero_regret(self):
        dist, cost = self._simple_instance()
        # scores realizing Chow's rule: confident point 1 positive for class 1,
        # ambiguous point all-negative (reject)
        G = np.array([[1.0, -1.0], [-1.0, -1.0]])
        rep = audit_excess_chain(dist, G, cost)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert not rep.violated

    def test_always_reject_suboptimal_but_bounded(self):
        dist, cost = self._simple_instance()
        G = np.full((2, 2), -1.0)
        rep = audit_excess_chain(dist, G, cost)
        assert rep.lhs > 0
        assert rep.lhs <= rep.rhs + 1e-12
        assert not rep.violated

    def test_psi_bound_on_instance(self):
        dist, cost = self._simple_instance()
        G = np.array([[0.5, -0.5], [-0.2, 0.1]])
        rep = audit_excess_chain(dist, G, cost, psi_losses=("squared", "hinge"))
        assert not rep.violated
        assert not rep.psi_violated
        assert set(rep.psi_rhs) == {"squared", "hinge"}

    def test_shape_mismatch(self):
        dist, cost = self._simple_instance()
        with pytest.raises(ValueError):
            audit_excess_chain(dist, np.zeros((3, 2)), cost)

    def test_random_instances_small(self):
        n, violations, psi_violations = audit_excess_random(500, seed=13)
        assert violations == 0
        assert psi_violations == 0


class TestCalibrationAudit:
    def test_small_sweep_agrees(self):
        results = audit_calibration(loss_names=("sigmoid", "hinge"), n_draws=60, seed=17)
        for name, (checked, disagreements) in results.items():
            assert checked == 60
            assert disagreements == 0, name

    def test_minimizer_realizes_chow(self):
        from csreject.losses import get_loss
        from csreject.surrogate import decide

        eta = np.array([0.9, 0.07, 0.03])
        cost = RejectionCost(0.2)
        g = conditional_risk_minimizer(get_loss("logistic"), eta, cost)
        assert decide(g).label == chow_rule(eta, cost).label == 1

    def test_miscalibrated_loss_disagrees(self):
        assert miscalibrated_witness(RejectionCost(0.2))


def test_random_simplex_is_valid():
    rng = np.random.default_rng(19)
    for _ in range(50):
        eta = random_simplex(rng, int(rng.integers(2, 8)))
        assert eta.min() >= 0
        assert eta.sum() == pytest.approx(1.0)
