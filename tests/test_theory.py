import os
import subprocess
import sys

import numpy as np
import pytest

import csreject
from csreject import theory

from csreject.core import CODE_ORACLE, RejectionCost
from csreject.losses import argmin_weighted_conditional_risk, get_loss
from csreject.surrogate import decide_batch
from csreject.theory import (
    CALIBRATION_LOSSES,
    FiniteDistribution,
    _excess_chain_batch,
    audit_calibration,
    audit_excess_chain,
    audit_excess_random,
    audit_oracle_equivalence,
    bayes_cs_binary,
    binary_three_way_batch,
    chow_rule_batch,
    conditional_risk_minimizer,
    ensemble_chow_batch,
    miscalibrated_witness,
    psi_inverse,
    psi_transform,
    random_simplex,
)


class TestChowRule:
    def test_confident_posterior_predicts(self):
        assert chow_rule_batch(np.array([0.85, 0.10, 0.05]), 0.2) == 1

    def test_uncertain_posterior_rejects(self):
        assert chow_rule_batch(np.array([0.6, 0.3, 0.1]), 0.2) == CODE_ORACLE

    def test_boundary_tie_rejects(self):
        # max eta exactly 1 - c: the non-strict inequality rejects
        assert chow_rule_batch(np.array([0.80, 0.15, 0.05]), 0.2) == CODE_ORACLE

    def test_near_half_cost_degenerates_continuously(self):
        assert chow_rule_batch(np.array([0.502, 0.498]), 0.499) == 1
        assert chow_rule_batch(np.array([0.501, 0.499]), 0.499) == CODE_ORACLE

    def test_invalid_simplex(self):
        with pytest.raises(ValueError):
            chow_rule_batch(np.array([0.7, 0.7]), 0.2)


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
        assert binary_three_way_batch(0.9, 0.2) == 1

    def test_confident_negative(self):
        assert binary_three_way_batch(0.1, 0.2) == 2

    def test_middle_band_rejects(self):
        assert binary_three_way_batch(0.5, 0.2) == CODE_ORACLE


class TestEnsembleChow:
    def test_tied_posteriors_reject_and_agree(self):
        eta = np.array([0.5, 0.5, 0.0])
        assert ensemble_chow_batch(eta, 0.2) == CODE_ORACLE
        assert chow_rule_batch(eta, 0.2) == CODE_ORACLE

    def test_confident_posterior_predicts(self):
        assert ensemble_chow_batch(np.array([0.85, 0.10, 0.05]), 0.2) == 1

    def test_two_positive_verdicts_raise(self):
        # within the 1e-9 simplex tolerance, yet both posteriors exceed 1 - c
        with pytest.raises(ValueError):
            ensemble_chow_batch(np.array([0.5 + 3e-10] * 2), 0.5 - 1e-10)

    def test_two_positive_verdicts_raise_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        script = (
            "import numpy as np\n"
            "from csreject.theory import ensemble_chow_batch\n"
            "try:\n"
            "    print(ensemble_chow_batch(np.array([0.5 + 3e-10] * 2), 0.5 - 1e-10))\n"
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


def _chow_reference(eta, c):
    return CODE_ORACLE if max(eta) <= 1.0 - c else int(np.argmax(eta)) + 1


def _ensemble_reference(eta, c):
    positive = [k + 1 for k, e in enumerate(eta) if e > 1.0 - c]
    return positive[0] if positive else CODE_ORACLE


def _three_way_reference(p_pos, c):
    if p_pos > 1.0 - c:
        return 1
    return 2 if p_pos <= c else CODE_ORACLE


class TestArrayOracles:
    def _boundary_rows(self):
        """(eta, c) rows on every inequality of the rules, with ties, per K."""
        rows = []
        for c in (0.05, 0.2, 0.25, 0.3, 0.45):
            for K in range(2, 7):
                rest = np.full(K - 1, c / (K - 1))
                rows.append((np.concatenate([[1.0 - c], rest]), c))  # max eta == 1 - c exactly
                rows.append((np.concatenate([rest, [1.0 - c]]), c))
                rows.append((np.full(K, 1.0 / K), c))  # all tied
                if K >= 3:
                    rows.append((np.concatenate([[0.4, 0.4], np.full(K - 2, 0.2 / (K - 2))]), c))
        return rows

    def test_rows_agree_with_reference_loops(self):
        rng = np.random.default_rng(23)
        for K in range(2, 7):
            eta = rng.dirichlet(np.ones(K), size=400)
            c = rng.uniform(0.01, 0.49, size=400)
            np.testing.assert_array_equal(chow_rule_batch(eta, c), [_chow_reference(e, ci) for e, ci in zip(eta, c)])
            np.testing.assert_array_equal(
                ensemble_chow_batch(eta, c), [_ensemble_reference(e, ci) for e, ci in zip(eta, c)]
            )
        for eta, c in self._boundary_rows():
            assert int(chow_rule_batch(eta, c)) == _chow_reference(eta, c), (eta, c)
            assert int(ensemble_chow_batch(eta, c)) == _ensemble_reference(eta, c), (eta, c)

    def test_binary_three_way_agrees_with_reference_loop(self):
        rng = np.random.default_rng(29)
        c = rng.uniform(0.01, 0.49, size=300)
        # random posteriors, then posteriors exactly at c and at 1 - c
        p = np.concatenate([rng.uniform(0, 1, size=300), c, 1.0 - c, [0.0, 1.0, 0.5]])
        c = np.concatenate([c, c, c, [0.2, 0.2, 0.2]])
        np.testing.assert_array_equal(binary_three_way_batch(p, c), [_three_way_reference(*pc) for pc in zip(p, c)])
        assert binary_three_way_batch(c[0], c[0]) == 2
        assert binary_three_way_batch(1.0 - c[0], c[0]) == CODE_ORACLE

    def test_batch_of_rows_raises_on_any_bad_row(self):
        eta = np.array([[0.9, 0.1], [0.5 + 3e-10, 0.5 + 3e-10]])
        with pytest.raises(ValueError):
            ensemble_chow_batch(eta, np.array([0.2, 0.5 - 1e-10]))
        with pytest.raises(ValueError):
            chow_rule_batch(np.array([[0.9, 0.1], [0.7, 0.7]]), np.array([0.2, 0.2]))
        with pytest.raises(ValueError):
            chow_rule_batch(np.array([[0.9, 0.1]]), np.array([0.5]))
        with pytest.raises(ValueError):
            binary_three_way_batch(np.array([0.5, 1.2]), np.array([0.2, 0.2]))


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


class TestPhiPointwiseMin:
    @pytest.mark.parametrize("name", ["squared", "hinge"])
    def test_closed_form_matches_the_numerical_minimum(self, name):
        rng = np.random.default_rng(4)
        w_pos, w_neg = rng.uniform(0.0, 1.0, size=(2, 200))
        w_pos[:5] = w_neg[:5]  # equal weights: an even objective
        loss = get_loss(name)
        v = argmin_weighted_conditional_risk(loss, w_pos, w_neg)
        numeric = w_pos * loss.value(v) + w_neg * loss.value(-v)
        closed = theory._closed_forms(name).phi_min(w_pos, w_neg)
        np.testing.assert_allclose(closed, numeric, rtol=0, atol=1e-9)
        assert (closed <= numeric + 1e-12).all()  # no scanned point lies below the minimum


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

    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m, K = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            dist = FiniteDistribution(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(K), size=m))
            G = rng.normal(scale=2.0, size=(m, K))
            G[rng.random((m, K)) < 0.1] = 0.0  # exact zeros sit on both 0-1 margin terms
            cost = RejectionCost(float(rng.uniform(0.01, 0.49)))
            rep = audit_excess_chain(dist, G, cost, psi_losses=("squared", "hinge"))
            ref = _excess_reference(dist, G, cost)
            assert rep.lhs == pytest.approx(ref["lhs"], abs=1e-12)
            assert rep.rhs == pytest.approx(ref["rhs"], abs=1e-12)
            for name in ("squared", "hinge"):
                assert rep.psi_rhs[name] == pytest.approx(ref[name], abs=1e-12)
            assert rep.violated == (ref["lhs"] > ref["rhs"] + 1e-12)

    def test_single_instance_equals_its_row_of_the_batch(self):
        rng = np.random.default_rng(37)
        N, m, K = 40, 3, 4
        w = rng.dirichlet(np.ones(m), size=N)
        etas = rng.dirichlet(np.ones(K), size=(N, m))
        G = rng.normal(scale=2.0, size=(N, m, K))
        c = rng.uniform(0.01, 0.49, size=N)
        lhs, rhs, violated, psi_rhs, psi_violated = _excess_chain_batch(w, etas, G, c, ("squared", "hinge"))
        for i in range(N):
            rep = audit_excess_chain(
                FiniteDistribution(w[i], etas[i]), G[i], RejectionCost(float(c[i])), psi_losses=("squared", "hinge")
            )
            assert (rep.lhs, rep.rhs, rep.violated, rep.psi_violated) == (lhs[i], rhs[i], violated[i], psi_violated[i])
            assert rep.psi_rhs == {name: v[i] for name, v in psi_rhs.items()}

    def test_random_instances_small(self):
        n, violations, psi_violations = audit_excess_random(500, seed=13)
        assert violations == 0
        assert psi_violations == 0


def _excess_reference(dist, G, cost):
    """The excess-risk chain one support point at a time."""
    c = cost.c
    out = dict(lhs=0.0, rhs=0.0, squared=0.0, hinge=0.0)
    for wm, eta, g in zip(dist.weights, dist.etas, G):
        pos = [k for k in range(len(g)) if g[k] > 0]
        risk = 1.0 - eta[pos[0]] if len(pos) == 1 else c
        out["lhs"] += wm * (risk - min(c, 1.0 - max(eta)))
        for k in range(len(g)):
            w_pos, w_neg = eta[k] * c, (1.0 - eta[k]) * (1.0 - c)
            out["rhs"] += wm * (w_pos * (g[k] <= 0) + w_neg * (g[k] >= 0) - min(w_pos, w_neg))
    for name in ("squared", "hinge"):
        loss = get_loss(name)
        for k in range(dist.K):
            regret = 0.0
            for wm, eta, g in zip(dist.weights, dist.etas, G):
                w_pos, w_neg = eta[k] * c, (1.0 - eta[k]) * (1.0 - c)
                best = 4 * w_pos * w_neg / (w_pos + w_neg) if name == "squared" else 2 * min(w_pos, w_neg)
                regret += wm * (w_pos * loss.value(g[k]) + w_neg * loss.value(-g[k]) - best)
            out[name] += psi_inverse(name, cost, max(regret, 0.0))
    return out


class TestAuditDeterminism:
    def test_fixed_seed_repeats(self):
        assert audit_oracle_equivalence(3000, seed=5) == audit_oracle_equivalence(3000, seed=5)
        assert audit_calibration(n_draws=40, seed=5) == audit_calibration(n_draws=40, seed=5)
        assert audit_excess_random(700, seed=5) == audit_excess_random(700, seed=5)

    def test_counts_span_several_blocks(self):
        # draw counts that are not a multiple of the block size are honoured exactly
        assert audit_oracle_equivalence(1234, seed=3) == (1234, 0)
        assert audit_calibration(n_draws=777, seed=3) == {name: (777, 0) for name in CALIBRATION_LOSSES}
        assert audit_excess_random(1234, seed=3) == (1234, 0, 0)


    @pytest.mark.parametrize("n", [0, -1])
    def test_a_count_below_one_raises(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            audit_oracle_equivalence(n)
        with pytest.raises(ValueError, match="at least 1"):
            audit_calibration(n_draws=n)
        with pytest.raises(ValueError, match="at least 1"):
            audit_excess_random(n)


class TestCalibrationAudit:
    def test_small_sweep_agrees(self):
        results = audit_calibration(n_draws=60, seed=17)
        assert tuple(results) == CALIBRATION_LOSSES
        for name, (checked, disagreements) in results.items():
            assert checked == 60
            assert disagreements == 0, name

    def test_minimizer_realizes_chow(self):
        from csreject.losses import get_loss
        from csreject.surrogate import decide

        eta = np.array([0.9, 0.07, 0.03])
        cost = RejectionCost(0.2)
        g = conditional_risk_minimizer(get_loss("logistic"), eta, cost)
        assert decide(g).label == chow_rule_batch(eta, cost.c) == 1

    def test_minimizer_is_the_per_class_argmin(self):
        eta, cost = np.array([0.6, 0.25, 0.15]), RejectionCost(0.3)
        g = conditional_risk_minimizer(get_loss("savage"), eta, cost)
        ref = [argmin_weighted_conditional_risk(get_loss("savage"), e * 0.3, (1 - e) * 0.7) for e in eta]
        np.testing.assert_allclose(g, ref, atol=1e-6)
        # max eta = 0.6 <= 1 - c: both rules reject
        assert int(decide_batch(g)) < 1 and int(chow_rule_batch(eta, 0.3)) == CODE_ORACLE

    def test_miscalibrated_loss_disagrees(self):
        assert miscalibrated_witness(RejectionCost(0.2))


def test_random_simplex_is_valid():
    rng = np.random.default_rng(19)
    for _ in range(50):
        eta = random_simplex(rng, int(rng.integers(2, 8)))
        assert eta.min() >= 0
        assert eta.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the randomized audits against the former one-block-at-a-time loops


def _recording(monkeypatch, name, log):
    """Replace theory.<name> by a wrapper that logs (args, result) per call."""
    fn = getattr(theory, name)

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((args, out))
        return out

    monkeypatch.setattr(theory, name, wrapped)


def _former_oracle_audit(n_draws, seed, boundary_eps=1e-12):
    """The oracle audit as it checked each 500-draw block on its own; returns
    the counts and, in draw order, the oracles' inputs and codes."""
    rng = np.random.default_rng(seed)
    checked = disagreements = 0
    log = {"eta": [], "c": [], "chow": [], "ensemble": [], "p_pos": [], "c_binary": [], "binary": []}
    for start in range(0, n_draws, 500):
        n = min(500, n_draws - start)
        K = rng.integers(2, 7, size=n)
        eta = theory._random_simplices(rng, K, 6)
        c = rng.uniform(0.01, 0.49, size=n)
        keep = ~(np.abs(eta - (1.0 - c)[:, None]) < boundary_eps).any(axis=1)
        K, eta, c = K[keep], eta[keep], c[keep]
        ref, ens = chow_rule_batch(eta, c), ensemble_chow_batch(eta, c)
        ok = theory._codes_agree(ens, ref)
        binary = K == 2
        codes = binary_three_way_batch(eta[binary, 0], c[binary])
        ok[binary] &= theory._codes_agree(codes, ref[binary])
        checked += len(ref)
        disagreements += int((~ok).sum())
        for key, v in zip(log, (eta, c, ref, ens, eta[binary, 0], c[binary], codes)):
            log[key].append(v)
    return (checked, disagreements), {key: np.concatenate(v) for key, v in log.items()}


def _former_excess_audit(n_instances, seed, psi_losses=("squared", "hinge")):
    """The excess-chain audit as it checked each (m, K) group of each
    500-draw block on its own; returns the counts and the chain's calls."""
    rng = np.random.default_rng(seed)
    violations = psi_violations = 0
    calls = []
    for start in range(0, n_instances, 500):
        n = min(500, n_instances - start)
        m = rng.integers(1, 6, size=n)
        K = rng.integers(2, 5, size=n)
        c = rng.uniform(0.01, 0.49, size=n)
        for m_g, K_g in sorted(set(zip(m.tolist(), K.tolist()))):
            c_g = c[(m == m_g) & (K == K_g)]
            w = rng.standard_exponential((len(c_g), m_g))
            w /= w.sum(axis=-1, keepdims=True)
            etas = rng.standard_exponential((len(c_g), m_g, K_g))
            etas /= etas.sum(axis=-1, keepdims=True)
            G = rng.normal(scale=2.0, size=(len(c_g), m_g, K_g))
            theory._check_support(w, etas)
            out = _excess_chain_batch(w, etas, G, theory._check_costs(c_g), psi_losses)
            calls.append(((w, etas, G, c_g), out))
            violations += int(out[2].sum())
            psi_violations += int(out[4].sum())
    return (n_instances, violations, psi_violations), calls


def _by_group(calls):
    """Per (m, K): each input and output of the chain, concatenated in call order."""
    groups = {}
    for (w, etas, G, c, *_), (lhs, rhs, violated, psi_rhs, psi_violated) in calls:
        fields = {"w": w, "etas": etas, "G": G, "c": c, "lhs": lhs, "rhs": rhs, "violated": violated}
        fields.update({f"psi_rhs/{name}": v for name, v in psi_rhs.items()}, psi_violated=psi_violated)
        groups.setdefault(etas.shape[1:], []).append(fields)
    return {
        shape: {key: np.concatenate([f[key] for f in parts]) for key in parts[0]} for shape, parts in groups.items()
    }


class TestAuditsMatchTheFormerLoops:
    COUNTS = [1, 499, 500, 501, 4001, 8999]
    # None keeps the default evaluation chunk; 500 is one block; 10**6 exceeds every count
    CHUNKS = [None, 500, 10**6]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n_draws", COUNTS)
    def test_oracle_codes_per_draw(self, monkeypatch, n_draws, chunk):
        expected, ref = _former_oracle_audit(n_draws, seed=n_draws)
        if chunk is not None:
            monkeypatch.setattr(theory, "_CHUNK", chunk)
        logs = {name: [] for name in ("chow_rule_batch", "ensemble_chow_batch", "binary_three_way_batch")}
        for name, log in logs.items():
            _recording(monkeypatch, name, log)
        assert theory.audit_oracle_equivalence(n_draws, seed=n_draws) == expected
        got = {}
        for name, keys in (
            ("chow_rule_batch", ("eta", "c", "chow")),
            ("ensemble_chow_batch", ("eta", "c", "ensemble")),
            ("binary_three_way_batch", ("p_pos", "c_binary", "binary")),
        ):
            for i, key in enumerate(keys):
                got[key] = np.concatenate([(*args, out)[i] for args, out in logs[name]])
        assert got.keys() == ref.keys()
        for key in ref:
            np.testing.assert_array_equal(got[key], ref[key], err_msg=key)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n_instances", COUNTS)
    def test_excess_chain_per_instance(self, monkeypatch, n_instances, chunk):
        expected, ref_calls = _former_excess_audit(n_instances, seed=n_instances)
        if chunk is not None:
            monkeypatch.setattr(theory, "_CHUNK", chunk)
        calls = []
        _recording(monkeypatch, "_excess_chain_batch", calls)
        assert theory.audit_excess_random(n_instances, seed=n_instances) == expected
        ref, got = _by_group(ref_calls), _by_group(calls)
        assert sorted(got) == sorted(ref)
        assert sum(len(g["c"]) for g in got.values()) == n_instances
        for shape in ref:
            assert got[shape].keys() == ref[shape].keys()
            for key in ref[shape]:
                np.testing.assert_array_equal(got[shape][key], ref[shape][key], err_msg=f"{shape} {key}")

    def test_excess_chain_checks_each_group_once_per_chunk(self, monkeypatch):
        # 2 000 instances fall in 15 (m, K) groups of under 4 000 draws each:
        # one chain call per group, where one per group and block made 60
        calls = []
        _recording(monkeypatch, "_excess_chain_batch", calls)
        theory.audit_excess_random(2000, seed=2)
        assert len(calls) == 15 and len(_former_excess_audit(2000, seed=2)[1]) == 60
