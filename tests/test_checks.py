"""The gradient suite: stacked finite differences against per-entry references."""

import numpy as np
import pytest

from csreject import checks, cli
from csreject.checks import KINK_EPS, KINKS, check_margin_losses, check_model_gradients, run_gradcheck
from csreject.core import RejectionCost
from csreject.losses import MARGIN_LOSSES, get_loss
from csreject.models import make_model
from csreject.surrogate import cs_loss_batch


def _logistic_batch(G, y):
    return cs_loss_batch(get_loss("logistic"), RejectionCost(0.25), G, y)


def _per_entry_grad(model, X, y, loss_batch, h=1e-5):
    """Reference: perturb one parameter entry in place at a time, one objective call per sign."""

    def objective():
        G, _ = model.forward(X)
        return float(loss_batch(G, y)[0].mean())

    grads = {}
    for key, arr in model.params.items():
        g = np.zeros(arr.size)
        for i in range(arr.size):
            old = arr.flat[i]
            arr.flat[i] = old + h
            hi = objective()
            arr.flat[i] = old - h
            lo = objective()
            arr.flat[i] = old
            g[i] = (hi - lo) / (2.0 * h)
        grads[key] = g.reshape(arr.shape)
    return grads


def _assert_grads_match(numeric, ref):
    assert numeric.keys() == ref.keys()
    for key in ref:
        np.testing.assert_allclose(numeric[key], ref[key], rtol=0, atol=1e-9, err_msg=key)


class TestStackedNumericGradient:
    @pytest.mark.parametrize("seed", [0, 13, 19])
    def test_suite_matches_per_entry_loop(self, monkeypatch, seed):
        calls = []
        stacked = checks._numeric_param_grad

        def recording(model, X, y, loss_batch):
            grads = stacked(model, X, y, loss_batch)
            calls.append((model, X, y, loss_batch, grads))
            return grads

        monkeypatch.setattr(checks, "_numeric_param_grad", recording)
        results = run_gradcheck(seed)
        # 33 cases: 9 margin losses on a grid, 24 through a model
        assert len(results) == 33 and len(calls) == 24
        for model, X, y, loss_batch, grads in calls:
            _assert_grads_match(grads, _per_entry_grad(model, X, y, loss_batch))

    @pytest.mark.parametrize("block", [1, 7, 16, 1000])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_any_block_size_matches_per_entry_loop(self, monkeypatch, kind, block):
        # MLP sizes W1 320, b1 64, W2 192, b2 3; linear W 15, b 3: full and partial blocks
        monkeypatch.setattr(checks, "_BLOCK", block)
        rng = np.random.default_rng(4)
        model = make_model(kind, 5, 3, rng)
        X, y = rng.normal(size=(8, 5)), rng.integers(1, 4, size=8)
        before = {key: arr.copy() for key, arr in model.params.items()}
        grads = checks._numeric_param_grad(model, X, y, _logistic_batch)
        for key in before:
            np.testing.assert_array_equal(model.params[key], before[key])
        _assert_grads_match(grads, _per_entry_grad(model, X, y, _logistic_batch))

    def test_margin_losses_match_per_point_loop(self):
        grid, h = np.linspace(-5.0, 5.0, 201), 1e-6
        results = check_margin_losses()
        assert results.keys() == MARGIN_LOSSES.keys()
        for name, loss in MARGIN_LOSSES.items():
            worst = 0.0
            for z in grid:
                if any(abs(z - k) < KINK_EPS for k in KINKS.get(name, ())):
                    continue
                numeric = (float(loss.value(z + h)) - float(loss.value(z - h))) / (2.0 * h)
                analytic = float(loss.grad(z))
                worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic)))
            assert results[name][0] == pytest.approx(worst, rel=1e-9, abs=1e-15), name
            assert results[name][1] == (worst < 1e-5)


class TestStackedForward:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_matches_each_copy(self, kind):
        rng = np.random.default_rng(3)
        model = make_model(kind, 4, 3, rng)
        X = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(model.forward(X)[0], model.forward(X, model.params)[0])
        for key, arr in model.params.items():
            stack = arr + rng.normal(size=(2, 5, *arr.shape))
            G, _ = model.forward(X, {**model.params, key: stack})
            assert G.shape == (2, 5, 6, 3)
            for i in range(2):
                for j in range(5):
                    one, _ = model.forward(X, {**model.params, key: stack[i, j]})
                    np.testing.assert_array_equal(G[i, j], one)
        stacks = {key: arr + rng.normal(size=(3, *arr.shape)) for key, arr in model.params.items()}
        G, _ = model.forward(X, stacks)
        for i in range(3):
            one, _ = model.forward(X, {key: s[i] for key, s in stacks.items()})
            np.testing.assert_array_equal(G[i], one)


class TestCheckModelGradients:
    @pytest.mark.parametrize(
        "kind, key, corrupt",
        [
            ("linear", "W", lambda g: 1.01 * g),
            ("linear", "b", np.zeros_like),
            ("mlp", "W1", lambda g: 1.01 * g),
            ("mlp", "b2", np.zeros_like),
        ],
    )
    def test_wrong_analytic_gradient_fails(self, monkeypatch, kind, key, corrupt):
        def make_wrong(*args):
            model = make_model(*args)
            backward = model.backward

            def wrong(cache, dG):
                grads = backward(cache, dG)
                grads[key] = corrupt(grads[key])
                return grads

            model.backward = wrong
            return model

        assert check_model_gradients(_logistic_batch, 3, kind, seed=5)[1]
        monkeypatch.setattr(checks, "make_model", make_wrong)
        err, ok = check_model_gradients(_logistic_batch, 3, kind, seed=5)
        assert not ok and err > 1e-4

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_every_draw_on_a_kink_fails(self, kind):
        # margins pinned to the kink: no redraw can leave it, so the check must not pass
        err, ok = check_model_gradients(
            _logistic_batch, 3, kind, seed=0, margins=lambda G: np.zeros_like(G), kinks=(0.0,)
        )
        assert not ok and err == float("inf")


class TestGradcheckCli:
    def test_prints_33_sorted_pass_lines(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 33
        assert all(line.startswith("[PASS] ") for line in lines)
        names = [line[len("[PASS] ") :].split(":")[0] for line in lines]
        assert names == sorted(names) and len(set(names)) == 33

    def test_a_failed_case_prints_every_line_and_exits_1(self, monkeypatch, capsys):
        results = {"b": (1e-3, False), "a": (1e-9, True), "c": (0.0, True)}
        monkeypatch.setattr(cli, "run_gradcheck", lambda seed: results)
        assert cli.main(["gradcheck"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] a: max rel err 1.00e-09",
            "[FAIL] b: max rel err 1.00e-03",
            "[PASS] c: max rel err 0.00e+00",
        ]


class TestAuditCli:
    def test_a_failed_audit_prints_every_line_and_exits_1(self, monkeypatch, capsys):
        from csreject import theory

        monkeypatch.setattr(theory, "audit_calibration", lambda n_draws, seed: {"a": (3, 1), "b": (3, 0)})
        monkeypatch.setattr(theory, "audit_excess_random", lambda n, seed: (5, 0, 2))
        assert cli.main(["audit", "--draws", "100"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] oracle equivalence: 100 draws, 0 disagreements",
            "[FAIL] calibration (a): 3 draws, 1 disagreements",
            "[PASS] calibration (b): 3 draws, 0 disagreements",
            "[FAIL] excess-risk chain: 5 instances, 0 violations, 2 psi-bound violations",
            "[PASS] miscalibrated-loss witness disagrees with the oracle",
        ]
