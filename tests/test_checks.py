"""The gradient suite: stacked finite differences against per-entry references."""

import numpy as np
import pytest

from csreject import baselines, checks, cli
from csreject.baselines import sce_loss_batch
from csreject.checks import (
    KINK_DRAWS,
    KINK_EPS,
    KINKS,
    GradCase,
    check_margin_losses,
    check_model_gradients,
    run_gradcheck,
)
from csreject.core import RejectionCost
from csreject.harness import METHODS
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


def _former_numeric_grad(model, X, y, loss_batch, h=1e-5):
    """The stacked differences as they were: a fresh np.tile of 16 entries per pass."""
    block = 16
    n = len(X)
    grads = {}
    for key, arr in model.params.items():
        flat = arr.ravel()
        g = np.empty(flat.size)
        for start in range(0, flat.size, block):
            idx = np.arange(start, min(start + block, flat.size))
            rows = np.arange(len(idx))
            copies = np.tile(flat, (2, len(idx), 1))
            copies[0, rows, idx] = flat[idx] + h
            copies[1, rows, idx] = flat[idx] - h
            G, _ = model.forward(X, {**model.params, key: copies.reshape(-1, *arr.shape)})
            losses, _ = loss_batch(G.reshape(-1, G.shape[-1]), np.tile(y, 2 * len(idx)))
            hi, lo = losses.reshape(2, len(idx), n).mean(axis=-1)
            g[idx] = (hi - lo) / (2.0 * h)
        grads[key] = g.reshape(arr.shape)
    return grads


def _per_case_draw(n_out, kind, seed=0, n_labels=None, margins=None, kinks=()):
    """Reference: one case's kink-filtered draw, (model, X, y, G, cache), or None on kinks only."""
    rng, d, n = np.random.default_rng(seed), 5, 8
    model = make_model(kind, d, n_out, rng)
    n_labels = n_out if n_labels is None else n_labels
    for _ in range(KINK_DRAWS):
        X = rng.normal(size=(n, d))
        y = rng.integers(1, n_labels + 1, size=n) if n_labels > 1 else np.ones(n, dtype=int)
        G, cache = model.forward(X)
        near = [margins(G) - k for k in kinks] if margins is not None else []
        if kind == "mlp":
            near.append(X @ model.params["W1"].T + model.params["b1"])
        if all((np.abs(v) >= KINK_EPS).all() for v in near):
            return model, X, y, G, cache
    return None


def _per_case_check(loss_batch, n_out, kind, seed=0, n_labels=None, margins=None, kinks=()):
    """Reference: one model check with its own kink-filtered draw and its own numeric pass."""
    draw = _per_case_draw(n_out, kind, seed, n_labels, margins, kinks)
    if draw is None:
        return float("inf"), False
    model, X, y, G, cache = draw
    n = len(X)
    _, dG = loss_batch(G, y)
    analytic = model.backward(cache, dG / n)
    numeric = _former_numeric_grad(model, X, y, loss_batch)
    worst = 0.0
    for key in analytic:
        denom = np.maximum(1.0, np.abs(analytic[key]))
        worst = max(worst, float((np.abs(analytic[key] - numeric[key]) / denom).max()))
    return worst, worst < 1e-4


def _per_case_suite(seed):
    """Reference: the gradient suite with one _per_case_check per model case."""
    results = dict(check_margin_losses())
    cost, K = RejectionCost(0.25), 3
    for name in MARGIN_LOSSES:
        batch = METHODS[f"cs-{name}"].loss_batch(K, cost)
        for kind in ("linear", "mlp"):
            results[f"cs-{name}/{kind}"] = _per_case_check(
                batch, K, kind, seed=seed, margins=lambda G: np.concatenate([G, -G]), kinks=KINKS.get(name, ())
            )
    for kind in ("linear", "mlp"):
        results[f"sce/{kind}"] = _per_case_check(METHODS["sce"].loss_batch(K, cost), K, kind, seed=seed)
        results[f"defer/{kind}"] = _per_case_check(METHODS["defer"].loss_batch(K, cost), K + 1, kind, seed=seed)
    V = baselines.angle_vertices(K)
    for kind in ("linear", "mlp"):
        results[f"angle/{kind}"] = _per_case_check(
            METHODS["angle"].loss_batch(K, cost),
            K - 1,
            kind,
            seed=seed + 7,
            n_labels=K,
            margins=lambda G: -G @ V.T,
            kinks=(0.0, 1.0),
        )
    return results


def _assert_grads_equal(numeric, ref):
    assert numeric.keys() == ref.keys()
    for key in ref:
        np.testing.assert_array_equal(numeric[key], ref[key], err_msg=key)


def _assert_grads_match(numeric, ref):
    assert numeric.keys() == ref.keys()
    for key in ref:
        np.testing.assert_allclose(numeric[key], ref[key], rtol=0, atol=1e-9, err_msg=key)


class TestStackedNumericGradient:
    @pytest.mark.parametrize("seed", [0, 1, 13, 19])
    def test_suite_equals_per_case_reference(self, seed):
        # every error bit for bit: seed 19 has a case whose kink filter takes a later draw
        assert run_gradcheck(seed) == _per_case_suite(seed)

    @pytest.mark.parametrize("seed, groups", [(0, 6), (13, 6), (19, 7)])
    def test_suite_matches_per_entry_loop(self, monkeypatch, seed, groups):
        calls = []
        stacked = checks._numeric_param_grad

        def recording(model, X, y, loss_batches):
            grads = stacked(model, X, y, loss_batches)
            calls.append((model, X, y, loss_batches, grads))
            return grads

        monkeypatch.setattr(checks, "_numeric_param_grad", recording)
        results = run_gradcheck(seed)
        # 33 cases: 9 margin losses on a grid, 24 through a model, differenced
        # in one numeric pass per draw: per kind, the L_CS losses and SCE on
        # one draw (two at seed 19, where the kinked MLP losses take a later
        # one), DEFER on one and ANGLE on one
        assert len(results) == 33 and len(calls) == groups
        assert sum(len(loss_batches) for *_, loss_batches, _ in calls) == 24
        for model, X, y, loss_batches, grads in calls:
            assert len(grads) == len(loss_batches)
            for loss_batch, case_grads in zip(loss_batches, grads):
                _assert_grads_match(case_grads, _per_entry_grad(model, X, y, loss_batch))
                # each copy is scored by its own forward and loss rows, whatever the block
                _assert_grads_equal(case_grads, _former_numeric_grad(model, X, y, loss_batch))

    @pytest.mark.parametrize("block", [1, 7, 16, 64, 1000])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_any_block_size_matches_per_entry_loop(self, monkeypatch, kind, block):
        # MLP sizes W1 320, b1 64, W2 192, b2 3; linear W 15, b 3: full and partial blocks
        monkeypatch.setattr(checks, "_BLOCK", block)
        rng = np.random.default_rng(4)
        model = make_model(kind, 5, 3, rng)
        X, y = rng.normal(size=(8, 5)), rng.integers(1, 4, size=8)
        before = {key: arr.copy() for key, arr in model.params.items()}
        # two losses on the same passes: each gets its own differences
        losses = [_logistic_batch, sce_loss_batch]
        grads = checks._numeric_param_grad(model, X, y, losses)
        for key in before:
            np.testing.assert_array_equal(model.params[key], before[key])
        assert len(grads) == 2
        for loss_batch, loss_grads in zip(losses, grads):
            _assert_grads_match(loss_grads, _per_entry_grad(model, X, y, loss_batch))

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_nothing_carries_over_between_parameters_or_calls(self, kind):
        # a second call on the same model, with other rows of the same shape and
        # every parameter changed, equals a fresh evaluation; a repeated call repeats it
        rng = np.random.default_rng(8)
        model = make_model(kind, 5, 3, rng)
        X, y = rng.normal(size=(8, 5)), rng.integers(1, 4, size=8)
        X2, y2 = rng.normal(size=(8, 5)), rng.integers(1, 4, size=8)
        (first,) = checks._numeric_param_grad(model, X, y, [_logistic_batch])
        _assert_grads_equal(first, _former_numeric_grad(model, X, y, _logistic_batch))
        for arr in model.params.values():
            arr += rng.normal(scale=0.1, size=arr.shape)
        (second,) = checks._numeric_param_grad(model, X2, y2, [_logistic_batch])
        _assert_grads_equal(second, _former_numeric_grad(model, X2, y2, _logistic_batch))
        _assert_grads_match(second, _per_entry_grad(model, X2, y2, _logistic_batch))
        (third,) = checks._numeric_param_grad(model, X2, y2, [_logistic_batch])
        _assert_grads_equal(third, second)

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

        ((_, ok),) = check_model_gradients([GradCase(_logistic_batch)], 3, kind, seed=5)
        assert ok
        monkeypatch.setattr(checks, "make_model", make_wrong)
        ((err, ok),) = check_model_gradients([GradCase(_logistic_batch)], 3, kind, seed=5)
        assert not ok and err > 1e-4

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_every_draw_on_a_kink_fails(self, kind):
        # margins pinned to the kink: no redraw can leave it, so the check must not pass
        ((err, ok),) = check_model_gradients(
            [GradCase(_logistic_batch, margins=lambda G: np.zeros_like(G), kinks=(0.0,))], 3, kind, seed=0
        )
        assert not ok and err == float("inf")

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_a_wrong_member_of_a_shared_pass_fails_alone(self, monkeypatch, kind):
        # logistic, hinge and sce share one draw at seed 0; logistic's analytic
        # gradient is 1% off, and only logistic may fail
        calls = []
        stacked = checks._numeric_param_grad
        monkeypatch.setattr(checks, "_numeric_param_grad", lambda *args: calls.append(len(args[3])) or stacked(*args))

        def wrong_logistic(G, y):
            losses, dG = _logistic_batch(G, y)
            return losses, 1.01 * dG

        hinge = lambda G, y: cs_loss_batch(get_loss("hinge"), RejectionCost(0.25), G, y)
        cs_margins = lambda G: np.concatenate([G, -G])
        cases = [GradCase(wrong_logistic), GradCase(hinge, cs_margins, KINKS["hinge"]), GradCase(sce_loss_batch)]
        (logistic_err, logistic_ok), hinge_result, sce_result = check_model_gradients(cases, 3, kind, seed=0)
        assert calls == [3]
        assert not logistic_ok and logistic_err > 1e-4
        assert hinge_result == _per_case_check(hinge, 3, kind, seed=0, margins=cs_margins, kinks=KINKS["hinge"])
        assert sce_result == _per_case_check(sce_loss_batch, 3, kind, seed=0)
        assert hinge_result[1] and sce_result[1]

    def test_a_member_on_a_later_draw_is_differenced_on_its_own_draw(self, monkeypatch):
        # at seed 19 the MLP's first draw puts a margin within KINK_EPS of the
        # hinge kink, so hinge moves to a later draw than logistic and sce
        calls = []
        stacked = checks._numeric_param_grad

        def recording(model, X, y, loss_batches):
            calls.append((X, y, loss_batches))
            return stacked(model, X, y, loss_batches)

        monkeypatch.setattr(checks, "_numeric_param_grad", recording)
        hinge = lambda G, y: cs_loss_batch(get_loss("hinge"), RejectionCost(0.25), G, y)
        cs_margins = lambda G: np.concatenate([G, -G])
        cases = [GradCase(_logistic_batch), GradCase(hinge, cs_margins, KINKS["hinge"]), GradCase(sce_loss_batch)]
        results = check_model_gradients(cases, 3, "mlp", seed=19)
        assert [loss_batches for *_, loss_batches in calls] == [[_logistic_batch, sce_loss_batch], [hinge]]
        first = _per_case_draw(3, "mlp", seed=19)
        later = _per_case_draw(3, "mlp", seed=19, margins=cs_margins, kinks=KINKS["hinge"])
        assert not np.array_equal(first[1], later[1])
        for (X, y, _), (_, X_ref, y_ref, _, _) in zip(calls, [first, later]):
            np.testing.assert_array_equal(X, X_ref)
            np.testing.assert_array_equal(y, y_ref)
        assert results == [
            _per_case_check(_logistic_batch, 3, "mlp", seed=19),
            _per_case_check(hinge, 3, "mlp", seed=19, margins=cs_margins, kinks=KINKS["hinge"]),
            _per_case_check(sce_loss_batch, 3, "mlp", seed=19),
        ]
        assert all(ok for _, ok in results)


    @pytest.mark.parametrize("seed, models, draws", [(0, 6, 9), (13, 6, 9), (19, 6, 11)])
    def test_a_family_builds_one_model_and_makes_each_draw_once(self, monkeypatch, seed, models, draws):
        # the cases of a family share the seed's model and its draw sequence,
        # drawn as far as the case whose kink filter walks furthest
        made, forwards = [], []

        def counting(*args):
            model = make_model(*args)
            forward = model.forward

            def unperturbed(X, params=None, work=None):
                if params is None:
                    forwards.append(X)
                return forward(X, params, work)

            model.forward = unperturbed
            made.append(model)
            return model

        monkeypatch.setattr(checks, "make_model", counting)
        assert run_gradcheck(seed) == _per_case_suite(seed)
        assert (len(made), len(forwards)) == (models, draws)


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


    def test_a_negative_seed_is_a_usage_error_before_any_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_gradcheck", lambda seed: pytest.fail("a check ran"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed must be at least 0, got -1" in captured.err


class TestAuditCli:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--draws", "0"),
            ("--draws", "-3"),
            ("--calibration-draws", "0"),
            ("--excess-instances", "-1"),
            ("--seed", "-1"),  # not a count, but below 0: numpy's generators refused it with a traceback, exit status 1
        ],
    )
    def test_a_count_below_one_is_a_usage_error_before_any_audit(self, monkeypatch, capsys, flag, value):
        from csreject import theory

        for name in ("audit_oracle_equivalence", "audit_calibration", "audit_excess_random", "miscalibrated_witness"):
            monkeypatch.setattr(theory, name, lambda *args, **kwargs: pytest.fail("an audit ran"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

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
