import copy
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from csreject import models as models_mod, weaksup
from csreject.checks import GradCase, check_model_gradients, run_gradcheck
from csreject.core import Dataset, RejectionCost
from csreject.losses import get_loss
from csreject.models import (
    AdamState,
    LinearModel,
    MlpModel,
    TrainConfig,
    adam_step,
    flat_buffer,
    make_model,
    stack_cells,
    train,
)
from csreject.surrogate import cs_loss_batch, decide_batch
from csreject.core import compute_metrics


class TestForward:
    def test_linear_identity(self):
        model = LinearModel(2, 2, np.random.default_rng(0))
        model.params["W"] = np.eye(2)
        g, _ = model.forward(np.array([3.0, -1.0]))
        np.testing.assert_allclose(g, [[3.0, -1.0]])

    def test_mlp_zero_weights_returns_bias(self):
        model = MlpModel(3, 2, np.random.default_rng(0))
        model.params["W1"][:] = model.params["W2"][:] = 0.0
        model.params["b2"] = np.array([0.7, -0.3])
        g, _ = model.forward(np.zeros((4, 3)))
        np.testing.assert_allclose(g, np.tile([0.7, -0.3], (4, 1)))

    def test_mlp_hidden_layer_has_width_64(self):
        model = make_model("mlp", 3, 2, np.random.default_rng(0))
        shapes = {k: v.shape for k, v in model.params.items()}
        assert shapes == {"W1": (64, 3), "b1": (64,), "W2": (2, 64), "b2": (2,)}

    def test_make_model_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("transformer", 2, 2, np.random.default_rng(0))


class TestBackward:
    def test_linear_weight_gradient_is_outer_product(self):
        model = LinearModel(3, 2, np.random.default_rng(0))
        x = np.array([[1.0, 2.0, -1.0]])
        upstream = np.array([[0.5, -2.0]])
        _, cache = model.forward(x)
        grads = model.backward(cache, upstream)
        np.testing.assert_allclose(grads["W"], np.outer(upstream[0], x[0]))
        np.testing.assert_allclose(grads["b"], upstream[0])

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(0)
        model = MlpModel(4, 3, rng)
        X = rng.normal(size=(5, 4))
        _, cache = model.forward(X)
        grads = model.backward(cache, np.zeros((5, 3)))
        for g in grads.values():
            assert (g == 0).all()

    @pytest.mark.parametrize("work", [None, {}])
    def test_relu_mask_of_the_hidden_layer_equals_that_of_the_pre_activation(self, work):
        # a hidden unit with zero weights has a pre-activation of exactly 0 on
        # finite rows, and a NaN feature makes a row's pre-activations NaN
        model = MlpModel(2, 2, np.random.default_rng(0))
        model.params["W1"][0] = 0.0
        X = np.array([[0.5, -1.0], [np.nan, 1.0], [2.0, 0.3]])
        dG = np.random.default_rng(1).normal(size=(3, 2))
        p = model.params
        pre = X @ p["W1"].T + p["b1"]
        assert (pre == 0.0).any() and np.isnan(pre).any()
        h = np.maximum(pre, 0.0)
        dpre = (dG @ p["W2"]) * (pre > 0)
        expected = {"W2": dG.T @ h, "b2": dG.sum(axis=0), "W1": dpre.T @ X, "b1": dpre.sum(axis=0)}
        _, cache = model.forward(X, work=work)
        grads = model.backward(cache, dG, work)
        for key, value in expected.items():
            np.testing.assert_array_equal(grads[key], value)
            np.testing.assert_array_equal(np.signbit(grads[key]), np.signbit(value))

    @pytest.mark.parametrize("work", [None, {}], ids=["no-work", "work"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_a_backward_pass_uses_the_weights_of_its_forward_pass(self, kind, work):
        # the model's own parameters differ from the ones its forward pass is given
        rng = np.random.default_rng(3)
        model, holder = make_model(kind, 4, 3, rng), make_model(kind, 4, 3, rng)
        X, dG = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        _, cache = model.forward(X, holder.params, work)
        grads = model.backward(cache, dG, work)
        _, cache = holder.forward(X)
        expected = holder.backward(cache, dG)
        assert grads.keys() == expected.keys()
        for key, value in expected.items():
            np.testing.assert_array_equal(grads[key], value)

    @pytest.mark.parametrize("work", [None, {}], ids=["no-work", "work"])
    @pytest.mark.parametrize("cells", [(), (3,)], ids=["alone", "stack"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_out_views_get_the_bits_of_new_arrays(self, kind, cells, work):
        rng = np.random.default_rng(4)
        model = make_model(kind, 4, 3, rng)
        params = {k: v + rng.normal(size=(*cells, *v.shape)) for k, v in model.params.items()}
        X, dG = rng.normal(size=(*cells, 6, 4)), rng.normal(size=(*cells, 6, 3))
        _, cache = model.forward(X, params, work)
        expected = {k: v.copy() for k, v in model.backward(cache, dG, work).items()}
        grad, out = flat_buffer({k: v.shape for k, v in params.items()})
        grad[...] = np.nan
        grads = model.backward(cache, dG, work, out)
        assert grads.keys() == expected.keys()
        for key, value in expected.items():
            assert grads[key] is out[key]
            np.testing.assert_array_equal(out[key].view(np.uint64), value.view(np.uint64))

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_full_model_finite_differences(self, kind):
        cost = RejectionCost(0.25)
        loss = get_loss("logistic")
        batch = lambda G, y: cs_loss_batch(loss, cost, G, y)
        ((err, ok),) = check_model_gradients([GradCase(batch)], 3, kind, seed=5)
        assert ok, f"max rel err {err}"

    @pytest.mark.parametrize("seed", [13, 19])
    def test_suite_avoids_kinks(self, seed):
        # at these seeds the first draw puts a hinge, ramp, bent-hinge or ReLU kink inside the difference step
        results = run_gradcheck(seed)
        assert len(results) == 33
        assert [name for name, (_, ok) in results.items() if not ok] == []


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        params = {"W": np.ones((2, 2))}
        state = AdamState()
        for _ in range(10):
            adam_step(state, params["W"], np.zeros((2, 2)), lr=0.1)
        np.testing.assert_allclose(params["W"], 1.0)

    def test_first_step_magnitude_near_lr(self):
        params = {"w": np.array([0.0])}
        state = AdamState()
        adam_step(state, params["w"], np.array([3.7]), lr=0.01)
        # bias correction makes the first update approximately lr * sign(g)
        assert params["w"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(9)
            params = {"w": np.zeros(4)}
            state = AdamState()
            for _ in range(50):
                adam_step(state, params["w"], rng.normal(size=4), lr=0.05)
            return params["w"]

        np.testing.assert_array_equal(run(), run())


def _per_key_adam(state, params, grads, lr):
    """Reference: one Adam update per parameter, moments kept per key."""
    state["t"] += 1
    t = state["t"]
    for key, g in grads.items():
        m = state["m"].setdefault(key, np.zeros_like(params[key]))
        v = state["v"].setdefault(key, np.zeros_like(params[key]))
        state["m"][key] = m = 0.9 * m + (1.0 - 0.9) * g
        state["v"][key] = v = 0.999 * v + (1.0 - 0.999) * g**2
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        params[key] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _split(flat, shapes):
    """Per-key views of a flat array that holds the keys of shapes one after another."""
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]
    return {key: part.reshape(shape) for (key, shape), part in zip(shapes.items(), np.split(flat, ends))}


def _per_key_adam_on_flat(state, params, grad, lr):
    """_per_key_adam on the per-key views of flat arrays laid out as state["shapes"]."""
    _per_key_adam(state, _split(params, state["shapes"]), _split(grad, state["shapes"]), lr)


class TestFlatAdam:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_equals_per_key_updates(self, kind):
        rng = np.random.default_rng(3)
        model = make_model(kind, 4, 3, np.random.default_rng(1))
        ref = copy.deepcopy(model.params)
        flat_params, _, _ = stack_cells([model], [None], [0])
        flat = model.params  # views of flat_params
        grad, grads = flat_buffer({k: v.shape for k, v in flat.items()})
        state, ref_state = AdamState(), {"t": 0, "m": {}, "v": {}}
        # the backward passes write the keys in another order than params
        keys = list(flat)[::-1]
        for _ in range(30):
            for k in keys:
                grads[k][...] = rng.normal(size=flat[k].shape) * rng.choice([1e-6, 1.0, 1e3])
            adam_step(state, flat_params, grad, lr=0.01)
            _per_key_adam(ref_state, ref, grads, lr=0.01)
        for k in flat:
            np.testing.assert_array_equal(flat[k], ref[k])

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_training_equals_per_key_training(self, kind, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        data = Dataset(X, np.where(X[:, 0] + 0.3 * rng.normal(size=200) > 0, 1, 2), K=2)
        batch = lambda G, y: cs_loss_batch(get_loss("sigmoid"), RejectionCost(0.2), G, y)
        config = TrainConfig(epochs=20, batch_size=32, learning_rate=0.01)
        flat = make_model(kind, 3, 2, np.random.default_rng(7))
        flat_trace = train([flat], data, [batch], config, [6])[0]
        ref = make_model(kind, 3, 2, np.random.default_rng(7))
        ref_state = {"t": 0, "m": {}, "v": {}, "shapes": {k: (1, *v.shape) for k, v in ref.params.items()}}
        monkeypatch.setattr(models_mod, "AdamState", lambda: ref_state)
        monkeypatch.setattr(models_mod, "adam_step", _per_key_adam_on_flat)
        ref_trace = train([ref], data, [batch], config, [6])[0]
        assert ref_state["t"] == 20 * 7
        assert flat_trace == ref_trace
        for k in flat.params:
            np.testing.assert_array_equal(flat.params[k], ref.params[k])


    def test_pu_training_equals_per_key_training(self, monkeypatch):
        rng = np.random.default_rng(8)
        positives, unlabeled = rng.normal(size=(60, 3)) + 1.0, rng.normal(size=(200, 3))
        pu = Dataset(np.concatenate([positives, unlabeled]), np.repeat([1, 2], [60, 200]), K=2)
        loss = lambda G, y: cs_loss_batch(get_loss("sigmoid"), RejectionCost(0.2), G, y)
        config = TrainConfig(epochs=10, batch_size=32, learning_rate=0.01)
        flat = make_model("mlp", 3, 2, np.random.default_rng(10))
        flat_out = weaksup.train_pu([flat], pu, [loss], 0.7, config, [9])
        ref = make_model("mlp", 3, 2, np.random.default_rng(10))
        ref_state = {"t": 0, "m": {}, "v": {}, "shapes": {k: (1, *v.shape) for k, v in ref.params.items()}}
        monkeypatch.setattr(weaksup, "AdamState", lambda: ref_state)
        monkeypatch.setattr(weaksup, "adam_step", _per_key_adam_on_flat)
        assert weaksup.train_pu([ref], pu, [loss], 0.7, config, [9]) == flat_out
        assert ref_state["t"] > 0
        for k in flat.params:
            np.testing.assert_array_equal(flat.params[k], ref.params[k])


class TestTrain:
    def _toy_data(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2)) + np.where(rng.random(n) < 0.5, 1.5, -1.5)[:, None]
        y = np.where(X[:, 0] + X[:, 1] > 0, 1, 2)
        return Dataset(X, y, K=2)

    def test_zero_epochs_is_identity(self):
        data = self._toy_data()
        model = make_model("linear", 2, 2, np.random.default_rng(1))
        before = copy.deepcopy(model.params)
        batch = lambda G, y: cs_loss_batch(get_loss("sigmoid"), RejectionCost(0.2), G, y)
        trace = train([model], data, [batch], TrainConfig(epochs=0), [0])[0]
        assert trace == []
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    def test_risk_trace_decreases(self):
        data = self._toy_data(n=256, seed=2)
        model = make_model("linear", 2, 2, np.random.default_rng(3))
        batch = lambda G, y: cs_loss_batch(get_loss("logistic"), RejectionCost(0.2), G, y)
        trace = train([model], data, [batch], TrainConfig(epochs=30, batch_size=64), [4])[0]
        assert trace[-1] <= trace[0]

    def test_deterministic_under_seed(self):
        data = self._toy_data(n=128, seed=5)
        batch = lambda G, y: cs_loss_batch(get_loss("sigmoid"), RejectionCost(0.2), G, y)

        def run():
            model = make_model("mlp", 2, 2, np.random.default_rng(6))
            train([model], data, [batch], TrainConfig(epochs=5, batch_size=32), [7])
            return {k: v.copy() for k, v in model.params.items()}

        p1, p2 = run(), run()
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_convex_case_matches_full_batch_descent(self):
        # linear model + logistic-based surrogate is convex in the parameters;
        # the mini-batch result should land near the full-batch optimum. The
        # labels are noisy so the minimum is attained at finite weights.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 2)) + np.where(rng.random(200) < 0.5, 1.0, -1.0)[:, None]
        y = np.where(X[:, 0] + X[:, 1] > 0, 1, 2)
        flip = rng.random(200) < 0.2
        y[flip] = 3 - y[flip]
        data = Dataset(X, y, K=2)
        cost = RejectionCost(0.2)
        loss = get_loss("logistic")
        batch = lambda G, y: cs_loss_batch(loss, cost, G, y)

        model = make_model("linear", 2, 2, np.random.default_rng(9))
        train([model], data, [batch], TrainConfig(epochs=300, batch_size=200, learning_rate=0.01), [10])
        risk_sgd = batch(model.scores(data.X), data.y)[0].mean()

        oracle = make_model("linear", 2, 2, np.random.default_rng(11))
        params, _, _ = stack_cells([oracle], [batch], [0])
        grad, grads = flat_buffer({k: v.shape for k, v in oracle.params.items()})
        state = AdamState()
        for _ in range(20000):
            G, cache = oracle.forward(data.X)
            _, dG = batch(G, data.y)
            oracle.backward(cache, dG / data.n, out=grads)
            adam_step(state, params, grad, lr=0.01)
        risk_oracle = batch(oracle.scores(data.X), data.y)[0].mean()
        assert risk_sgd <= risk_oracle + 1e-3

    def test_separable_hinge_reaches_zero_accepted_error(self):
        data = self._toy_data(n=300, seed=12)
        cost = RejectionCost(0.2)
        batch = lambda G, y: cs_loss_batch(get_loss("hinge"), cost, G, y)
        model = make_model("linear", 2, 2, np.random.default_rng(13))
        train([model], data, [batch], TrainConfig(epochs=200, batch_size=64, learning_rate=0.01), [14])
        decisions = decide_batch(model.scores(data.X))
        m = compute_metrics(decisions, data.y, cost)
        assert m.accepted_error == 0.0  # no accepted row is wrong

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


def test_training_a_stack_leaves_the_model_class_unchanged():
    # stack_cells used copy.copy, which makes copyreg cache __slotnames__ on the class: a
    # later check that the program's attributes are restored then depended on test order.
    # A fresh process, because any copy.copy of a model in this one would cache it too.
    src = os.path.dirname(os.path.dirname(os.path.abspath(models_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import numpy as np\n"
        "from csreject.core import Dataset\n"
        "from csreject.models import MlpModel, TrainConfig, make_model, train\n"
        "rng = np.random.default_rng(0)\n"
        "data = Dataset(rng.normal(size=(40, 2)), rng.integers(1, 4, size=40), 3)\n"
        "models = [make_model('mlp', 2, 3, np.random.default_rng(i)) for i in range(2)]\n"
        "loss = lambda G, y: (np.zeros(len(G)), np.zeros_like(G))\n"
        "train(models, data, [loss, loss], TrainConfig(epochs=1, batch_size=16), [1, 2])\n"
        "print('__slotnames__' in vars(MlpModel))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
