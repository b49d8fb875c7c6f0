"""Stacked training: C cells that share one training set train as one program
and end exactly where C separate calls end."""

import copy

import numpy as np
import pytest

from csreject import weaksup
from csreject.core import Dataset, RejectionCost
from csreject.harness import METHODS
from csreject.models import TrainConfig, flat_buffer, make_model, stack_cells, train

# (method, cost) per cell: two margin losses, SCE, and ANGLE, whose binary
# scores have width 1
CELLS = [("cs-sigmoid", 0.1), ("cs-ramp", 0.25), ("cs-sigmoid", 0.4), ("sce", 0.2), ("angle", 0.3)]


def _cells(kind, d, K, cells, seed):
    models, losses, seeds = [], [], []
    for i, (method, cost) in enumerate(cells):
        models.append(make_model(kind, d, METHODS[method].n_out(K), np.random.default_rng(seed + i)))
        losses.append(METHODS[method].loss_batch(K, RejectionCost(cost)))
        seeds.append(seed + 100 + i)
    return models, losses, seeds


def _assert_same_models(stacked, separate):
    assert len(stacked) == len(separate)
    for a, b in zip(stacked, separate):
        assert a.params.keys() == b.params.keys()
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])


def _toy(n, d, K, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.argmax(X[:, :K] + 0.5 * rng.normal(size=(n, K)), axis=1) + 1
    return Dataset(X, y, K)


# groups of cells with one score width each
GROUPS = {
    "margin-losses": [c for c in CELLS if c[0].startswith("cs-")],
    "cs-and-sce": CELLS[:4],
    "one-cell": CELLS[1:2],
    "angle-width-1": [("angle", 0.1), ("angle", 0.4)],
}


class TestStackedTrain:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_equals_separate_calls(self, kind, group):
        # 203 rows in batches of 32 leave a short last batch
        data = _toy(203, 4, 2, seed=1)
        models, losses, seeds = _cells(kind, 4, 2, GROUPS[group], seed=10)
        config = TrainConfig(epochs=6, batch_size=32, learning_rate=0.01)
        separate = copy.deepcopy(models)
        traces = train(models, data, losses, config, seeds)
        ref = [train([m], data, [loss], config, [seed])[0] for m, loss, seed in zip(separate, losses, seeds)]
        assert traces == ref
        _assert_same_models(models, separate)

    def test_multiclass_mlp(self):
        data = _toy(300, 3, 3, seed=2)
        cells = [("cs-sigmoid", 0.2), ("cs-hinge", 0.3), ("sce", 0.1)]
        models, losses, seeds = _cells("mlp", 3, 3, cells, seed=20)
        config = TrainConfig(epochs=5, batch_size=64)
        separate = copy.deepcopy(models)
        traces = train(models, data, losses, config, seeds)
        assert traces == [train([m], data, [loss], config, [seed])[0] for m, loss, seed in zip(separate, losses, seeds)]
        _assert_same_models(models, separate)

    def test_each_cell_needs_a_model_a_loss_and_a_seed(self):
        models, losses, seeds = _cells("linear", 3, 2, CELLS[:2], seed=40)
        with pytest.raises(ValueError, match="one model, one loss and one seed"):
            stack_cells(models, losses, seeds[:1])
        with pytest.raises(ValueError, match="one model, one loss and one seed"):
            stack_cells(models, losses[:1], seeds[:1])


TWO_CELLS = [("cs-sigmoid", 0.1), ("sce", 0.3)]


class TestFlatStack:
    """stack_cells holds every cell's parameters in one flat array."""

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_every_view_shares_the_flat_array(self, kind):
        models, losses, seeds = _cells(kind, 3, 2, TWO_CELLS, seed=90)
        initial = [_params(m) for m in models]
        flat, params, _ = stack_cells(models, losses, seeds)
        assert flat.ndim == 1 and flat.size == sum(value.size for value in params.values())
        for key, value in params.items():
            assert value.shape == (2, *initial[0][key].shape) and np.shares_memory(value, flat)
            for model, before in zip(models, initial):
                assert np.shares_memory(model.params[key], flat)
                np.testing.assert_array_equal(model.params[key], before[key])
        # one in-place update of the flat array moves every cell by its slice of delta
        delta, deltas = flat_buffer({key: value.shape for key, value in params.items()})
        delta[...] = np.random.default_rng(1).normal(size=delta.size)
        flat -= delta
        for i, (model, before) in enumerate(zip(models, initial)):
            for key, value in before.items():
                np.testing.assert_array_equal(model.params[key], value - deltas[key][i])

    @pytest.mark.parametrize(
        "kinds, widths, cell, key",
        [
            (("linear", "mlp"), (2, 2), 1, "W"),
            (("mlp", "linear"), (2, 2), 1, "W1"),
            (("linear", "linear"), (2, 3), 1, "W"),
            (("mlp", "mlp"), (2, 3), 1, "W2"),
            (("mlp", "mlp", "mlp"), (2, 2, 3), 2, "W2"),
        ],
    )
    def test_cells_whose_parameters_differ_do_not_stack(self, kinds, widths, cell, key):
        models = [make_model(kind, 3, n_out, np.random.default_rng(i)) for i, (kind, n_out) in enumerate(zip(kinds, widths))]
        before = [m.params for m in models]
        with pytest.raises(ValueError, match=f"cell {cell} does not stack with cell 0: parameter '{key}'"):
            stack_cells(models, [None] * len(models), list(range(len(models))))
        assert all(m.params is p for m, p in zip(models, before))  # no cell was rebound


def _train_cells(kind, setting, models, cells, seed):
    """Train the models as one stack of these cells, with models.train or weaksup.train_pu, on fixed data."""
    _, losses, seeds = _cells(kind, 3, 2, cells, seed)
    config = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05)
    if setting == "train":
        train(models, _toy(60, 3, 2, seed=5), losses, config, seeds)
    else:
        weaksup.train_pu(models, _pu_set(*_pu_sets(20, 40, 3, seed=5)), losses, 0.7, config, seeds)


def _two_models(kind):
    return [make_model(kind, 3, 2, np.random.default_rng(i)) for i in range(2)]


def _params(model):
    return {key: value.copy() for key, value in model.params.items()}


@pytest.mark.parametrize("setting", ["train", "train_pu"])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
class TestCellParameters:
    """A stack trains its cells' own parameters: each model's params are views of its slice."""

    def test_each_cell_holds_its_trained_values(self, kind, setting):
        models = _two_models(kind)
        alone, initial = copy.deepcopy(models), [_params(m) for m in models]
        _train_cells(kind, setting, models, TWO_CELLS, seed=50)
        for i, model in enumerate(alone):  # cell i of the stack, with its shuffle seed 150 + i
            _train_cells(kind, setting, [model], TWO_CELLS[i : i + 1], seed=50 + i)
        _assert_same_models(models, alone)
        for model, before in zip(models, initial):
            assert all((model.params[key] != value).any() for key, value in before.items())

    def test_writing_one_cell_leaves_the_other_unchanged(self, kind, setting):
        models = _two_models(kind)
        _train_cells(kind, setting, models, TWO_CELLS, seed=60)
        X = np.random.default_rng(7).normal(size=(4, 3))
        other, scores = _params(models[1]), models[1].scores(X)
        for value in models[0].params.values():
            value[...] = 0.0
        assert not models[0].scores(X).any()
        for key, value in other.items():
            np.testing.assert_array_equal(models[1].params[key], value)
        np.testing.assert_array_equal(models[1].scores(X), scores)

    def test_training_a_trained_model_again_starts_from_its_trained_values(self, kind, setting):
        models = _two_models(kind)
        _train_cells(kind, setting, models, TWO_CELLS, seed=70)
        copies = _two_models(kind)
        for model, trained in zip(copies, models):
            model.params = _params(trained)
        _train_cells(kind, setting, models, TWO_CELLS, seed=80)
        _train_cells(kind, setting, copies, TWO_CELLS, seed=80)
        _assert_same_models(models, copies)


def _pu_sets(n_p, n_u, d, seed):
    rng = np.random.default_rng(seed)
    positives = rng.normal(loc=1.0, size=(n_p, d))
    unlabeled = np.vstack([rng.normal(loc=1.0, size=(int(0.7 * n_u), d)), rng.normal(loc=-1.0, size=(n_u - int(0.7 * n_u), d))])
    return positives, unlabeled[rng.permutation(n_u)]


def _pu_set(positives, unlabeled):
    """The PU set that weaksup.train_pu takes: the positives, labelled 1, then the unlabeled rows, labelled 2."""
    return Dataset(np.concatenate([positives, unlabeled]), np.repeat([1, 2], [len(positives), len(unlabeled)]), K=2)


class TestStackedTrainPU:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize(
        "n_p, n_u, batch",
        [
            (60, 200, 32),  # positives wrap around within an epoch
            (3, 150, 64),  # 2 of the 3 positives a step: every other batch wraps around
            (50, 50, 2),  # one positive and one unlabeled row per step
        ],
    )
    def test_equals_separate_calls(self, kind, n_p, n_u, batch):
        pu = _pu_set(*_pu_sets(n_p, n_u, 3, seed=n_p + n_u))
        cells = GROUPS["margin-losses"] + [("sce", 0.2)]
        models, losses, seeds = _cells(kind, 3, 2, cells, seed=50)
        config = TrainConfig(epochs=4, batch_size=batch, learning_rate=0.01)
        separate = copy.deepcopy(models)
        traces, clamps = weaksup.train_pu(models, pu, losses, 0.7, config, seeds)
        ref = [weaksup.train_pu([m], pu, [loss], 0.7, config, [s]) for m, loss, s in zip(separate, losses, seeds)]
        assert traces == [trace for (trace,), _ in ref]
        assert clamps == sum(count for _, count in ref)
        _assert_same_models(models, separate)

    def test_clamp_is_per_cell(self):
        # a high prior drives the implied-negative bracket below zero for
        # some cells and steps but not others
        pu = _pu_set(*_pu_sets(40, 160, 3, seed=7))
        models, losses, seeds = _cells("linear", 3, 2, CELLS[:3], seed=60)
        config = TrainConfig(epochs=8, batch_size=32, learning_rate=0.05)
        counts = []
        for m, loss, s in zip(copy.deepcopy(models), losses, seeds):
            counts.append(weaksup.train_pu([m], pu, [loss], 0.95, config, [s])[1])
        assert len(set(counts)) > 1, "the cells should clamp on different steps"
        _, total = weaksup.train_pu(models, pu, losses, 0.95, config, seeds)
        assert total == sum(counts)

    def test_angle_width_1(self):
        pu = _pu_set(*_pu_sets(30, 120, 4, seed=8))
        models, losses, seeds = _cells("linear", 4, 2, GROUPS["angle-width-1"], seed=70)
        config = TrainConfig(epochs=3, batch_size=16)
        separate = copy.deepcopy(models)
        traces, _ = weaksup.train_pu(models, pu, losses, 0.7, config, seeds)
        alone = [weaksup.train_pu([m], pu, [l], 0.7, config, [s]) for m, l, s in zip(separate, losses, seeds)]
        assert traces == [trace for (trace,), _ in alone]
        _assert_same_models(models, separate)


# ---------------------------------------------------------------------------
# The step written out per cell: plain 2-D forward and backward passes, the
# margin losses and L_CS as formulas, one loss call per block of PU rows, the
# clamp as a branch and a per-key Adam. The stacked loops must match it bit
# for bit: parameters, traces and clamp counts.


def _ref_margin(name, z):
    if name == "sigmoid":
        with np.errstate(over="ignore"):
            phi = 1.0 / (1.0 + np.exp(z))
            return phi, -(1.0 / (1.0 + np.exp(-z))) * phi
    if name == "ramp":
        return np.clip(0.5 - 0.5 * z, 0.0, 1.0), np.where((z >= -1.0) & (z < 1.0), -0.5, 0.0)
    assert name == "hinge"
    return np.maximum(0.0, 1.0 - z), np.where(z < 1.0, -1.0, 0.0)


def _ref_cs_loss(name, c, G, y):
    # L_CS = c phi(g_y) + (1 - c) sum over the other classes j of phi(-g_j), column by column
    n, K = G.shape
    rows = np.arange(n)
    phi_neg, dphi_neg = _ref_margin(name, -G)
    phi_own, dphi_own = _ref_margin(name, G[rows, y - 1])
    phi_neg[rows, y - 1] = 0.0
    losses = c * phi_own + (1.0 - c) * sum(phi_neg[:, j] for j in range(K))
    dG = -(1.0 - c) * dphi_neg
    dG[rows, y - 1] = c * dphi_own
    return losses, dG


def _ref_loss(method, K, cost):
    if method.startswith("cs-"):
        return lambda G, y: _ref_cs_loss(method.removeprefix("cs-"), cost, G, y)
    return METHODS[method].loss_batch(K, RejectionCost(cost))  # sce and angle as the program has them


def _ref_forward(p, X):
    if "W" in p:
        return X @ p["W"].T + p["b"], X
    h = np.maximum(X @ p["W1"].T + p["b1"], 0.0)
    return h @ p["W2"].T + p["b2"], (X, h)


def _ref_backward(p, cache, dG):
    if "W" in p:
        return {"W": dG.T @ cache, "b": dG.sum(axis=0)}
    X, h = cache
    dpre = (dG @ p["W2"]) * (h > 0)
    return {"W2": dG.T @ h, "b2": dG.sum(axis=0), "W1": dpre.T @ X, "b1": dpre.sum(axis=0)}


def _ref_adam(state, p, grads, lr):
    state["t"] += 1
    t = state["t"]
    for key, g in grads.items():
        m = state.setdefault(("m", key), np.zeros_like(g))
        v = state.setdefault(("v", key), np.zeros_like(g))
        state["m", key] = m = 0.9 * m + (1.0 - 0.9) * g
        state["v", key] = v = 0.999 * v + (1.0 - 0.999) * g**2
        p[key] = p[key] - lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)


def _ref_train(p, data, loss, config, seed):
    rng, state, trace = np.random.default_rng(seed), {"t": 0}, []
    for _ in range(config.epochs):
        order, total = rng.permutation(data.n), 0.0
        for start in range(0, data.n, config.batch_size):
            idx = order[start : start + config.batch_size]
            G, cache = _ref_forward(p, data.X[idx])
            losses, dG = loss(G, data.y[idx])
            total += losses.sum()
            _ref_adam(state, p, _ref_backward(p, cache, dG / len(idx)), config.learning_rate)
        trace.append(total / data.n)
    return trace


def _ref_train_pu(p, loss, positives, unlabeled, prior, config, seed):
    rng, state, trace, clamps = np.random.default_rng(seed), {"t": 0}, [], 0
    n_p, n_u = len(positives), len(unlabeled)
    b_p = max(1, int(np.ceil(config.batch_size * n_p / (n_p + n_u))))
    b_u = max(1, config.batch_size - b_p)
    steps = int(np.ceil(n_u / b_u))
    for _ in range(config.epochs):
        p_order, u_order, risk = rng.permutation(n_p), rng.permutation(n_u), 0.0
        for step in range(steps):
            ip = p_order[(step * b_p) % n_p :][:b_p]
            ip = np.concatenate([ip, p_order[: b_p - len(ip)]])  # a batch that runs off the end wraps around
            iu = u_order[step * b_u : (step + 1) * b_u]
            m_p, m_u = len(ip), len(iu)
            (Gp, cache_p), (Gu, cache_u) = _ref_forward(p, positives[ip]), _ref_forward(p, unlabeled[iu])
            loss_p, dGp = loss(Gp, np.full(m_p, 1))
            loss_n, dGn = loss(Gp, np.full(m_p, 2))
            loss_u, dGu = loss(Gu, np.full(m_u, 2))
            pos_term = prior * (loss_p.sum() / m_p)
            neg_term = loss_u.sum() / m_u - prior * (loss_n.sum() / m_p)
            risk += pos_term + (neg_term if neg_term > 0.0 else 0.0)
            if neg_term >= 0.0:
                dP, dU = prior * dGp / m_p - prior * dGn / m_p, dGu / m_u
            else:  # the clamp: the implied-negative term contributes no gradient
                clamps += 1
                dP, dU = prior * dGp / m_p, np.zeros_like(dGu)
            grads = _ref_backward(p, cache_p, dP)
            for key, g in _ref_backward(p, cache_u, dU).items():
                grads[key] += g
            _ref_adam(state, p, grads, config.learning_rate)
        trace.append(risk / steps)
    return trace, clamps


def _assert_bits(got, want):
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


# (model kind, classes, cells of one score width)
REFERENCE_STACKS = {
    "linear-K2": ("linear", 2, [("cs-sigmoid", 0.1), ("cs-ramp", 0.25), ("cs-hinge", 0.4), ("sce", 0.2)]),
    "mlp-K2": ("mlp", 2, [("cs-sigmoid", 0.3), ("cs-ramp", 0.1), ("sce", 0.4)]),
    "linear-K3": ("linear", 3, [("cs-sigmoid", 0.2), ("cs-hinge", 0.3), ("sce", 0.1)]),
    "mlp-K3": ("mlp", 3, [("cs-ramp", 0.35), ("cs-sigmoid", 0.15), ("sce", 0.25)]),
    "angle-width-1": ("linear", 2, [("angle", 0.1), ("angle", 0.4)]),
}


class TestAgainstTheStepFormulas:
    @pytest.mark.parametrize("stack", sorted(REFERENCE_STACKS))
    def test_train(self, stack):
        kind, K, cells = REFERENCE_STACKS[stack]
        data = _toy(203, 3, K, seed=4)  # batches of 32 leave a short last batch
        models, losses, seeds = _cells(kind, 3, K, cells, seed=80)
        refs = [{k: v.copy() for k, v in m.params.items()} for m in models]
        config = TrainConfig(epochs=4, batch_size=32, learning_rate=0.02)
        traces = train(models, data, losses, config, seeds)
        for model, trace, ref, (method, cost), seed in zip(models, traces, refs, cells, seeds):
            _assert_bits(trace, _ref_train(ref, data, _ref_loss(method, K, cost), config, seed))
            for key in ref:
                _assert_bits(model.params[key], ref[key])

    @pytest.mark.parametrize("stack", [s for s in sorted(REFERENCE_STACKS) if REFERENCE_STACKS[s][1] == 2])
    @pytest.mark.parametrize(
        "n_p, n_u, batch, prior",
        [
            (40, 160, 32, 0.95),  # steps clamp in some cells, not in others
            (30, 200, 32, 0.3),  # 5 positives a step, 40 an epoch: a batch wraps around
            (3, 20, 64, 0.7),  # a positive batch of 9 rows takes the 3 positives twice: 6 rows
        ],
    )
    def test_train_pu(self, stack, n_p, n_u, batch, prior):
        kind, _, cells = REFERENCE_STACKS[stack]
        positives, unlabeled = _pu_sets(n_p, n_u, 3, seed=n_p)
        models, losses, seeds = _cells(kind, 3, 2, cells, seed=90)
        refs = [{k: v.copy() for k, v in m.params.items()} for m in models]
        config = TrainConfig(epochs=4, batch_size=batch, learning_rate=0.05)
        traces, clamps = weaksup.train_pu(models, _pu_set(positives, unlabeled), losses, prior, config, seeds)
        ref_clamps = 0
        for model, trace, ref, (method, cost), seed in zip(models, traces, refs, cells, seeds):
            ref_trace, count = _ref_train_pu(ref, _ref_loss(method, 2, cost), positives, unlabeled, prior, config, seed)
            _assert_bits(trace, ref_trace)
            ref_clamps += count
            for key in ref:
                _assert_bits(model.params[key], ref[key])
        assert clamps == ref_clamps
        if prior == 0.95:
            steps = 4 * int(np.ceil(n_u / (batch - int(np.ceil(batch * n_p / (n_p + n_u))))))
            assert 0 < clamps < steps * len(cells)
