"""Stacked training: C cells that share one training set train as one program
and end exactly where C separate calls end."""

import copy

import numpy as np
import pytest

from csreject import weaksup
from csreject.core import Dataset, RejectionCost
from csreject.harness import METHODS
from csreject.models import TrainConfig, make_model, stack_cells, train

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


def _pu_sets(n_p, n_u, d, seed):
    rng = np.random.default_rng(seed)
    positives = rng.normal(loc=1.0, size=(n_p, d))
    unlabeled = np.vstack([rng.normal(loc=1.0, size=(int(0.7 * n_u), d)), rng.normal(loc=-1.0, size=(n_u - int(0.7 * n_u), d))])
    return positives, unlabeled[rng.permutation(n_u)]


class TestStackedTrainPU:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize(
        "n_p, n_u, batch",
        [
            (60, 200, 32),  # positives wrap around within an epoch
            (3, 150, 64),  # fewer positives than a positive batch
            (50, 50, 2),  # one positive and one unlabeled row per step
        ],
    )
    def test_equals_separate_calls(self, kind, n_p, n_u, batch):
        positives, unlabeled = _pu_sets(n_p, n_u, 3, seed=n_p + n_u)
        cells = GROUPS["margin-losses"] + [("sce", 0.2)]
        models, losses, seeds = _cells(kind, 3, 2, cells, seed=50)
        config = TrainConfig(epochs=4, batch_size=batch, learning_rate=0.01)
        separate = copy.deepcopy(models)
        traces, clamps = weaksup.train_pu(models, losses, positives, unlabeled, 0.7, config, seeds)
        ref = [
            weaksup.train_pu([m], [loss], positives, unlabeled, 0.7, config, [s]) for m, loss, s in zip(separate, losses, seeds)
        ]
        assert traces == [trace for (trace,), _ in ref]
        assert clamps == sum(count for _, count in ref)
        _assert_same_models(models, separate)

    def test_clamp_is_per_cell(self):
        # a high prior drives the implied-negative bracket below zero for
        # some cells and steps but not others
        positives, unlabeled = _pu_sets(40, 160, 3, seed=7)
        models, losses, seeds = _cells("linear", 3, 2, CELLS[:3], seed=60)
        config = TrainConfig(epochs=8, batch_size=32, learning_rate=0.05)
        counts = []
        for m, loss, s in zip(copy.deepcopy(models), losses, seeds):
            counts.append(weaksup.train_pu([m], [loss], positives, unlabeled, 0.95, config, [s])[1])
        assert len(set(counts)) > 1, "the cells should clamp on different steps"
        _, total = weaksup.train_pu(models, losses, positives, unlabeled, 0.95, config, seeds)
        assert total == sum(counts)

    def test_angle_width_1(self):
        positives, unlabeled = _pu_sets(30, 120, 4, seed=8)
        models, losses, seeds = _cells("linear", 4, 2, GROUPS["angle-width-1"], seed=70)
        config = TrainConfig(epochs=3, batch_size=16)
        separate = copy.deepcopy(models)
        traces, _ = weaksup.train_pu(models, losses, positives, unlabeled, 0.7, config, seeds)
        alone = [weaksup.train_pu([m], [l], positives, unlabeled, 0.7, config, [s]) for m, l, s in zip(separate, losses, seeds)]
        assert traces == [trace for (trace,), _ in alone]
        _assert_same_models(models, separate)
