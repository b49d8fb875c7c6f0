"""Trainable score functions, analytic backprop, Adam, and the training loop."""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset


class LinearModel:
    """Scores Wx + b with W of shape (n_out, d)."""

    def __init__(self, d: int, n_out: int, rng: np.random.Generator | None = None):
        self.d = d
        self.n_out = n_out
        if rng is None:
            self.params = {"W": np.zeros((n_out, d)), "b": np.zeros(n_out)}
        else:
            self.params = {"W": 0.01 * rng.standard_normal((n_out, d)), "b": np.zeros(n_out)}

    def forward(self, X: np.ndarray, params: dict | None = None, work: dict | None = None):
        """Scores (n, n_out) and the backward cache.

        params defaults to self.params. Any parameter may carry leading copy
        axes (a stack of perturbed models); they broadcast, and the scores
        get the shape (copies..., n, n_out). work is MlpModel's buffer dict;
        a linear model's arrays are small, so it keeps none.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p = self.params if params is None else params
        return X @ p["W"].swapaxes(-1, -2) + p["b"][..., None, :], X

    def backward(self, cache, dG: np.ndarray, work: dict | None = None):
        """Parameter gradients; dG (..., n, n_out) may carry the leading cell
        axis of a stack, as the parameters then do. work as in forward."""
        X = cache
        return {"W": dG.swapaxes(-1, -2) @ X, "b": dG.sum(axis=-2)}

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]


class MlpModel:
    """One hidden rectified layer of width 64, linear output."""

    hidden = 64

    def __init__(self, d: int, n_out: int, rng: np.random.Generator | None = None):
        self.d = d
        self.n_out = n_out
        hidden = self.hidden
        if rng is None:
            w1 = np.zeros((hidden, d))
            w2 = np.zeros((n_out, hidden))
        else:
            # He-style scaling for the rectified layer
            w1 = rng.standard_normal((hidden, d)) * np.sqrt(2.0 / d)
            w2 = rng.standard_normal((n_out, hidden)) * np.sqrt(1.0 / hidden)
        self.params = {"W1": w1, "b1": np.zeros(hidden), "W2": w2, "b2": np.zeros(n_out)}

    def forward(self, X: np.ndarray, params: dict | None = None, work: dict | None = None):
        """Scores and the backward cache; params as in LinearModel.forward.

        With a work dict, the hidden-layer arrays live in its buffers, which
        the next forward with that dict overwrites, and the arithmetic is
        unchanged. A training step of a stack reuses them, because fresh
        (cells, n, hidden) arrays cost a page fault per page once the heap
        gives freed memory back.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p = self.params if params is None else params
        W1, b1 = p["W1"], p["b1"]
        # the leading axes of each argument are absent or one and the same
        # (a stack), so the longest are those of the result
        shape = (*max(X.shape[:-2], W1.shape[:-2], b1.shape[:-1], key=len), X.shape[-2], self.hidden)
        h = np.matmul(X, W1.swapaxes(-1, -2), out=_buffer(work, "h", shape))
        h += b1[..., None, :]
        np.maximum(h, 0.0, out=h)
        out = h @ p["W2"].swapaxes(-1, -2) + p["b2"][..., None, :]
        return out, (X, h)

    def backward(self, cache, dG: np.ndarray, work: dict | None = None):
        """Parameter gradients; dG as in LinearModel.backward, work as in forward."""
        X, h = cache
        dpre = np.matmul(dG, self.params["W2"], out=_buffer(work, "dpre", h.shape))
        dpre *= h > 0  # h > 0 exactly where pre > 0, NaN failing both: subgradient 0 at 0
        return {
            "W2": dG.swapaxes(-1, -2) @ h,
            "b2": dG.sum(axis=-2),
            "W1": dpre.swapaxes(-1, -2) @ X,
            "b1": dpre.sum(axis=-2),
        }

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]


def _buffer(work: dict | None, name: str, shape: tuple) -> np.ndarray:
    """The array of `work` for this name and shape, made on first use; a new
    one without a work dict."""
    if work is None:
        return np.empty(shape)
    key = (name, shape)
    if key not in work:
        work[key] = np.empty(shape)
    return work[key]


def make_model(kind: str, d: int, n_out: int, rng: np.random.Generator | None = None):
    if kind == "linear":
        return LinearModel(d, n_out, rng)
    if kind == "mlp":
        return MlpModel(d, n_out, rng)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass
class AdamState:
    """First/second moments of all parameters, flat, plus the step counter.

    m and v hold the moments of every gradient entry, concatenated in the
    order of the grads dict; they are created on the first step.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # class constants, not constructor options
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: dict, grads: dict, lr: float) -> None:
    """Standard bias-corrected Adam update, in place.

    All gradients are concatenated and updated in one pass; each entry sees
    the same arithmetic as a per-parameter update.
    """
    state.step += 1
    t = state.step
    g = np.concatenate([grad.ravel() for grad in grads.values()])
    if state.m is None:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
    # in place, with the rounding of m = beta1*m + (1-beta1)*g,
    # v = beta2*v + (1-beta2)*g**2 and update = lr*m_hat / (sqrt(v_hat) + eps)
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    g *= g
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * g
    update = state.m / (1.0 - state.beta1**t)
    update *= lr
    v_hat = np.divide(state.v, 1.0 - state.beta2**t, out=g)
    np.sqrt(v_hat, out=v_hat)
    v_hat += state.eps
    update /= v_hat
    start = 0
    for key in grads:
        p = params[key]
        p -= update[start : start + p.size].reshape(p.shape)
        start += p.size


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 256
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid training configuration")


def stack_cells(model, loss_batch, config):
    """One cell, or sequences of one model, loss and config per cell, as
    (stack, models, losses, configs, one): `stack` is a model of the same kind
    whose parameters are the cells' stacked along a leading axis, and `one`
    tells that a bare cell was given. The configs must agree but for the seed."""
    one = not isinstance(model, (list, tuple))
    models, losses, configs = ([model], [loss_batch], [config]) if one else (model, loss_batch, config)
    if not models or not len(models) == len(losses) == len(configs):
        raise ValueError("a stack needs one model, one loss and one config per cell")
    if len({replace(c, seed=0) for c in configs}) > 1:
        raise ValueError("the cells of a stack must share their training configuration but for the seed")
    stack = copy.copy(models[0])
    stack.params = {key: np.stack([m.params[key] for m in models]) for key in models[0].params}
    return stack, models, losses, configs, one


def unstack_cells(stack, models) -> None:
    """Copy each cell's slice of the stacked parameters back into its model."""
    for i, model in enumerate(models):
        for key, value in model.params.items():
            value[...] = stack.params[key][i]


def train(model, data: Dataset, loss_batch, config: TrainConfig):
    """Mini-batch Adam minimization of the mean of a per-sample loss.

    loss_batch(G, y) must return (per-sample losses (n,), dG (n, n_out)).
    The shuffle order depends only on config.seed. Returns the per-epoch
    empirical risk trace (mean loss over the epoch's batches).

    model, loss_batch and config may also be sequences with one entry per
    cell: the cells then train as one stack on the same data (see
    stack_cells), and the call returns one trace per cell. A cell keeps its
    own shuffle order and loss, and ends with the parameters and trace it
    gets when trained alone.
    """
    stack, models, losses, configs, one = stack_cells(model, loss_batch, config)
    config = configs[0]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    state, work = AdamState(), {}
    traces = [[] for _ in models]
    n = data.n
    for _ in range(config.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        epoch_loss = np.zeros(len(models))
        for start in range(0, n, config.batch_size):
            idx = order[:, start : start + config.batch_size]
            G, cache = stack.forward(data.X.take(idx, axis=0), work=work)
            y = data.y.take(idx)
            loss, dG = np.empty(idx.shape), np.empty_like(G)
            for c, cell_loss in enumerate(losses):
                loss[c], dG[c] = cell_loss(G[c], y[c])
            epoch_loss += loss.sum(axis=1)  # each row's sum is exactly its own .sum()
            grads = stack.backward(cache, np.divide(dG, idx.shape[1], out=dG), work)
            adam_step(state, stack.params, grads, config.learning_rate)
        for trace, total in zip(traces, epoch_loss.tolist()):
            trace.append(total / n)
    unstack_cells(stack, models)
    return traces[0] if one else traces
