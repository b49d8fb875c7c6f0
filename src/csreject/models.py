"""Trainable score functions, analytic backprop, Adam, and the training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset


class LinearModel:
    """Scores Wx + b with W of shape (n_out, d)."""

    def __init__(self, d: int, n_out: int, rng: np.random.Generator):
        self.params = {"W": 0.01 * rng.standard_normal((n_out, d)), "b": np.zeros(n_out)}

    def forward(self, X: np.ndarray, params: dict | None = None, work: dict | None = None):
        """Scores (n, n_out) and the backward cache.

        params defaults to self.params. Any parameter may carry leading copy
        axes (a stack of perturbed models); they broadcast, and the scores
        get the shape (copies..., n, n_out). work is MlpModel's buffer dict;
        a linear model's arrays are small, so it keeps none.
        """
        if not (isinstance(X, np.ndarray) and X.dtype == np.float64 and X.ndim > 1):
            X = np.atleast_2d(np.asarray(X, dtype=float))
        p = self.params if params is None else params
        return X @ p["W"].swapaxes(-1, -2) + p["b"][..., None, :], X

    def backward(self, cache, dG: np.ndarray, work: dict | None = None):
        """Parameter gradients; dG (..., n, n_out) may carry the leading cell
        axis of a stack, as the parameters then do. work as in forward."""
        X = cache
        return {"W": dG.swapaxes(-1, -2) @ X, "b": np.add.reduce(dG, axis=-2)}

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]


class MlpModel:
    """One hidden rectified layer of width 64, linear output."""

    hidden = 64

    def __init__(self, d: int, n_out: int, rng: np.random.Generator):
        hidden = self.hidden
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
        W2 = p["W2"]
        return h @ W2.swapaxes(-1, -2) + p["b2"][..., None, :], (X, h, W2)

    def backward(self, cache, dG: np.ndarray, work: dict | None = None):
        """Gradients of the parameters that made the cache; dG as in LinearModel.backward, work as in forward."""
        X, h, W2 = cache
        dpre = np.matmul(dG, W2, out=_buffer(work, "dpre", h.shape))
        dpre *= h > 0  # h > 0 exactly where pre > 0, NaN failing both: subgradient 0 at 0
        return {
            "W2": dG.swapaxes(-1, -2) @ h,
            "b2": np.add.reduce(dG, axis=-2),
            "W1": dpre.swapaxes(-1, -2) @ X,
            "b1": np.add.reduce(dpre, axis=-2),
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


def make_model(kind: str, d: int, n_out: int, rng: np.random.Generator):
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
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
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
    """The training values that every cell of a stack shares; each cell's
    shuffle seed is its own entry of the seeds list of train or train_pu."""

    learning_rate: float = 0.001
    batch_size: int = 256
    epochs: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid training configuration")


def stack_cells(models, losses, seeds):
    """The cells' parameters stacked along a leading axis, and one shuffle
    generator per cell. Each cell's model.params become views of its slice,
    so an in-place update of the stack trains every cell. A lone cell is a
    stack of one."""
    if not models or not len(models) == len(losses) == len(seeds):
        raise ValueError("a stack needs one model, one loss and one seed per cell")
    params = {key: np.stack([m.params[key] for m in models]) for key in models[0].params}
    for i, model in enumerate(models):
        model.params = {key: value[i] for key, value in params.items()}
    return params, [np.random.default_rng(seed) for seed in seeds]


def train(models, data: Dataset, losses, config: TrainConfig, seeds) -> list[list[float]]:
    """Mini-batch Adam minimization of the mean of a per-sample loss, for a
    stack of cells that share the data and the config.

    models, losses and seeds hold one entry per cell. A cell's loss(G, y)
    must return (per-sample losses (n,), dG (n, n_out)); its shuffle order
    depends only on its seed. The cells train as one stack (see stack_cells)
    and each ends with the parameters and trace it gets when trained alone;
    every step updates those parameters in place, so an interrupted call
    leaves them part-trained. Returns one trace per cell: the per-epoch
    empirical risk (mean loss over the epoch's batches).
    """
    params, rngs = stack_cells(models, losses, seeds)
    model, state, work = models[0], AdamState(), {}
    traces = [[] for _ in models]
    for _ in range(config.epochs):
        order = np.stack([rng.permutation(data.n) for rng in rngs])
        epoch_loss = np.zeros(len(models))
        for start in range(0, data.n, config.batch_size):
            idx = order[:, start : start + config.batch_size]
            G, cache = model.forward(data.X.take(idx, axis=0), params, work)
            y = data.y.take(idx)
            loss, dG = np.empty(idx.shape), np.empty_like(G)
            for c, cell_loss in enumerate(losses):
                loss[c], dG[c] = cell_loss(G[c], y[c])
            epoch_loss += np.add.reduce(loss, axis=1)  # each row's sum is exactly its own .sum()
            grads = model.backward(cache, np.divide(dG, idx.shape[1], out=dG), work)
            adam_step(state, params, grads, config.learning_rate)
        for trace, total in zip(traces, epoch_loss.tolist()):
            trace.append(total / data.n)
    return traces
