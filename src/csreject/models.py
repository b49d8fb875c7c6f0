"""Trainable score functions, analytic backprop, Adam, and the training loop."""

from __future__ import annotations

import math
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

    def backward(self, cache, dG: np.ndarray, work: dict | None = None, out: dict | None = None):
        """Parameter gradients; dG (..., n, n_out) may carry the leading cell
        axis of a stack, as the parameters then do. work as in forward. Each
        gradient is written into out[key] if out is given, else a new array."""
        X, out = cache, {} if out is None else out
        return {"W": np.matmul(dG.swapaxes(-1, -2), X, out=out.get("W")), "b": np.add.reduce(dG, -2, out=out.get("b"))}

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

    def backward(self, cache, dG: np.ndarray, work: dict | None = None, out: dict | None = None):
        """Gradients of the parameters that made the cache; dG and out as in
        LinearModel.backward, work as in forward."""
        (X, h, W2), out = cache, {} if out is None else out
        dpre = np.matmul(dG, W2, out=_buffer(work, "dpre", h.shape))
        dpre *= h > 0  # h > 0 exactly where pre > 0, NaN failing both: subgradient 0 at 0
        return {
            "W2": np.matmul(dG.swapaxes(-1, -2), h, out=out.get("W2")),
            "b2": np.add.reduce(dG, -2, out=out.get("b2")),
            "W1": np.matmul(dpre.swapaxes(-1, -2), X, out=out.get("W1")),
            "b1": np.add.reduce(dpre, -2, out=out.get("b1")),
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
    """First/second moments of a flat parameter array, plus the step counter.

    m and v hold the moments of every entry of the params and grad arrays
    of adam_step, in their order; they are created on the first step.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # class constants, not constructor options
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """Standard bias-corrected Adam update of the flat array params, in place.

    grad (left unchanged) holds the gradient of each entry of params in the
    same layout, as stack_cells' and flat_buffer's arrays share theirs. Adam
    is elementwise: each entry sees the arithmetic of a per-key update.
    """
    state.step += 1
    t = state.step
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    # in place, with the rounding of m = beta1*m + (1-beta1)*g,
    # v = beta2*v + (1-beta2)*g**2 and update = lr*m_hat / (sqrt(v_hat) + eps)
    state.m *= state.beta1
    scratch = (1.0 - state.beta1) * grad
    state.m += scratch
    v_hat = np.multiply(grad, grad, out=scratch)
    v_hat *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += v_hat
    np.divide(state.v, 1.0 - state.beta2**t, out=v_hat)
    np.sqrt(v_hat, out=v_hat)
    v_hat += state.eps
    update = state.m / (1.0 - state.beta1**t)
    update *= lr
    update /= v_hat
    params -= update


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


def flat_buffer(shapes: dict):
    """One new flat float64 array and its views of these shapes, key by key,
    each a contiguous block."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = np.empty(sum(sizes))
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return flat, {key: part.reshape(shape) for (key, shape), part in zip(shapes.items(), parts)}


def stack_cells(models, losses, seeds):
    """The cells' parameters in one flat array, its views of shape (cells,
    ...) per key, and one shuffle generator per cell. Each cell's
    model.params become views of its slice of each key, so an in-place
    update of the flat array trains every cell. A lone cell is a stack of
    one; cells whose parameter keys or shapes differ raise a ValueError."""
    if not models or not len(models) == len(losses) == len(seeds):
        raise ValueError("a stack needs one model, one loss and one seed per cell")
    first = models[0].params
    for i, model in enumerate(models):
        for key in {**first, **model.params}:
            mine, theirs = (f"of shape {p[key].shape}" if key in p else "absent" for p in (model.params, first))
            if mine != theirs:
                raise ValueError(f"cell {i} does not stack with cell 0: parameter {key!r} is {mine}, cell 0's {theirs}")
    flat, params = flat_buffer({key: (len(models), *value.shape) for key, value in first.items()})
    for i, model in enumerate(models):
        for key, value in params.items():
            value[i] = model.params[key]
        model.params = {key: value[i] for key, value in params.items()}
    return flat, params, [np.random.default_rng(seed) for seed in seeds]


def train(models, data: Dataset, losses, config: TrainConfig, seeds) -> list[list[float]]:
    """Mini-batch Adam minimization of the mean of a per-sample loss, for a
    stack of cells that share the data and the config.

    models, losses and seeds hold one entry per cell. A cell's loss(G, y)
    must return (per-sample losses (n,), dG (n, n_out)); its shuffle order
    depends only on its seed. The cells train as one stack (see stack_cells)
    and each ends with the parameters and trace it gets when trained alone.
    Each step writes the gradients into one flat buffer of the stack's
    layout and updates its flat array in place with one adam_step, so an
    interrupted call leaves the cells part-trained. Returns one trace per
    cell: the per-epoch empirical risk (mean loss over the epoch's batches).
    """
    flat, params, rngs = stack_cells(models, losses, seeds)
    grad, grads = flat_buffer({key: value.shape for key, value in params.items()})
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
            model.backward(cache, np.divide(dG, idx.shape[1], out=dG), work, grads)
            adam_step(state, flat, grad, config.learning_rate)
        for trace, total in zip(traces, epoch_loss.tolist()):
            trace.append(total / data.n)
    return traces
