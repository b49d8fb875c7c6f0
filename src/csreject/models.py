"""Trainable score functions, analytic backprop, Adam, and the training loop."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset

MODEL_MAGIC = "csreject-model-v1"


class LinearModel:
    """Scores Wx + b with W of shape (n_out, d)."""

    kind = "linear"

    def __init__(self, d: int, n_out: int, rng: np.random.Generator | None = None, init_scale: float = 0.01):
        self.d = d
        self.n_out = n_out
        if rng is None:
            self.params = {"W": np.zeros((n_out, d)), "b": np.zeros(n_out)}
        else:
            self.params = {"W": init_scale * rng.standard_normal((n_out, d)), "b": np.zeros(n_out)}

    def forward(self, X: np.ndarray, params: dict | None = None):
        """Scores (n, n_out) and the backward cache.

        params defaults to self.params. Any parameter may carry leading copy
        axes (a stack of perturbed models); they broadcast, and the scores
        get the shape (copies..., n, n_out).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p = self.params if params is None else params
        return X @ p["W"].swapaxes(-1, -2) + p["b"][..., None, :], X

    def backward(self, cache, dG: np.ndarray):
        X = cache
        return {"W": dG.T @ X, "b": dG.sum(axis=0)}

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]


class MlpModel:
    """One hidden rectified layer of width 64 (by default), linear output."""

    kind = "mlp"

    def __init__(self, d: int, n_out: int, rng: np.random.Generator | None = None, hidden: int = 64):
        self.d = d
        self.n_out = n_out
        self.hidden = hidden
        if rng is None:
            w1 = np.zeros((hidden, d))
            w2 = np.zeros((n_out, hidden))
        else:
            # He-style scaling for the rectified layer
            w1 = rng.standard_normal((hidden, d)) * np.sqrt(2.0 / d)
            w2 = rng.standard_normal((n_out, hidden)) * np.sqrt(1.0 / hidden)
        self.params = {"W1": w1, "b1": np.zeros(hidden), "W2": w2, "b2": np.zeros(n_out)}

    def forward(self, X: np.ndarray, params: dict | None = None):
        """Scores and the backward cache; params as in LinearModel.forward."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p = self.params if params is None else params
        pre = X @ p["W1"].swapaxes(-1, -2) + p["b1"][..., None, :]
        h = np.maximum(pre, 0.0)
        out = h @ p["W2"].swapaxes(-1, -2) + p["b2"][..., None, :]
        return out, (X, pre, h)

    def backward(self, cache, dG: np.ndarray):
        X, pre, h = cache
        dh = dG @ self.params["W2"]
        dpre = dh * (pre > 0)  # subgradient 0 at exactly 0
        return {
            "W2": dG.T @ h,
            "b2": dG.sum(axis=0),
            "W1": dpre.T @ X,
            "b1": dpre.sum(axis=0),
        }

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]


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

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g**2
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    update = lr * m_hat / (np.sqrt(v_hat) + state.eps)
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
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid training configuration")


def train(model, data: Dataset, loss_batch, config: TrainConfig):
    """Mini-batch Adam minimization of the mean of a per-sample loss.

    loss_batch(G, y) must return (per-sample losses (n,), dG (n, n_out)).
    The shuffle order depends only on config.seed. Returns the per-epoch
    empirical risk trace (mean loss over the epoch's batches).
    """
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    trace = []
    n = data.n
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            G, cache = model.forward(data.X[idx])
            losses, dG = loss_batch(G, data.y[idx])
            grads = model.backward(cache, dG / len(idx))
            if config.weight_decay > 0:
                for key in grads:
                    grads[key] = grads[key] + config.weight_decay * model.params[key]
            adam_step(state, model.params, grads, config.learning_rate)
            epoch_loss += float(losses.sum())
        trace.append(epoch_loss / n)
    return trace


def save_model(model, path) -> None:
    """Flat reproducibility snapshot: magic, kind, dims, row-major parameters."""
    meta = {"magic": MODEL_MAGIC, "kind": model.kind, "d": model.d, "n_out": model.n_out}
    if model.kind == "mlp":
        meta["hidden"] = model.hidden
    np.savez(path, meta=np.array([json.dumps(meta)]), **model.params)


def load_model(path):
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(str(blob["meta"][0]))
        if meta.get("magic") != MODEL_MAGIC:
            raise ValueError("not a model snapshot")
        if meta["kind"] == "linear":
            model = LinearModel(meta["d"], meta["n_out"])
        else:
            model = MlpModel(meta["d"], meta["n_out"], hidden=meta["hidden"])
        params = {k: blob[k] for k in model.params}
    for key, value in params.items():
        if value.shape != model.params[key].shape:
            raise ValueError(
                f"parameter {key} has shape {value.shape}, the metadata implies {model.params[key].shape}"
            )
    model.params = params
    return model
