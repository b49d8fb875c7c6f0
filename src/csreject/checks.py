"""Finite-difference gradient checks shared by the test suite and the CLI."""

from __future__ import annotations

import numpy as np

from . import baselines
from .core import RejectionCost
from .harness import METHODS
from .losses import MARGIN_LOSSES
from .models import make_model

# kink locations per margin loss; points within KINK_EPS are skipped
KINKS = {
    "hinge": (1.0,),
    "squared_hinge": (1.0,),
    "ramp": (-1.0, 1.0),
}
KINK_EPS = 1e-3
# model-level checks redraw their inputs at most this many times to stay off kinks
KINK_DRAWS = 20


# parameter entries per stacked forward pass in the numeric gradient: each
# entry gives a +h and a -h copy, so a pass carries 32 perturbed models,
# enough to amortize the per-call overhead while peak memory stays flat
_BLOCK = 16


def check_margin_losses(grid=None, h: float = 1e-6, tol: float = 1e-5):
    """Max relative error of each margin-loss derivative on a grid."""
    if grid is None:
        grid = np.linspace(-5.0, 5.0, 201)
    grid = np.asarray(grid, dtype=float)
    results = {}
    for name, loss in MARGIN_LOSSES.items():
        kinks = np.array(KINKS.get(name, ()))
        z = grid[(np.abs(grid[:, None] - kinks) >= KINK_EPS).all(axis=1)]
        numeric = (loss.value(z + h) - loss.value(z - h)) / (2.0 * h)
        analytic = loss.grad(z)
        worst = float((np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))).max(initial=0.0))
        results[name] = (worst, worst < tol)
    return results


def _numeric_param_grad(model, X, y, loss_batch, h: float = 1e-5):
    """Central differences of the mean loss in every parameter entry.

    Each block of _BLOCK entries of one parameter becomes a stack of +h and
    -h copies of that parameter; the other parameters broadcast. One forward
    pass and one loss call score the whole stack, and each copy's mean loss
    comes from a reshape. Per entry this is the arithmetic of perturbing one
    entry at a time.
    """
    n = len(X)
    grads = {}
    for key, arr in model.params.items():
        flat = arr.ravel()
        g = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):
            idx = np.arange(start, min(start + _BLOCK, flat.size))
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


def check_model_gradients(
    loss_batch, n_out: int, kind: str, seed: int = 0, d: int = 5, n: int = 8, tol: float = 1e-4,
    n_labels: int | None = None, margins=None, kinks=(),
):
    """End-to-end analytic vs numeric gradient through a model; returns max rel error.

    Labels are drawn from 1..n_labels (default n_out). Finite differences are
    wrong across a kink, so the inputs are redrawn, up to KINK_DRAWS times,
    while a value of margins(G) lies within KINK_EPS of one of `kinks` or an
    MLP pre-activation lies within KINK_EPS of the ReLU kink at 0. When every
    draw sits near a kink the check fails with an infinite error.
    """
    rng = np.random.default_rng(seed)
    model = make_model(kind, d, n_out, rng)
    n_labels = n_out if n_labels is None else n_labels
    for _ in range(KINK_DRAWS):
        X = rng.normal(size=(n, d))
        y = rng.integers(1, n_labels + 1, size=n) if n_labels > 1 else np.ones(n, dtype=int)
        G, cache = model.forward(X)
        near = [margins(G) - k for k in kinks] if margins is not None else []
        if kind == "mlp":
            near.append(X @ model.params["W1"].T + model.params["b1"])  # the pre-activation
        if all((np.abs(v) >= KINK_EPS).all() for v in near):
            break
    else:
        return float("inf"), False

    _, dG = loss_batch(G, y)
    analytic = model.backward(cache, dG / n)
    numeric = _numeric_param_grad(model, X, y, loss_batch)
    worst = 0.0
    for key in analytic:
        denom = np.maximum(1.0, np.abs(analytic[key]))
        worst = max(worst, float((np.abs(analytic[key] - numeric[key]) / denom).max()))
    return worst, worst < tol


def run_gradcheck(seed: int = 0):
    """Full gradient suite: margin losses, then the grid's training losses
    (L_CS, SCE, DEFER and ANGLE) through both model kinds. Returns {name: (max_rel_err, ok)}."""
    results = dict(check_margin_losses())

    cost = RejectionCost(0.25)
    K = 3
    for name in MARGIN_LOSSES:
        batch = METHODS[f"cs-{name}"].loss_batch(K, cost)
        for kind in ("linear", "mlp"):
            # L_CS evaluates phi at g_y and at -g_y' for the other classes
            results[f"cs-{name}/{kind}"] = check_model_gradients(
                batch, K, kind, seed=seed, margins=lambda G: np.concatenate([G, -G]), kinks=KINKS.get(name, ())
            )

    for kind in ("linear", "mlp"):
        results[f"sce/{kind}"] = check_model_gradients(METHODS["sce"].loss_batch(K, cost), K, kind, seed=seed)
        results[f"defer/{kind}"] = check_model_gradients(METHODS["defer"].loss_batch(K, cost), K + 1, kind, seed=seed)

    # ANGLE scores live in R^{K-1}, its labels in 1..K, and its bent hinge
    # has kinks at u = 0 and u = 1 of u = -V g
    angle_batch = METHODS["angle"].loss_batch(K, cost)
    V = baselines.angle_vertices(K)
    for kind in ("linear", "mlp"):
        results[f"angle/{kind}"] = check_model_gradients(
            angle_batch, K - 1, kind, seed=seed + 7, n_labels=K, margins=lambda G: -G @ V.T, kinks=(0.0, 1.0)
        )
    return results
