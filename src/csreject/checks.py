"""Finite-difference gradient checks shared by the test suite and the CLI."""

from __future__ import annotations

from typing import Callable, NamedTuple

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
# entry gives a +h and a -h copy, so a pass carries 128 perturbed models, in
# buffers reused from pass to pass so that peak memory stays flat
_BLOCK = 64


def check_margin_losses():
    """Max relative error of each margin-loss derivative against central
    differences of step 1e-6 on 201 points of [-5, 5]; a loss passes below 1e-5."""
    grid, h = np.linspace(-5.0, 5.0, 201), 1e-6
    results = {}
    for name, loss in MARGIN_LOSSES.items():
        kinks = np.array(KINKS.get(name, ()))
        z = grid[(np.abs(grid[:, None] - kinks) >= KINK_EPS).all(axis=1)]
        numeric = (loss.value(z + h) - loss.value(z - h)) / (2.0 * h)
        analytic = loss.grad(z)
        worst = float((np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))).max(initial=0.0))
        results[name] = (worst, worst < 1e-5)
    return results


class GradCase(NamedTuple):
    """One loss checked through a model. Inputs are redrawn while a value of
    margins(G) lies within KINK_EPS of one of kinks (see check_model_gradients)."""

    loss_batch: Callable
    margins: Callable | None = None
    kinks: tuple = ()


def _numeric_param_grad(model, X, y, loss_batches):
    """Central differences of step 1e-5 of each loss's mean in every parameter
    entry; returns one gradient dict per loss.

    Each parameter gets one stack of copies, in which each block of _BLOCK
    entries sets its +h and -h entries and then restores them; the other
    parameters broadcast. One forward pass (reusing one work dict) scores the
    stack, one call per loss scores those same scores, and each copy's mean
    loss comes from a reshape. Per entry and loss this is the arithmetic of
    perturbing one entry at a time.
    """
    n, h = len(X), 1e-5
    grads, work = [{} for _ in loss_batches], {}
    for key, arr in model.params.items():
        flat = arr.ravel()
        g = np.empty((len(loss_batches), flat.size))
        copies = np.tile(flat, (2, min(_BLOCK, flat.size), 1))
        for start in range(0, flat.size, _BLOCK):
            idx = np.arange(start, min(start + _BLOCK, flat.size))
            rows = np.arange(len(idx))
            copies[0, rows, idx] = flat[idx] + h
            copies[1, rows, idx] = flat[idx] - h
            G, _ = model.forward(X, {**model.params, key: copies[:, : len(idx)].reshape(-1, *arr.shape)}, work)
            copies[:, rows, idx] = flat[idx]
            G, y_copies = G.reshape(-1, G.shape[-1]), np.tile(y, 2 * len(idx))
            for g_loss, loss_batch in zip(g, loss_batches):
                losses, _ = loss_batch(G, y_copies)
                hi, lo = losses.reshape(2, len(idx), n).mean(axis=-1)
                g_loss[idx] = (hi - lo) / (2.0 * h)
        for grad, g_loss in zip(grads, g):
            grad[key] = g_loss.reshape(arr.shape)
    return grads


def _family_draws(n_out: int, kind: str, seed: int, n_labels: int):
    """A family's model and its input draws, both from the seed alone.

    Returns (model, draw): draw(i) gives the i-th draw as (X, y, G, cache,
    off_relu), made the first time any case asks for it and then shared, so
    the rng makes its draws once and in order. off_relu says that no MLP
    pre-activation lies within KINK_EPS of the ReLU kink at 0.
    """
    rng, d, n = np.random.default_rng(seed), 5, 8
    model = make_model(kind, d, n_out, rng)
    drawn = []

    def draw(i: int):
        while len(drawn) <= i:
            X = rng.normal(size=(n, d))
            y = rng.integers(1, n_labels + 1, size=n) if n_labels > 1 else np.ones(n, dtype=int)
            G, cache = model.forward(X)
            # the MLP's pre-activation
            off_relu = kind != "mlp" or (np.abs(X @ model.params["W1"].T + model.params["b1"]) >= KINK_EPS).all()
            drawn.append((X, y, G, cache, off_relu))
        return drawn[i]

    return model, draw


def _first_kink_free(case: GradCase, draw) -> int | None:
    """The index of the first of KINK_DRAWS draws that keeps the case off its
    kinks and off the ReLU kink; None when every draw sits near one."""
    for i in range(KINK_DRAWS):
        _, _, G, _, off_relu = draw(i)
        near = [case.margins(G) - k for k in case.kinks] if case.margins is not None else []
        if off_relu and all((np.abs(v) >= KINK_EPS).all() for v in near):
            return i
    return None


def check_model_gradients(cases, n_out: int, kind: str, seed: int = 0, n_labels: int | None = None):
    """Analytic vs numeric gradient of each GradCase through a model, on 8 rows
    of 5 features; returns one (max rel error, below 1e-4) per case.

    The model and its input draws come from the seed alone. Labels are drawn
    from 1..n_labels (default n_out). Finite differences are wrong across a
    kink, so each case takes the first of up to KINK_DRAWS draws on which no
    value of its margins(G) lies within KINK_EPS of one of its kinks and no
    MLP pre-activation within KINK_EPS of the ReLU kink at 0; when every draw
    sits near a kink the case fails with an infinite error. The cases walk
    one shared sequence of draws, made only as far as the case that needs the
    most. Cases that land on the same draw difference the same model on the
    same rows, so they share one numeric pass; each keeps its own analytic
    gradient.
    """
    n_labels = n_out if n_labels is None else n_labels
    model, draw = _family_draws(n_out, kind, seed, n_labels)
    results = [(float("inf"), False)] * len(cases)
    groups: dict[int, list[int]] = {}
    for c, case in enumerate(cases):
        i = _first_kink_free(case, draw)
        if i is not None:
            groups.setdefault(i, []).append(c)
    for i, members in groups.items():
        X, y, G, cache, _ = draw(i)
        numeric = _numeric_param_grad(model, X, y, [cases[c].loss_batch for c in members])
        for c, case_numeric in zip(members, numeric):
            _, dG = cases[c].loss_batch(G, y)
            analytic = model.backward(cache, dG / len(X))
            worst = 0.0
            for key in analytic:
                denom = np.maximum(1.0, np.abs(analytic[key]))
                worst = max(worst, float((np.abs(analytic[key] - case_numeric[key]) / denom).max()))
            results[c] = (worst, worst < 1e-4)
    return results


def run_gradcheck(seed: int = 0):
    """Full gradient suite: margin losses, then the grid's training losses
    (L_CS, SCE, DEFER and ANGLE) through both model kinds. Returns {name: (max_rel_err, ok)}.

    Per model kind, the L_CS losses and SCE share a model shape and a seed,
    so they are one family of check_model_gradients; DEFER and ANGLE have
    shapes of their own."""
    results = dict(check_margin_losses())

    cost = RejectionCost(0.25)
    K = 3
    # L_CS evaluates phi at g_y and at -g_y' for the other classes
    shared = {
        f"cs-{name}": GradCase(
            METHODS[f"cs-{name}"].loss_batch(K, cost), lambda G: np.concatenate([G, -G]), KINKS.get(name, ())
        )
        for name in MARGIN_LOSSES
    }
    shared["sce"] = GradCase(METHODS["sce"].loss_batch(K, cost))
    # ANGLE scores live in R^{K-1}, its labels in 1..K, and its bent hinge
    # has kinks at u = 0 and u = 1 of u = -V g
    V = baselines.angle_vertices(K)
    angle = GradCase(METHODS["angle"].loss_batch(K, cost), lambda G: -G @ V.T, (0.0, 1.0))
    families = [  # (cases, n_out, seed, n_labels)
        (shared, K, seed, K),
        ({"defer": GradCase(METHODS["defer"].loss_batch(K, cost))}, K + 1, seed, K + 1),
        ({"angle": angle}, K - 1, seed + 7, K),
    ]
    for kind in ("linear", "mlp"):
        for cases, n_out, family_seed, n_labels in families:
            checked = check_model_gradients(list(cases.values()), n_out, kind, seed=family_seed, n_labels=n_labels)
            results.update((f"{name}/{kind}", result) for name, result in zip(cases, checked))
    return results
