"""The nine binary margin losses with analytic derivatives and property flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# exp(-z) is clamped at exp(30) so steep losses stay finite during training;
# the raw formula is used everywhere z > -30.
_EXP_CLAMP = 30.0


def _expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    For x below about -709, exp(-x) overflows to inf and the result is the
    exact limit 0, so the overflow is silenced rather than reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class MarginLossSpec:
    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    convex: bool
    symmetric: bool
    calibrated: bool = True


def _squared(z):
    return (1.0 - z) ** 2


def _squared_grad(z):
    return -2.0 * (1.0 - z)


def _squared_hinge(z):
    return np.maximum(0.0, 1.0 - z) ** 2


def _squared_hinge_grad(z):
    return -2.0 * np.maximum(0.0, 1.0 - z)


def _exponential(z):
    return np.exp(np.minimum(-np.asarray(z, dtype=float), _EXP_CLAMP))


def _exponential_grad(z):
    return -np.exp(np.minimum(-np.asarray(z, dtype=float), _EXP_CLAMP))


def _logistic(z):
    # log(1 + exp(-z)) in a branch that never overflows
    return np.logaddexp(0.0, -np.asarray(z, dtype=float))


def _logistic_grad(z):
    return -_expit(-np.asarray(z, dtype=float))


def _hinge(z):
    return np.maximum(0.0, 1.0 - z)


def _hinge_grad(z):
    # subgradient 0 at the kink z = 1
    return np.where(np.asarray(z, dtype=float) < 1.0, -1.0, 0.0)


def _savage(z):
    s = _expit(-2.0 * np.asarray(z, dtype=float))
    return s**2


def _savage_grad(z):
    s = _expit(-2.0 * np.asarray(z, dtype=float))
    return -4.0 * s**2 * (1.0 - s)


def _tangent(z):
    return (2.0 * np.arctan(z) - 1.0) ** 2


def _tangent_grad(z):
    z = np.asarray(z, dtype=float)
    return 4.0 * (2.0 * np.arctan(z) - 1.0) / (1.0 + z**2)


def _ramp(z):
    return np.clip(0.5 - 0.5 * np.asarray(z, dtype=float), 0.0, 1.0)


def _ramp_grad(z):
    # subgradients: -0.5 at z = -1, 0 at z = +1
    z = np.asarray(z, dtype=float)
    return np.where((z >= -1.0) & (z < 1.0), -0.5, 0.0)


def _sigmoid(z):
    return _expit(-np.asarray(z, dtype=float))


def _sigmoid_grad(z):
    z = np.asarray(z, dtype=float)
    return -_expit(z) * _expit(-z)


MARGIN_LOSSES: dict[str, MarginLossSpec] = {
    spec.name: spec
    for spec in [
        MarginLossSpec("squared", _squared, _squared_grad, convex=True, symmetric=False),
        MarginLossSpec("squared_hinge", _squared_hinge, _squared_hinge_grad, convex=True, symmetric=False),
        MarginLossSpec("exponential", _exponential, _exponential_grad, convex=True, symmetric=False),
        MarginLossSpec("logistic", _logistic, _logistic_grad, convex=True, symmetric=False),
        MarginLossSpec("hinge", _hinge, _hinge_grad, convex=True, symmetric=False),
        MarginLossSpec("savage", _savage, _savage_grad, convex=False, symmetric=False),
        MarginLossSpec("tangent", _tangent, _tangent_grad, convex=False, symmetric=False),
        MarginLossSpec("ramp", _ramp, _ramp_grad, convex=False, symmetric=True),
        MarginLossSpec("sigmoid", _sigmoid, _sigmoid_grad, convex=False, symmetric=True),
    ]
}


def get_loss(name: str) -> MarginLossSpec:
    try:
        return MARGIN_LOSSES[name]
    except KeyError:
        raise KeyError(f"unknown margin loss {name!r}; choose from {sorted(MARGIN_LOSSES)}") from None


def phi_eval(loss: MarginLossSpec, z):
    return loss.value(z)


def phi_grad(loss: MarginLossSpec, z):
    return loss.grad(z)


def binary_conditional_risk(loss: MarginLossSpec, eta1: float, v) -> float:
    """eta1 * phi(v) + (1 - eta1) * phi(-v) for a scalar score v."""
    if not (0.0 <= eta1 <= 1.0):
        raise ValueError("eta1 must lie in [0, 1]")
    v = np.asarray(v, dtype=float)
    return eta1 * loss.value(v) + (1.0 - eta1) * loss.value(-v)


def argmin_weighted_conditional_risk(
    loss: MarginLossSpec,
    w_pos,
    w_neg,
    bound: float = 20.0,
    grid_step: float = 1e-3,
):
    """Minimize v -> w_pos * phi(v) + w_neg * phi(-v) over [-bound, bound].

    A dense grid scan (guards the non-convex losses against local minima)
    followed by golden-section refinement around the best grid point. The
    weights may be equal-shape arrays, one minimizer per pair; scalars give a
    float. The caller typically only consumes the sign of the result.
    """
    w_pos, w_neg = np.broadcast_arrays(np.asarray(w_pos, dtype=float), np.asarray(w_neg, dtype=float))
    if (w_pos < 0).any() or (w_neg < 0).any():
        raise ValueError("weights must be non-negative")
    if (w_pos + w_neg <= 0).any():
        raise ValueError("at least one weight must be positive")
    out = np.zeros(w_pos.shape)
    # at w_pos == w_neg the objective is even in v, so the minimizer set is
    # symmetric; 0 is always a representative for every loss in the registry
    todo = w_pos != w_neg
    wp, wn = w_pos[todo], w_neg[todo]

    grid = np.arange(-bound, bound + grid_step / 2, grid_step)
    A, B = loss.value(grid), loss.value(-grid)
    obj, scratch = np.empty_like(grid), np.empty_like(grid)
    best = np.empty(len(wp), dtype=int)
    for j in range(len(wp)):
        # w_pos * A + w_neg * B, one pair at a time so memory stays one grid wide
        np.add(np.multiply(wp[j], A, out=obj), np.multiply(wn[j], B, out=scratch), out=obj)
        best[j] = np.argmin(obj)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, len(grid) - 1)]

    def f(v):
        return wp * loss.value(v) + wn * loss.value(-v)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        # where f1 < f2 the minimum lies in [a, x2], elsewhere in [x1, b];
        # each side keeps one interior point and evaluates one new one
        left = f1 < f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x_new = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f_new = f(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    out[todo] = (a + b) / 2.0
    return float(out) if out.ndim == 0 else out
