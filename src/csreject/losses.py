"""The nine binary margin losses with analytic derivatives."""

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
    value: Callable[[np.ndarray], np.ndarray]  # phi(z)
    value_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]  # (phi(z), phi'(z)) in one pass

    def grad(self, z):
        return self.value_grad(z)[1]


def _squared(z):
    return (1.0 - z) ** 2


def _squared_vg(z):
    t = 1.0 - z
    return t**2, -2.0 * t


def _squared_hinge(z):
    return np.maximum(0.0, 1.0 - z) ** 2


def _squared_hinge_vg(z):
    t = np.maximum(0.0, 1.0 - z)
    return t**2, -2.0 * t


def _exponential(z):
    return np.exp(np.minimum(-np.asarray(z, dtype=float), _EXP_CLAMP))


def _exponential_vg(z):
    phi = _exponential(z)
    return phi, -phi


def _logistic(z):
    # log(1 + exp(-z)) in a branch that never overflows
    return np.logaddexp(0.0, -np.asarray(z, dtype=float))


def _logistic_vg(z):
    return _logistic(z), -_expit(-np.asarray(z, dtype=float))


def _hinge(z):
    return np.maximum(0.0, 1.0 - z)


def _hinge_vg(z):
    # subgradient 0 at the kink z = 1
    return _hinge(z), np.where(np.asarray(z, dtype=float) < 1.0, -1.0, 0.0)


def _savage(z):
    s = _expit(-2.0 * np.asarray(z, dtype=float))
    return s**2


def _savage_vg(z):
    s = _expit(-2.0 * np.asarray(z, dtype=float))
    s2 = s**2
    return s2, -4.0 * s2 * (1.0 - s)


def _tangent(z):
    return (2.0 * np.arctan(z) - 1.0) ** 2


def _tangent_vg(z):
    z = np.asarray(z, dtype=float)
    t = 2.0 * np.arctan(z) - 1.0
    return t**2, 4.0 * t / (1.0 + z**2)


def _ramp(z):
    return np.minimum(np.maximum(0.5 - 0.5 * np.asarray(z, dtype=float), 0.0), 1.0)  # np.clip without its Python layers


def _ramp_vg(z):
    # subgradients: -0.5 at z = -1, 0 at z = +1
    z = np.asarray(z, dtype=float)
    return _ramp(z), np.where((z >= -1.0) & (z < 1.0), -0.5, 0.0)


def _sigmoid(z):
    return _expit(-np.asarray(z, dtype=float))


def _sigmoid_vg(z):
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):  # _expit(-z) and _expit(z), as in _expit
        phi = 1.0 / (1.0 + np.exp(z))
        return phi, (-1.0 / (1.0 + np.exp(-z))) * phi  # -1/x is -(1/x) bit for bit


MARGIN_LOSSES: dict[str, MarginLossSpec] = {
    spec.name: spec
    for spec in [
        MarginLossSpec("squared", _squared, _squared_vg),
        MarginLossSpec("squared_hinge", _squared_hinge, _squared_hinge_vg),
        MarginLossSpec("exponential", _exponential, _exponential_vg),
        MarginLossSpec("logistic", _logistic, _logistic_vg),
        MarginLossSpec("hinge", _hinge, _hinge_vg),
        MarginLossSpec("savage", _savage, _savage_vg),
        MarginLossSpec("tangent", _tangent, _tangent_vg),
        MarginLossSpec("ramp", _ramp, _ramp_vg),
        MarginLossSpec("sigmoid", _sigmoid, _sigmoid_vg),
    ]
}


def get_loss(name: str) -> MarginLossSpec:
    try:
        return MARGIN_LOSSES[name]
    except KeyError:
        raise KeyError(f"unknown margin loss {name!r}; choose from {sorted(MARGIN_LOSSES)}") from None


# grid points per bound block, loss values computed at a time, and objective
# points held at a time by the scan; weight pairs bounded at a time
_SCAN_BLOCK = 256
_VALUE_BLOCK = 4096
_SCAN_CHUNK = 4096
_BOUND_PAIRS = 64


def _kept_spans(A, B, wp, wn):
    """Each pair's grid span [lo, hi), from its first to its last block whose
    lower bound on wp * A + wn * B is at most the least upper bound of all."""
    starts = np.arange(0, len(A), _SCAN_BLOCK)
    lo_A, hi_A = np.minimum.reduceat(A, starts), np.maximum.reduceat(A, starts)
    lo_B, hi_B = np.minimum.reduceat(B, starts), np.maximum.reduceat(B, starts)
    first, last = np.empty(len(wp), dtype=int), np.empty(len(wp), dtype=int)
    for p0 in range(0, len(wp), _BOUND_PAIRS):
        p_wp, p_wn = wp[p0 : p0 + _BOUND_PAIRS, None], wn[p0 : p0 + _BOUND_PAIRS, None]
        keep = p_wp * lo_A + p_wn * lo_B <= (p_wp * hi_A + p_wn * hi_B).min(axis=1, keepdims=True)
        first[p0 : p0 + _BOUND_PAIRS] = starts[keep.argmax(axis=1)]
        last[p0 : p0 + _BOUND_PAIRS] = starts[len(starts) - 1 - keep[:, ::-1].argmax(axis=1)]
    return first, np.minimum(last + _SCAN_BLOCK, len(A))


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

    The scan skips each grid block whose lower bound on the objective exceeds
    the least upper bound over all blocks, and it holds the grid, its loss
    values A and B, and buffers of a fixed size; the result is that of the
    full scan bit for bit (README, "Audits as arrays").
    """
    w_pos, w_neg = np.broadcast_arrays(np.asarray(w_pos, dtype=float), np.asarray(w_neg, dtype=float))
    if not (np.isfinite(w_pos).all() and np.isfinite(w_neg).all()):
        raise ValueError("weights must be finite")
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
    A, B = np.empty_like(grid), np.empty_like(grid)
    for s in range(0, len(grid), _VALUE_BLOCK):
        # a margin loss is elementwise: a block's values are the whole grid's bits
        A[s : s + _VALUE_BLOCK] = loss.value(grid[s : s + _VALUE_BLOCK])
        B[s : s + _VALUE_BLOCK] = loss.value(-grid[s : s + _VALUE_BLOCK])
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError(f"loss {loss.name!r} must be finite on [-{bound}, {bound}]")
    obj, scratch = np.empty((2, min(_SCAN_CHUNK, len(grid))))
    best = np.empty(len(wp), dtype=int)
    for j, (lo, hi) in enumerate(zip(*_kept_spans(A, B, wp, wn))):
        # the first minimum of wp * A + wn * B over the kept span, a chunk at
        # a time; the first chunk seeds it, so an all-inf span gives lo
        for c in range(lo, hi, _SCAN_CHUNK):
            e = min(c + _SCAN_CHUNK, hi)
            o, t = obj[: e - c], scratch[: e - c]
            np.add(np.multiply(wp[j], A[c:e], out=o), np.multiply(wn[j], B[c:e], out=t), out=o)
            k = np.argmin(o)
            if c == lo or o[k] < least:
                best[j], least = c + k, o[k]
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
