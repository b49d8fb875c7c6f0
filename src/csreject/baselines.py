"""Comparison methods: confidence-based softmax (SCE), the augmented
rejection-class loss (DEFER), and the angle-based bent-hinge method (ANGLE)."""

from __future__ import annotations

import functools

import numpy as np

from .core import CODE_DISTANCE, Dataset, Decision, RejectionCost, own_index, zero_one_c_risk


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) over the last axis, stabilized by max subtraction. The
    max and the sum run column by column, cheaper than axis reductions for few
    columns and equal to them up to 7; from 8 on, numpy's pairwise sum may round
    differently."""
    cols = range(x.shape[-1])
    shifted = x - functools.reduce(np.maximum, [x[..., j] for j in cols])[..., None]
    e = np.exp(shifted)
    shifted -= np.log(sum(e[..., j] for j in cols))[..., None]
    return shifted


def softmax(g: np.ndarray, T=1.0) -> np.ndarray:
    """Temperature-scaled softmax over the last axis, stabilized by max subtraction; T may be an array."""
    if np.any(np.asarray(T) <= 0):
        raise ValueError("temperature must be positive")
    x = np.asarray(g, dtype=float) / T
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def default_candidates() -> list[float]:
    """Tuning grid for the temperature / rejection threshold.

    Twenty log-spaced points ending at 1 plus the integers 2..10. A log
    scale cannot reach 0, so the low end is pinned at 1e-3.
    """
    return list(np.geomspace(1e-3, 1.0, 20)) + [float(k) for k in range(2, 11)]


def tune_threshold(decide_all, labels, cost: RejectionCost, candidates=None) -> float:
    """Pick the candidate minimizing the 0-1-c risk of its decisions; ties go low.

    decide_all maps the sorted candidates, an (m,) array, to (m, n) decision
    codes, so every candidate is scored from one score matrix.
    """
    candidates = sorted(default_candidates() if candidates is None else candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    risks = zero_one_c_risk(decide_all(np.asarray(candidates, dtype=float)), labels, cost)
    best, best_risk = None, np.inf
    for candidate, risk in zip(candidates, risks):
        if risk < best_risk - 1e-15:
            best, best_risk = candidate, risk
    return float(best)


# ---------------------------------------------------------------------------
# SCE: softmax cross-entropy with temperature-scaled Chow plug-in


def sce_loss_batch(G: np.ndarray, y: np.ndarray):
    """Per-sample cross-entropy losses (n,) and score gradients (n, K); exact up to K = 7 (see _log_softmax)."""
    G = np.ascontiguousarray(G, dtype=float)
    own = own_index(G, y)
    logp = _log_softmax(G)
    losses = -logp.take(own)
    dG = np.exp(logp, out=logp)
    dG.ravel()[own] -= 1.0
    return losses, dG


def sce_decide_batch(G: np.ndarray, T, cost: RejectionCost) -> np.ndarray:
    """Plug-in Chow rule, as codes: reject (0) when the largest softmax probability is at most 1 - c."""
    P = softmax(G, T)
    return np.where(P.max(axis=-1) <= 1.0 - cost.c, CODE_DISTANCE, P.argmax(axis=-1) + 1)


def sce_decide(g: np.ndarray, T: float, cost: RejectionCost) -> Decision:
    return Decision.from_code(sce_decide_batch(g, T, cost))


def tune_temperature(model, val: Dataset, cost: RejectionCost, candidates=None) -> float:
    """Pick the temperature minimizing validation 0-1-c risk; ties go low."""
    G = model.scores(val.X)
    return tune_threshold(lambda Ts: sce_decide_batch(G, Ts[:, None, None], cost), val.y, cost, candidates)


# ---------------------------------------------------------------------------
# DEFER: augmented rejection class K+1 on a cross-entropy objective


def defer_loss_batch(cost: RejectionCost):
    def batch(G: np.ndarray, y: np.ndarray):
        """Losses (n,) and score gradients (n, K+1); exact up to K+1 = 7 (see _log_softmax)."""
        G = np.ascontiguousarray(G, dtype=float)
        own = own_index(G, y)
        logp = _log_softmax(G)
        losses = -logp.take(own) - (1.0 - cost.c) * logp[:, -1]
        dG = np.exp(logp, out=logp)
        dG *= 2.0 - cost.c
        dG.ravel()[own] -= 1.0
        dG[:, -1] -= 1.0 - cost.c
        return losses, dG

    return batch


def defer_decide_batch(G: np.ndarray) -> np.ndarray:
    """Reject (0) only on a strict argmax at the augmented index K+1, as codes."""
    G = np.asarray(G, dtype=float)
    # argmax prefers the earliest index, so a tie between a class and the
    # rejection slot already resolves to the class
    k = G.argmax(axis=-1)
    return np.where(k == G.shape[-1] - 1, CODE_DISTANCE, k + 1)


def defer_decide(g: np.ndarray) -> Decision:
    return Decision.from_code(defer_decide_batch(g))


# ---------------------------------------------------------------------------
# ANGLE: simplex-vertex encoding with a bent hinge loss


def angle_vertices(K: int) -> np.ndarray:
    """K unit vertices of a regular simplex in R^{K-1}.

    Unit norms, pairwise inner products -1/(K-1), zero sum.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    V = np.zeros((K, K - 1))
    V[0] = (K - 1) ** -0.5
    base = -(1.0 + np.sqrt(K)) / (K - 1) ** 1.5
    scale = np.sqrt(K / (K - 1))
    for j in range(2, K + 1):
        V[j - 1] = base
        V[j - 1, j - 2] += scale
    return V


def bend_slopes(K: int, cost: RejectionCost) -> tuple[float, float]:
    """The two suggested bending slopes a1 = (K-1-c)/(Kc-c), a2 = (K-1)(1-c)/c."""
    c = cost.c
    a1 = (K - 1 - c) / (K * c - c)
    a2 = (K - 1) * (1.0 - c) / c
    return a1, a2


def bent_hinge_value_grad(u, a: float):
    """Value and derivative of the bent hinge: 1-au for u<0, 1-u for 0<=u<=1,
    else 0. The derivative takes the right-hand pieces at the kinks u = 0 and u = 1."""
    if a <= 0:
        raise ValueError("bend slope must be positive")
    u = np.asarray(u, dtype=float)
    neg = u < 0
    return np.where(neg, 1.0 - a * u, np.maximum(0.0, 1.0 - u)), np.where(neg, -a, np.where(u < 1.0, -1.0, 0.0))


def angle_loss_batch(K: int, a: float):
    """The bent-hinge loss of K classes at bend slope a, on scores of width K-1."""
    V = angle_vertices(K)

    def batch(G: np.ndarray, y: np.ndarray):
        """Losses (n,), summed over classes column by column (a row sum's numbers up to K = 7), and dG (n, K-1)."""
        U = -np.asarray(G, dtype=float) @ V.T  # (n, K)
        own = own_index(U, y)
        vals, dU = bent_hinge_value_grad(U, a)
        losses = sum(vals[:, j] for j in range(K)) - vals.take(own)
        dU.ravel()[own] = 0.0
        return losses, -dU @ V

    return batch


def soft_threshold(v, delta: float):
    """sign(v) * max(|v| - delta, 0)."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - delta, 0.0)


def angle_decide_batch(G: np.ndarray, vertices: np.ndarray, delta) -> np.ndarray:
    """Reject (0) when every soft-thresholded vertex projection is zero, as codes.

    soft_threshold(v, delta) vanishes exactly when |v| <= delta; delta may be
    an array that broadcasts against G's leading axes.
    """
    if np.any(np.asarray(delta) < 0):
        raise ValueError("delta must be non-negative")
    proj = np.asarray(G, dtype=float) @ vertices.T
    return np.where(np.abs(proj).max(axis=-1) <= delta, CODE_DISTANCE, proj.argmax(axis=-1) + 1)


def angle_decide(g: np.ndarray, K: int, delta: float) -> Decision:
    return Decision.from_code(angle_decide_batch(g, angle_vertices(K), delta))


def tune_delta(model, val: Dataset, cost: RejectionCost, candidates=None) -> float:
    """Pick the threshold minimizing validation 0-1-c risk; ties go low. The vertices are those of val.K."""
    G, V = model.scores(val.X), angle_vertices(val.K)
    return tune_threshold(lambda deltas: angle_decide_batch(G, V, deltas[:, None]), val.y, cost, candidates)
