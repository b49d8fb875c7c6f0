"""Comparison methods: confidence-based softmax (SCE), the augmented
rejection-class loss (DEFER), and the angle-based bent-hinge method (ANGLE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CODE_DISTANCE, Dataset, Decision, RejectionCost, zero_one_c_risk


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) over the last axis, stabilized by max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


def sce_loss_grad(g: np.ndarray, y: int):
    g = np.asarray(g, dtype=float)
    logp = _log_softmax(g)
    grad = np.exp(logp)
    grad[y - 1] -= 1.0
    return float(-logp[y - 1]), grad


def sce_loss_batch(G: np.ndarray, y: np.ndarray):
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=int)
    logp = _log_softmax(G)
    rows = np.arange(len(G))
    losses = -logp[rows, y - 1]
    dG = np.exp(logp)
    dG[rows, y - 1] -= 1.0
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


def defer_loss_grad(g: np.ndarray, y: int, cost: RejectionCost, raw_printed_form: bool = False):
    """-log p_y - (1-c) log p_{K+1} over a (K+1)-way softmax.

    The sign-negated form is the sensible minimization objective; the raw
    printed form (unnegated) is available behind the debug flag only.
    """
    g = np.asarray(g, dtype=float)
    logp = _log_softmax(g)
    p = np.exp(logp)
    K1 = len(g)
    loss = -logp[y - 1] - (1.0 - cost.c) * logp[K1 - 1]
    total = 2.0 - cost.c  # combined one-hot mass of the two CE terms
    grad = total * p
    grad[y - 1] -= 1.0
    grad[K1 - 1] -= 1.0 - cost.c
    if raw_printed_form:
        return -loss, -grad
    return float(loss), grad


def defer_loss_batch(cost: RejectionCost):
    def batch(G: np.ndarray, y: np.ndarray):
        G = np.asarray(G, dtype=float)
        y = np.asarray(y, dtype=int)
        logp = _log_softmax(G)
        rows = np.arange(len(G))
        losses = -logp[rows, y - 1] - (1.0 - cost.c) * logp[:, -1]
        dG = (2.0 - cost.c) * np.exp(logp)
        dG[rows, y - 1] -= 1.0
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


def bent_hinge(u, a: float):
    """Value of the bent hinge: 1-au for u<0, 1-u for 0<=u<=1, else 0."""
    if a <= 0:
        raise ValueError("bend slope must be positive")
    u = np.asarray(u, dtype=float)
    return np.where(u < 0, 1.0 - a * u, np.maximum(0.0, 1.0 - u))


def bent_hinge_grad(u, a: float):
    # right-hand pieces at the kinks u = 0 and u = 1
    u = np.asarray(u, dtype=float)
    return np.where(u < 0, -a, np.where(u < 1.0, -1.0, 0.0))


@dataclass(frozen=True)
class AngleConfig:
    K: int
    bend_slope: float
    delta: float = 0.0

    def __post_init__(self):
        if self.bend_slope <= 0 or self.delta < 0:
            raise ValueError("invalid angle configuration")

    @property
    def vertices(self) -> np.ndarray:
        return angle_vertices(self.K)


def angle_loss_grad(g: np.ndarray, y: int, config: AngleConfig):
    """Sum over wrong classes y' of bent_hinge(-v_{y'} . g), with its gradient."""
    g = np.asarray(g, dtype=float)
    V = config.vertices
    u = -V @ g  # (K,)
    mask = np.ones(config.K, dtype=bool)
    mask[y - 1] = False
    loss = float(bent_hinge(u[mask], config.bend_slope).sum())
    du = bent_hinge_grad(u, config.bend_slope)
    grad = -(du[mask, None] * V[mask]).sum(axis=0)
    return loss, grad


def angle_loss_batch(config: AngleConfig):
    V = config.vertices
    a = config.bend_slope

    def batch(G: np.ndarray, y: np.ndarray):
        G = np.asarray(G, dtype=float)
        y = np.asarray(y, dtype=int)
        U = -G @ V.T  # (n, K)
        vals = bent_hinge(U, a)
        rows = np.arange(len(G))
        losses = vals.sum(axis=1) - vals[rows, y - 1]
        dU = bent_hinge_grad(U, a)
        dU[rows, y - 1] = 0.0
        dG = -dU @ V
        return losses, dG

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


def angle_decide(g: np.ndarray, config: AngleConfig) -> Decision:
    return Decision.from_code(angle_decide_batch(g, config.vertices, config.delta))


def tune_delta(model, val: Dataset, cost: RejectionCost, config: AngleConfig, candidates=None) -> float:
    """Pick the threshold minimizing validation 0-1-c risk; ties go low."""
    G, V = model.scores(val.X), config.vertices
    return tune_threshold(lambda deltas: angle_decide_batch(G, V, deltas[:, None]), val.y, cost, candidates)
