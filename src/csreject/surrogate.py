"""Cost-sensitive one-vs-rest surrogate loss and the ensemble decision rule."""

from __future__ import annotations

import numpy as np

from .core import CODE_AMBIGUITY, CODE_DISTANCE, Decision, RejectionCost, own_index
from .losses import MarginLossSpec


def cs_loss_batch(loss: MarginLossSpec, cost: RejectionCost, G: np.ndarray, y: np.ndarray):
    """Vectorized per-sample losses and score gradients for a batch.

    G is (n, K); y holds labels in 1..K. Returns (losses (n,), dG (n, K)).
    """
    G = np.asarray(G, dtype=float)
    c = cost.c
    n, K = G.shape
    own = own_index(G, y)
    # phi is elementwise: one call on the margins [-G, g_y], in one buffer, equals one call per part
    z = np.empty(n * K + n)
    np.negative(G.ravel(), out=z[: n * K])
    G.take(own, out=z[n * K :])
    phi, dphi = loss.value_grad(z)
    # sum the other classes column by column: a full row sum minus the own
    # class cancels when phi(-g_y) is large
    phi[own] = 0.0
    losses = c * phi[n * K :] + (1.0 - c) * sum((phi[j : n * K : K] for j in range(1, K)), start=phi[: n * K : K])
    dG = dphi[: n * K]
    dG *= -(1.0 - c)
    dG[own] = c * dphi[n * K :]
    return losses, dG.reshape(n, K)


def decide_batch(G: np.ndarray) -> np.ndarray:
    """Ensemble decision rule over one-vs-rest scores (..., K), as codes.

    Reject for distance (0) when no score is positive, for ambiguity (-1)
    when two or more are; otherwise predict the positive class (1..K).
    """
    positive = np.asarray(G, dtype=float) > 0
    n_pos = positive.sum(axis=-1)
    return np.where(n_pos == 1, positive.argmax(axis=-1) + 1, np.where(n_pos == 0, CODE_DISTANCE, CODE_AMBIGUITY))


def decide(g: np.ndarray) -> Decision:
    """decide_batch for one score vector."""
    return Decision.from_code(decide_batch(g))


def pointwise_conditional_risk_per_class(
    loss: MarginLossSpec, cost: RejectionCost, g: np.ndarray, eta: np.ndarray
) -> np.ndarray:
    """Per-class decomposition: eta_y*c*phi(g_y) + (1-eta_y)*(1-c)*phi(-g_y).

    Summing the entries gives eta @ losses, the cs_loss_batch losses of g at labels 1..K.
    """
    eta = np.asarray(eta, dtype=float)
    g = np.asarray(g, dtype=float)
    c = cost.c
    return eta * c * loss.value(g) + (1.0 - eta) * (1.0 - c) * loss.value(-g)
