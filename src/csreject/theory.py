"""Exact decision oracles and numerical theorem audits.

Everything here works on known class posteriors: Chow's rule, the
cost-sensitive Bayes classifiers, the one-vs-rest ensemble reconstruction,
the psi-transform, and an exhaustive audit of the excess-risk chain on
small finite distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CODE_ORACLE, RejectionCost
from .losses import MarginLossSpec, _expit, argmin_weighted_conditional_risk, get_loss
from .surrogate import decide_batch

# draws per array block in the randomized audits: large enough that numpy does
# the work, small enough that memory stays flat whatever the draw count
_BLOCK = 500


def _check_simplex(eta: np.ndarray) -> np.ndarray:
    """Check that every row along the last axis is a probability simplex."""
    eta = np.asarray(eta, dtype=float)
    if (eta < 0).any() or (np.abs(eta.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("eta must be a probability simplex")
    return eta


def _check_costs(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if not ((c > 0.0) & (c < 0.5)).all():
        raise ValueError("rejection costs must lie in (0, 0.5)")
    return c


def _check_support(weights: np.ndarray, etas: np.ndarray) -> None:
    """Check finite supports of any batch shape: weights (..., m), etas (..., m, K)."""
    if (weights < 0).any() or (np.abs(weights.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("weights must be a probability vector")
    _check_simplex(etas)


@dataclass(frozen=True)
class FiniteDistribution:
    """Small finite-support distribution for exhaustive risk computation.

    weights: (m,) marginal probabilities; etas: (m, K) per-point posteriors.
    """

    weights: np.ndarray
    etas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        e = np.asarray(self.etas, dtype=float)
        if w.ndim != 1 or e.ndim != 2 or len(w) != len(e):
            raise ValueError("weights (m,) and etas (m, K) must align")
        _check_support(w, e)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "etas", e)

    @property
    def K(self) -> int:
        return self.etas.shape[1]


def chow_rule_batch(eta: np.ndarray, c) -> np.ndarray:
    """Chow's rule over posteriors (..., K) and costs (...), as decision codes.

    Reject (CODE_ORACLE) when max_y eta_y <= 1 - c, else predict the argmax class.
    """
    eta, c = _check_simplex(eta), _check_costs(c)
    return np.where(eta.max(axis=-1) <= 1.0 - c, CODE_ORACLE, eta.argmax(axis=-1) + 1)


def bayes_cs_binary(p_pos: float, alpha: float) -> int:
    """Optimal cost-sensitive binary verdict: +1 iff p(y=+1|x) > alpha."""
    if not (0.0 <= p_pos <= 1.0):
        raise ValueError("p_pos must lie in [0, 1]")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return 1 if p_pos > alpha else -1


def binary_three_way_batch(p_pos, c) -> np.ndarray:
    """Chow's rule for K=2 composed from the two cost-sensitive classifiers, as codes.

    p_pos holds p(y=+1|x) per row. Class 1 plays the role of +1 and class 2
    the role of -1: predict 1 when the alpha = 1-c classifier says +1, 2 when
    the alpha = c classifier says -1, and reject (CODE_ORACLE) otherwise.
    """
    p_pos, c = np.asarray(p_pos, dtype=float), _check_costs(c)
    if ((p_pos < 0.0) | (p_pos > 1.0)).any():
        raise ValueError("p_pos must lie in [0, 1]")
    return np.where(p_pos > 1.0 - c, 1, np.where(p_pos > c, CODE_ORACLE, 2))


def ensemble_chow_batch(eta: np.ndarray, c) -> np.ndarray:
    """Chow's rule reconstructed from K one-vs-rest verdicts at alpha = 1-c, as codes."""
    eta, c = _check_simplex(eta), _check_costs(c)
    verdicts = eta > (1.0 - c)[..., None]
    n_pos = verdicts.sum(axis=-1)
    # c < 0.5 forces 1-c > 0.5, so two posteriors of an exact simplex cannot
    # both exceed it, but the 1e-9 tolerance of _check_simplex admits some
    if (n_pos > 1).any():
        raise ValueError("multiple positive one-vs-rest verdicts: eta is not a simplex at this cost")
    return np.where(n_pos == 0, CODE_ORACLE, verdicts.argmax(axis=-1) + 1)


def _codes_agree(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # oracles tag rejection differently; only the predict/reject split and
    # the predicted label matter for equivalence
    return (a == b) | ((a < 1) & (b < 1))


def psi_transform(loss_name: str, cost: RejectionCost, theta: float) -> float:
    """Calibration function translating 0-1 cost-sensitive regret to surrogate regret.

    For the squared loss, psi(theta) = theta^2 / (2c(1-c) + theta(1-2c)),
    obtained as the worst-case surrogate regret over posteriors whose
    0-1 regret is exactly theta (the constrained minimum sits at v = 0).
    The hinge transform is the identity. Closed forms exist for these two only.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    c = cost.c
    if loss_name == "hinge":
        return float(theta)
    if loss_name == "squared":
        return float(theta**2 / (2.0 * c * (1.0 - c) + theta * (1.0 - 2.0 * c)))
    raise ValueError(f"psi_transform has a closed form only for squared and hinge, not {loss_name!r}")


def psi_inverse(loss_name: str, cost: RejectionCost, eps: float) -> float:
    """Inverse psi-transform translating surrogate regret to 0-1 regret.

    Closed forms are available for the squared and hinge losses only. The
    squared-loss inverse solves theta^2 - eps*theta*(1-2c) - 2c(1-c)*eps = 0
    for its non-negative root.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return float(_psi_inverse(loss_name, cost.c, eps))


def _psi_inverse(loss_name: str, c, eps):
    """psi_inverse elementwise over costs c and regrets eps >= 0."""
    if loss_name == "hinge":
        return eps
    if loss_name == "squared":
        b = 1.0 - 2.0 * c
        return (eps * b + np.sqrt(eps**2 * b**2 + 8.0 * c * (1.0 - c) * eps)) / 2.0
    raise ValueError(f"psi_inverse has a closed form only for squared and hinge, not {loss_name!r}")


def _phi_pointwise_min(loss_name: str, w_pos: np.ndarray, w_neg: np.ndarray) -> np.ndarray:
    """Closed-form min_v of w_pos*phi(v) + w_neg*phi(-v), per entry."""
    if loss_name == "squared":
        return 4.0 * w_pos * w_neg / (w_pos + w_neg)
    if loss_name == "hinge":
        return 2.0 * np.minimum(w_pos, w_neg)
    raise ValueError(loss_name)


@dataclass(frozen=True)
class ExcessChainReport:
    lhs: float  # 0-1-c regret of the rule induced by the scores
    rhs: float  # regret of the cost-sensitive surrogate with the 0-1 margin loss
    violated: bool
    psi_rhs: dict[str, float] | None = None  # psi-bounded form per loss
    psi_violated: bool = False


def _excess_chain_batch(w, etas, G, c, psi_losses, tol):
    """The excess-risk chain on N finite instances of one shape.

    w (N, m) weights, etas (N, m, K) posteriors, G (N, m, K) scores and
    c (N,) costs. Returns per-instance arrays (lhs, rhs, violated, psi_rhs,
    psi_violated); psi_rhs maps each loss name to its bound (None when
    psi_losses is empty).
    """
    c_m = c[:, None]  # broadcasts over the support
    c_mk = c[:, None, None]  # and over the classes
    codes = decide_batch(G)
    picked = np.take_along_axis(etas, np.maximum(codes, 1)[..., None] - 1, axis=-1)[..., 0]
    # pointwise 0-1-c risk: c on a rejection, else the chance the label is wrong
    r01c = (w * np.where(codes < 1, c_m, 1.0 - picked)).sum(axis=-1)
    r01c_star = (w * np.minimum(c_m, 1.0 - etas.max(axis=-1))).sum(axis=-1)
    # L_CS instantiated with the margin zero-one loss 1[z <= 0]
    w_pos = etas * c_mk
    w_neg = (1.0 - etas) * (1.0 - c_mk)
    rcs = (w * (w_pos * (G <= 0) + w_neg * (G >= 0)).sum(axis=-1)).sum(axis=-1)
    rcs_star = (w * np.minimum(w_pos, w_neg).sum(axis=-1)).sum(axis=-1)

    lhs = r01c - r01c_star
    rhs = rcs - rcs_star
    violated = lhs > rhs + tol

    psi_rhs = None
    psi_violated = np.zeros(len(c), dtype=bool)
    if psi_losses:
        psi_rhs = {}
        for name in psi_losses:
            loss = get_loss(name)
            phi_risk = (w[..., None] * (w_pos * loss.value(G) + w_neg * loss.value(-G))).sum(axis=1)
            phi_star = (w[..., None] * _phi_pointwise_min(name, w_pos, w_neg)).sum(axis=1)
            regrets = np.maximum(phi_risk - phi_star, 0.0)  # (N, K)
            psi_rhs[name] = _psi_inverse(name, c_m, regrets).sum(axis=-1)
            psi_violated |= rhs > psi_rhs[name] + tol
    return lhs, rhs, violated, psi_rhs, psi_violated


def audit_excess_chain(
    dist: FiniteDistribution,
    score_table: np.ndarray,
    cost: RejectionCost,
    psi_losses: tuple[str, ...] = (),
    tol: float = 1e-12,
) -> ExcessChainReport:
    """Exhaustively check the excess-risk chain on a finite instance.

    Verifies that the 0-1-c regret of the induced rule is bounded by the
    regret of the cost-sensitive surrogate under the 0-1 margin loss, and
    optionally by the psi-transformed sum of per-class surrogate regrets.
    """
    G = np.asarray(score_table, dtype=float)
    if G.shape != dist.etas.shape:
        raise ValueError("score table must be (m, K) matching the distribution support")
    lhs, rhs, violated, psi_rhs, psi_violated = _excess_chain_batch(
        dist.weights[None], dist.etas[None], G[None], np.array([cost.c]), psi_losses, tol
    )
    return ExcessChainReport(
        lhs=float(lhs[0]),
        rhs=float(rhs[0]),
        violated=bool(violated[0]),
        psi_rhs=None if psi_rhs is None else {name: float(v[0]) for name, v in psi_rhs.items()},
        psi_violated=bool(psi_violated[0]),
    )


# ---------------------------------------------------------------------------
# randomized theorem audits (shared by tests and the `bench audit` command)


def random_simplex(rng: np.random.Generator, K: int) -> np.ndarray:
    return rng.dirichlet(np.ones(K))


def _random_simplices(rng: np.random.Generator, K: np.ndarray, K_max: int) -> np.ndarray:
    """One Dirichlet(1, ..., 1) draw of size K[i] per row, zero-padded to K_max columns."""
    g = rng.standard_exponential((len(K), K_max)) * (np.arange(K_max) < K[:, None])
    return g / g.sum(axis=1, keepdims=True)


def audit_oracle_equivalence(n_draws: int = 100_000, seed: int = 0, boundary_eps: float = 1e-12):
    """Props 3.1/3.2: ensemble and three-way rules agree with Chow's rule.

    K is drawn from 2..6; padding columns hold eta = 0, which can never give
    a positive one-vs-rest verdict or the argmax.
    """
    rng = np.random.default_rng(seed)
    checked = disagreements = 0
    for start in range(0, n_draws, _BLOCK):
        n = min(_BLOCK, n_draws - start)
        K = rng.integers(2, 7, size=n)
        eta = _random_simplices(rng, K, 6)
        c = rng.uniform(0.01, 0.49, size=n)
        keep = ~(np.abs(eta - (1.0 - c)[:, None]) < boundary_eps).any(axis=1)
        K, eta, c = K[keep], eta[keep], c[keep]
        ref = chow_rule_batch(eta, c)
        ok = _codes_agree(ensemble_chow_batch(eta, c), ref)
        binary = K == 2
        ok[binary] &= _codes_agree(binary_three_way_batch(eta[binary, 0], c[binary]), ref[binary])
        checked += len(ref)
        disagreements += int((~ok).sum())
    return checked, disagreements


def conditional_risk_minimizer(loss: MarginLossSpec, eta: np.ndarray, cost: RejectionCost) -> np.ndarray:
    """Componentwise minimizer g* of the pointwise conditional surrogate risk."""
    eta = _check_simplex(eta)
    c = cost.c
    return argmin_weighted_conditional_risk(loss, eta * c, (1.0 - eta) * (1.0 - c))


def audit_calibration(
    loss_names=("sigmoid", "hinge", "squared", "logistic"),
    n_draws: int = 1000,
    seed: int = 1,
    margin: float = 0.02,
):
    """Thm 5.3 forward direction: decide(g*) matches Chow's rule.

    Draws whose posteriors lie within margin of 1 - c are redrawn. Padding
    columns (eta = 0) get g* = 0, which decide never counts as positive.
    """
    rng = np.random.default_rng(seed)
    results = {}
    for name in loss_names:
        loss = get_loss(name)
        blocks, checked = [], 0
        while checked < n_draws:
            K = rng.integers(2, 6, size=_BLOCK)
            eta = _random_simplices(rng, K, 5)
            c = rng.uniform(0.05, 0.45, size=_BLOCK)
            keep = ~(np.abs(eta - (1.0 - c)[:, None]) <= margin).any(axis=1)
            blocks.append((K[keep], eta[keep], c[keep]))
            checked += int(keep.sum())
        K, eta, c = (np.concatenate(parts)[:n_draws] for parts in zip(*blocks))
        real = np.arange(5) < K[:, None]
        g_star = np.zeros_like(eta)
        w_pos, w_neg = eta * c[:, None], (1.0 - eta) * (1.0 - c)[:, None]
        g_star[real] = argmin_weighted_conditional_risk(loss, w_pos[real], w_neg[real])
        disagreements = int((~_codes_agree(decide_batch(g_star), chow_rule_batch(eta, c))).sum())
        results[name] = (len(c), disagreements)
    return results


def miscalibrated_witness(cost: RejectionCost) -> bool:
    """One concrete witness that a non-calibrated loss breaks the rule.

    A sign-flipped sigmoid rewards the wrong sign, so its conditional-risk
    minimizer must disagree with Chow's rule somewhere. Returns True when a
    disagreement is exhibited.
    """
    flipped = MarginLossSpec(
        "flipped_sigmoid",
        value=lambda z: 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float))),
        value_grad=lambda z: (_expit(z), _expit(z) * _expit(-np.asarray(z, dtype=float))),
        convex=False,
        symmetric=True,
        calibrated=False,
    )
    eta = np.array([0.9, 0.1])
    g_star = conditional_risk_minimizer(flipped, eta, cost)
    return not _codes_agree(decide_batch(g_star), chow_rule_batch(eta, cost.c))


def audit_excess_random(
    n_instances: int = 10_000,
    seed: int = 2,
    max_support: int = 5,
    max_K: int = 4,
    psi_losses: tuple[str, ...] = ("squared", "hinge"),
):
    """Thm 5.4 on random finite instances; returns (checked, violations, psi_violations).

    Each block draws its support sizes, class counts and costs as arrays,
    then each (m, K) group's weights, posteriors (Dirichlet(1, ..., 1) as
    normalized exponential draws) and scores, and checks the group in one
    array program.
    """
    rng = np.random.default_rng(seed)
    violations = psi_violations = 0
    for start in range(0, n_instances, _BLOCK):
        n = min(_BLOCK, n_instances - start)
        m = rng.integers(1, max_support + 1, size=n)
        K = rng.integers(2, max_K + 1, size=n)
        c = rng.uniform(0.01, 0.49, size=n)
        for m_g, K_g in sorted(set(zip(m.tolist(), K.tolist()))):
            c_g = c[(m == m_g) & (K == K_g)]
            w = rng.standard_exponential((len(c_g), m_g))
            w /= w.sum(axis=-1, keepdims=True)
            etas = rng.standard_exponential((len(c_g), m_g, K_g))
            etas /= etas.sum(axis=-1, keepdims=True)
            G = rng.normal(scale=2.0, size=(len(c_g), m_g, K_g))
            _check_support(w, etas)
            _, _, violated, _, psi_violated = _excess_chain_batch(w, etas, G, _check_costs(c_g), psi_losses, tol=1e-12)
            violations += int(violated.sum())
            psi_violations += int(psi_violated.sum())
    return n_instances, violations, psi_violations
