"""Exact decision oracles and numerical theorem audits.

Everything here works on known class posteriors: Chow's rule, the
cost-sensitive Bayes classifiers, the one-vs-rest ensemble reconstruction,
the psi-transform, and an exhaustive audit of the excess-risk chain on
small finite distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import REASON_ORACLE, Decision, RejectionCost
from .losses import MarginLossSpec, argmin_weighted_conditional_risk, get_loss
from .surrogate import decide, decide_batch


def _check_simplex(eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if (eta < 0).any() or abs(eta.sum() - 1.0) > 1e-9:
        raise ValueError("eta must be a probability simplex")
    return eta


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
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        for eta in e:
            _check_simplex(eta)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "etas", e)

    @property
    def K(self) -> int:
        return self.etas.shape[1]


def chow_rule(eta: np.ndarray, cost: RejectionCost) -> Decision:
    """Reject when max_y eta_y <= 1 - c, else predict the argmax class."""
    eta = _check_simplex(eta)
    if eta.max() <= 1.0 - cost.c:
        return Decision.reject(REASON_ORACLE)
    return Decision.predict(int(np.argmax(eta)) + 1)


def bayes_cs_binary(p_pos: float, alpha: float) -> int:
    """Optimal cost-sensitive binary verdict: +1 iff p(y=+1|x) > alpha."""
    if not (0.0 <= p_pos <= 1.0):
        raise ValueError("p_pos must lie in [0, 1]")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return 1 if p_pos > alpha else -1


def binary_three_way(p_pos: float, cost: RejectionCost) -> Decision:
    """Chow's rule for K=2 composed from the two cost-sensitive classifiers.

    Class 1 plays the role of +1 and class 2 the role of -1.
    """
    c = cost.c
    if bayes_cs_binary(p_pos, 1.0 - c) == 1:
        return Decision.predict(1)
    if bayes_cs_binary(p_pos, c) == -1:
        return Decision.predict(2)
    return Decision.reject(REASON_ORACLE)


def ensemble_chow(eta: np.ndarray, cost: RejectionCost) -> Decision:
    """Chow's rule reconstructed from K one-vs-rest verdicts at alpha = 1-c."""
    eta = _check_simplex(eta)
    verdicts = eta > 1.0 - cost.c
    n_pos = int(verdicts.sum())
    if n_pos == 0:
        return Decision.reject(REASON_ORACLE)
    # c < 0.5 forces 1-c > 0.5, so two posteriors of an exact simplex cannot
    # both exceed it, but the 1e-9 tolerance of _check_simplex admits some
    if n_pos > 1:
        raise ValueError("multiple positive one-vs-rest verdicts: eta is not a simplex at this cost")
    return Decision.predict(int(np.argmax(verdicts)) + 1)


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
    c = cost.c
    if loss_name == "hinge":
        return float(eps)
    if loss_name == "squared":
        b = 1.0 - 2.0 * c
        return float((eps * b + np.sqrt(eps**2 * b**2 + 8.0 * c * (1.0 - c) * eps)) / 2.0)
    raise ValueError(f"psi_inverse has a closed form only for squared and hinge, not {loss_name!r}")


# ---------------------------------------------------------------------------
# pointwise risk pieces used by the excess-risk audit


def pointwise_01c_risk(decision: Decision, eta: np.ndarray, cost: RejectionCost) -> float:
    if decision.is_reject:
        return cost.c
    return 1.0 - float(eta[decision.label - 1])


def _cs01_pointwise(g: np.ndarray, eta: np.ndarray, cost: RejectionCost) -> float:
    # L_CS instantiated with the margin zero-one loss 1[z <= 0]
    c = cost.c
    pos = (np.asarray(g) <= 0).astype(float)
    neg = (np.asarray(g) >= 0).astype(float)
    return float((eta * c * pos + (1.0 - eta) * (1.0 - c) * neg).sum())


def _cs01_pointwise_min(eta: np.ndarray, cost: RejectionCost) -> float:
    c = cost.c
    return float(np.minimum(eta * c, (1.0 - eta) * (1.0 - c)).sum())


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
    psi_rhs: dict[str, float] | None = None  # psi-bounded form per loss, +inf if out of range
    psi_violated: bool = False


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
    w, etas = dist.weights, dist.etas
    c = cost.c

    r01c = r01c_star = rcs = rcs_star = 0.0
    for wm, eta, g, code in zip(w, etas, G, decide_batch(G)):
        r01c += wm * pointwise_01c_risk(Decision.from_code(code), eta, cost)
        r01c_star += wm * min(c, 1.0 - float(eta.max()))
        rcs += wm * _cs01_pointwise(g, eta, cost)
        rcs_star += wm * _cs01_pointwise_min(eta, cost)

    lhs = r01c - r01c_star
    rhs = rcs - rcs_star
    violated = lhs > rhs + tol

    psi_rhs = None
    psi_violated = False
    if psi_losses:
        psi_rhs = {}
        for name in psi_losses:
            loss = get_loss(name)
            w_pos = etas * c  # (m, K)
            w_neg = (1.0 - etas) * (1.0 - c)
            phi_risk = (w[:, None] * (w_pos * loss.value(G) + w_neg * loss.value(-G))).sum(axis=0)
            phi_star = (w[:, None] * _phi_pointwise_min(name, w_pos, w_neg)).sum(axis=0)
            regrets = np.maximum(phi_risk - phi_star, 0.0)
            total = 0.0
            for eps in regrets:
                try:
                    total += psi_inverse(name, cost, float(eps))
                except ValueError:
                    total = np.inf
                    break
            psi_rhs[name] = total
            if rhs > total + tol:
                psi_violated = True

    return ExcessChainReport(lhs=lhs, rhs=rhs, violated=violated, psi_rhs=psi_rhs, psi_violated=psi_violated)


# ---------------------------------------------------------------------------
# randomized theorem audits (shared by tests and the `bench audit` command)


def random_simplex(rng: np.random.Generator, K: int) -> np.ndarray:
    return rng.dirichlet(np.ones(K))


def _decisions_agree(a: Decision, b: Decision) -> bool:
    # oracles tag rejection differently; only the predict/reject split and
    # the predicted label matter for equivalence
    if a.is_reject and b.is_reject:
        return True
    if a.is_reject != b.is_reject:
        return False
    return a.label == b.label


def audit_oracle_equivalence(n_draws: int = 100_000, seed: int = 0, boundary_eps: float = 1e-12):
    """Props 3.1/3.2: ensemble and three-way rules agree with Chow's rule."""
    rng = np.random.default_rng(seed)
    checked = disagreements = 0
    for _ in range(n_draws):
        K = int(rng.integers(2, 7))
        eta = random_simplex(rng, K)
        c = float(rng.uniform(0.01, 0.49))
        if np.any(np.abs(eta - (1.0 - c)) < boundary_eps):
            continue
        cost = RejectionCost(c)
        ref = chow_rule(eta, cost)
        ok = _decisions_agree(ensemble_chow(eta, cost), ref)
        if K == 2:
            ok = ok and _decisions_agree(binary_three_way(float(eta[0]), cost), ref)
        checked += 1
        disagreements += 0 if ok else 1
    return checked, disagreements


def conditional_risk_minimizer(loss: MarginLossSpec, eta: np.ndarray, cost: RejectionCost) -> np.ndarray:
    """Componentwise minimizer g* of the pointwise conditional surrogate risk."""
    eta = _check_simplex(eta)
    c = cost.c
    return np.array(
        [argmin_weighted_conditional_risk(loss, float(e) * c, (1.0 - float(e)) * (1.0 - c)) for e in eta]
    )


def audit_calibration(
    loss_names=("sigmoid", "hinge", "squared", "logistic"),
    n_draws: int = 1000,
    seed: int = 1,
    margin: float = 0.02,
):
    """Thm 5.3 forward direction: decide(g*) matches Chow's rule."""
    rng = np.random.default_rng(seed)
    results = {}
    for name in loss_names:
        loss = get_loss(name)
        checked = disagreements = 0
        while checked < n_draws:
            K = int(rng.integers(2, 6))
            eta = random_simplex(rng, K)
            c = float(rng.uniform(0.05, 0.45))
            if np.any(np.abs(eta - (1.0 - c)) <= margin):
                continue
            cost = RejectionCost(c)
            g_star = conditional_risk_minimizer(loss, eta, cost)
            if not _decisions_agree(decide(g_star), chow_rule(eta, cost)):
                disagreements += 1
            checked += 1
        results[name] = (checked, disagreements)
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
        grad=lambda z: np.exp(-np.asarray(z, dtype=float)) / (1.0 + np.exp(-np.asarray(z, dtype=float))) ** 2,
        convex=False,
        symmetric=True,
        calibrated=False,
    )
    eta = np.array([0.9, 0.1])
    g_star = conditional_risk_minimizer(flipped, eta, cost)
    return not _decisions_agree(decide(g_star), chow_rule(eta, cost))


def audit_excess_random(
    n_instances: int = 10_000,
    seed: int = 2,
    max_support: int = 5,
    max_K: int = 4,
    psi_losses: tuple[str, ...] = ("squared", "hinge"),
):
    """Thm 5.4 on random finite instances; returns (checked, violations, psi_violations)."""
    rng = np.random.default_rng(seed)
    violations = psi_violations = 0
    for _ in range(n_instances):
        m = int(rng.integers(1, max_support + 1))
        K = int(rng.integers(2, max_K + 1))
        w = rng.dirichlet(np.ones(m))
        etas = rng.dirichlet(np.ones(K), size=m)
        dist = FiniteDistribution(w, etas)
        G = rng.normal(scale=2.0, size=(m, K))
        cost = RejectionCost(float(rng.uniform(0.01, 0.49)))
        report = audit_excess_chain(dist, G, cost, psi_losses=psi_losses)
        violations += int(report.violated)
        psi_violations += int(report.psi_violated)
    return n_instances, violations, psi_violations
