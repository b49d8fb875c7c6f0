"""Exact decision oracles and numerical theorem audits.

Everything here works on known class posteriors: Chow's rule, the
cost-sensitive Bayes classifiers, the one-vs-rest ensemble reconstruction,
the psi-transform, and an exhaustive audit of the excess-risk chain on
small finite distributions.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .core import CODE_ORACLE, RejectionCost
from .losses import MarginLossSpec, _expit, argmin_weighted_conditional_risk, get_loss
from .surrogate import decide_batch

# draws per array block in the randomized audits: large enough that numpy does
# the work, small enough that memory stays flat whatever the draw count
_BLOCK = 500
_CHUNK = 8 * _BLOCK  # rows per check in the oracle and excess-chain audits, a multiple of _BLOCK
ORACLE_BOUNDARY_EPS = 1e-12  # the oracle audit skips draws with a posterior this close to 1 - c
CALIBRATION_MARGIN = 0.02  # the calibration audit redraws draws with a posterior this close to 1 - c
EXCESS_CHAIN_TOL = 1e-12  # the excess-chain audit counts a bound as violated beyond this slack
CALIBRATION_LOSSES = ("sigmoid", "hinge", "squared", "logistic")  # the losses the calibration audit checks
EXCESS_MAX_SUPPORT, EXCESS_MAX_K = 5, 4  # the largest support and class count of a random excess-chain instance


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


def _check_count(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


def _check_support(weights: np.ndarray, etas: np.ndarray) -> None:
    """Check finite supports of any batch shape: weights (..., m), etas (..., m, K)."""
    if (weights < 0).any() or (np.abs(weights.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("weights must be a probability vector")
    _check_simplex(etas)


def chow_rule_batch(eta: np.ndarray, c) -> np.ndarray:
    """Chow's rule over posteriors (..., K) and costs (...), as decision codes.

    Reject (CODE_ORACLE) when max_y eta_y <= 1 - c, else predict the argmax class.
    """
    eta, c = _check_simplex(eta), _check_costs(c)
    return np.where(eta.max(axis=-1) <= 1.0 - c, CODE_ORACLE, eta.argmax(axis=-1) + 1)


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


class _ClosedForms(NamedTuple):
    """A loss's closed forms, each elementwise over arrays."""

    psi: Callable  # (c, theta) -> the surrogate regret bound psi(theta)
    inverse: Callable  # (c, eps) -> psi^-1(eps), eps >= 0
    phi_min: Callable  # (w_pos, w_neg) -> min over v of w_pos*phi(v) + w_neg*phi(-v)


def _squared_psi_inverse(c, eps):
    b = 1.0 - 2.0 * c
    return (eps * b + np.sqrt(eps**2 * b**2 + 8.0 * c * (1.0 - c) * eps)) / 2.0


# For the squared loss, psi(theta) = theta^2 / (2c(1-c) + theta(1-2c)) is the
# worst-case surrogate regret over posteriors whose 0-1 regret is exactly
# theta (the constrained minimum sits at v = 0); its inverse is the
# non-negative root of theta^2 - eps*theta*(1-2c) - 2c(1-c)*eps = 0. For the
# hinge loss psi is the identity. No other loss has closed forms here.
_PSI_CLOSED_FORMS = {
    "squared": _ClosedForms(
        psi=lambda c, theta: theta**2 / (2.0 * c * (1.0 - c) + theta * (1.0 - 2.0 * c)),
        inverse=_squared_psi_inverse,
        phi_min=lambda w_pos, w_neg: 4.0 * w_pos * w_neg / (w_pos + w_neg),
    ),
    "hinge": _ClosedForms(
        psi=lambda c, theta: theta,
        inverse=lambda c, eps: eps,
        phi_min=lambda w_pos, w_neg: 2.0 * np.minimum(w_pos, w_neg),
    ),
}
PSI_LOSSES = tuple(_PSI_CLOSED_FORMS)  # the random excess-chain audit checks the psi bound of each


def _closed_forms(loss_name: str) -> _ClosedForms:
    if loss_name not in _PSI_CLOSED_FORMS:
        raise ValueError(f"psi has a closed form only for squared and hinge, not {loss_name!r}")
    return _PSI_CLOSED_FORMS[loss_name]


def psi_transform(loss_name: str, cost: RejectionCost, theta: float) -> float:
    """Calibration function translating 0-1 cost-sensitive regret to surrogate regret (squared, hinge)."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    return float(_closed_forms(loss_name).psi(cost.c, theta))


def psi_inverse(loss_name: str, cost: RejectionCost, eps: float) -> float:
    """Inverse psi-transform translating surrogate regret to 0-1 regret (squared, hinge)."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return float(_closed_forms(loss_name).inverse(cost.c, eps))


def excess_chain_batch(w, etas, G, c, psi_losses):
    """Thm 5.4's excess-risk chain on N finite instances of one shape.

    w (N, m) weights, etas (N, m, K) posteriors, G (N, m, K) scores and
    c (N,) costs. Returns per-instance arrays (lhs, rhs, violated, psi_rhs,
    psi_violated): lhs is the 0-1-c regret of the rule the scores induce, rhs
    the cost-sensitive surrogate regret under the 0-1 margin loss, and psi_rhs
    maps each loss of psi_losses to its psi-transformed bound on rhs (None
    when psi_losses is empty).
    """
    if G.shape != etas.shape or w.shape != etas.shape[:-1]:
        raise ValueError("weights (N, m), etas (N, m, K) and scores (N, m, K) must align")
    _check_support(w, etas)
    c = _check_costs(c)
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
    violated = lhs > rhs + EXCESS_CHAIN_TOL

    psi_rhs = None
    psi_violated = np.zeros(len(c), dtype=bool)
    if psi_losses:
        psi_rhs = {}
        for name in psi_losses:
            loss, forms = get_loss(name), _closed_forms(name)
            phi_risk = (w[..., None] * (w_pos * loss.value(G) + w_neg * loss.value(-G))).sum(axis=1)
            phi_star = (w[..., None] * forms.phi_min(w_pos, w_neg)).sum(axis=1)
            regrets = np.maximum(phi_risk - phi_star, 0.0)  # (N, K)
            psi_rhs[name] = forms.inverse(c_m, regrets).sum(axis=-1)
            psi_violated |= rhs > psi_rhs[name] + EXCESS_CHAIN_TOL
    return lhs, rhs, violated, psi_rhs, psi_violated


# ---------------------------------------------------------------------------
# randomized theorem audits (shared by tests and the `bench audit` command)


def _random_simplices(rng: np.random.Generator, K: np.ndarray, K_max: int) -> np.ndarray:
    """One Dirichlet(1, ..., 1) draw of size K[i] per row, zero-padded to K_max columns."""
    g = rng.standard_exponential((len(K), K_max)) * (np.arange(K_max) < K[:, None])
    return g / g.sum(axis=1, keepdims=True)


def audit_oracle_equivalence(n_draws: int = 100_000, seed: int = 0):
    """Props 3.1/3.2: ensemble and three-way rules agree with Chow's rule.

    K is drawn from 2..6; padding columns hold eta = 0, which can never give
    a positive one-vs-rest verdict or the argmax.
    """
    _check_count(n_draws, "n_draws")
    rng = np.random.default_rng(seed)
    checked = disagreements = 0
    for chunk in range(0, n_draws, _CHUNK):
        blocks = []  # drawn one at a time, as the random stream requires
        for start in range(chunk, min(chunk + _CHUNK, n_draws), _BLOCK):
            K = rng.integers(2, 7, size=min(_BLOCK, n_draws - start))
            blocks.append((K, _random_simplices(rng, K, 6), rng.uniform(0.01, 0.49, size=len(K))))
        K, eta, c = (np.concatenate(parts) for parts in zip(*blocks))
        keep = ~(np.abs(eta - (1.0 - c)[:, None]) < ORACLE_BOUNDARY_EPS).any(axis=1)
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


def audit_calibration(n_draws: int = 1000, seed: int = 1):
    """Thm 5.3 forward direction: decide(g*) matches Chow's rule, per loss of CALIBRATION_LOSSES.

    Draws whose posteriors lie within CALIBRATION_MARGIN of 1 - c are redrawn.
    Padding columns (eta = 0) get g* = 0, which decide never counts as positive.
    """
    _check_count(n_draws, "n_draws")
    rng = np.random.default_rng(seed)
    results = {}
    for name in CALIBRATION_LOSSES:
        loss = get_loss(name)
        blocks, checked = [], 0
        while checked < n_draws:
            K = rng.integers(2, 6, size=_BLOCK)
            eta = _random_simplices(rng, K, 5)
            c = rng.uniform(0.05, 0.45, size=_BLOCK)
            keep = ~(np.abs(eta - (1.0 - c)[:, None]) <= CALIBRATION_MARGIN).any(axis=1)
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


def audit_excess_random(n_instances: int = 10_000, seed: int = 2):
    """Thm 5.4 on random finite instances and PSI_LOSSES; returns (checked, violations, psi_violations).

    Each block draws its support sizes, class counts and costs as arrays,
    then each (m, K) group's weights, posteriors (Dirichlet(1, ..., 1) as
    normalized exponential draws) and scores. A group's draws are checked in
    one array program once _CHUNK of them are collected, and after the last block.
    """
    _check_count(n_instances, "n_instances")
    rng = np.random.default_rng(seed)
    violations = psi_violations = 0
    pending = {}  # each (m, K) group's draws not yet checked
    for start in range(0, n_instances, _BLOCK):
        m = rng.integers(1, EXCESS_MAX_SUPPORT + 1, size=min(_BLOCK, n_instances - start))
        K = rng.integers(2, EXCESS_MAX_K + 1, size=len(m))
        c = rng.uniform(0.01, 0.49, size=len(m))
        for m_g, K_g in sorted(set(zip(m.tolist(), K.tolist()))):
            c_g = c[(m == m_g) & (K == K_g)]
            w = rng.standard_exponential((len(c_g), m_g))
            w /= w.sum(axis=-1, keepdims=True)
            etas = rng.standard_exponential((len(c_g), m_g, K_g))
            etas /= etas.sum(axis=-1, keepdims=True)
            G = rng.normal(scale=2.0, size=(len(c_g), m_g, K_g))
            pending.setdefault((m_g, K_g), []).append((w, etas, G, c_g))
        last = start + _BLOCK >= n_instances
        for group in [g for g, parts in pending.items() if last or sum(len(p[-1]) for p in parts) >= _CHUNK]:
            w, etas, G, c_g = (np.concatenate(arrays) for arrays in zip(*pending.pop(group)))
            _, _, violated, _, psi_violated = excess_chain_batch(w, etas, G, c_g, PSI_LOSSES)
            violations += int(violated.sum())
            psi_violations += int(psi_violated.sum())
    return n_instances, violations, psi_violations
