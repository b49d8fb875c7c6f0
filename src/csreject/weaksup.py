"""Weak-supervision protocols: uniform label noise and PU learning.

Binary problems use the K=2 convention: class 1 is the positive class (+1),
class 2 the negative class (-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .models import AdamState, TrainConfig, adam_step, stack_cells, unstack_cells


def inject_uniform_noise(data: Dataset, rate: float, rng: np.random.Generator) -> Dataset:
    """Flip exactly floor(rate * n) uniformly chosen labels to other classes."""
    if not (0.0 <= rate < 1.0):
        raise ValueError("noise rate must lie in [0, 1)")
    n_flip = int(rate * data.n)
    if n_flip == 0:
        return data
    y = data.y.copy()
    idx = rng.choice(data.n, size=n_flip, replace=False)
    # uniform draw over the K-1 other classes
    shift = rng.integers(1, data.K, size=n_flip)
    y[idx] = (y[idx] - 1 + shift) % data.K + 1
    return Dataset(data.X, y, data.K)


@dataclass(frozen=True)
class PUConfig:
    prior: float = 0.7
    n_unlabeled: int = 0
    n_positive: int = 0

    def __post_init__(self):
        if not (0.0 < self.prior <= 1.0):
            raise ValueError("class prior must lie in (0, 1]")
        if self.n_unlabeled < 1 or self.n_positive < 1:
            raise ValueError("set sizes must be positive")

    @classmethod
    def from_train_size(cls, n_train: int, prior: float = 0.7) -> "PUConfig":
        # unlabeled size ~ training size, truncated to a multiple of 200;
        # positive size is a fifth of that
        n_u = (n_train // 200) * 200
        if n_u == 0:
            raise ValueError("training pool too small for the PU protocol")
        return cls(prior=prior, n_unlabeled=n_u, n_positive=n_u // 5)

    @classmethod
    def from_class_counts(cls, n_pos: int, n_neg: int, prior: float = 0.7) -> "PUConfig":
        """The largest sets, unlabeled size a multiple of 200 and positive size a
        fifth of it, that make_pu_dataset can draw from a pool with these counts."""
        for n_u in range((n_pos + n_neg) // 200 * 200, 0, -200):
            n_u_pos = int(prior * n_u)
            if n_u // 5 + n_u_pos <= n_pos and n_u - n_u_pos <= n_neg:
                return cls(prior=prior, n_unlabeled=n_u, n_positive=n_u // 5)
        raise ValueError("training pool too small for the PU protocol")


def make_pu_dataset(data: Dataset, config: PUConfig, rng: np.random.Generator):
    """Draw (positives, unlabeled) feature sets from a K=2 dataset.

    Positives come from class 1 without replacement; the unlabeled pool mixes
    floor(prior * n_u) leftover positives with negatives, shuffled. Every
    source sample is used at most once.
    """
    if data.K != 2:
        raise ValueError("PU construction requires a binary dataset")
    pos_idx = np.flatnonzero(data.y == 1)
    neg_idx = np.flatnonzero(data.y == 2)
    n_u_pos = int(config.prior * config.n_unlabeled)
    n_u_neg = config.n_unlabeled - n_u_pos
    if len(pos_idx) < config.n_positive + n_u_pos or len(neg_idx) < n_u_neg:
        raise ValueError(
            f"insufficient source data: need {config.n_positive + n_u_pos} positives "
            f"and {n_u_neg} negatives, have {len(pos_idx)} and {len(neg_idx)}"
        )
    pos_perm = rng.permutation(pos_idx)
    neg_perm = rng.permutation(neg_idx)
    positives = data.X[pos_perm[: config.n_positive]]
    unlabeled = np.concatenate(
        [data.X[pos_perm[config.n_positive : config.n_positive + n_u_pos]], data.X[neg_perm[:n_u_neg]]]
    )
    unlabeled = unlabeled[rng.permutation(len(unlabeled))]
    return positives, unlabeled


def pu_loss_term(loss_batch):
    """Adapt a K=2 loss_batch(G, y) to PU signs: term(G, sign) returns (per-sample
    losses, score gradients) at +1 (class 1) or -1 (class 2) from one loss_batch call.
    sign is one value for every row or an array with one value per row."""

    def term(G, sign):
        G = np.atleast_2d(np.asarray(G, dtype=float))
        return loss_batch(G, np.where(np.broadcast_to(sign, len(G)) == +1, 1, 2))

    return term


def pu_risk_unbiased(loss_term, prior: float, positives, unlabeled, score_fn) -> float:
    """Unbiased PU risk: pi*mean_p L(+1) - pi*mean_p L(-1) + mean_u L(-1)."""
    if len(positives) == 0 or len(unlabeled) == 0:
        raise ValueError("both sample sets must be non-empty")
    Gp = score_fn(positives)
    Gu = score_fn(unlabeled)
    return float(
        prior * loss_term(Gp, +1)[0].mean() - prior * loss_term(Gp, -1)[0].mean() + loss_term(Gu, -1)[0].mean()
    )


def pu_risk_nn(loss_term, prior: float, positives, unlabeled, score_fn) -> float:
    """Non-negative PU risk: positive term + clamped implied-negative term."""
    if len(positives) == 0 or len(unlabeled) == 0:
        raise ValueError("both sample sets must be non-empty")
    Gp = score_fn(positives)
    Gu = score_fn(unlabeled)
    pos_term = prior * loss_term(Gp, +1)[0].mean()
    neg_term = loss_term(Gu, -1)[0].mean() - prior * loss_term(Gp, -1)[0].mean()
    return float(pos_term + max(0.0, neg_term))


def train_pu(
    model,
    loss_batch,
    positives: np.ndarray,
    unlabeled: np.ndarray,
    prior: float,
    config: TrainConfig,
):
    """Mini-batch minimization of the non-negative PU risk.

    loss_batch(G, y) is a K=2 loss: label 1 stands for +1, label 2 for -1.
    Each batch draws positives and unlabeled proportionally so both
    empirical means stay defined. When the implied-negative bracket of a
    batch goes negative, its gradient is zeroed for that step (the clamp is
    active). Returns (risk trace per epoch, clamp activation count).

    model, loss_batch and config may also be sequences with one entry per
    cell, as in models.train: the cells train as one stack, each with its
    own draws, loss and clamp, and the call returns one trace per cell and
    the clamp activations of all cells together.
    """
    stack, models, losses, configs, one = stack_cells(model, loss_batch, config)
    config = configs[0]
    n_p, n_u = len(positives), len(unlabeled)
    if n_p == 0 or n_u == 0:
        raise ValueError("both sample sets must be non-empty")
    rngs = [np.random.default_rng(c.seed) for c in configs]
    state, work_p, work_u = AdamState(), {}, {}
    b_p = max(1, int(np.ceil(config.batch_size * n_p / (n_p + n_u))))
    b_u = max(1, config.batch_size - b_p)
    steps = max(1, int(np.ceil(n_u / b_u)))
    labels = {}  # (positive rows, unlabeled rows) -> labels of the stacked loss rows
    traces = [[] for _ in models]
    clamp_count = 0
    for _ in range(config.epochs):
        orders = [(rng.permutation(n_p), rng.permutation(n_u)) for rng in rngs]
        p_order = np.stack([p for p, _ in orders])
        u_order = np.stack([u for _, u in orders])
        epoch_risk = np.zeros(len(models))
        for step in range(steps):
            ip = p_order[:, (step * b_p) % n_p : (step * b_p) % n_p + b_p]
            if ip.shape[1] < b_p:
                ip = np.concatenate([ip, p_order[:, : b_p - ip.shape[1]]], axis=1)
            iu = u_order[:, step * b_u : (step + 1) * b_u]
            m_p, m_u = ip.shape[1], iu.shape[1]
            if m_u == 0:
                continue
            Gp, cache_p = stack.forward(positives.take(ip, axis=0), work=work_p)
            Gu, cache_u = stack.forward(unlabeled.take(iu, axis=0), work=work_u)
            # one loss call per cell on (Gp at +1, Gu at -1, Gp at -1); every loss works row by row
            y = labels.get((m_p, m_u))
            if y is None:
                y = labels[m_p, m_u] = np.repeat([1, 2, 2], [m_p, m_u, m_p])
            G = np.concatenate([Gp, Gu, Gp], axis=1)
            loss, dG = np.empty(G.shape[:2]), np.empty_like(G)
            for c, cell_loss in enumerate(losses):
                loss[c], dG[c] = cell_loss(G[c], y)
            # a sum over the last axis divided by the count is exactly numpy's mean
            pos_term = prior * (loss[:, :m_p].sum(axis=1) / m_p)
            neg_term = loss[:, m_p : m_p + m_u].sum(axis=1) / m_u - prior * (loss[:, m_p + m_u :].sum(axis=1) / m_p)
            epoch_risk += pos_term + np.where(neg_term > 0.0, neg_term, 0.0)

            # the clamp, per cell: a negative bracket contributes no gradient
            kept = neg_term >= 0.0
            clamp_count += int(np.count_nonzero(~kept))
            dGp = prior * dG[:, :m_p] / m_p
            np.subtract(dGp, prior * dG[:, m_p + m_u :] / m_p, out=dGp, where=kept[:, None, None])
            dGu = dG[:, m_p : m_p + m_u] / m_u
            dGu[~kept] = 0.0
            grads = stack.backward(cache_p, dGp, work_p)
            for k, g in stack.backward(cache_u, dGu, work_u).items():
                grads[k] += g
            adam_step(state, stack.params, grads, config.learning_rate)
        for trace, risk in zip(traces, epoch_risk):
            trace.append(risk / steps)
    unstack_cells(stack, models)
    return (traces[0] if one else traces), clamp_count
