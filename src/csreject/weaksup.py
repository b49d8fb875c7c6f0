"""Weak-supervision protocols: uniform label noise and PU learning.

Binary problems use the K=2 convention: class 1 is the positive class (+1), class 2 the negative class (-1).
A PU set labels its positives 1 and its unlabeled rows 2, the label at which the PU risk scores them.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .models import AdamState, TrainConfig, adam_step, flat_buffer, stack_cells


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


def make_pu_dataset(data: Dataset, max_unlabeled: int, prior: float, rng: np.random.Generator) -> Dataset:
    """Draw a PU training set from a K=2 dataset: its positives, labelled 1, then its unlabeled rows, labelled 2.

    The unlabeled size n_u is the largest multiple of 200, at most
    max_unlabeled, that the classes can serve: n_u // 5 positives plus
    floor(prior * n_u) unlabeled positives from class 1, and the other
    unlabeled rows from class 2. Positives come from class 1 without
    replacement; the unlabeled pool mixes leftover positives with negatives,
    shuffled. Every source sample is used at most once.
    """
    if data.K != 2:
        raise ValueError("PU construction requires a binary dataset")
    if not 0.0 < prior <= 1.0:
        raise ValueError("class prior must lie in (0, 1]")
    pos_idx = np.flatnonzero(data.y == 1)
    neg_idx = np.flatnonzero(data.y == 2)
    for n_u in range(max_unlabeled // 200 * 200, 0, -200):
        n_p, n_u_pos = n_u // 5, int(prior * n_u)
        if n_p + n_u_pos <= len(pos_idx) and n_u - n_u_pos <= len(neg_idx):
            break
    else:
        raise ValueError(
            f"insufficient source data: {len(pos_idx)} positives and {len(neg_idx)} negatives serve no "
            f"unlabeled set of a multiple of 200 rows up to {max_unlabeled} at prior {prior:g}"
        )
    pos_perm = rng.permutation(pos_idx)
    neg_perm = rng.permutation(neg_idx)
    unl_idx = np.concatenate([pos_perm[n_p : n_p + n_u_pos], neg_perm[: n_u - n_u_pos]])
    unl_idx = unl_idx[rng.permutation(len(unl_idx))]
    return Dataset(data.X[np.concatenate([pos_perm[:n_p], unl_idx])], np.repeat([1, 2], [n_p, n_u]), 2)


def _pu_terms(loss, prior: float, m_p: int, m_u: int):
    """The PU risk's positive term and implied-negative bracket from the per-row losses (..., m_p + m_p + m_u)
    of the rows [Gp, Gp, Gu] at the labels [1, 2, 2]; a sum over the last axis divided by the count is exactly
    numpy's mean, and one reduction over both positive blocks sums each as its own would."""
    pos = np.add.reduce(loss[..., : 2 * m_p].reshape(*loss.shape[:-1], 2, m_p), axis=-1) / m_p * prior
    return pos[..., 0], np.add.reduce(loss[..., 2 * m_p :], axis=-1) / m_u - pos[..., 1]


def _pu_parts(data: Dataset):
    """The positives and the unlabeled rows of a PU set, as views: make_pu_dataset puts every positive first."""
    n_p = int(np.count_nonzero(data.y == 1))
    if data.K != 2 or n_p in (0, data.n):
        raise ValueError("a PU set has two classes and rows labelled 1 and 2")
    if not (data.y[:n_p] == 1).all():
        raise ValueError("a PU set lists every row labelled 1 before every row labelled 2, as make_pu_dataset does")
    return data.X[:n_p], data.X[n_p:]


def _pu_risk_terms(loss_batch, prior: float, data: Dataset, score_fn):
    """_pu_terms of one loss_batch call on the scores of both sets of the PU set data."""
    positives, unlabeled = _pu_parts(data)
    m_p, m_u = len(positives), len(unlabeled)
    Gp = score_fn(positives)
    losses, _ = loss_batch(np.concatenate([Gp, Gp, score_fn(unlabeled)]), np.repeat([1, 2, 2], [m_p, m_p, m_u]))
    return _pu_terms(losses, prior, m_p, m_u)


def pu_risk_unbiased(loss_batch, prior: float, data: Dataset, score_fn) -> float:
    """Unbiased PU risk of a PU set (make_pu_dataset): pi*mean_p L(+1) - pi*mean_p L(-1) + mean_u L(-1).

    loss_batch(G, y) is a K=2 loss, as in train_pu: label 1 for +1, label 2 for -1."""
    pos_term, neg_term = _pu_risk_terms(loss_batch, prior, data, score_fn)
    return float(pos_term + neg_term)


def pu_risk_nn(loss_batch, prior: float, data: Dataset, score_fn) -> float:
    """Non-negative PU risk: positive term + clamped implied-negative term; arguments as in pu_risk_unbiased."""
    pos_term, neg_term = _pu_risk_terms(loss_batch, prior, data, score_fn)
    return float(pos_term + max(0.0, neg_term))


def train_pu(models, data: Dataset, losses, prior: float, config: TrainConfig, seeds):
    """Mini-batch minimization of the non-negative PU risk, for a stack of
    cells that share the PU set data (make_pu_dataset) and the config.

    models, losses and seeds hold one entry per cell, as in models.train. A
    cell's loss(G, y) is a K=2 loss: label 1 stands for +1, label 2 for -1.
    Each batch draws positives and unlabeled proportionally so both
    empirical means stay defined. When a cell's implied-negative bracket of
    a batch goes negative, its gradient is zeroed for that step (the clamp
    is active). Each cell keeps its own draws, loss and clamp, and its
    parameters train in place as in models.train. Returns (one risk trace
    per epoch per cell, clamp activations of all cells together).
    """
    flat, params, rngs = stack_cells(models, losses, seeds)
    shapes = {key: value.shape for key, value in params.items()}
    (grad, grads_p), (grad_u, grads_u) = flat_buffer(shapes), flat_buffer(shapes)  # the two passes' gradients
    model, (positives, unlabeled) = models[0], _pu_parts(data)
    n_p, n_u = len(positives), len(unlabeled)
    state, work_p, work_u = AdamState(), {}, {}
    b_p = max(1, int(np.ceil(config.batch_size * n_p / (n_p + n_u))))
    b_u = max(1, config.batch_size - b_p)
    steps = int(np.ceil(n_u / b_u))  # so every step has unlabeled rows
    labels = np.repeat([1, 2], [b_p, 2 * b_p + b_u])  # a window of m_p 1s, then m_p + m_u 2s, labels a step's rows
    traces = [[] for _ in models]
    clamp_count = 0
    for _ in range(config.epochs):
        orders = [(rng.permutation(n_p), rng.permutation(n_u)) for rng in rngs]
        p_order, u_order = map(np.stack, zip(*orders))
        epoch_risk = [0.0] * len(models)
        for step in range(steps):
            ip = p_order[:, (step * b_p) % n_p : (step * b_p) % n_p + b_p]
            if ip.shape[1] < b_p:
                ip = np.concatenate([ip, p_order[:, : b_p - ip.shape[1]]], axis=1)
            iu = u_order[:, step * b_u : (step + 1) * b_u]
            m_p, m_u = ip.shape[1], iu.shape[1]
            Gp, cache_p = model.forward(positives.take(ip, axis=0), params, work_p)
            Gu, cache_u = model.forward(unlabeled.take(iu, axis=0), params, work_u)
            # one loss call per cell on (Gp at +1, Gp at -1, Gu at -1); every loss works row by row
            y = labels[b_p - m_p : b_p + m_p + m_u]
            G = np.concatenate([Gp, Gp, Gu], axis=1)
            loss, dG = np.empty(G.shape[:2]), np.empty_like(G)
            for c, cell_loss in enumerate(losses):
                loss[c], dG[c] = cell_loss(G[c], y)
            # in place: both positive blocks times prior / m_p, the unlabeled block / m_u
            dP, dGp, dGu = dG[:, : 2 * m_p], dG[:, :m_p], dG[:, 2 * m_p :]
            dP *= prior
            dP /= m_p
            dGu /= m_u
            # per cell in Python floats: the same double arithmetic, without a numpy call per term
            pos_terms, neg_terms = (term.tolist() for term in _pu_terms(loss, prior, m_p, m_u))
            for c, (pos_term, neg_term) in enumerate(zip(pos_terms, neg_terms)):
                epoch_risk[c] += pos_term + (neg_term if neg_term > 0.0 else 0.0)
                if not neg_term >= 0.0:  # the clamp (NaN too): zero the cell's -1 blocks, so it subtracts nothing
                    clamp_count += 1
                    dG[c, m_p:] = 0.0
            dGp -= dG[:, m_p : 2 * m_p]  # x - 0.0 is x
            model.backward(cache_p, dGp, work_p, grads_p)
            model.backward(cache_u, dGu, work_u, grads_u)
            grad += grad_u
            adam_step(state, flat, grad, config.learning_rate)
        for trace, risk in zip(traces, epoch_risk):
            trace.append(risk / steps)
    return traces, clamp_count
