"""The array decision rules against independent per-row references.

Scores are drawn to hit the rules' edges: exact zeros, tied scores, softmax
maxima equal to 1 - c, and largest |projection| equal to delta.
"""

import numpy as np
import pytest

from csreject.baselines import (
    angle_decide_batch,
    angle_vertices,
    defer_decide_batch,
    sce_decide_batch,
    soft_threshold,
    softmax,
    tune_threshold,
)
from csreject.core import RejectionCost, compute_metrics
from csreject.surrogate import decide_batch

N_ROUNDS = 200


def _scores(rng, n, K):
    """Half-integer scores (zeros and ties) mixed with continuous ones."""
    G = rng.integers(-3, 4, size=(n, K)) / 2.0
    smooth = rng.random(n) < 0.5
    G[smooth] = rng.normal(scale=2.0, size=(smooth.sum(), K))
    return G


def ref_decide(g):
    positive = [k for k, v in enumerate(g) if v > 0]
    if not positive:
        return 0
    if len(positive) > 1:
        return -1
    return positive[0] + 1


def ref_sce(p, c):
    # p is one row's softmax; reject when its maximum is at most 1 - c
    best = max(range(len(p)), key=lambda k: (p[k], -k))
    return 0 if p[best] <= 1.0 - c else best + 1


def ref_defer(g):
    best = max(range(len(g)), key=lambda k: (g[k], -k))
    return 0 if best == len(g) - 1 else best + 1


def ref_angle(proj, delta):
    if all(soft_threshold(v, delta) == 0 for v in proj):
        return 0
    return max(range(len(proj)), key=lambda k: (proj[k], -k)) + 1


def ref_risk(codes, labels, c):
    n_reject = sum(1 for code in codes if code < 1)
    n_wrong = sum(1 for code, y in zip(codes, labels) if code >= 1 and code != y)
    return (c * n_reject + n_wrong) / len(codes)


def ref_tune(decide_row, rows, labels, c, candidates):
    best, best_risk = None, np.inf
    for t in sorted(candidates):
        risk = ref_risk([decide_row(r, t) for r in rows], labels, c)
        if risk < best_risk - 1e-15:
            best, best_risk = t, risk
    return best


def test_ensemble_rule_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(N_ROUNDS):
        G = _scores(rng, 12, int(rng.integers(2, 6)))
        assert decide_batch(G).tolist() == [ref_decide(g) for g in G]


def test_defer_rule_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(N_ROUNDS):
        G = _scores(rng, 12, int(rng.integers(2, 6)))
        assert defer_decide_batch(G).tolist() == [ref_defer(g) for g in G]


def test_sce_rule_matches_reference_at_the_threshold():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(N_ROUNDS):
        K = int(rng.integers(2, 5))
        G = _scores(rng, 12, K)
        T = float(rng.choice([0.5, 1.0, 3.0]))
        P = np.array([softmax(g, T) for g in G])
        # c = 1 - max p is exact for max p in (0.5, 1), so that row sits on the threshold
        top = P.max(axis=1)
        on_edge = top[(top > 0.5) & (top < 1.0)]
        c = 1.0 - float(on_edge[0]) if len(on_edge) else float(rng.uniform(0.05, 0.45))
        assert 0.0 < c < 0.5
        hits += int(np.any(top == 1.0 - c))
        codes = sce_decide_batch(G, T, RejectionCost(c))
        assert codes.tolist() == [ref_sce(p, c) for p in P]
    assert hits > N_ROUNDS // 2


def test_angle_rule_matches_reference_at_the_threshold():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(N_ROUNDS):
        K = int(rng.integers(2, 6))
        V = angle_vertices(K)
        G = _scores(rng, 12, K - 1)
        proj = G @ V.T
        delta = float(np.abs(proj[int(rng.integers(len(G)))]).max())
        hits += int(np.any(np.abs(proj).max(axis=1) == delta))
        codes = angle_decide_batch(G, V, delta)
        assert codes.tolist() == [ref_angle(p, delta) for p in proj]
    assert hits == N_ROUNDS


def test_tuner_matches_per_candidate_loop():
    rng = np.random.default_rng(4)
    for _ in range(50):
        K = int(rng.integers(2, 4))
        n = 15
        G = _scores(rng, n, K)
        y = rng.integers(1, K + 1, size=n)
        cost = RejectionCost(float(rng.uniform(0.05, 0.45)))
        # repeated and unsorted candidates exercise the sort and the tie rule
        temps = list(rng.choice([0.1, 0.5, 1.0, 2.0, 5.0], size=6))
        chosen = tune_threshold(lambda Ts: sce_decide_batch(G, Ts[:, None, None], cost), y, cost, temps)
        expected = ref_tune(lambda g, T: ref_sce(softmax(g, T), cost.c), G, y, cost.c, temps)
        assert chosen == expected

        V = angle_vertices(K)
        H = _scores(rng, n, K - 1)
        proj = H @ V.T
        deltas = [0.0] + list(np.abs(proj).max(axis=1)[:5])
        chosen = tune_threshold(lambda ds: angle_decide_batch(H, V, ds[:, None]), y, cost, deltas)
        expected = ref_tune(lambda p, d: ref_angle(p, d), proj, y, cost.c, deltas)
        assert chosen == expected


def test_metrics_match_per_row_tally():
    rng = np.random.default_rng(5)
    for _ in range(N_ROUNDS):
        n = int(rng.integers(1, 30))
        codes = rng.integers(-2, 4, size=n)
        labels = rng.integers(1, 4, size=n)
        c = float(rng.uniform(0.01, 0.49))
        m = compute_metrics(codes, labels, RejectionCost(c))
        assert m.risk01c == ref_risk(codes.tolist(), labels.tolist(), c)
        assert m.n_reject_distance == int(sum(codes == 0))
        assert m.n_reject_ambiguity == int(sum(codes == -1))
        n_accepted, n_wrong = int(sum(codes >= 1)), int(sum((codes >= 1) & (codes != labels)))
        assert m.rejection_ratio == (n - n_accepted) / n
        assert m.accepted_error == (n_wrong / n_accepted if n_accepted else 0.0)


def test_threshold_arguments_are_validated():
    G = np.zeros((2, 2))
    with pytest.raises(ValueError):
        sce_decide_batch(G, np.array([1.0, 0.0])[:, None, None], RejectionCost(0.2))
    with pytest.raises(ValueError):
        angle_decide_batch(G[:, :1], angle_vertices(2), -0.1)
    with pytest.raises(ValueError):
        tune_threshold(lambda ts: np.zeros((len(ts), 2), dtype=int), [1, 2], RejectionCost(0.2), [])
