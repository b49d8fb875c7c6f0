"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
with its measured runtime. Tolerances and time budgets are stated inline.
"""

import time

import numpy as np
import pytest

from csreject import data as data_mod, harness, theory, weaksup
from csreject.checks import run_gradcheck
from csreject.core import Dataset, RejectionCost, compute_metrics
from csreject.losses import get_loss
from csreject.models import TrainConfig, make_model, train
from csreject.surrogate import cs_loss_batch, decide_batch


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


GRID_COSTS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked, disagreements = theory.audit_oracle_equivalence(n_draws=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and checked > 99_000 and elapsed < 10.0
    _report(1, ok, f"{checked} draws, {disagreements} disagreements, {elapsed:.1f}s (< 10s)")


def test_criterion_2_calibration_audit():
    t0 = time.perf_counter()
    results = theory.audit_calibration(n_draws=1000, seed=1)
    elapsed = time.perf_counter() - t0
    assert theory.CALIBRATION_LOSSES == ("sigmoid", "hinge", "squared", "logistic")
    total_bad = sum(d for _, d in results.values())
    ok = total_bad == 0 and all(n == 1000 for n, _ in results.values()) and elapsed < 60.0
    _report(2, ok, f"4 losses x 1000 draws, {total_bad} disagreements, {elapsed:.1f}s (< 60s)")


def test_criterion_3_excess_risk_chain():
    t0 = time.perf_counter()
    n, violations, psi_violations = theory.audit_excess_random(n_instances=10_000, seed=2)
    elapsed = time.perf_counter() - t0
    assert (theory.EXCESS_MAX_SUPPORT, theory.EXCESS_MAX_K, theory.PSI_LOSSES) == (5, 4, ("squared", "hinge"))
    ok = violations == 0 and psi_violations == 0 and elapsed < 60.0
    _report(
        3,
        ok,
        f"{n} instances, {violations} chain violations, {psi_violations} psi-bound violations, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    results = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - t0
    failures = {k: err for k, (err, ok) in results.items() if not ok}
    ok = not failures and elapsed < 30.0
    worst = max(err for err, _ in results.values())
    _report(4, ok, f"{len(results)} checks, worst rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)")


@pytest.fixture(scope="module")
def clean_cs_rows():
    grid = harness.GridSpec(
        datasets=("twonorm",), methods=("cs-sigmoid", "cs-hinge"), costs=GRID_COSTS, trials=10
    )
    return harness.run_grid(grid, harness.cell_groups(grid))


def test_criterion_5_twonorm_clean(clean_cs_rows):
    rows = clean_cs_rows
    means = {}
    for method in ("cs-sigmoid", "cs-hinge"):
        for cost in GRID_COSTS:
            vals = [r.risk01c for r in rows if r.method == method and r.cost == cost]
            assert len(vals) == 10
            means[(method, cost)] = float(np.mean(vals))

    in_band = all(0.005 <= means[(m, 0.1)] <= 0.03 for m in ("cs-sigmoid", "cs-hinge"))
    beats_reject = all(v <= c + 0.01 for (m, c), v in means.items())
    total_time = sum(r.train_seconds for r in rows)
    ok = in_band and beats_reject and total_time < 300.0
    _report(
        5,
        ok,
        f"c=0.10 means: sigmoid {means[('cs-sigmoid', 0.1)]:.4f}, hinge {means[('cs-hinge', 0.1)]:.4f} "
        f"(band [0.005, 0.03]); risk <= c+0.01 at all 7 costs: {beats_reject}; "
        f"train time {total_time:.0f}s (< 300s)",
    )


def test_criterion_6_noisy_twonorm():
    t0 = time.perf_counter()
    grid = harness.GridSpec(
        datasets=("twonorm",),
        methods=("cs-sigmoid", "cs-hinge"),
        costs=(0.1,),
        trials=10,
        setting="noisy",
        noise_rate=0.25,
    )
    rows = harness.run_grid(grid, harness.cell_groups(grid))
    elapsed = time.perf_counter() - t0
    sigmoid_mean = float(np.mean([r.risk01c for r in rows if r.method == "cs-sigmoid"]))
    hinge_mean = float(np.mean([r.risk01c for r in rows if r.method == "cs-hinge"]))
    ok = sigmoid_mean < hinge_mean and sigmoid_mean < 0.05 and elapsed < 300.0
    _report(
        6,
        ok,
        f"25% flips at c=0.10: sigmoid {sigmoid_mean:.4f} < hinge {hinge_mean:.4f} and < 0.05; "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_7_pu_twonorm():
    t0 = time.perf_counter()
    grid = harness.GridSpec(
        datasets=("twonorm",), methods=("cs-sigmoid",), costs=(0.1,), trials=10, setting="pu", prior=0.7
    )
    rows = harness.run_grid(grid, harness.cell_groups(grid))
    elapsed = time.perf_counter() - t0
    mean = float(np.mean([r.risk01c for r in rows]))
    ok = 0.005 <= mean <= 0.04 and elapsed < 300.0
    _report(7, ok, f"nnPU cs-sigmoid at c=0.10, pi=0.7: mean risk {mean:.4f} in [0.005, 0.04]; {elapsed:.0f}s (< 300s)")


def test_criterion_8_pu_estimator_soundness():
    t0 = time.perf_counter()
    prior = 0.7
    cost = RejectionCost(0.1)
    loss_batch = lambda G, y: cs_loss_batch(get_loss("sigmoid"), cost, G, y)  # label 1 is +1, label 2 is -1
    d = 20
    spec = data_mod.twonorm_spec(d)
    model = make_model("linear", d, 2, np.random.default_rng(100))

    # supervised risk oracle: huge labeled sample at the PU class prior
    rng = np.random.default_rng(101)
    n_big = 200_000
    n_pos = int(prior * n_big)
    Xp = rng.multivariate_normal(spec.means[0], np.eye(d), size=n_pos)
    Xn = rng.multivariate_normal(spec.means[1], np.eye(d), size=n_big - n_pos)
    supervised = (
        prior * loss_batch(model.scores(Xp), np.full(n_pos, 1))[0].mean()
        + (1 - prior) * loss_batch(model.scores(Xn), np.full(n_big - n_pos, 2))[0].mean()
    )

    n_p, n_u = 200, 1000
    eq13, eq14 = [], []
    dominance = True
    for _ in range(200):
        pos = rng.multivariate_normal(spec.means[0], np.eye(d), size=n_p)
        n_u_pos = int(prior * n_u)
        unl = np.vstack(
            [
                rng.multivariate_normal(spec.means[0], np.eye(d), size=n_u_pos),
                rng.multivariate_normal(spec.means[1], np.eye(d), size=n_u - n_u_pos),
            ]
        )
        pu = Dataset(np.concatenate([pos, unl]), np.repeat([1, 2], [n_p, n_u]), K=2)
        u = weaksup.pu_risk_unbiased(loss_batch, prior, pu, model.scores)
        n = weaksup.pu_risk_nn(loss_batch, prior, pu, model.scores)
        eq13.append(u)
        eq14.append(n)
        dominance = dominance and (n >= u - 1e-12)

    eq13 = np.asarray(eq13)
    se = eq13.std(ddof=1) / np.sqrt(len(eq13))
    gap = abs(eq13.mean() - supervised)
    elapsed = time.perf_counter() - t0
    ok = gap <= 4 * se and dominance and elapsed < 60.0
    _report(
        8,
        ok,
        f"unbiased-estimator mean {eq13.mean():.5f} vs supervised {supervised:.5f} "
        f"(gap {gap:.5f} <= 4*SE {4 * se:.5f}); nn >= unbiased on all 200 resamples: {dominance}; "
        f"{elapsed:.0f}s (< 60s)",
    )


def test_criterion_9_chow_agreement_of_trained_model():
    t0 = time.perf_counter()
    cost = RejectionCost(0.2)
    info = harness.dataset_info("gauss3")
    rng = np.random.default_rng(200)
    source, oracle = data_mod.gen_gauss_mixture(info.spec, 12_000, rng)
    train_ds, _, _ = data_mod.split(source, (0.5, 0.1, 0.4), seed=200)
    assert train_ds.n == 6000
    scaler, train_std = data_mod.standardize(train_ds)
    model = make_model("mlp", 2, 3, np.random.default_rng(201))
    batch = lambda G, y: cs_loss_batch(get_loss("sigmoid"), cost, G, y)
    train([model], train_std, [batch], TrainConfig(batch_size=256, epochs=100), [202])

    xs = np.linspace(-4.0, 4.0, 100)
    grid_pts = np.array([[x, y] for x in xs for y in xs])
    eta = oracle.posterior(grid_pts)
    decisions = decide_batch(model.scores((grid_pts - scaler.mean) / scaler.scale))
    ref = theory.chow_rule_batch(eta, cost.c)
    # agreement: both reject, or both predict the same class
    agree = int((((decisions < 1) & (ref < 1)) | ((decisions >= 1) & (decisions == ref))).sum())
    rate = agree / len(grid_pts)
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.90 and elapsed < 120.0
    _report(9, ok, f"trained cs-sigmoid vs Chow oracle on 100x100 grid at c=0.2: {rate:.1%} (>= 90%); {elapsed:.0f}s (< 120s)")


def test_criterion_10_baseline_sanity():
    t0 = time.perf_counter()
    trials = 10
    finite = True
    tuning_regressed = []

    # DEFER has no tuner: run it through the harness and check finiteness
    defer_grid = harness.GridSpec(datasets=("twonorm",), methods=("defer",), costs=GRID_COSTS, trials=trials)
    defer_rows = harness.run_grid(defer_grid, harness.cell_groups(defer_grid))
    finite = finite and all(np.isfinite(r.risk01c) and not r.flagged for r in defer_rows)

    # SCE and ANGLE: train each (method, trial) group of cells as one stack,
    # then compare validation risk at the untuned default (T=1, delta=0)
    # against the tuned choice
    grid = harness.GridSpec(datasets=("twonorm",), methods=("sce", "angle"), costs=GRID_COSTS, trials=trials)
    untuned = {"sce": 1.0, "angle": 0.0}
    visited = []
    for data, cells in harness.cell_groups(grid):
        visited += cells
        for (_, method, cost_value, trial), trained in zip(cells, harness.train_group(grid, data, cells)):
            spec, cost = harness.METHODS[method], RejectionCost(cost_value)
            model, val = trained.model, data.val
            G_val = model.scores(val.X)

            default_dec = spec.decide(G_val, 2, cost, untuned[method])
            tuned = spec.tune(model, val, 2, cost)
            tuned_dec = spec.decide(G_val, 2, cost, tuned)

            default_risk = compute_metrics(default_dec, val.y, cost).risk01c
            tuned_risk = compute_metrics(tuned_dec, val.y, cost).risk01c
            if tuned_risk > default_risk + 1e-12:
                tuning_regressed.append((method, cost_value, trial, default_risk, tuned_risk))

            test_eval = data.test
            test_dec = spec.decide(model.scores(test_eval.X), 2, cost, tuned)
            finite = finite and np.isfinite(compute_metrics(test_dec, test_eval.y, cost).risk01c)
    assert sorted(visited) == sorted(grid.cells()), "the groups cover every cell once"

    elapsed = time.perf_counter() - t0
    ok = finite and not tuning_regressed and elapsed < 600.0
    _report(
        10,
        ok,
        f"sce/defer/angle finite over the clean grid: {finite}; "
        f"tuning regressions: {len(tuning_regressed)}; {elapsed:.0f}s (< 600s)",
    )
