"""Synthetic generators with exact posterior oracles, CSV ingestion,
splitting, and standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, kept as a length-1 axis.

    Stabilized by max subtraction; a -inf entry (a zero prior) adds nothing.
    """
    a_max = a.max(axis=-1, keepdims=True)
    return a_max + np.log(np.exp(a - a_max).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """K Gaussian class-conditionals with full covariances and class priors."""

    means: np.ndarray  # (K, d)
    covs: np.ndarray  # (K, d, d)
    priors: np.ndarray  # (K,)

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        covs = np.asarray(self.covs, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        if covs.shape != (len(means), means.shape[1], means.shape[1]):
            raise ValueError("covs must be (K, d, d)")
        if priors.shape != (len(means),) or (priors < 0).any() or abs(priors.sum() - 1.0) > 1e-9:
            raise ValueError("priors must form a simplex over K classes")
        for S in covs:
            try:
                np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                raise ValueError("covariances must be positive definite") from None
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "priors", priors)

    @property
    def K(self) -> int:
        return len(self.means)

    @property
    def d(self) -> int:
        return self.means.shape[1]


class PosteriorOracle:
    """Exact class posteriors eta(x) from the generative densities."""

    def __init__(self, spec: GaussianMixtureSpec):
        self.spec = spec
        self._chols = [np.linalg.cholesky(S) for S in spec.covs]
        self._logdets = [2.0 * np.log(np.diag(L)).sum() for L in self._chols]

    def posterior(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        logj = np.empty((len(X), self.spec.K))
        for k in range(self.spec.K):
            diff = X - self.spec.means[k]
            sol = np.linalg.solve(self.spec.covs[k], diff.T).T
            maha = (diff * sol).sum(axis=1)
            logj[:, k] = np.log(self.spec.priors[k]) - 0.5 * (maha + self._logdets[k])
        eta = np.exp(logj - _logsumexp(logj))
        return eta

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.posterior(np.atleast_2d(x))[0]


def gen_gauss_mixture(spec: GaussianMixtureSpec, n: int, rng: np.random.Generator):
    """Prior-then-class-conditional sampling with an exact posterior oracle."""
    labels = rng.choice(spec.K, size=n, p=spec.priors) + 1
    X = np.empty((n, spec.d))
    for k in range(spec.K):
        mask = labels == k + 1
        m = int(mask.sum())
        if m:
            X[mask] = rng.multivariate_normal(spec.means[k], spec.covs[k], size=m)
    return Dataset(X, labels, spec.K), PosteriorOracle(spec)


def twonorm_spec(d: int = 20) -> GaussianMixtureSpec:
    """Classic twonorm construction: means +-(2/sqrt(d)) * 1, identity covariance."""
    a = 2.0 / np.sqrt(d)
    means = np.vstack([np.full(d, a), np.full(d, -a)])
    covs = np.stack([np.eye(d), np.eye(d)])
    return GaussianMixtureSpec(means, covs, np.array([0.5, 0.5]))


def gen_twonorm(n: int, rng: np.random.Generator, d: int = 20):
    if n < 2:
        raise ValueError("need at least two samples")
    return gen_gauss_mixture(twonorm_spec(d), n, rng)


def load_csv(path, label_column=-1, has_header: bool = False) -> Dataset:
    """Read a numeric CSV into a Dataset, remapping labels to 1..K.

    Distinct raw labels are sorted and mapped in order, so {-1, +1} becomes
    {1, 2} with -1 -> 1.
    """
    import csv

    rows = []
    raw_labels = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = None
        for i, row in enumerate(reader):
            if not row:
                continue
            if has_header and header is None:
                header = row
                continue
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"malformed row {i}: {exc}") from None
            rows.append(values)
    if not rows:
        raise ValueError("empty CSV")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"malformed row {i}: expected {width} columns, got {len(row)}")
    col = label_column if label_column >= 0 else width + label_column
    arr = np.asarray(rows, dtype=float)
    raw_labels = arr[:, col]
    if not np.allclose(raw_labels, np.round(raw_labels)):
        raise ValueError(f"label column {col} must hold integers")
    X = np.delete(arr, col, axis=1)
    distinct = np.unique(raw_labels)
    remap = {v: i + 1 for i, v in enumerate(distinct)}
    y = np.array([remap[v] for v in raw_labels], dtype=int)
    return Dataset(X, y, K=len(distinct))


def split(data: Dataset, fractions, seed: int) -> list[Dataset]:
    """Seeded shuffle followed by contiguous cuts at the given fractions."""
    fractions = list(fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n)
    cuts = np.cumsum([int(round(f * data.n)) for f in fractions[:-1]])
    parts = np.split(order, cuts)
    return [data.subset(p) for p in parts]


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    def apply(self, data: Dataset) -> Dataset:
        return Dataset((data.X - self.mean) / self.scale, data.y, data.K)


def standardize(train: Dataset):
    """Fit per-feature zero-mean unit-variance on train; variance floored."""
    mean = train.X.mean(axis=0)
    var = train.X.var(axis=0)
    scale = np.sqrt(np.maximum(var, 1e-12))
    transform = Standardizer(mean, scale)
    return transform, transform.apply(train)
