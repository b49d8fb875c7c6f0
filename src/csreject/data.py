"""Synthetic generators with exact posterior oracles, CSV ingestion,
splitting, and standardization."""

from __future__ import annotations

import csv
import warnings
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
    """K Gaussian class-conditionals with identity covariance, and class priors."""

    means: np.ndarray  # (K, d)
    priors: np.ndarray  # (K,)

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        priors = np.asarray(self.priors, dtype=float)
        if priors.shape != (len(means),) or (priors < 0).any() or abs(priors.sum() - 1.0) > 1e-9:
            raise ValueError("priors must form a simplex over K classes")
        object.__setattr__(self, "means", means)
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

    def posterior(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        logj = np.empty((len(X), self.spec.K))
        for k in range(self.spec.K):
            diff = X - self.spec.means[k]
            logj[:, k] = np.log(self.spec.priors[k]) - 0.5 * (diff * diff).sum(axis=1)
        eta = np.exp(logj - _logsumexp(logj))
        return eta


def gen_gauss_mixture(spec: GaussianMixtureSpec, n: int, rng: np.random.Generator, keep=None):
    """Prior-then-class-conditional sampling with an exact posterior oracle: the rows keep of an n-row draw,
    in that order (all n by default). A class's rows are the normals rng.multivariate_normal(mean, I) draws,
    bit for bit, without its SVD and work blocks."""
    labels = mixture_labels(spec, n, rng)
    keep = np.arange(n) if keep is None else np.asarray(keep, dtype=np.intp)
    return Dataset(mixture_features(spec, labels, keep, rng), labels[keep], spec.K), PosteriorOracle(spec)


def mixture_labels(spec: GaussianMixtureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """The labels, in 1..K, of an n-row draw: gen_gauss_mixture's first draws."""
    return rng.choice(spec.K, size=n, p=spec.priors) + 1


# the normals drawn at a time, in whole rows of one class; consecutive standard_normal blocks continue the stream
# exactly, so the block's size changes no draw
BLOCK_SIZE = 2**12


def mixture_features(spec: GaussianMixtureSpec, labels: np.ndarray, keep, rng: np.random.Generator) -> np.ndarray:
    """The features of the rows keep, distinct indices in that order, of a draw with these labels: row i of class
    k is row i of rng.standard_normal((m_k, d)) + means[k]. Every class's normals are drawn, BLOCK_SIZE of them at
    a time, so rng ends where the full draw leaves it, but only the kept rows are held."""
    where = np.full(len(labels), -1)  # the row of X of each drawn row, -1 if it is not kept
    where[keep] = np.arange(len(keep))
    if np.count_nonzero(where >= 0) < len(keep):
        raise ValueError("keep must list distinct rows")
    X, rows = np.empty((len(keep), spec.d)), max(1, BLOCK_SIZE // spec.d)
    for k in range(spec.K):
        dest = where[labels == k + 1]
        for start in range(0, len(dest), rows):
            block = rng.standard_normal((min(rows, len(dest) - start), spec.d))
            block += spec.means[k]
            to = dest[start : start + rows]
            hit = to >= 0
            X[to[hit]] = block[hit]
    return X


def twonorm_spec(d: int = 20) -> GaussianMixtureSpec:
    """Classic twonorm construction: means +-(2/sqrt(d)) * 1, identity covariance."""
    a = 2.0 / np.sqrt(d)
    means = np.vstack([np.full(d, a), np.full(d, -a)])
    return GaussianMixtureSpec(means, np.array([0.5, 0.5]))


def gen_twonorm(n: int, rng: np.random.Generator, d: int = 20):
    if n < 2:
        raise ValueError("need at least two samples")
    return gen_gauss_mixture(twonorm_spec(d), n, rng)


def load_csv(path) -> Dataset:
    """Read a numeric CSV without a header into a Dataset, remapping the labels
    in its last column to 1..K.

    Blank lines are skipped; a field may be quoted, and '#' starts no comment.
    Distinct raw labels, which must be finite integers, are sorted and mapped
    in order, so {-1, +1} becomes {1, 2} with -1 -> 1. Raises "empty CSV"
    without data rows, "malformed row i" for a non-numeric field or a row of
    another width than the first, i its 0-based line number (blank lines counted),
    and "a CSV needs a feature column" for a file of labels alone.
    """
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows is reported below
        try:
            arr = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise ValueError(_malformed_row(path) or str(exc)) from None
    if len(arr) == 0:
        raise ValueError("empty CSV")
    if arr.shape[1] < 2:
        raise ValueError("a CSV needs a feature column before its label column; it has one column")
    raw_labels = arr[:, -1]
    if not (np.isfinite(raw_labels).all() and (raw_labels == np.round(raw_labels)).all()):
        raise ValueError(f"label column {arr.shape[1] - 1} (the last) must hold finite integers")
    distinct, y = np.unique(raw_labels, return_inverse=True)
    return Dataset(arr[:, :-1], y + 1, K=len(distinct))  # a view: a copy without the labels raised peak RSS


def _malformed_row(path) -> str | None:
    """load_csv's message for the first row float() cannot read or that is not
    as wide as the first data row; None if there is none. loadtxt's own
    messages count rows one way for a bad field and another for a bad width."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(i, row) for i, row in enumerate(csv.reader(fh)) if row]
    for i, row in rows:
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            return f"malformed row {i}: {exc}"
        if len(values) != len(rows[0][1]):
            return f"malformed row {i}: expected {len(rows[0][1])} columns, got {len(values)}"
    return None


def split_order(n: int, fractions, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """split's seeded shuffle of n rows and its cuts: part i is order[cuts[i - 1]:cuts[i]]. They depend on
    (n, fractions, seed) alone."""
    fractions = list(fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cuts = np.cumsum([int(round(f * n)) for f in fractions[:-1]])
    if not all(map(len, np.split(order, cuts))):
        raise ValueError(f"{n} rows leave a part of the split at fractions {fractions} empty")
    return order, cuts


def split(data: Dataset, fractions, seed: int) -> list[Dataset]:
    """Seeded shuffle followed by contiguous cuts at the given fractions; each part needs a row."""
    order, cuts = split_order(data.n, fractions, seed)
    return [data.subset(p) for p in np.split(order, cuts)]


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        """Per-feature mean and standard deviation of X (n, d); the variance is floored at 1e-12. A feature
        whose mean or standard deviation overflows, as when its squared deviations sum past the float maximum,
        raises ValueError."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean, scale = X.mean(axis=0), np.sqrt(np.maximum(X.var(axis=0), 1e-12))
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
        if bad.size:
            raise ValueError(f"feature {bad[0]} is too large to standardize: its mean or standard deviation overflows")
        return cls(mean, scale)

    def apply(self, data: Dataset, out: np.ndarray | None = None) -> Dataset:
        """data with each feature less its mean, over its scale. As in numpy's ufuncs, out is the array that
        receives the features, such as data.X itself to standardize in place; by default a new one."""
        X = np.subtract(data.X, self.mean, out=out)
        return Dataset(np.divide(X, self.scale, out=X), data.y, data.K)  # in place: a second array raised peak RSS


def standardize(train: Dataset, out: np.ndarray | None = None):
    """Fit per-feature zero-mean unit-variance on train, and apply it to train; out as in Standardizer.apply."""
    transform = Standardizer.fit(train.X)
    return transform, transform.apply(train, out=out)
