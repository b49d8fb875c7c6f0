"""Shared primitives: labels, decisions, rejection cost, datasets, 0-1-c metric.

Decisions travel as integer codes, one per row: 1..K predicts that class,
CODE_DISTANCE (0), CODE_AMBIGUITY (-1) and CODE_ORACLE (-2) reject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REASON_DISTANCE = "distance"
REASON_AMBIGUITY = "ambiguity"
REASON_ORACLE = "oracle"

# a rejection's code is minus its index here
_REASONS = (REASON_DISTANCE, REASON_AMBIGUITY, REASON_ORACLE)
CODE_DISTANCE, CODE_AMBIGUITY, CODE_ORACLE = 0, -1, -2


@dataclass(frozen=True)
class Decision:
    """Either predict a class label (1..K) or reject with a reason tag: one decision code, viewed."""

    label: int | None = None
    reject_reason: str | None = None

    def __post_init__(self):
        if (self.label is None) == (self.reject_reason is None):
            raise ValueError("decision must carry exactly one of label / reject_reason")
        if self.label is not None and self.label < 1:
            raise ValueError(f"label must be >= 1, got {self.label}")
        if self.reject_reason is not None and self.reject_reason not in _REASONS:
            raise ValueError(f"unknown rejection reason {self.reject_reason!r}")

    @classmethod
    def predict(cls, label: int) -> "Decision":
        return cls(label=int(label))

    @classmethod
    def reject(cls, reason: str) -> "Decision":
        return cls(reject_reason=reason)

    @classmethod
    def from_code(cls, code) -> "Decision":
        code = int(code)
        if code < CODE_ORACLE:
            raise ValueError(f"unknown decision code {code}")
        return cls.predict(code) if code >= 1 else cls.reject(_REASONS[-code])

    @property
    def is_reject(self) -> bool:
        return self.reject_reason is not None


@dataclass(frozen=True)
class RejectionCost:
    """Cost c of abstaining; the whole framework requires 0 < c < 0.5."""

    c: float

    def __post_init__(self):
        if not (0.0 < self.c < 0.5):
            raise ValueError(f"rejection cost must lie in (0, 0.5), got {self.c}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n, d) with integer labels in 1..K."""

    X: np.ndarray
    y: np.ndarray
    K: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("X must be a non-empty (n, d) array")
        if y.shape != (len(X),):
            raise ValueError("y must be a length-n label vector")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        if y.min() < 1 or y.max() > self.K:
            raise ValueError(f"labels must lie in 1..{self.K}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.K)


@dataclass(frozen=True)
class MetricsRecord:
    n: int
    risk01c: float
    rejection_ratio: float
    accepted_error: float
    n_reject_distance: int
    n_reject_ambiguity: int
    n_wrong_accepted: int
    nothing_accepted: bool = False


def zero_one_c_risk(codes, labels, cost: RejectionCost):
    """Zero-one-c risk along the last axis of decision codes (..., n)."""
    codes = np.asarray(codes)
    reject = codes < 1
    n_wrong = (~reject & (codes != np.asarray(labels))).sum(axis=-1)
    return (cost.c * reject.sum(axis=-1) + n_wrong) / codes.shape[-1]


def compute_metrics(codes, labels, cost: RejectionCost) -> MetricsRecord:
    """Aggregate the 0-1-c risk and its rejection/error decomposition over decision codes."""
    codes = np.asarray(codes, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if codes.shape != labels.shape or codes.ndim != 1:
        raise ValueError("decision codes and labels must be equal-length vectors")
    n = len(codes)
    if n == 0:
        raise ValueError("cannot compute metrics on empty input")

    n_reject, n_wrong = int((codes < 1).sum()), int(((codes >= 1) & (codes != labels)).sum())
    n_accepted = n - n_reject
    return MetricsRecord(
        n=n,
        risk01c=float(zero_one_c_risk(codes, labels, cost)),
        rejection_ratio=n_reject / n,
        accepted_error=n_wrong / n_accepted if n_accepted > 0 else 0.0,
        n_reject_distance=int((codes == CODE_DISTANCE).sum()),
        n_reject_ambiguity=int((codes == CODE_AMBIGUITY).sum()),
        n_wrong_accepted=n_wrong,
        nothing_accepted=(n_accepted == 0),
    )
