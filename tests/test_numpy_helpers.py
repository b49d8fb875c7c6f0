"""The numpy forms of the logistic sigmoid, (log-)softmax and log-sum-exp,
against per-element `math` references, the scipy-free import, and a package
root that imports no submodule."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import csreject
from csreject.baselines import _log_softmax, softmax
from csreject.data import _logsumexp
from csreject.losses import MARGIN_LOSSES, _expit

# rows with ties, zeros and entries at +-800, where exp(+-800) over- or underflows
ROWS = [
    [800.0, -800.0, 0.0],
    [-800.0, -800.0, -800.0],
    [800.0, 800.0, 0.0],
    [0.0, 0.0, 0.0],
    [5.0, 5.0, -1.0],
    [0.0, -800.0, 800.0],
]


def _rows(K):
    rng = np.random.default_rng(K)
    random_rows = np.vstack([rng.normal(size=(300, K)) * s for s in (1.0, 3.0, 10.0)])
    fixed = np.array([row[:K] for row in ROWS]) if K <= 3 else np.empty((0, K))
    return np.vstack([fixed, random_rows])


def _assert_ulps(got, ref, n_ulp, floor=0.0):
    """|got - ref| within n_ulp units in the last place of max(|ref|, floor)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    tol = n_ulp * np.spacing(np.maximum(np.abs(ref), floor))
    bad = ~((got == ref) | (np.abs(got - ref) <= tol))
    assert not bad.any(), list(zip(got[bad][:5], ref[bad][:5]))


def _ref_expit(x):
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _ref_shifted(row):
    m = max(row)
    # a -inf maximum would make every shift nan; only a -inf entry is tested
    return m, [v - m for v in row], sum(math.exp(v - m) for v in row)


class TestExpit:
    X = np.concatenate([np.linspace(-40.0, 40.0, 801), [-800.0, 800.0, 0.0, -700.0, 700.0, 1e-300, -1e-300]])

    def test_within_2_ulp_of_math(self):
        _assert_ulps(_expit(self.X), [_ref_expit(x) for x in self.X.tolist()], 2)

    def test_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _expit(np.array([-800.0, 800.0]))
        assert out.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("name", sorted(MARGIN_LOSSES))
    def test_every_loss_is_finite_and_silent_at_800(self, name):
        z = np.array([-800.0, 800.0])
        loss = MARGIN_LOSSES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(loss.value(z)).all() and np.isfinite(loss.grad(z)).all()


# Results below 1 in magnitude inherit the absolute rounding of a sum near 1
# (log(s) for s near 1, e / s), so those are measured in ulps of 1.
class TestSoftmaxFamily:
    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_log_softmax_within_2_ulp_of_math(self, K):
        X = _rows(K)
        ref = []
        for row in X.tolist():
            _, shifted, s = _ref_shifted(row)
            ref.append([v - math.log(s) for v in shifted])
        _assert_ulps(_log_softmax(X), ref, 2, floor=1.0)

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_softmax_within_2_ulp_of_math(self, K):
        X = _rows(K)
        ref = []
        for row in X.tolist():
            _, shifted, s = _ref_shifted(row)
            ref.append([math.exp(v) / s for v in shifted])
        _assert_ulps(softmax(X), ref, 2, floor=1.0)

    def test_single_row_is_the_last_axis(self):
        g = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(_log_softmax(g), _log_softmax(g[None])[0])
        np.testing.assert_array_equal(softmax(g, 0.3), softmax(g[None], 0.3)[0])

    def test_temperature_array_broadcasts(self):
        X = _rows(3)
        T = np.array([0.01, 0.5, 4.0])
        out = softmax(X, T[:, None, None])
        for i, t in enumerate(T):
            np.testing.assert_array_equal(out[i], softmax(X / t))

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_logsumexp_within_2_ulp_of_math(self, K):
        X = _rows(K)
        ref = []
        for row in X.tolist():
            m, _, s = _ref_shifted(row)
            ref.append([m + math.log(s)])
        _assert_ulps(_logsumexp(X), ref, 2, floor=1.0)

    def test_logsumexp_ignores_a_minus_inf_entry(self):
        X = np.array([[-np.inf, 0.0, 1.0], [-np.inf, -800.0, 800.0], [-np.inf, 2.0, 2.0]])
        ref = [[1.0 + math.log(1.0 + math.exp(-1.0))], [800.0], [2.0 + math.log(2.0)]]
        _assert_ulps(_logsumexp(X), ref, 2, floor=1.0)


def _modules_loaded_by(code):
    """The modules that `code`, run in a fresh interpreter on this checkout's package, prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(csreject.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_loads_no_scipy():
    code = "import sys, csreject, csreject.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _modules_loaded_by(code) == "[]"


def test_import_of_the_root_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, csreject; "
        "print([m for m in sys.modules if m.startswith('csreject.') or m.split('.')[0] == 'numpy'])"
    )
    assert _modules_loaded_by(code) == "[]"
