import numpy as np
import pytest
from hypothesis import given, strategies as st

from csreject.core import (
    CODE_AMBIGUITY,
    CODE_DISTANCE,
    CODE_ORACLE,
    Dataset,
    Decision,
    MetricsRecord,
    RejectionCost,
    compute_metrics,
    zero_one_c_risk,
)


class TestDecision:
    def test_predict_and_reject_are_exclusive(self):
        with pytest.raises(ValueError):
            Decision(label=1, reject_reason="distance")
        with pytest.raises(ValueError):
            Decision()

    def test_label_must_be_positive(self):
        with pytest.raises(ValueError):
            Decision.predict(0)

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            Decision.reject("bored")

    def test_is_reject(self):
        assert Decision.reject("ambiguity").is_reject
        assert not Decision.predict(3).is_reject

    def test_from_code(self):
        table = {3: Decision.predict(3), CODE_DISTANCE: Decision.reject("distance"),
                 CODE_AMBIGUITY: Decision.reject("ambiguity"), CODE_ORACLE: Decision.reject("oracle")}
        for code, decision in table.items():
            assert Decision.from_code(code) == decision
        with pytest.raises(ValueError):
            Decision.from_code(-3)


class TestRejectionCost:
    @pytest.mark.parametrize("c", [0.0, 0.5, -0.1, 0.7])
    def test_out_of_range_rejected(self, c):
        with pytest.raises(ValueError):
            RejectionCost(c)

    def test_in_range_accepted(self):
        assert RejectionCost(0.25).c == 0.25


class TestDataset:
    def test_basic_shape_checks(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.array([]), K=2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1, 2]), K=2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([1, 3]), K=2)

    def test_nonfinite_features_rejected(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            Dataset(X, np.array([1]), K=1)

    def test_subset(self):
        ds = Dataset(np.arange(8).reshape(4, 2), np.array([1, 2, 1, 2]), K=2)
        sub = ds.subset([0, 3])
        assert sub.n == 2
        assert list(sub.y) == [1, 2]


class TestZeroOneC:
    def test_reject_costs_c(self):
        assert zero_one_c_risk([CODE_DISTANCE], [2], RejectionCost(0.3)) == 0.3

    def test_correct_prediction_is_free(self):
        assert zero_one_c_risk([2], [2], RejectionCost(0.3)) == 0.0

    def test_misclassification_costs_one(self):
        assert zero_one_c_risk([1], [2], RejectionCost(0.3)) == 1.0

    def test_range_is_zero_c_one(self):
        cost = RejectionCost(0.2)
        values = {
            zero_one_c_risk([1], [1], cost),
            zero_one_c_risk([1], [2], cost),
            zero_one_c_risk([CODE_AMBIGUITY], [1], cost),
        }
        assert values == {0.0, 1.0, 0.2}


class TestComputeMetrics:
    def test_always_reject(self):
        cost = RejectionCost(0.2)
        m = compute_metrics([CODE_DISTANCE] * 10, [1] * 10, cost)
        assert m.risk01c == pytest.approx(0.2)
        assert m.rejection_ratio == 1.0
        assert m.accepted_error == 0.0
        assert m.n_reject_distance == 10  # nothing accepted

    def test_all_correct(self):
        m = compute_metrics([1] * 5, [1] * 5, RejectionCost(0.1))
        assert m.risk01c == 0.0
        assert m.rejection_ratio == 0.0

    def test_mixed_hand_example(self):
        # 2 rejects (1 distance, 1 ambiguity), 1 wrong, 1 right at c = 0.25
        decisions = [CODE_DISTANCE, CODE_AMBIGUITY, 1, 2]
        labels = [1, 1, 2, 2]
        m = compute_metrics(decisions, labels, RejectionCost(0.25))
        assert m.risk01c == pytest.approx(0.375)
        assert m.rejection_ratio == pytest.approx(0.5)
        assert m.accepted_error == pytest.approx(0.5)
        assert m.n_reject_distance == 1
        assert m.n_reject_ambiguity == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [], RejectionCost(0.2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([1], [1, 2], RejectionCost(0.2))

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=1, max_size=40),
        st.floats(0.01, 0.49),
    )
    def test_risk_decomposition_identity(self, rows, c):
        # risk01c = c*rejection_ratio + (1 - rejection_ratio)*accepted_error
        cost = RejectionCost(c)
        decisions = []
        labels = []
        for kind, label in rows:
            labels.append(label)
            if kind == 0:
                decisions.append(CODE_DISTANCE)
            elif kind == 1:
                decisions.append(label)
            else:
                decisions.append(label % 3 + 1)
        m = compute_metrics(decisions, labels, cost)
        lhs = m.risk01c
        rhs = cost.c * m.rejection_ratio + (1.0 - m.rejection_ratio) * m.accepted_error
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_record_is_frozen(self):
        m = MetricsRecord(0.0, 0.0, 0.0, 0, 0)
        with pytest.raises(AttributeError):
            m.risk01c = 1.0
