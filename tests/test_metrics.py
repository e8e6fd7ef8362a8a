"""Metric tests; the oracle is a brute-force per-class TP/FP/FN tally."""

import numpy as np
import pytest

from advssl.metrics import (
    ConfusionMatrix,
    aggregate_runs,
    classification_report,
    confusion_matrix,
    macro_f1_score,
)


def brute_force_report(counts):
    """Independent per-class tally straight from TP/FP/FN definitions."""
    m = counts.shape[0]
    precision, recall, f1 = np.zeros(m), np.zeros(m), np.zeros(m)
    for k in range(m):
        tp = counts[k, k]
        fp = counts[:, k].sum() - tp
        fn = counts[k, :].sum() - tp
        precision[k] = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall[k] = tp / (tp + fn) if tp + fn > 0 else 0.0
        denom = precision[k] + recall[k]
        f1[k] = 2 * precision[k] * recall[k] / denom if denom > 0 else 0.0
    present = counts.sum(axis=1) > 0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_precision": precision[present].mean(),
        "macro_recall": recall[present].mean(),
        "macro_f1": f1[present].mean(),
        "accuracy": np.trace(counts) / counts.sum(),
    }


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        cm = confusion_matrix(y, y, 3)
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
        assert cm.counts.sum() == 5

    def test_hand_counts(self):
        cm = confusion_matrix([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], 3)
        expected = np.array([[1, 1, 0], [0, 2, 0], [0, 0, 1]])
        np.testing.assert_array_equal(cm.counts, expected)

    def test_empty_inputs_all_zero(self):
        cm = confusion_matrix([], [], 4)
        assert cm.counts.sum() == 0
        np.testing.assert_array_equal(cm.counts, np.zeros((4, 4), dtype=int))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 3)


class TestClassificationReport:
    def test_hand_computed_report(self):
        cm = confusion_matrix([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], 3)
        report = classification_report(cm)
        assert abs(report.macro_precision - 0.8889) < 1e-4
        assert abs(report.macro_recall - 0.8333) < 1e-4
        assert abs(report.macro_f1 - 0.8222) < 1e-4
        assert abs(report.accuracy - 0.8) < 1e-12

    def test_perfect_predictions_all_ones(self):
        y = np.array([0, 1, 2, 2, 1, 0])
        report = classification_report(confusion_matrix(y, y, 3))
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_never_predicted_class_precision_zero(self):
        # class 2 exists in truth but is never predicted
        report = classification_report(confusion_matrix([0, 1, 2], [0, 1, 0], 3))
        assert report.precision[2] == 0.0
        assert report.zero_division[2]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            classification_report(ConfusionMatrix(np.zeros((3, 3), dtype=int)))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_tally(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 7))
        counts = rng.integers(0, 21, size=(m, m))
        if counts.sum() == 0 or not (counts.sum(axis=1) > 0).any():
            counts[0, 0] = 1
        report = classification_report(ConfusionMatrix(counts))
        oracle = brute_force_report(counts.astype(float))
        np.testing.assert_allclose(report.precision, oracle["precision"], atol=1e-12)
        np.testing.assert_allclose(report.recall, oracle["recall"], atol=1e-12)
        np.testing.assert_allclose(report.f1, oracle["f1"], atol=1e-12)
        assert abs(report.macro_f1 - oracle["macro_f1"]) < 1e-12
        assert abs(report.accuracy - oracle["accuracy"]) < 1e-12

    def test_macro_permutation_invariant(self):
        rng = np.random.default_rng(7)
        y_true = rng.integers(0, 4, 200)
        y_pred = rng.integers(0, 4, 200)
        base = classification_report(confusion_matrix(y_true, y_pred, 4))
        perm = np.array([2, 0, 3, 1])
        relabeled = classification_report(
            confusion_matrix(perm[y_true], perm[y_pred], 4)
        )
        assert abs(base.macro_f1 - relabeled.macro_f1) < 1e-12
        assert abs(base.accuracy - relabeled.accuracy) < 1e-12

    def test_metrics_bounded_and_f1_zero_rule(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            counts = rng.integers(0, 10, size=(4, 4))
            counts[0, 0] += 1
            r = classification_report(ConfusionMatrix(counts))
            for arr in (r.precision, r.recall, r.f1):
                assert np.all((arr >= 0) & (arr <= 1))
            zero = (r.precision == 0) | (r.recall == 0)
            assert np.all(r.f1[zero] == 0)


class TestAggregateRuns:
    def test_identical_reports_zero_std(self):
        y = np.array([0, 1, 1, 0])
        rep = classification_report(confusion_matrix(y, y, 2))
        agg = aggregate_runs([rep, rep, rep])
        assert agg["accuracy"]["mean"] == 1.0
        assert agg["accuracy"]["std"] == 0.0

    def test_hand_mean_and_sample_std(self):
        r1 = classification_report(confusion_matrix([0] * 8 + [1] * 2, [0] * 10, 2))
        r2 = classification_report(confusion_matrix([0] * 9 + [1], [0] * 10, 2))
        assert abs(r1.accuracy - 0.8) < 1e-12
        assert abs(r2.accuracy - 0.9) < 1e-12
        agg = aggregate_runs([r1, r2])
        assert abs(agg["accuracy"]["mean"] - 0.85) < 1e-12
        assert abs(agg["accuracy"]["std"] - 0.070710678) < 1e-6

    def test_single_report_has_zero_std(self):
        rep = classification_report(confusion_matrix([0, 0, 1], [0, 1, 1], 2))
        agg = aggregate_runs([rep])
        assert agg["runs"] == 1
        for name in ("macro_precision", "macro_recall", "macro_f1", "weighted_f1", "accuracy"):
            assert agg[name] == {"mean": getattr(rep, name), "std": 0.0}

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            aggregate_runs([])

    def test_mismatched_schemas_rejected(self):
        r2 = classification_report(confusion_matrix([0, 1], [0, 1], 2))
        r3 = classification_report(confusion_matrix([0, 1, 2], [0, 1, 2], 3))
        with pytest.raises(ValueError, match="classes"):
            aggregate_runs([r2, r3])


class TestHelpers:
    def test_macro_f1_score_shortcut(self):
        y_true = [0, 0, 1, 1, 2]
        y_pred = [0, 1, 1, 1, 2]
        assert abs(macro_f1_score(y_true, y_pred, 3) - 0.8222) < 1e-4
