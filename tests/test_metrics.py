"""Detection metrics against brute-force enumeration oracles."""

import json
import math

import numpy as np
import pytest
from metrics_probes import write_report_json

from rodd.errors import ContractViolation
from rodd.metrics import (
    EvalReport,
    ScoreSplit,
    accuracy,
    auroc,
    detection_error,
    evaluate_split,
    fpr_at_tpr,
)


def brute_force_fpr(id_scores, ood_scores, tpr_target):
    # Scan every candidate threshold (descending ID values); keep the largest
    # one that retains the target ID fraction.
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    for tau in sorted(set(id_scores.tolist()), reverse=True):
        kept = np.count_nonzero(id_scores >= tau) / id_scores.size
        if kept >= tpr_target:
            fpr = np.count_nonzero(ood_scores >= tau) / ood_scores.size
            return fpr, tau
    raise AssertionError("some threshold must retain all ID samples")


def brute_force_auroc(id_scores, ood_scores):
    wins = ties = 0
    for i in id_scores:
        for o in ood_scores:
            if i > o:
                wins += 1
            elif i == o:
                ties += 1
    return (wins + 0.5 * ties) / (len(id_scores) * len(ood_scores))


def random_split(rng):
    n_id = int(rng.integers(1, 201))
    n_ood = int(rng.integers(1, 201))
    # integer-ish values make ties common, exercising the tie rules
    id_scores = rng.integers(-20, 21, size=n_id).astype(float)
    ood_scores = rng.integers(-20, 21, size=n_ood).astype(float)
    return ScoreSplit(id_scores, ood_scores)


class TestFprAtTpr:
    def test_worked_example(self):
        split = ScoreSplit(np.array([4.0, 3.0, 2.0, 1.0]), np.array([0.5, 1.5]))
        fpr, tau = fpr_at_tpr(split, 0.95)
        assert tau == 1.0
        assert fpr == 0.5

    def test_perfect_separation(self):
        split = ScoreSplit(np.array([3.0, 2.0]), np.array([1.0, 0.0]))
        fpr, _ = fpr_at_tpr(split, 0.95)
        assert fpr == 0.0

    def test_identical_distributions_near_chance(self):
        values = np.arange(20.0)
        split = ScoreSplit(values, values)
        fpr, _ = fpr_at_tpr(split, 0.95)
        assert fpr >= 0.95 - 1.0 / 20

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            split = random_split(rng)
            fpr, tau = fpr_at_tpr(split, 0.95)
            ofpr, otau = brute_force_fpr(split.id_scores, split.ood_scores, 0.95)
            assert fpr == ofpr
            assert tau == otau

    def test_threshold_is_an_id_score(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            split = random_split(rng)
            _, tau = fpr_at_tpr(split, 0.8)
            assert tau in set(split.id_scores.tolist())

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        split = random_split(rng)
        fpr_a, _ = fpr_at_tpr(split, 0.95)
        transformed = ScoreSplit(np.exp(split.id_scores / 10), np.exp(split.ood_scores / 10))
        fpr_b, _ = fpr_at_tpr(transformed, 0.95)
        assert fpr_a == fpr_b

    def test_bad_target(self):
        split = ScoreSplit(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ContractViolation):
            fpr_at_tpr(split, 0.0)
        with pytest.raises(ContractViolation):
            fpr_at_tpr(split, 1.5)

    def test_empty_split_rejected(self):
        with pytest.raises(ContractViolation):
            ScoreSplit(np.array([]), np.array([1.0]))


class TestAuroc:
    def test_worked_example(self):
        split = ScoreSplit(np.array([0.9, 0.8]), np.array([0.7, 0.85]))
        assert auroc(split) == 0.75

    def test_perfect(self):
        split = ScoreSplit(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
        assert auroc(split) == 1.0

    def test_single_tie(self):
        split = ScoreSplit(np.array([1.0]), np.array([1.0]))
        assert auroc(split) == 0.5

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            split = random_split(rng)
            assert auroc(split) == brute_force_auroc(
                split.id_scores.tolist(), split.ood_scores.tolist()
            )

    def test_negation_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            split = random_split(rng)
            swapped = ScoreSplit(-split.ood_scores, -split.id_scores)
            assert auroc(split) == auroc(swapped)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        split = random_split(rng)
        transformed = ScoreSplit(split.id_scores**3, split.ood_scores**3)
        assert auroc(split) == auroc(transformed)


class TestDetectionError:
    def test_perfect_separation(self):
        split = ScoreSplit(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert detection_error(split, 0.95) == 0.0

    def test_worked_example(self):
        split = ScoreSplit(np.array([2.0, 1.0]), np.array([1.5, 0.5]))
        assert detection_error(split, 0.95) == 0.25

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            split = random_split(rng)
            assert 0.0 <= detection_error(split, 0.95) <= 1.0


class TestAccuracy:
    def test_perfect_one_hot(self):
        logits = np.eye(3)
        assert accuracy(logits, np.array([0, 1, 2])) == 1.0

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((2, 3))
        assert accuracy(logits, np.array([1, 2])) == 0.0
        assert accuracy(logits, np.array([0, 0])) == 1.0

    def test_two_of_three(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_label_range_checked(self):
        with pytest.raises(ContractViolation):
            accuracy(np.zeros((2, 2)), np.array([0, 2]))


class TestEvalReport:
    def test_field_names_exact(self, tmp_path):
        split = ScoreSplit(np.array([4.0, 3.0, 2.0, 1.0]), np.array([0.5, 1.5]))
        report = evaluate_split(split, 0.95)
        path = tmp_path / "report.json"
        write_report_json(path, report)
        payload = json.loads(path.read_text())
        assert list(payload.keys()) == [
            "fpr95",
            "auroc",
            "detection_error",
            "n_id",
            "n_ood",
            "threshold_used",
        ]
        assert payload["n_id"] == 4 and payload["n_ood"] == 2
        assert payload["fpr95"] == 0.5
        assert payload["threshold_used"] == 1.0

    def test_ranges(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            report = evaluate_split(random_split(rng), 0.95)
            assert 0.0 <= report.fpr95 <= 1.0
            assert 0.0 <= report.auroc <= 1.0
            assert 0.0 <= report.detection_error <= 1.0

    def test_csv_row_matches_fields(self):
        report = EvalReport(0.1, 0.9, 0.05, 10, 20, -0.5)
        row = report.csv_row().split(",")
        assert len(row) == 6
        assert float(row[0]) == 0.1 and int(row[3]) == 10 and float(row[5]) == -0.5
