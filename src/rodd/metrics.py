"""Detection metrics: FPR at a target TPR, AUROC, detection error, accuracy.

Metrics consume oriented detection scores (higher means more in-distribution,
e.g. the negated angle for the subspace scorer or the max-softmax value for
the baseline), so one implementation serves every scorer.  The test suite
holds brute-force enumeration oracles that these must match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

@dataclass(frozen=True)
class ScoreSplit:
    """Oriented detection scores for the ID and OOD populations."""

    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        for name in ("id_scores", "ood_scores"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if arr.size < 1:
                raise ContractViolation(f"{name} must be nonempty")
            if not np.isfinite(arr).all():
                raise ContractViolation(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class EvalReport:
    fpr95: float
    auroc: float
    detection_error: float
    n_id: int
    n_ood: int
    threshold_used: float


def fpr_at_tpr(split: ScoreSplit, tpr_target: float = 0.95) -> tuple[float, float]:
    """FPR at the largest threshold keeping at least tpr_target of the ID mass.

    The threshold is the largest value tau with #{id >= tau} / n_id >=
    tpr_target, which is always an element of the ID score set; FPR is the
    OOD fraction at or above it.
    """
    if not 0.0 < tpr_target <= 1.0:
        raise ContractViolation(f"tpr_target must lie in (0, 1], got {tpr_target}")
    ids = np.sort(split.id_scores)[::-1]
    n_id = ids.size
    # The 1e-9 nudge guards against products like 0.2 * 5 landing above the
    # exact integer in floating point.
    k = int(math.ceil(tpr_target * n_id - 1e-9))
    k = min(max(k, 1), n_id)
    tau = float(ids[k - 1])
    fpr = float(np.count_nonzero(split.ood_scores >= tau) / split.ood_scores.size)
    return fpr, tau


def auroc(split: ScoreSplit) -> float:
    """Probability a random ID score beats a random OOD score, ties half-credit.

    Computed from sorted-rank counts; equals the trapezoidal ROC area and the
    exhaustive pair count exactly (integer arithmetic until the final
    division).
    """
    ood_sorted = np.sort(split.ood_scores)
    below = np.searchsorted(ood_sorted, split.id_scores, side="left")
    below_or_equal = np.searchsorted(ood_sorted, split.id_scores, side="right")
    wins = int(below.sum())
    ties = int((below_or_equal - below).sum())
    return (wins + 0.5 * ties) / (split.id_scores.size * split.ood_scores.size)


def detection_error(split: ScoreSplit, tpr_target: float = 0.95) -> float:
    """Balanced miss/false-positive error at the tpr_target operating point."""
    return evaluate_split(split, tpr_target).detection_error


def accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax (ties to the lowest index) matches the label."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ContractViolation(
            f"logits shape {logits.shape} does not match {labels.shape[0]} labels"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ContractViolation(f"labels must lie in [0, {logits.shape[1]})")
    return float((np.argmax(logits, axis=1) == labels).mean())


def evaluate_split(split: ScoreSplit, tpr_target: float = 0.95) -> EvalReport:
    fpr, tau = fpr_at_tpr(split, tpr_target)
    tpr = float(np.count_nonzero(split.id_scores >= tau) / split.id_scores.size)
    return EvalReport(
        fpr95=fpr,
        auroc=auroc(split),
        detection_error=0.5 * (1.0 - tpr) + 0.5 * fpr,
        n_id=int(split.id_scores.size),
        n_ood=int(split.ood_scores.size),
        threshold_used=tau,
    )
