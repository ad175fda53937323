"""Single-vector scorers used only by the tests.

rodd.ood scores whole feature matrices (uncertainty_scores) and the
pipeline takes the max-softmax baseline over whole logit matrices.  These
one-vector forms are convenient for geometric checks on hand-built
features and logits, and have no production caller.
"""

from __future__ import annotations

import numpy as np

from rodd.encoder import softmax
from rodd.errors import ContractViolation
from rodd.ood import ClassSubspaceSet, uncertainty_scores


def uncertainty_score(feat, subspaces: ClassSubspaceSet) -> tuple[float, int]:
    """Angle score for a single feature vector: (delta, argmin class)."""
    arr = np.asarray(feat, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"expected a 1-D feature vector, got shape {arr.shape}")
    deltas, argmins = uncertainty_scores(arr[None, :], subspaces)
    return float(deltas[0]), int(argmins[0])


def msp_score(logits) -> float:
    """Maximum softmax probability of a single logit vector."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ContractViolation(f"logits must be a nonempty 1-D vector, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractViolation("logits must be finite")
    return float(softmax(arr[None, :])[0].max())
