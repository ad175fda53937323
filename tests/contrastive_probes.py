"""Single-vector augmentation and view-pair cosine statistics for the tests.

Test-only: the program augments whole batches (rodd.contrastive.augment_batch)
and never measures pair cosines.
"""

from __future__ import annotations

import numpy as np

from rodd.contrastive import augment_batch
from rodd.encoder import EncoderModel, features
from rodd.errors import ContractViolation


def augment(x, sigma: float, rng_seed: int) -> np.ndarray:
    """One augmented copy of a single input vector, deterministic per seed."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"augment expects a 1-D vector, got shape {arr.shape}")
    return augment_batch(arr[None, :], sigma, np.random.default_rng(rng_seed))[0]


def pair_cosine_stats(model: EncoderModel, dataset, sigma, seed: int, n_pairs: int = 64):
    """Mean within-pair vs between-pair feature cosine on fresh view pairs."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, dataset.n, size=n_pairs)
    xb = dataset.inputs[idx]
    views = augment_batch(np.vstack([xb, xb]), sigma, rng)
    feats = features(model, views)
    norms = np.linalg.norm(feats, axis=1)
    norms[norms == 0] = 1.0
    unit = feats / norms[:, None]
    cos = unit @ unit.T
    within = np.array([cos[i, n_pairs + i] for i in range(n_pairs)])
    mask = np.ones_like(cos, dtype=bool)
    np.fill_diagonal(mask, False)
    for i in range(n_pairs):
        mask[i, n_pairs + i] = mask[n_pairs + i, i] = False
    return float(within.mean()), float(cos[mask].mean())
