"""Per-sample Monte-Carlo scoring: the test oracle for rodd.ood.mc_score_records.

mc_score_records augments, encodes and tallies a chunk of rows at a time.
This is the one-row-at-a-time loop it replaced, kept so the tests can check
that batching changes no probability, decision, class or degenerate count.
"""

from __future__ import annotations

import math

import numpy as np

from rodd.contrastive import AugmentationSpec, augment_batch
from rodd.encoder import FEATURE_NORM_FLOOR, features
from rodd.ood import ScoreRecord, uncertainty_scores


def mc_detect_one(model, subspaces, raw_sample, k_draws, noise_sigma, seed, sample_id, abs_cosine):
    """Score one sample from k_draws gaussian augmentations drawn from default_rng(seed)."""
    raw = np.asarray(raw_sample, dtype=np.float64)
    rng = np.random.default_rng(seed)
    noise = AugmentationSpec(gaussian_sigma=noise_sigma)
    draws = augment_batch(np.tile(raw, (k_draws, 1)), noise, rng)
    feats = features(model, draws)
    norms = np.linalg.norm(feats, axis=1)
    valid = norms >= FEATURE_NORM_FLOOR
    deltas = np.full(k_draws, math.pi)
    argmins = np.full(k_draws, -1, dtype=np.int64)
    if valid.any():
        deltas[valid], argmins[valid] = uncertainty_scores(
            feats[valid], subspaces, abs_cosine=abs_cosine
        )
    hits = int(((deltas <= subspaces.threshold) & valid).sum())
    probability = hits / k_draws
    if valid.any():
        votes = np.bincount(argmins[valid], minlength=subspaces.n_classes)
        arg_class = int(np.argmax(votes))
    else:
        arg_class = -1
    return ScoreRecord(
        sample_id=int(sample_id),
        delta=float(deltas.mean()),
        argmin_class=arg_class,
        mc_probability=probability,
        decision="ID" if probability >= 0.5 else "OOD",
        degenerate_draws=int(k_draws - valid.sum()),
    )


def mc_records_oracle(
    model, subspaces, raw_rows, k_draws=50, noise_sigma=0.01, seed=0, start_id=0, abs_cosine=False
) -> list[ScoreRecord]:
    """Row i scored alone from default_rng(seed XOR i), with id start_id + i."""
    return [
        mc_detect_one(
            model, subspaces, row, k_draws, noise_sigma, seed ^ i, start_id + i, abs_cosine
        )
        for i, row in enumerate(np.asarray(raw_rows, dtype=np.float64))
    ]
