"""Post-training OOD machinery.

Fits one unit direction per class (the first right singular vector of that
class's feature matrix), scores test features by the smallest angle to any
class direction, estimates the accept threshold as an empirical quantile of
the training scores, and runs Monte-Carlo inference over gaussian input
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import FEATURE_NORM_FLOOR, EncoderModel, features
from .errors import ContractViolation, DegenerateFeatureError, FormatError
from .linalg import as_matrix, svd
from .streams import check_seed, standard_normal_rows, xor_seeds

SCORE_COLUMNS = ("sample_id", "delta", "argmin_class", "mc_probability", "decision")
UNIT_NORM_TOL = 1e-6  # loaded class directions must have norm 1 within this
# Draw rows encoded per features call in Monte-Carlo scoring: whole rows of
# k draws each, bounded so the draw and activation matrices stay a few MB.
MC_CHUNK_DRAWS = 3200


@dataclass
class ClassSubspaceSet:
    """Per-class unit directions plus the fitted angle threshold."""

    directions: list[np.ndarray]
    threshold: float
    quantile_used: float

    @property
    def n_classes(self) -> int:
        return len(self.directions)

    def direction_matrix(self) -> np.ndarray:
        return np.column_stack(self.directions)


@dataclass
class ScoreRecord:
    sample_id: int
    delta: float
    argmin_class: int
    mc_probability: float | None
    decision: str  # "ID" | "OOD"
    degenerate_draws: int = 0


def fit_subspaces(
    feats, labels, quantile: float = 0.95, abs_cosine: bool = False
) -> ClassSubspaceSet:
    """Fit one dominant direction per class and the angle threshold.

    The direction is the first right singular vector of the class's feature
    matrix, oriented so the mean training-feature projection onto it is
    nonnegative (exact ties fall back to making the largest-magnitude entry
    positive).  The threshold is the empirical quantile of the training
    uncertainty scores under these directions: the smallest score with at
    least `quantile` of the training mass at or below it.
    """
    feats = as_matrix(feats, "features")
    if labels is None:
        raise ContractViolation("fit_subspaces requires labels")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (feats.shape[0],):
        raise ContractViolation(
            f"labels shape {labels.shape} != ({feats.shape[0]},)"
        )
    if not 0.0 < quantile < 1.0:
        raise ContractViolation(f"quantile must lie in (0, 1), got {quantile}")
    n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 1:
        raise ContractViolation("at least one class is required")
    directions = []
    for cls in range(n_classes):
        block = feats[labels == cls]
        if block.shape[0] == 0:
            raise ContractViolation(f"class {cls} has no samples")
        u = svd(block).v[:, 0]
        mean_proj = float((block @ u).mean())
        if mean_proj < 0:
            u = -u
        elif mean_proj == 0.0 and u[int(np.argmax(np.abs(u)))] < 0:
            u = -u
        directions.append(u)
    subspaces = ClassSubspaceSet(directions, threshold=0.0, quantile_used=quantile)
    scores, _ = uncertainty_scores(feats, subspaces, abs_cosine=abs_cosine)
    order = np.sort(scores)
    k = int(math.ceil(quantile * scores.size - 1e-9))
    k = min(max(k, 1), scores.size)
    subspaces.threshold = float(order[k - 1])
    return subspaces


def uncertainty_scores(
    feats, subspaces: ClassSubspaceSet, abs_cosine: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized minimum angle to any class direction, plus the arg classes.

    Angles are arccos of the (signed, or absolute when abs_cosine) cosine
    between each feature and each direction, with the cosine clamped to
    [-1, 1] against rounding; ties in the minimum go to the lowest class
    index.  Zero-norm features raise DegenerateFeatureError.
    """
    feats = as_matrix(feats, "features")
    norms = np.linalg.norm(feats, axis=1)
    bad = np.nonzero(norms < FEATURE_NORM_FLOOR)[0]
    if bad.size:
        raise DegenerateFeatureError(int(bad[0]), float(norms[bad[0]]))
    return _min_angles(feats, norms, subspaces, abs_cosine)


def _min_angles(feats, norms, subspaces: ClassSubspaceSet, abs_cosine: bool):
    """uncertainty_scores unchecked: feats a finite float64 matrix and norms
    its row norms, every one at or above FEATURE_NORM_FLOOR."""
    cos = (feats / norms[:, None]) @ subspaces.direction_matrix()
    if abs_cosine:
        cos = np.abs(cos)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    return angles.min(axis=1), angles.argmin(axis=1)


def mc_detect(
    model: EncoderModel,
    subspaces: ClassSubspaceSet,
    raw_sample,
    k_draws: int = 50,
    noise_sigma: float = 0.01,
    seed: int = 0,
    sample_id: int = 0,
    abs_cosine: bool = False,
) -> ScoreRecord:
    """Monte-Carlo accept probability of one sample: mc_score_records on one row.

    The draws come from default_rng(seed); see mc_score_records for the
    record's fields.  Deterministic per seed.
    """
    raw = np.asarray(raw_sample, dtype=np.float64)
    if raw.ndim != 1:
        raise ContractViolation(f"raw_sample must be a 1-D vector, got {raw.shape}")
    return mc_score_records(
        model, subspaces, raw[None, :], k_draws=k_draws, noise_sigma=noise_sigma, seed=seed,
        start_id=sample_id, abs_cosine=abs_cosine,
    )[0]


def mc_score_records(
    model: EncoderModel,
    subspaces: ClassSubspaceSet,
    raw_rows,
    k_draws: int = 50,
    noise_sigma: float = 0.01,
    seed: int = 0,
    start_id: int = 0,
    abs_cosine: bool = False,
) -> list[ScoreRecord]:
    """Monte-Carlo accept probabilities from k noisy copies per row.

    Row i's k_draws copies are x_i + noise_sigma * z, with z the row's
    k_draws * width standard normals from default_rng(seed XOR i) (seed in
    [0, 2**64); see streams.standard_normal_rows), and its sample id is
    start_id + i.  Each draw is encoded in eval mode and scored;
    mc_probability is the fraction of draws with angle at or below
    the threshold, the decision is ID iff that fraction reaches 0.5, and
    argmin_class is the most-voted class among the valid draws (-1 when
    there is none).  Degenerate-feature draws count as rejections (angle pi
    in the record's mean delta) and are tallied on the record.  Rows are
    encoded in chunks of about MC_CHUNK_DRAWS draws; a row with more draws
    than that is encoded alone.
    """
    if k_draws < 1:
        raise ContractViolation(f"k_draws must be >= 1, got {k_draws}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ContractViolation(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    raw = as_matrix(raw_rows, "raw_rows")
    width = raw.shape[1]
    seeds = xor_seeds(check_seed(seed, "ood seed"), raw.shape[0])
    per_chunk = max(1, MC_CHUNK_DRAWS // k_draws)
    records = []
    for lo in range(0, raw.shape[0], per_chunk):
        hi = min(lo + per_chunk, raw.shape[0])
        ids = range(lo, hi)
        # x + sigma * z built in place, so a chunk holds one draw array; IEEE
        # products and sums commute, so the bytes are those of x + sigma * z.
        draws = standard_normal_rows(seeds[lo:hi], k_draws * width).reshape(-1, k_draws, width)
        draws *= noise_sigma
        draws += raw[lo:hi, None, :]
        feats = features(model, draws.reshape(-1, width))
        norms = np.linalg.norm(feats, axis=1)
        valid = norms >= FEATURE_NORM_FLOOR
        kept, kept_norms = (feats, norms) if valid.all() else (feats[valid], norms[valid])
        if not np.isfinite(kept_norms).all():
            as_matrix(kept, "features")  # rejects non-finite features
        deltas = np.full(valid.size, math.pi)
        argmins = np.full(valid.size, -1, dtype=np.int64)
        deltas[valid], argmins[valid] = _min_angles(kept, kept_norms, subspaces, abs_cosine)
        shape = (len(ids), k_draws)
        deltas, argmins, valid = deltas.reshape(shape), argmins.reshape(shape), valid.reshape(shape)
        hits = ((deltas <= subspaces.threshold) & valid).sum(axis=1)
        n_valid = valid.sum(axis=1)
        mean_deltas = deltas.mean(axis=1)
        # A degenerate draw holds class -1, so it votes for no class.
        votes = (argmins[:, :, None] == np.arange(subspaces.n_classes)).sum(axis=1)
        for j, i in enumerate(ids):
            probability = int(hits[j]) / k_draws
            records.append(
                ScoreRecord(
                    sample_id=int(start_id + i),
                    delta=float(mean_deltas[j]),
                    argmin_class=int(np.argmax(votes[j])) if n_valid[j] else -1,
                    mc_probability=probability,
                    decision="ID" if probability >= 0.5 else "OOD",
                    degenerate_draws=int(k_draws - n_valid[j]),
                )
            )
    return records


def angle_records(deltas, argmins, threshold: float) -> list[ScoreRecord]:
    """Single-pass records from uncertainty_scores' (deltas, argmin classes)
    pair: the decision is delta <= threshold."""
    return [
        ScoreRecord(
            sample_id=i,
            delta=float(deltas[i]),
            argmin_class=int(argmins[i]),
            mc_probability=None,
            decision="ID" if deltas[i] <= threshold else "OOD",
        )
        for i in range(deltas.size)
    ]


def write_scores(path, records) -> None:
    """Score table CSV with exactly the columns the pipeline consumes."""
    lines = [",".join(SCORE_COLUMNS)]
    for rec in records:
        mc = "" if rec.mc_probability is None else repr(float(rec.mc_probability))
        lines.append(
            f"{rec.sample_id},{float(rec.delta)!r},{rec.argmin_class},{mc},{rec.decision}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def subspaces_to_dict(subspaces: ClassSubspaceSet) -> dict:
    return {
        "directions": [[float(x) for x in u] for u in subspaces.directions],
        "threshold": float(subspaces.threshold),
        "quantile_used": float(subspaces.quantile_used),
    }


def subspaces_from_dict(payload) -> ClassSubspaceSet:
    """Rebuild a fitted set from subspaces_to_dict output, validating it.

    Raises FormatError unless the payload has nonempty `directions` of equal
    length, each finite and of unit norm within 1e-6, a finite `threshold`,
    and a `quantile_used` in (0, 1).
    """
    if not isinstance(payload, dict):
        raise FormatError("subspaces must be a JSON object")
    missing = [key for key in ("directions", "threshold", "quantile_used") if key not in payload]
    if missing:
        raise FormatError(f"subspaces is missing {', '.join(missing)}")
    try:
        directions = np.asarray(payload["directions"], dtype=np.float64)
        threshold = float(payload["threshold"])
        quantile = float(payload["quantile_used"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"subspaces has a malformed value: {exc}") from exc
    if directions.ndim != 2 or directions.size == 0:
        raise FormatError(
            f"subspaces directions must be a nonempty list of equal-length vectors, "
            f"got shape {directions.shape}"
        )
    if not np.isfinite(directions).all():
        raise FormatError("subspaces directions contain non-finite entries")
    norms = np.linalg.norm(directions, axis=1)
    off = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
    if off.size:
        raise FormatError(
            f"subspaces direction {int(off[0])} has norm {float(norms[off[0]]):.9g}, "
            f"not 1 within {UNIT_NORM_TOL:g}"
        )
    if not math.isfinite(threshold):
        raise FormatError(f"subspaces threshold must be finite, got {threshold}")
    if not 0.0 < quantile < 1.0:
        raise FormatError(f"subspaces quantile_used must lie in (0, 1), got {quantile}")
    return ClassSubspaceSet(list(directions), threshold, quantile)
