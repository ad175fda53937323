"""Post-training OOD machinery.

Fits one unit direction per class (the first right singular vector of that
class's feature matrix), scores test features by the smallest angle to any
class direction, estimates the accept threshold as an empirical quantile of
the training scores, and runs Monte-Carlo inference over gaussian input
noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .encoder import FEATURE_NORM_FLOOR, EncoderModel, feature_norms, features
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
    degenerate_draws: int | None


@dataclass
class ScoreTable:
    """Score rows as columns: row i is sample start_id + i, ID iff accepted[i];
    the Monte-Carlo columns are None outside Monte-Carlo scoring."""

    delta: np.ndarray
    argmin_class: np.ndarray
    accepted: np.ndarray
    mc_probability: np.ndarray | None = None
    degenerate_draws: np.ndarray | None = None
    start_id: int = 0

    def columns(self, absent=None) -> list:
        """The ScoreRecord fields in order as Python values, absent for a None column."""
        n = self.delta.size

        def listed(column):
            return [absent] * n if column is None else column.tolist()

        decisions = ["ID" if ok else "OOD" for ok in self.accepted.tolist()]
        return [range(self.start_id, self.start_id + n), self.delta.tolist(),
                self.argmin_class.tolist(), listed(self.mc_probability), decisions,
                listed(self.degenerate_draws)]

    def records(self) -> list[ScoreRecord]:
        return [ScoreRecord(*row) for row in zip(*self.columns())]


def fit_subspaces(feats, labels, quantile: float = 0.95) -> ClassSubspaceSet:
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
    scores, _ = uncertainty_scores(feats, subspaces)
    order = np.sort(scores)
    k = int(math.ceil(quantile * scores.size - 1e-9))
    k = min(max(k, 1), scores.size)
    subspaces.threshold = float(order[k - 1])
    return subspaces


def uncertainty_scores(feats, subspaces: ClassSubspaceSet) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized minimum angle to any class direction, plus the arg classes.

    Angles are arccos of the signed cosine between each feature and each
    direction, with the cosine clamped to [-1, 1] against rounding; ties in
    the minimum go to the lowest class index.  Zero-norm features raise
    DegenerateFeatureError, and features whose norm overflows float64 raise
    ContractViolation.
    """
    feats = as_matrix(feats, "features")
    norms = feature_norms(feats)
    bad = np.nonzero(norms < FEATURE_NORM_FLOOR)[0]
    if bad.size:
        raise DegenerateFeatureError(int(bad[0]), float(norms[bad[0]]))
    return _min_angles(feats, norms, subspaces)


def _min_angles(feats, norms, subspaces: ClassSubspaceSet):
    """uncertainty_scores unchecked: feats a finite float64 matrix and norms
    its row norms, every one finite and at or above FEATURE_NORM_FLOOR."""
    cos = (feats / norms[:, None]) @ subspaces.direction_matrix()
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
        start_id=sample_id,
    ).records()[0]


def mc_score_records(
    model: EncoderModel,
    subspaces: ClassSubspaceSet,
    raw_rows,
    k_draws: int = 50,
    noise_sigma: float = 0.01,
    seed: int = 0,
    start_id: int = 0,
) -> ScoreTable:
    """Monte-Carlo accept probabilities from k noisy copies per row.

    Row i's k_draws copies are x_i + noise_sigma * z, with z the row's
    k_draws * width standard normals from default_rng(seed XOR i) (seed in
    [0, 2**64); see streams.standard_normal_rows), and its sample id is
    start_id + i.  Each draw is encoded in eval mode and scored;
    mc_probability is the fraction of draws with angle at or below
    the threshold, the decision is ID iff that fraction reaches 0.5, and
    argmin_class is the most-voted class among the valid draws (-1 when
    there is none).  Degenerate-feature draws count as rejections (angle pi
    in the row's mean delta) and are tallied in degenerate_draws.  Rows are
    encoded in chunks of about MC_CHUNK_DRAWS draws; a row with more draws
    than that is encoded alone.  With two or more chunks, a helper thread
    draws the next chunk while this one encodes the current one; the chunks
    and their arithmetic are those of a serial loop.
    """
    if k_draws < 1:
        raise ContractViolation(f"k_draws must be >= 1, got {k_draws}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ContractViolation(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    raw = as_matrix(raw_rows, "raw_rows")
    seeds = xor_seeds(check_seed(seed, "ood seed"), raw.shape[0])
    per_chunk = max(1, MC_CHUNK_DRAWS // k_draws)
    bounds = [(lo, min(lo + per_chunk, raw.shape[0])) for lo in range(0, raw.shape[0], per_chunk)]
    classes = np.arange(subspaces.n_classes)
    delta, probability = np.empty(raw.shape[0]), np.empty(raw.shape[0])
    argmin_class, degenerate = np.empty((2, raw.shape[0]), dtype=np.int64)

    def score_chunk(lo, hi, draws):
        feats = features(model, draws)
        norms = feature_norms(feats, k_draws, start_id + lo)
        valid = norms >= FEATURE_NORM_FLOOR
        kept, kept_norms = (feats, norms) if valid.all() else (feats[valid], norms[valid])
        deltas = np.full(valid.size, math.pi)
        argmins = np.full(valid.size, -1, dtype=np.int64)
        deltas[valid], argmins[valid] = _min_angles(kept, kept_norms, subspaces)
        shape = (hi - lo, k_draws)
        deltas, argmins, valid = deltas.reshape(shape), argmins.reshape(shape), valid.reshape(shape)
        probability[lo:hi] = ((deltas <= subspaces.threshold) & valid).sum(axis=1) / k_draws
        degenerate[lo:hi] = k_draws - valid.sum(axis=1)
        delta[lo:hi] = deltas.mean(axis=1)
        # A degenerate draw holds class -1, so it votes for no class; argmax
        # gives a tie to the lowest class.
        votes = (argmins[:, :, None] == classes).sum(axis=1)
        argmin_class[lo:hi] = np.where(degenerate[lo:hi] < k_draws, votes.argmax(axis=1), -1)

    draw = functools.partial(_mc_draws, raw, seeds, k_draws, noise_sigma)
    _drawn_ahead(draw, bounds, score_chunk)
    return ScoreTable(delta, argmin_class, probability >= 0.5, probability, degenerate, start_id)


def _mc_draws(raw, seeds, k_draws, noise_sigma, lo, hi):
    """The k_draws noisy copies of each of rows lo..hi of raw, one per row of
    the result, a row's copies together."""
    width = raw.shape[1]
    # x + sigma * z built in place, so a chunk holds one draw array; IEEE
    # products and sums commute, so the bytes are those of x + sigma * z.  A
    # draw that overflows is left for features to reject as non-finite.
    draws = standard_normal_rows(seeds[lo:hi], k_draws * width).reshape(-1, k_draws, width)
    with np.errstate(over="ignore"):
        draws *= noise_sigma
        draws += raw[lo:hi, None, :]
    return draws.reshape(-1, width)


def _drawn_ahead(draw, bounds, consume) -> None:
    """consume(lo, hi, draw(lo, hi)) for every (lo, hi) of bounds, in order.

    With more than one chunk, one helper thread runs draw for the chunk
    after the one being consumed, under the caller's numpy error state
    (threads inherit none), so at most two chunks of draws exist at once.
    The pool starts its thread on the first submit, so one chunk starts none.
    The first chunk in order whose draw or consume raises ends the call with
    its error; the helper's chunk is cancelled if it has not started, and
    the helper never outlives the call.
    """
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def in_caller_state(lo, hi):
        with np.errstate(**errors):
            return draw(lo, hi)

    pool = ThreadPoolExecutor(1)
    try:
        ahead = None
        for index, (lo, hi) in enumerate(bounds):
            current = ahead
            if index + 1 < len(bounds):
                ahead = pool.submit(in_caller_state, *bounds[index + 1])
            consume(lo, hi, draw(lo, hi) if current is None else current.result())
    finally:
        pool.shutdown(cancel_futures=True)


def angle_table(deltas, argmins, threshold: float) -> ScoreTable:
    """Single-pass table from uncertainty_scores' (deltas, argmin classes)
    pair: the decision is delta <= threshold."""
    return ScoreTable(deltas, argmins, deltas <= threshold)


def write_scores(path, table: ScoreTable) -> None:
    """Score table CSV with exactly the columns the pipeline consumes."""
    write_csv(path, SCORE_COLUMNS, zip(*table.columns(absent="")[: len(SCORE_COLUMNS)]))


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
