"""Deterministic input corruptions with five severity levels.

The per-severity parameter tables are this artifact's own (the usual
benchmark tables are not restated by any single source); each kind's
controlling parameter is strictly monotone in severity.  Every kind acts on
flat rows, the layout of the RODDFEAT1 feature files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .streams import check_seed, row_streams, xor_seeds

KINDS = (
    "none",
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "contrast",
    "brightness",
)

GAUSSIAN_SIGMA = (0.04, 0.08, 0.12, 0.18, 0.26)
SHOT_PHOTONS = (60.0, 25.0, 12.0, 5.0, 3.0)
IMPULSE_FRACTION = (0.01, 0.03, 0.06, 0.10, 0.17)
CONTRAST_FACTOR = (0.75, 0.6, 0.45, 0.3, 0.15)
BRIGHTNESS_SHIFT = (0.05, 0.1, 0.15, 0.2, 0.3)


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"unknown corruption kind {self.kind!r}")
        if self.severity not in (1, 2, 3, 4, 5):
            raise ContractViolation(
                f"severity must be an integer in 1..5, got {self.severity}"
            )
        check_seed(self.seed, "corruption seed")


def apply_corruption(x, spec: CorruptionSpec) -> np.ndarray:
    """Corrupt a [0, 1] array as one row of _corrupt_rows, drawing from
    default_rng(spec.seed); output is clipped back to [0, 1].
    """
    arr = _checked_unit_range(x)
    row = np.ascontiguousarray(arr).reshape(1, -1)
    return _corrupt_rows(row, spec, [spec.seed]).reshape(arr.shape)


def _checked_unit_range(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ContractViolation("input contains non-finite entries")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ContractViolation("input entries must lie in [0, 1]")
    return arr


def _corrupt_rows(rows: np.ndarray, spec: CorruptionSpec, seeds) -> np.ndarray:
    """A kind applied to every row of a 2-D array at once.

    Row i draws its noise from its own stream, in the state of
    default_rng(seeds[i]) (see streams.row_streams), in the order a single row
    would, so each output row is the bytes of corrupting that row alone.
    """
    level = spec.severity - 1
    if spec.kind == "none":
        return rows.copy()
    if spec.kind == "contrast":
        mean = rows.mean(axis=1, keepdims=True)
        return np.clip((rows - mean) * CONTRAST_FACTOR[level] + mean, 0.0, 1.0)
    if spec.kind == "brightness":
        return np.clip(rows + BRIGHTNESS_SHIFT[level], 0.0, 1.0)
    streams = row_streams(seeds)
    if spec.kind == "gaussian_noise":
        noise = np.empty_like(rows)
        for row, rng in zip(noise, streams):
            rng.standard_normal(out=row)
        return np.clip(rows + GAUSSIAN_SIGMA[level] * noise, 0.0, 1.0)
    if spec.kind == "shot_noise":
        photons = SHOT_PHOTONS[level]
        counts = np.empty(rows.shape, dtype=np.int64)
        for row, lam, rng in zip(counts, rows * photons, streams):
            row[:] = rng.poisson(lam)
        return np.clip(counts / photons, 0.0, 1.0)
    if spec.kind == "impulse_noise":
        out = rows.copy()
        width = rows.shape[1]
        k = int(round(IMPULSE_FRACTION[level] * width))
        if k > 0:
            for row, rng in zip(out, streams):
                where = rng.choice(width, size=k, replace=False)
                row[where] = rng.integers(0, 2, size=k).astype(np.float64)
        return out


def corrupt_dataset(dataset, spec: CorruptionSpec):
    """Corrupt every sample with a per-sample seed of spec.seed XOR index.

    Per-sample seeding makes the result independent of iteration order; the
    'none' kind returns an identical copy.  The whole matrix is checked and
    corrupted at once, byte for byte the rows apply_corruption gives sample
    by sample.
    """
    from .data import Dataset

    inputs = _checked_unit_range(dataset.inputs)
    corrupted = _corrupt_rows(inputs, spec, xor_seeds(spec.seed, dataset.n))
    return Dataset(corrupted, dataset.labels, dataset.class_count)
