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
from .streams import check_seed, row_streams, standard_normal_rows, xor_seeds

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


def _corrupt_rows(rows: np.ndarray, spec: CorruptionSpec, seeds, noise=None) -> np.ndarray:
    """A kind applied to every row of a 2-D array at once.

    Row i draws its noise from its own stream, in the state of
    default_rng(seeds[i]) (see streams.row_streams), in the order a single row
    would, so each output row is the bytes of corrupting that row alone.
    Under gaussian_noise, noise may hold those standard-normal draws already.
    """
    level = spec.severity - 1
    if spec.kind == "none":
        return rows.copy()
    if spec.kind == "contrast":
        mean = rows.mean(axis=1, keepdims=True)
        return np.clip((rows - mean) * CONTRAST_FACTOR[level] + mean, 0.0, 1.0)
    if spec.kind == "brightness":
        return np.clip(rows + BRIGHTNESS_SHIFT[level], 0.0, 1.0)
    if spec.kind == "gaussian_noise":
        if noise is None:
            noise = standard_normal_rows(seeds, rows.shape[1])
        out = GAUSSIAN_SIGMA[level] * noise
        out += rows
        return np.clip(out, 0.0, 1.0, out=out)
    streams = row_streams(seeds)
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


@dataclass
class _SweepRows:
    """One severity sweep's rows, checked once, and under gaussian_noise the
    rows' standard-normal draws, taken by the first severity and shared."""

    inputs: np.ndarray
    noise: np.ndarray | None = None


def corrupt_dataset(dataset, spec: CorruptionSpec, sweep: _SweepRows | None = None):
    """Corrupt every sample with a per-sample seed of spec.seed XOR index.

    Per-sample seeding makes the result independent of iteration order; the
    'none' kind returns an identical copy.  The whole matrix is checked and
    corrupted at once, byte for byte the rows apply_corruption gives sample
    by sample.  severity_sweep passes its sweep state: the rows it checked,
    and the draws every severity of its gaussian_noise sweep shares.
    """
    from .data import Dataset

    seeds = xor_seeds(spec.seed, dataset.n)
    if sweep is None:
        sweep = _SweepRows(_checked_unit_range(dataset.inputs))
    if spec.kind == "gaussian_noise" and sweep.noise is None:
        sweep.noise = standard_normal_rows(seeds, sweep.inputs.shape[1])
    corrupted = _corrupt_rows(sweep.inputs, spec, seeds, sweep.noise)
    return Dataset(corrupted, dataset.labels, dataset.class_count)


def severity_sweep(dataset, kind: str, severities, seed: int):
    """Yield (severity, corrupt_dataset(dataset, CorruptionSpec(kind,
    severity, seed))) for each severity in the given order, one at a time.

    The rows are checked once.  Every severity draws row i's noise from the
    same stream, so a gaussian_noise sweep draws each row's standard normals
    once and only scales them by each severity's sigma; shot and impulse
    noise draw per severity, as their draws depend on it.  Nothing is kept
    once the sweep ends.
    """
    specs = [CorruptionSpec(kind, severity, seed) for severity in severities]
    sweep = _SweepRows(_checked_unit_range(dataset.inputs))
    for spec in specs:
        yield spec.severity, corrupt_dataset(dataset, spec, sweep)
