"""Dataset ingestion and persistence.

Synthetic generators for desk-scale experiments, a CIFAR-binary reader, the
RODDFEAT1 feature-file format (f32 on disk, f64 in memory), and the strict
line-based run-config parser.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corruptions import GRID_KINDS, KINDS
from .errors import ContractViolation, FormatError
from .linalg import as_matrix, orthonormal_init
from .streams import SEED_LIMIT

FEATURE_MAGIC = b"RODDFEAT1"

_CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 pixel bytes


@dataclass
class Dataset:
    """Flat input matrix plus optional integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray | None
    class_count: int

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs, "inputs")
        if self.inputs.shape[0] < 1:
            raise ContractViolation("dataset must contain at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.inputs.shape[0],):
                raise ContractViolation(
                    f"labels shape {self.labels.shape} does not match "
                    f"{self.inputs.shape[0]} samples"
                )
            if self.labels.size and (
                self.labels.min() < 0 or self.labels.max() >= self.class_count
            ):
                raise ContractViolation(
                    f"labels must lie in [0, {self.class_count})"
                )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


def synth_gaussian_mixture(
    n_classes: int,
    n_per_class: int,
    input_dim: int,
    separation: float,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Labeled gaussian blobs with class means on random orthonormal directions.

    Means sit at separation * direction for mutually orthonormal directions,
    so inter-class geometry is controlled by (separation, noise_sigma) alone.
    Deterministic per seed.  Requires n_classes <= input_dim (the means could
    not be orthonormal otherwise) and n_classes >= 2.
    """
    if n_classes < 2:
        raise ContractViolation(f"need at least 2 classes, got {n_classes}")
    if separation <= 0:
        raise ContractViolation("separation must be positive")
    if n_classes > input_dim:
        raise ContractViolation(
            f"cannot place {n_classes} orthonormal means in dimension {input_dim}"
        )
    if n_per_class < 1:
        raise ContractViolation("n_per_class must be positive")
    rng = np.random.default_rng(seed)
    directions = orthonormal_init(input_dim, n_classes, int(rng.integers(2**62)))
    means = separation * directions.T  # one row per class
    inputs = np.repeat(means, n_per_class, axis=0)
    inputs = inputs + noise_sigma * rng.standard_normal(inputs.shape)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(inputs, labels, n_classes)


def synth_ood_cluster(
    input_dim: int,
    n: int,
    offset_direction_seed: int,
    offset_norm: float,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Unlabeled gaussian cluster centered offset_norm away from the origin."""
    if offset_norm <= 0:
        raise ContractViolation("offset_norm must be positive")
    if n < 1:
        raise ContractViolation("n must be positive")
    dir_rng = np.random.default_rng(offset_direction_seed)
    direction = dir_rng.standard_normal(input_dim)
    direction = direction / np.linalg.norm(direction)
    center = offset_norm * direction
    rng = np.random.default_rng(seed)
    inputs = center + noise_sigma * rng.standard_normal((n, input_dim))
    return Dataset(inputs, None, 0)


def read_cifar_binary(path) -> Dataset:
    """Read the standard CIFAR-10 binary layout.

    Each record is one label byte (0-9) followed by 3072 pixel bytes
    (1024 R, 1024 G, 1024 B, row-major 32x32); pixels are scaled to [0, 1].
    """
    data = Path(path).read_bytes()
    if len(data) % _CIFAR_RECORD != 0:
        raise FormatError(
            f"{path}: length {len(data)} is not a multiple of {_CIFAR_RECORD}; "
            f"trailing partial record starts at byte offset "
            f"{len(data) - len(data) % _CIFAR_RECORD}"
        )
    if not data:
        raise FormatError(f"{path}: empty file")
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(
            f"{path}: record {int(bad[0])} has label byte {int(labels[bad[0]])} > 9"
        )
    inputs = records[:, 1:].astype(np.float64) / 255.0
    return Dataset(inputs, labels, 10)


def write_features(path, features, labels=None) -> None:
    """Write a RODDFEAT1 feature file.

    Layout (little-endian): magic "RODDFEAT1", u32 n, u32 d, u32 has_labels,
    n*d f32 features row-major, then (if has_labels) n u32 labels.  Features
    are quantized to f32 on disk; labels round-trip exactly.
    """
    feats = as_matrix(features, "features")
    n, d = feats.shape
    has_labels = labels is not None
    if has_labels:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ContractViolation(f"labels shape {labels.shape} != ({n},)")
        if labels.size and (labels.min() < 0 or labels.max() >= 2**32):
            raise ContractViolation("labels must fit in u32")
    blob = bytearray()
    blob += FEATURE_MAGIC
    blob += struct.pack("<III", n, d, int(has_labels))
    blob += feats.astype("<f4").tobytes()
    if has_labels:
        blob += labels.astype("<u4").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_features(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a RODDFEAT1 file back as (float64 features, labels or None)."""
    data = Path(path).read_bytes()
    if len(data) < len(FEATURE_MAGIC) or data[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {FEATURE_MAGIC!r}")
    header_end = len(FEATURE_MAGIC) + 12
    if len(data) < header_end:
        raise FormatError(
            f"{path}: truncated header, expected {header_end} bytes, "
            f"found {len(data)} ({header_end - len(data)} missing)"
        )
    n, d, has_labels = struct.unpack("<III", data[len(FEATURE_MAGIC) : header_end])
    expected = header_end + 4 * n * d + (4 * n if has_labels else 0)
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, found {len(data)} "
            f"({expected - len(data)} missing)"
            if len(data) < expected
            else f"{path}: expected {expected} bytes, found {len(data)} "
            f"({len(data) - expected} extra)"
        )
    feats = np.frombuffer(
        data, dtype="<f4", count=n * d, offset=header_end
    ).astype(np.float64)
    feats = feats.reshape(n, d)
    labels = None
    if has_labels:
        labels = np.frombuffer(
            data, dtype="<u4", count=n, offset=header_end + 4 * n * d
        ).astype(np.int64)
    return feats, labels


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# Every key the config format accepts, with its expected type.  Unknown keys
# are rejected with the offending line number (strict provenance).
CONFIG_SCHEMA: dict[str, type] = {
    # data synthesis
    "synth.classes": int,
    "synth.per_class": int,
    "synth.test_per_class": int,
    "synth.input_dim": int,
    "synth.separation": float,
    "synth.noise_sigma": float,
    "synth.ood_n": int,
    "synth.ood_offset_norm": float,
    "synth.ood_noise_sigma": float,
    "synth.ood_direction_seed": int,
    "synth.scale_to_unit": bool,
    "synth.seed": int,
    # model
    "model.hidden_sizes": str,
    "model.feature_dim": int,
    "model.seed": int,
    # contrastive pre-training
    "pretrain.epochs": int,
    "pretrain.batch_size": int,
    "pretrain.lr": float,
    "pretrain.momentum": float,
    "pretrain.aug_gaussian_sigma": float,
    "pretrain.aug_mask_fraction": float,
    "pretrain.aug_scale_jitter": float,
    "pretrain.adversarial": bool,
    "pretrain.adv_epsilon": float,
    "pretrain.adv_steps": int,
    "pretrain.adv_step_size": float,
    "pretrain.seed": int,
    # supervised fine-tuning
    "train.epochs": int,
    "train.batch_size": int,
    "train.lr": float,
    "train.momentum": float,
    "train.mu": float,
    "train.contrastive": bool,
    "train.aug_gaussian_sigma": float,
    "train.input_noise": float,
    "train.grad_clip": float,
    "train.seed": int,
    # OOD scoring
    "ood.quantile": float,
    "ood.mode": str,
    "ood.mc_draws": int,
    "ood.mc_noise_sigma": float,
    "ood.abs_cosine": bool,
    "ood.target": str,
    "ood.seed": int,
    # evaluation
    "eval.tpr_target": float,
    "eval.method": str,
    # corruption sweeps
    "corruption.kind": str,
    "corruption.severities": str,
    "corruption.apply_to": str,
    "corruption.target": str,
    "corruption.seed": int,
    # spectral-theory verification
    "theory.class_sizes": str,
    "theory.delta": float,
    "theory.eta": float,
    "theory.normalization": str,
    "theory.d": int,
    "theory.mu": float,
    "theory.mu_values": str,
    "theory.max_iters": int,
    "theory.lr": float,  # accepted and ignored: the solver's line search is exact
    "theory.tol": float,
    "theory.seed": int,
}

# Numeric keys with bounds, checked at parse time: each (op, limit) pair
# must hold, so ">" and "<" give open bounds and ">=" a closed one.
CONFIG_BOUNDS: dict[str, tuple[tuple[str, float], ...]] = {
    "synth.per_class": ((">=", 1),),
    "synth.noise_sigma": ((">=", 0),),
    "synth.ood_noise_sigma": ((">=", 0),),
    "model.feature_dim": ((">=", 1),),
    "pretrain.batch_size": ((">=", 1),),
    "pretrain.lr": ((">", 0),),
    "pretrain.momentum": ((">=", 0), ("<", 1)),
    "pretrain.aug_gaussian_sigma": ((">=", 0),),
    "train.batch_size": ((">=", 1),),
    "train.lr": ((">", 0),),
    "train.momentum": ((">=", 0), ("<", 1)),
    "train.grad_clip": ((">", 0),),
    "train.aug_gaussian_sigma": ((">=", 0),),
    "train.input_noise": ((">=", 0),),
    "ood.quantile": ((">", 0), ("<", 1)),
    "ood.mc_draws": ((">=", 1),),
    "ood.mc_noise_sigma": ((">=", 0),),
    "eval.tpr_target": ((">", 0), ("<", 1)),
    "theory.max_iters": ((">=", 1),),
    # Every seed key: numpy seeds and rodd.streams take [0, 2**64).
    **{key: ((">=", 0), ("<", SEED_LIMIT)) for key in CONFIG_SCHEMA if key.endswith("seed")},
}

_BOUND_HOLDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


@dataclass(frozen=True)
class RunConfig:
    """Typed flat key-value map with 'section.key' keys."""

    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ContractViolation(f"config is missing required key '{key}'")
        return self.values[key]


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines with '#' comments and '[section]' headers.

    Values are typed by the schema (integer, real, boolean, string); unknown
    keys, duplicate keys, type mismatches, values outside a CONFIG_BOUNDS
    bound, layer widths below 1 and corruption kinds that cannot run on flat
    feature rows raise FormatError with the line number.
    """
    values: dict = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise FormatError(f"line {lineno}: empty section name")
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise FormatError(f"line {lineno}: missing key before '='")
        full_key = f"{section}.{key}" if section else key
        if full_key not in CONFIG_SCHEMA:
            raise FormatError(f"line {lineno}: unknown key '{full_key}'")
        if full_key in values:
            raise FormatError(f"line {lineno}: duplicate key '{full_key}'")
        values[full_key] = _parse_value(value, CONFIG_SCHEMA[full_key], full_key, lineno)
        _check_range(values[full_key], full_key, lineno)
    return RunConfig(values)


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _check_range(value, key: str, lineno: int) -> None:
    for op, limit in CONFIG_BOUNDS.get(key, ()):
        if not _BOUND_HOLDS[op](value, limit):
            raise FormatError(f"line {lineno}: '{key}' must be {op} {limit}, got {value}")
    if key == "model.hidden_sizes":
        try:
            widths = parse_int_list(value, key)
        except ContractViolation as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if any(width < 1 for width in widths):
            raise FormatError(f"line {lineno}: every '{key}' entry must be >= 1, got {value!r}")
    if key == "corruption.kind":
        if value not in KINDS:
            raise FormatError(f"line {lineno}: unknown corruption kind {value!r}")
        if value in GRID_KINDS:
            raise FormatError(
                f"line {lineno}: corruption kind {value!r} needs grid-shaped inputs, "
                f"but feature files hold flat rows"
            )


def _parse_value(token: str, kind: type, key: str, lineno: int):
    if kind is bool:
        if token.lower() in ("true", "yes", "on", "1"):
            return True
        if token.lower() in ("false", "no", "off", "0"):
            return False
        raise FormatError(f"line {lineno}: '{key}' expects a boolean, got {token!r}")
    if kind is int:
        try:
            return int(token, 10)
        except ValueError:
            raise FormatError(
                f"line {lineno}: '{key}' expects an integer, got {token!r}"
            ) from None
    if kind is float:
        try:
            out = float(token)
        except ValueError:
            raise FormatError(
                f"line {lineno}: '{key}' expects a real number, got {token!r}"
            ) from None
        if not math.isfinite(out):
            raise FormatError(f"line {lineno}: '{key}' must be finite, got {token!r}")
        return out
    return token


def parse_int_list(token: str, key: str) -> list[int]:
    """Parse a comma-separated integer list from a config string value."""
    try:
        return [int(part.strip()) for part in token.split(",") if part.strip()]
    except ValueError:
        raise ContractViolation(f"'{key}' must be a comma-separated integer list") from None


def parse_float_list(token: str, key: str) -> list[float]:
    try:
        return [float(part.strip()) for part in token.split(",") if part.strip()]
    except ValueError:
        raise ContractViolation(f"'{key}' must be a comma-separated number list") from None
