"""Dataset ingestion and persistence.

Synthetic generators for desk-scale experiments, a CIFAR-binary reader, the
RODDFEAT1 feature-file format (f32 on disk, f64 in memory), the artifact
codec every stage reads and writes through (a bounded little-endian reader
for binary files, JSON in and out, CSV out), and the strict line-based
run-config parser.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corruptions import KINDS
from .errors import ContractViolation, FormatError, NumericFailure
from .linalg import as_matrix, orthonormal_init
from .streams import SEED_LIMIT
from .theory import DELTA_LIMIT, NORMALIZATIONS

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
    """Unlabeled gaussian cluster centered offset_norm away from the origin in
    a uniformly random direction, whose expected share of energy in the span
    of k orthonormal class means is therefore k / input_dim."""
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
    data = _artifact_bytes(path)
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
    are quantized to f32 on disk, and a value beyond the f32 range is a
    NumericFailure; labels round-trip exactly.
    """
    feats = as_matrix(features, "features")
    with np.errstate(over="ignore"):
        quantized = feats.astype("<f4")
    if not np.isfinite(quantized).all():
        raise NumericFailure(f"{path}: features overflow the f32 range of the file format")
    n, d = feats.shape
    has_labels = labels is not None
    if has_labels:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ContractViolation(f"labels shape {labels.shape} != ({n},)")
        if labels.size and (labels.min() < 0 or labels.max() >= 2**32):
            raise ContractViolation("labels must fit in u32")
    with open(path, "wb") as out:
        out.write(FEATURE_MAGIC + struct.pack("<III", n, d, int(has_labels)))
        out.write(quantized.tobytes())
        if has_labels:
            out.write(labels.astype("<u4").tobytes())


def read_features(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a RODDFEAT1 file back as (float64 features, labels or None)."""
    reader = BinaryReader(path, FEATURE_MAGIC)
    n, d, has_labels = reader.unpack("<III")
    feats = reader.array("f4", n * d).reshape(n, d)
    labels = reader.array("u4", n, np.int64) if has_labels else None
    reader.close()
    return feats, labels


# ---------------------------------------------------------------------------
# Artifact codec
# ---------------------------------------------------------------------------


def _artifact_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise FormatError(f"missing artifact: {path}") from None


class BinaryReader:
    """Reads a little-endian binary artifact front to back.

    Opening checks the magic.  Every read checks that its bytes are there,
    and close rejects bytes left over, so a malformed file is a FormatError
    naming the path: a missing artifact, a bad magic, a truncation with the
    count of missing bytes, or trailing bytes.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        self.data = _artifact_bytes(path)
        if not self.data.startswith(magic):
            raise FormatError(f"{path}: bad magic, expected {magic!r}")
        self.pos = len(magic)

    def _advance(self, size: int) -> int:
        start, self.pos = self.pos, self.pos + size
        if self.pos > len(self.data):
            raise FormatError(
                f"{self.path}: truncated, needed {self.pos} bytes, found "
                f"{len(self.data)} ({self.pos - len(self.data)} missing)"
            )
        return start

    def unpack(self, fmt: str) -> tuple:
        """The next values of the little-endian struct format fmt."""
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def array(self, disk_type: str, count: int, dtype=np.float64) -> np.ndarray:
        """The next count little-endian disk_type entries, as a new dtype array."""
        disk = np.dtype("<" + disk_type)
        start = self._advance(disk.itemsize * count)
        return np.frombuffer(self.data, disk, count, start).astype(dtype)

    def close(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.pos} unexpected trailing bytes")


def read_json(path):
    """The payload of a JSON artifact."""
    try:
        return json.loads(_artifact_bytes(path))  # a missing file is not a ValueError
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Write a CSV table from row tuples: each cell is its str, which for a
    float is its repr (an exact round trip)."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(line % row for row in rows)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its type (the entry type of a list), default, bounds
    and, for a string, its allowed values.

    Each (op, limit) bound must hold for the value, or for every entry of a
    list, so ">" and "<" give open bounds and ">=" and "<=" closed ones.  A default
    of None on a key the pipeline reads means its stage derives the value.
    A distinct list names each entry once: a repeat would redo a sweep point.
    """

    kind: type
    default: object = None
    bounds: tuple = ()
    choices: tuple = ()
    is_list: bool = False
    distinct: bool = False


_AT_LEAST_1 = ((">=", 1),)
_NONNEGATIVE = ((">=", 0),)
_POSITIVE = ((">", 0),)
_UNIT_OPEN = ((">", 0), ("<", 1))
_UNIT_HALF_OPEN = ((">=", 0), ("<", 1))
_SEED = ((">=", 0), ("<", SEED_LIMIT))  # numpy seeds and rodd.streams take [0, 2**64)

# Every key the config format accepts.  Unknown keys are rejected with the
# offending line number (strict provenance).
CONFIG: dict[str, ConfigKey] = {
    # data synthesis
    "synth.classes": ConfigKey(int, 4),
    "synth.per_class": ConfigKey(int, 500, _AT_LEAST_1),
    "synth.test_per_class": ConfigKey(int, None, _AT_LEAST_1),  # per_class // 5, at least 1
    "synth.input_dim": ConfigKey(int, 32),
    "synth.separation": ConfigKey(float, 6.0),
    "synth.noise_sigma": ConfigKey(float, 1.0, _NONNEGATIVE),
    "synth.ood_n": ConfigKey(int, 500),
    "synth.ood_offset_norm": ConfigKey(float, 9.0),
    "synth.ood_noise_sigma": ConfigKey(float, None, _NONNEGATIVE),  # synth.noise_sigma
    "synth.ood_direction_seed": ConfigKey(int, None, _SEED),  # synth seed + 1
    "synth.scale_to_unit": ConfigKey(bool, True),
    "synth.seed": ConfigKey(int, 0, _SEED),
    # model
    "model.hidden_sizes": ConfigKey(int, (128, 64), _AT_LEAST_1, is_list=True),
    "model.feature_dim": ConfigKey(int, 16, _AT_LEAST_1),
    "model.seed": ConfigKey(int, 0, _SEED),
    # contrastive pre-training
    "pretrain.epochs": ConfigKey(int, 20, _NONNEGATIVE),
    "pretrain.batch_size": ConfigKey(int, 64, _AT_LEAST_1),
    "pretrain.lr": ConfigKey(float, 0.02, _POSITIVE),
    "pretrain.momentum": ConfigKey(float, 0.9, _UNIT_HALF_OPEN),
    "pretrain.aug_gaussian_sigma": ConfigKey(float, 0.1, _NONNEGATIVE),
    "pretrain.adv_epsilon": ConfigKey(float, 0.0, _NONNEGATIVE),  # 0: no perturbation
    "pretrain.adv_steps": ConfigKey(int, 3, _AT_LEAST_1),
    "pretrain.adv_step_size": ConfigKey(float, 0.01, _POSITIVE),
    "pretrain.seed": ConfigKey(int, 0, _SEED),
    # supervised fine-tuning
    "train.epochs": ConfigKey(int, 40, _NONNEGATIVE),
    "train.batch_size": ConfigKey(int, 64, ((">=", 2),)),  # batch statistics need 2 rows
    "train.lr": ConfigKey(float, 0.05, _POSITIVE),
    "train.momentum": ConfigKey(float, 0.9, _UNIT_HALF_OPEN),
    "train.mu": ConfigKey(float, 0.0, _NONNEGATIVE),  # 0: cross-entropy alone
    "train.aug_gaussian_sigma": ConfigKey(float, 0.05, _NONNEGATIVE),
    "train.input_noise": ConfigKey(float, 0.0, _NONNEGATIVE),
    "train.seed": ConfigKey(int, 0, _SEED),
    # OOD scoring
    "ood.quantile": ConfigKey(float, 0.95, _UNIT_OPEN),
    "ood.mode": ConfigKey(str, "single", choices=("single", "mc")),
    "ood.mc_draws": ConfigKey(int, 50, _AT_LEAST_1),
    "ood.mc_noise_sigma": ConfigKey(float, 0.01, _NONNEGATIVE),
    "ood.target": ConfigKey(str, "id_test.feat"),
    "ood.seed": ConfigKey(int, 0, _SEED),
    # evaluation
    "eval.tpr_target": ConfigKey(float, 0.95, _UNIT_OPEN),
    "eval.method": ConfigKey(str, "rodd", choices=("rodd", "msp")),
    # corruption sweeps; without a kind, eval runs no sweep and corrupt
    # applies gaussian_noise
    "corruption.kind": ConfigKey(str, None, choices=KINDS),
    "corruption.severities": ConfigKey(
        int, (1, 2, 3, 4, 5), ((">=", 1), ("<=", 5)), is_list=True, distinct=True
    ),
    "corruption.apply_to": ConfigKey(str, "ood", choices=("ood", "id")),
    "corruption.seed": ConfigKey(int, 0, _SEED),
    # spectral-theory verification
    "theory.class_sizes": ConfigKey(int, (6, 5), _AT_LEAST_1, is_list=True),
    "theory.delta": ConfigKey(float, 0.05, ((">=", 0), ("<=", DELTA_LIMIT))),
    "theory.eta": ConfigKey(float, 0.0, _NONNEGATIVE),
    "theory.normalization": ConfigKey(str, "unit-spectral-per-block", choices=NORMALIZATIONS),
    "theory.d": ConfigKey(int),  # the graph's size
    "theory.mu": ConfigKey(float, 1e-4, _NONNEGATIVE),
    "theory.mu_values": ConfigKey(
        float, (1e-6, 1e-4, 1e-2, 1.0, 100.0), _NONNEGATIVE, is_list=True, distinct=True
    ),
    "theory.max_iters": ConfigKey(int, 2000, _AT_LEAST_1),
    "theory.lr": ConfigKey(float),  # accepted and ignored: the solver's line search is exact
    "theory.tol": ConfigKey(float, 1e-12, _NONNEGATIVE),
    "theory.seed": ConfigKey(int, 0, _SEED),
}

_BOUND_HOLDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class RunConfig:
    """Typed flat key-value map with 'section.key' keys."""

    values: dict = field(default_factory=dict)

    def get(self, key):
        """The parsed value of key, else its CONFIG default; KeyError for a key
        not in CONFIG."""
        return self.values[key] if key in self.values else CONFIG[key].default

    def section(self, name: str) -> dict:
        """Every key of section name, without its 'name.' prefix, as get gives it."""
        prefix = name + "."
        return {key[len(prefix):]: self.get(key) for key in CONFIG if key.startswith(prefix)}


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines with '#' comments and '[section]' headers.

    Values are typed by CONFIG (integer, real, boolean, string, or a
    comma-separated integer or real list, parsed once into a tuple); unknown
    keys, duplicate keys, type mismatches, empty lists, non-finite reals,
    values or list entries outside their bounds and strings outside their
    allowed values raise FormatError with the line number.
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
        if full_key not in CONFIG:
            raise FormatError(f"line {lineno}: unknown key '{full_key}'")
        if full_key in values:
            raise FormatError(f"line {lineno}: duplicate key '{full_key}'")
        values[full_key] = _parse_value(value, full_key, lineno)
    return RunConfig(values)


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _parse_value(token: str, key: str, lineno: int):
    spec = CONFIG[key]
    if spec.is_list:
        parts = [part.strip() for part in token.split(",")]
        if not any(parts):
            raise FormatError(f"line {lineno}: '{key}' must list at least one value")
        if "" in parts:
            raise FormatError(f"line {lineno}: '{key}' has an empty entry in {token!r}")
        try:
            value = tuple(spec.kind(part) for part in parts)
        except ValueError:
            noun = "integer" if spec.kind is int else "number"
            raise FormatError(
                f"line {lineno}: '{key}' must be a comma-separated {noun} list"
            ) from None
        if spec.distinct and len(set(value)) < len(value):
            raise FormatError(f"line {lineno}: '{key}' repeats an entry in {token!r}")
        entries, subject, shown = value, f"every '{key}' entry", repr(token)
    else:
        value = _parse_scalar(token, spec.kind, key, lineno)
        entries, subject, shown = (value,), f"'{key}'", value
    for entry in entries:
        if spec.kind is float and not math.isfinite(entry):
            raise FormatError(f"line {lineno}: {subject} must be finite, got {token!r}")
        for op, limit in spec.bounds:
            if not _BOUND_HOLDS[op](entry, limit):
                raise FormatError(f"line {lineno}: {subject} must be {op} {limit}, got {shown}")
    if spec.choices and value not in spec.choices:
        allowed = ", ".join(repr(choice) for choice in spec.choices)
        raise FormatError(f"line {lineno}: '{key}' must be one of {allowed}, got {value!r}")
    return value


def _parse_scalar(token: str, kind: type, key: str, lineno: int):
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
            return float(token)
        except ValueError:
            raise FormatError(
                f"line {lineno}: '{key}' expects a real number, got {token!r}"
            ) from None
    return token
