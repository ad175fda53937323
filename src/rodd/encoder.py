"""Feed-forward encoder with a cosine-similarity head and sharpening scalar.

The body is a plain MLP (ReLU on hidden activations, linear feature output).
The head projects each feature onto frozen orthonormal class directions,
giving cosine logits in [-1, 1], and divides them by a per-sample scalar
sigmoid(BN(w . f)) in (0, 1) that amplifies logit confidence.  Neither the
class projection nor the sharpening layer carries a bias; the class
projection is never touched by the optimizer.

All gradients are hand-derived and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateFeatureError,
    DivergenceError,
    FormatError,
)
from .linalg import as_matrix, orthonormal_init

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
FEATURE_NORM_FLOOR = 1e-12

MODEL_MAGIC = b"RODDMODL1"


@dataclass
class DenseLayer:
    weight: np.ndarray  # fan_in x fan_out
    bias: np.ndarray | None


@dataclass
class EncoderModel:
    """MLP body plus the frozen-projection / sharpening head.

    bn_scale is a shape-() array so every trainable parameter supports
    uniform in-place updates; bn_mean / bn_var are the running statistics of
    the sharpening pre-activation.
    """

    layers: list[DenseLayer]
    class_proj: np.ndarray  # feature_dim x n_classes, orthonormal columns, frozen
    sharpen_w: np.ndarray  # (feature_dim,), no bias
    bn_scale: np.ndarray  # shape (), learnable scale, init 1.0
    bn_mean: float = 0.0
    bn_var: float = 1.0

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    @property
    def n_classes(self) -> int:
        return self.class_proj.shape[1]


@dataclass
class ForwardRecord:
    features: np.ndarray  # n x feature_dim
    z: np.ndarray  # n x n_classes cosine logits
    g: np.ndarray  # (n,) sharpening scalars in (0, 1)
    logits: np.ndarray  # n x n_classes, z / g


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    mu: float = 0.0
    seed: int = 0
    contrastive: bool = False  # joint objective: CE + mu * pairwise term
    aug_gaussian_sigma: float = 0.05  # view noise for the joint objective
    # Gaussian data augmentation for the CE path: each batch gets noise at a
    # level drawn uniformly from [0, input_noise], so the encoder sees every
    # perturbation scale up to the cap.  0 disables it.
    input_noise: float = 0.0
    cosine_decay: bool = True
    grad_clip: float = 5.0  # global-norm cap; sharpening amplifies gradients by 1/g


def build_model(
    input_dim: int,
    n_classes: int,
    hidden_sizes=(128, 64),
    feature_dim: int = 16,
    seed: int = 0,
) -> EncoderModel:
    """Seeded model with He-initialized body and orthonormal class directions."""
    if n_classes > feature_dim:
        raise ContractViolation(
            f"feature_dim {feature_dim} too small for {n_classes} orthonormal directions"
        )
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden_sizes, feature_dim]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        gain = 2.0 if i < len(sizes) - 2 else 1.0
        weight = rng.standard_normal((fan_in, fan_out)) * math.sqrt(gain / fan_in)
        layers.append(DenseLayer(weight, np.zeros(fan_out)))
    proj = orthonormal_init(feature_dim, n_classes, int(rng.integers(2**62)))
    sharpen = rng.standard_normal(feature_dim) / math.sqrt(feature_dim)
    return EncoderModel(layers, proj, sharpen, np.ones(()))


def trainable_params(model: EncoderModel) -> dict[str, np.ndarray]:
    """Mutable views of every trainable array (the class projection is frozen)."""
    out: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        out[f"layers.{i}.weight"] = layer.weight
        if layer.bias is not None:
            out[f"layers.{i}.bias"] = layer.bias
    out["sharpen_w"] = model.sharpen_w
    out["bn_scale"] = model.bn_scale
    return out


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _body_forward(layers, x):
    pre = []
    acts = [x]
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = h @ layer.weight
        if layer.bias is not None:
            z = z + layer.bias
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        acts.append(h)
    return h, (pre, acts)


def _body_backward(layers, cache, dfeat):
    pre, acts = cache
    grads: dict[str, np.ndarray] = {}
    dh = dfeat
    last = len(layers) - 1
    for i in range(last, -1, -1):
        dz = dh if i == last else dh * (pre[i] > 0.0)
        grads[f"layers.{i}.weight"] = acts[i].T @ dz
        if layers[i].bias is not None:
            grads[f"layers.{i}.bias"] = dz.sum(axis=0)
        dh = dz @ layers[i].weight.T
    return grads, dh


def features(model: EncoderModel, batch) -> np.ndarray:
    """Encoder output for a batch; pure with respect to the model."""
    x = as_matrix(batch, "batch")
    if x.shape[1] != model.input_dim:
        raise ContractViolation(
            f"batch has {x.shape[1]} columns, model expects {model.input_dim}"
        )
    out, _ = _body_forward(model.layers, x)
    return out


def _sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _head_forward(model, feats, mode, update_running=True):
    norms = np.linalg.norm(feats, axis=1)
    bad = np.nonzero(norms < FEATURE_NORM_FLOOR)[0]
    if bad.size:
        raise DegenerateFeatureError(int(bad[0]), float(norms[bad[0]]))
    unit = feats / norms[:, None]
    z = unit @ model.class_proj
    s = feats @ model.sharpen_w
    if mode == "train":
        mean = float(s.mean())
        var = float(s.var())
        if update_running:
            model.bn_mean = (1.0 - BN_MOMENTUM) * model.bn_mean + BN_MOMENTUM * mean
            model.bn_var = (1.0 - BN_MOMENTUM) * model.bn_var + BN_MOMENTUM * var
    else:
        mean = model.bn_mean
        var = model.bn_var
    inv = 1.0 / math.sqrt(var + BN_EPS)
    s_hat = (s - mean) * inv
    t = float(model.bn_scale) * s_hat
    g = _sigmoid(t)
    logits = z / g[:, None]
    record = ForwardRecord(feats, z, g, logits)
    cache = (norms, unit, s_hat, inv, g, mode)
    return record, cache


def forward(model: EncoderModel, batch, mode: str = "eval") -> ForwardRecord:
    """Full forward pass.

    In train mode batch statistics normalize the sharpening pre-activation
    and the running statistics are updated (mutates the model; batch size
    must be >= 2).  In eval mode the stored running statistics are used and
    the call is pure.
    """
    x = as_matrix(batch, "batch")
    if mode not in ("train", "eval"):
        raise ContractViolation(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.shape[1] != model.input_dim:
        raise ContractViolation(
            f"batch has {x.shape[1]} columns, model expects {model.input_dim}"
        )
    if mode == "train" and x.shape[0] < 2:
        raise ContractViolation("train-mode forward needs a batch of at least 2")
    feats, _ = _body_forward(model.layers, x)
    record, _ = _head_forward(model, feats, mode)
    return record


def head_logits(model: EncoderModel, feats) -> np.ndarray:
    """Eval-mode logits of encoder features; pure.

    head_logits(model, features(model, x)) equals forward(model, x).logits,
    so a caller that already has the features skips a second body pass.
    """
    record, _ = _head_forward(model, as_matrix(feats, "features"), "eval")
    return record.logits


def _head_backward(model, record, cache, dlogits, grads):
    norms, unit, s_hat, inv, g, mode = cache
    dz = dlogits / g[:, None]
    # logits = z / g  =>  dL/dg_i = -(dlogits_i . logits_i) / g_i
    dg = -np.einsum("il,il->i", dlogits, record.logits) / g
    dt = dg * g * (1.0 - g)
    grads["bn_scale"] = np.asarray((dt * s_hat).sum())
    ds_hat = dt * float(model.bn_scale)
    if mode == "train":
        ds = inv * (ds_hat - ds_hat.mean() - s_hat * (ds_hat * s_hat).mean())
    else:
        ds = ds_hat * inv
    grads["sharpen_w"] = record.features.T @ ds
    dfeat = ds[:, None] * model.sharpen_w[None, :]
    # z = (f / |f|) @ proj; derivative of x/|x| is (I - u u^T) / |x|
    dunit = dz @ model.class_proj.T
    radial = np.einsum("ij,ij->i", unit, dunit)
    dfeat = dfeat + (dunit - unit * radial[:, None]) / norms[:, None]
    return dfeat


def softmax(logits) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient with respect to the logits."""
    n = logits.shape[0]
    idx = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float((lse - shifted[idx, labels]).mean())
    dlogits = softmax(logits)
    dlogits[idx, labels] -= 1.0
    return loss, dlogits / n


def _check_labels(labels, n, n_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ContractViolation(f"labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ContractViolation(f"labels must lie in [0, {n_classes})")
    return labels


def loss_and_grad(
    model: EncoderModel,
    batch,
    labels,
    mu: float = 0.0,
    contrastive_pairs=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Training loss and gradients for every trainable parameter.

    Loss is the mean softmax cross-entropy of the sharpened cosine logits;
    when contrastive_pairs is given, mu times the pairwise spectral term on
    the batch features is added and its gradient flows through the body.
    Uses train-mode batch statistics (and updates the running ones).  The
    frozen class projection receives no gradient.
    """
    x = as_matrix(batch, "batch")
    n = x.shape[0]
    if x.shape[1] != model.input_dim:
        raise ContractViolation(
            f"batch has {x.shape[1]} columns, model expects {model.input_dim}"
        )
    if n < 2:
        raise ContractViolation("loss_and_grad needs a batch of at least 2")
    labels = _check_labels(labels, n, model.n_classes)
    feats, body_cache = _body_forward(model.layers, x)
    record, head_cache = _head_forward(model, feats, "train")
    loss, dlogits = cross_entropy(record.logits, labels)
    grads: dict[str, np.ndarray] = {}
    dfeat = _head_backward(model, record, head_cache, dlogits, grads)
    if contrastive_pairs is not None:
        from .contrastive import batch_adjacency, spectral_contrastive_loss

        adjacency = batch_adjacency(contrastive_pairs, n)
        cl_loss, cl_grad = spectral_contrastive_loss(feats, adjacency)
        loss = loss + mu * cl_loss
        dfeat = dfeat + mu * cl_grad
    body_grads, _ = _body_backward(model.layers, body_cache, dfeat)
    grads.update(body_grads)
    return loss, grads


def input_gradient(model: EncoderModel, batch, dlogits=None, mode: str = "eval"):
    """Gradient of sum(logits * dlogits) with respect to the batch inputs.

    dlogits defaults to all-ones (the gradient of the summed logits).  Pure:
    running statistics are left untouched even in train mode.
    """
    x = as_matrix(batch, "batch")
    feats, body_cache = _body_forward(model.layers, x)
    record, head_cache = _head_forward(model, feats, mode, update_running=False)
    if dlogits is None:
        dlogits = np.ones_like(record.logits)
    scratch: dict[str, np.ndarray] = {}
    dfeat = _head_backward(model, record, head_cache, np.asarray(dlogits, float), scratch)
    _, dx = _body_backward(model.layers, body_cache, dfeat)
    return dx


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _epoch_lr(base: float, epoch: int, epochs: int, cosine: bool) -> float:
    if not cosine:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, epochs)))


def train(model: EncoderModel, dataset, config: TrainConfig):
    """SGD-with-momentum fine-tuning on labeled data.

    Deterministic for a fixed config/seed; the class projection is
    bit-identical before and after.  Returns (model, history) where history
    has one {"epoch", "loss", "accuracy"} entry per epoch.  Trailing batches
    of size 1 are skipped (batch statistics need at least 2 samples).
    Raises DivergenceError with the epoch index if the loss goes non-finite.
    """
    if dataset.labels is None:
        raise ContractViolation("training requires labeled data")
    if dataset.class_count != model.n_classes:
        raise ContractViolation(
            f"dataset has {dataset.class_count} classes, model expects {model.n_classes}"
        )
    counts = np.bincount(dataset.labels, minlength=dataset.class_count)
    if (counts == 0).any():
        raise ContractViolation(
            f"class {int(np.argmin(counts))} has no training samples"
        )
    rng = np.random.default_rng(config.seed)
    params = trainable_params(model)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    history = []
    n = dataset.n
    for epoch in range(config.epochs):
        lr = _epoch_lr(config.lr, epoch, config.epochs, config.cosine_decay)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue
            xb = dataset.inputs[idx]
            yb = dataset.labels[idx]
            if config.contrastive:
                from .contrastive import AugmentationSpec, augment_batch

                spec = AugmentationSpec(gaussian_sigma=config.aug_gaussian_sigma)
                views = augment_batch(np.vstack([xb, xb]), spec, rng)
                pairs = [(i, idx.size + i) for i in range(idx.size)]
                # The pairwise term is a raw squared norm over the batch, so
                # weight it per view row to keep mu batch-size independent.
                loss, grads = loss_and_grad(
                    model,
                    views,
                    np.concatenate([yb, yb]),
                    mu=config.mu / (2 * idx.size),
                    contrastive_pairs=pairs,
                )
            else:
                if config.input_noise > 0:
                    level = rng.uniform(0.0, config.input_noise)
                    xb = xb + level * rng.standard_normal(xb.shape)
                loss, grads = loss_and_grad(model, xb, yb)
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            clip = min(1.0, config.grad_clip / max(norm, 1e-12))
            for key, param in params.items():
                velocity[key] *= config.momentum
                velocity[key] -= lr * clip * grads[key]
                param += velocity[key]
            losses.append(loss)
        record = forward(model, dataset.inputs, mode="eval")
        acc = float(
            (np.argmax(record.logits, axis=1) == dataset.labels).mean()
        )
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)) if losses else float("nan"),
                "accuracy": acc,
            }
        )
    return model, history


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(model: EncoderModel, batch, labels, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per scalar parameter is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8); the maximum over all trainable
    parameters is returned.  The model is left untouched.
    """
    if not (1e-8 < eps < 1e-2):
        raise ContractViolation(f"eps must lie in (1e-8, 1e-2), got {eps}")
    work = copy.deepcopy(model)
    _, analytic = loss_and_grad(work, batch, labels)
    numeric = numeric_grads(copy.deepcopy(model), batch, labels, eps)
    return max_relative_error(analytic, numeric)


def numeric_grads(model, batch, labels, eps):
    """Central finite differences of the cross-entropy loss, per parameter."""
    params = trainable_params(model)
    out = {}
    for key, arr in params.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = _loss_value(model, batch, labels)
            flat[i] = orig - eps
            down, _ = _loss_value(model, batch, labels)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        out[key] = grad
    return out


def _loss_value(model, batch, labels):
    feats, _ = _body_forward(model.layers, as_matrix(batch, "batch"))
    record, _ = _head_forward(model, feats, "train", update_running=False)
    labels = np.asarray(labels, dtype=np.int64)
    loss, _ = cross_entropy(record.logits, labels)
    return loss, record


def max_relative_error(analytic, numeric) -> float:
    worst = 0.0
    for key, a in analytic.items():
        b = numeric[key]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


# ---------------------------------------------------------------------------
# Checkpoint format (RODDMODL1)
# ---------------------------------------------------------------------------
#
# Layout, all little-endian:
#   magic "RODDMODL1" (9 bytes)
#   u32 layer count
#   per layer: u32 rows, u32 cols, rows*cols f64 weights row-major,
#              u32 bias flag, [cols f64 bias]
#   u32 feature_dim, u32 n_classes, feature_dim*n_classes f64 class
#   projection row-major, feature_dim f64 sharpening weights,
#   f64 bn scale, f64 bn running mean, f64 bn running variance.
# Byte-exact round trip: every array is stored at full f64 precision.


def save_model(path, model: EncoderModel) -> None:
    blob = bytearray()
    blob += MODEL_MAGIC
    blob += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        rows, cols = layer.weight.shape
        blob += struct.pack("<II", rows, cols)
        blob += layer.weight.astype("<f8").tobytes()
        blob += struct.pack("<I", int(layer.bias is not None))
        if layer.bias is not None:
            blob += layer.bias.astype("<f8").tobytes()
    d, n_classes = model.class_proj.shape
    blob += struct.pack("<II", d, n_classes)
    blob += model.class_proj.astype("<f8").tobytes()
    blob += model.sharpen_w.astype("<f8").tobytes()
    blob += struct.pack("<ddd", float(model.bn_scale), model.bn_mean, model.bn_var)
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise FormatError(
                f"{self.path}: truncated, needed {self.pos + count} bytes, "
                f"found {len(self.data)} ({self.pos + count - len(self.data)} missing)"
            )
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64s(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def load_model(path) -> EncoderModel:
    data = Path(path).read_bytes()
    if len(data) < len(MODEL_MAGIC) or data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {MODEL_MAGIC!r}")
    reader = _Reader(data, path)
    reader.take(len(MODEL_MAGIC))
    n_layers = reader.u32()
    layers = []
    for _ in range(n_layers):
        rows = reader.u32()
        cols = reader.u32()
        weight = reader.f64s(rows * cols).reshape(rows, cols)
        bias = reader.f64s(cols) if reader.u32() else None
        layers.append(DenseLayer(weight, bias))
    d = reader.u32()
    n_classes = reader.u32()
    proj = reader.f64s(d * n_classes).reshape(d, n_classes)
    sharpen = reader.f64s(d)
    bn_scale, bn_mean, bn_var = struct.unpack("<ddd", reader.take(24))
    if reader.pos != len(data):
        raise FormatError(
            f"{path}: {len(data) - reader.pos} unexpected trailing bytes"
        )
    return EncoderModel(
        layers, proj, sharpen, np.asarray(bn_scale), bn_mean, bn_var
    )
