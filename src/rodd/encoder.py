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


def _param_slots(model: EncoderModel, body_only: bool = False):
    """(name, owner, attribute) of each trainable array in the order the
    backward pass fills them: bn_scale, sharpen_w, then the layers from last
    to first, weight before bias.  The frozen class projection is not one."""
    slots = [] if body_only else [(name, model, name) for name in ("bn_scale", "sharpen_w")]
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        slots.append((f"layers.{i}.weight", layer, "weight"))
        if layer.bias is not None:
            slots.append((f"layers.{i}.bias", layer, "bias"))
    return slots


def _flat_buffer(slots):
    """A zeroed float64 buffer packing the slots' arrays in order, and a
    name -> view map shaped like each array."""
    shapes = [getattr(owner, attr).shape for _, owner, attr in slots]
    buffer = np.zeros(sum(math.prod(shape) for shape in shapes))
    views, offset = {}, 0
    for (name, _, _), shape in zip(slots, shapes):
        views[name] = buffer[offset : offset + math.prod(shape)].reshape(shape)
        offset += math.prod(shape)
    return buffer, views


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _body_forward(layers, x, keep=False):
    """(features, activations): activations[i] is layer i's input, kept only
    with keep.  Bias and ReLU act in place on each layer's fresh product."""
    acts = [x] if keep else None
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        h = h @ layer.weight
        if layer.bias is not None:
            h += layer.bias
        if i < last:
            np.maximum(h, 0.0, out=h)
        if keep:
            acts.append(h)
    return h, acts


def _body_backward(layers, acts, dfeat, grads=None):
    """Back-propagate dfeat through the body.  With grads, fill each layer's
    gradients in place and return None; without, return the input gradient."""
    dh = dfeat
    last = len(layers) - 1
    for i in range(last, -1, -1):
        # acts[i + 1] > 0 exactly where layer i's pre-activation is > 0.
        dz = dh if i == last else dh * (acts[i + 1] > 0.0)
        if grads is not None:
            np.matmul(acts[i].T, dz, out=grads[f"layers.{i}.weight"])
            if layers[i].bias is not None:
                dz.sum(axis=0, out=grads[f"layers.{i}.bias"])
            if i == 0:
                return None
        dh = dz @ layers[i].weight.T
    return dh


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
    """Gradient with respect to the features; fills grads' bn_scale and
    sharpen_w gradients in place."""
    norms, unit, s_hat, inv, g, mode = cache
    dz = dlogits / g[:, None]
    # logits = z / g  =>  dL/dg_i = -(dlogits_i . logits_i) / g_i
    dg = -np.einsum("il,il->i", dlogits, record.logits) / g
    dt = dg * g * (1.0 - g)
    ds_hat = dt * float(model.bn_scale)
    if mode == "train":
        ds = inv * (ds_hat - ds_hat.mean() - s_hat * (ds_hat * s_hat).mean())
    else:
        ds = ds_hat * inv
    grads["bn_scale"][...] = (dt * s_hat).sum()
    np.matmul(record.features.T, ds, out=grads["sharpen_w"])
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
    e = np.exp(shifted)
    total = e.sum(axis=1)
    loss = float((np.log(total) - shifted[idx, labels]).mean())
    dlogits = e / total[:, None]  # the softmax
    dlogits[idx, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def _loss_and_grad(model, x, labels, grads, mu=0.0, adjacency=None) -> float:
    """Mean cross-entropy of the sharpened cosine logits, plus mu times the
    pairwise spectral term when an adjacency is given; fills grads (views of
    a _flat_buffer) in place, in train mode.  Unchecked: x has >= 2 rows and
    labels lie in [0, n_classes).  With the spectral term, non-finite
    features (a diverging run) return NaN, which the training loop reports.
    """
    feats, acts = _body_forward(model.layers, x, keep=True)
    if adjacency is not None and not np.isfinite(feats).all():
        return math.nan
    record, head_cache = _head_forward(model, feats, "train")
    loss, dlogits = cross_entropy(record.logits, labels)
    dfeat = _head_backward(model, record, head_cache, dlogits, grads)
    if adjacency is not None:
        from .contrastive import spectral_contrastive_loss

        cl_loss, cl_grad = spectral_contrastive_loss(feats, adjacency)
        loss = loss + mu * cl_loss
        dfeat = dfeat + mu * cl_grad
    _body_backward(model.layers, acts, dfeat, grads)
    return loss


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class MomentumSGD:
    """SGD with momentum and global-norm clipping over one flat buffer.

    Construction copies the model's trainable arrays (only the body's with
    body_only) into one float64 buffer and rebinds them to views into it.
    The backward pass fills `grads`, views of a gradient buffer of the same
    layout, in place; `step` then updates every array at once.
    """

    def __init__(self, model: EncoderModel, momentum: float, grad_clip: float, body_only=False):
        if not 0.0 <= momentum < 1.0:
            raise ContractViolation(f"momentum must lie in [0, 1), got {momentum}")
        if not grad_clip > 0.0:
            raise ContractViolation(f"grad_clip must be > 0, got {grad_clip}")
        self.momentum = momentum
        self.grad_clip = grad_clip
        slots = _param_slots(model, body_only)
        self.params, views = _flat_buffer(slots)
        for name, owner, attr in slots:
            views[name][...] = getattr(owner, attr)
            setattr(owner, attr, views[name])
        self.grad, self.grads = _flat_buffer(slots)
        self._sq, sq_views = _flat_buffer(slots)
        self._sq_views = list(sq_views.values())
        self.velocity = np.zeros_like(self.params)

    def step(self, lr: float) -> tuple[float, bool]:
        """Apply the filled gradient; returns its norm and whether it was clipped.

        The squared norm is summed per array in gradient order, which keeps
        the clip factor's bits those of a per-array loop.  An overflowing
        norm comes back as inf, without a warning, for the caller to reject.
        """
        with np.errstate(over="ignore"):
            np.multiply(self.grad, self.grad, out=self._sq)
            norm = math.sqrt(sum(float(sq.sum()) for sq in self._sq_views))
        clip = min(1.0, self.grad_clip / max(norm, 1e-12))
        self.velocity *= self.momentum
        self.velocity -= lr * clip * self.grad
        self.params += self.velocity
        return norm, clip < 1.0


def epoch_summary(losses, steps, lr: float) -> dict:
    """One epoch's mean "loss", mean pre-clip "grad_norm", "clip_fraction" of
    its (norm, clipped) steps and "lr"; NaN where the epoch took no step."""

    def mean(values):
        return float(np.mean(values)) if values else float("nan")

    return {
        "loss": mean(losses),
        "grad_norm": mean([norm for norm, _ in steps]),
        "clip_fraction": mean([clipped for _, clipped in steps]),
        "lr": lr,
    }


def _epoch_lr(base: float, epoch: int, epochs: int) -> float:
    """Cosine decay from base towards 0 over the epochs."""
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, epochs)))


def train(model: EncoderModel, dataset, config: TrainConfig):
    """SGD-with-momentum fine-tuning on labeled data.

    Deterministic for a fixed config/seed; the class projection is
    bit-identical before and after.  Returns (model, history) where history
    has one entry per epoch: "epoch", "loss", "accuracy" (on the training
    set after the epoch), then epoch_summary's health fields.  Trailing
    batches of size 1 are skipped (batch statistics need at least 2
    samples).  Raises DivergenceError with the epoch index if the loss or
    the gradient norm goes non-finite.
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
    if config.contrastive:
        from .contrastive import AugmentationSpec, augment_batch, view_pair_adjacency

        spec = AugmentationSpec(gaussian_sigma=config.aug_gaussian_sigma)
    rng = np.random.default_rng(config.seed)
    opt = MomentumSGD(model, config.momentum, config.grad_clip)
    history = []
    n = dataset.n
    for epoch in range(config.epochs):
        lr = _epoch_lr(config.lr, epoch, config.epochs)
        order = rng.permutation(n)
        losses, steps = [], []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue
            xb = dataset.inputs[idx]
            yb = dataset.labels[idx]
            if config.contrastive:
                views = augment_batch(np.vstack([xb, xb]), spec, rng)
                # The pairwise term is a raw squared norm over the batch, so
                # weight it per view row to keep mu batch-size independent.
                loss = _loss_and_grad(
                    model,
                    views,
                    np.concatenate([yb, yb]),
                    opt.grads,
                    mu=config.mu / (2 * idx.size),
                    adjacency=view_pair_adjacency(idx.size),
                )
            else:
                if config.input_noise > 0:
                    level = rng.uniform(0.0, config.input_noise)
                    xb = xb + level * rng.standard_normal(xb.shape)
                loss = _loss_and_grad(model, xb, yb, opt.grads)
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            steps.append(opt.step(lr))
            if not math.isfinite(steps[-1][0]):
                raise DivergenceError(epoch, "non-finite gradient norm")
            losses.append(loss)
        record = forward(model, dataset.inputs, mode="eval")
        acc = float(
            (np.argmax(record.logits, axis=1) == dataset.labels).mean()
        )
        summary = epoch_summary(losses, steps, lr)
        history.append({"epoch": epoch, "loss": summary.pop("loss"), "accuracy": acc, **summary})
    return model, history


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
