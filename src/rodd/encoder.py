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

import numpy as np

from .data import BinaryReader
from .errors import (
    ContractViolation,
    DegenerateFeatureError,
    DivergenceError,
    FormatError,
    NumericFailure,
)
from .linalg import as_matrix, orthonormal_init

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
FEATURE_NORM_FLOOR = 1e-12
# Fine-tuning's global-norm gradient cap; the sharpening layer amplifies
# gradients by 1/g.  train reads it when called.
GRAD_CLIP = 5.0
# Rows per body pass in features, which keeps a block's activations in cache.
FEATURE_BLOCK_ROWS = 512

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
    mu: float = 0.0  # > 0: joint objective, CE on two views + mu * pairwise term
    seed: int = 0
    aug_gaussian_sigma: float = 0.05  # view noise for the joint objective
    # Gaussian data augmentation for CE alone (mu = 0): each batch gets noise
    # at a level drawn uniformly from [0, input_noise], so the encoder sees
    # every perturbation scale up to the cap.  0 disables it.
    input_noise: float = 0.0


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
        if i < last:
            # acts[i + 1] > 0 exactly where layer i's pre-activation is > 0;
            # dh is the product below, never the caller's dfeat.
            dh *= acts[i + 1] > 0.0
        if grads is not None:
            np.matmul(acts[i].T, dh, out=grads[f"layers.{i}.weight"])
            if layers[i].bias is not None:
                dh.sum(axis=0, out=grads[f"layers.{i}.bias"])
            if i == 0:
                return None
        dh = dh @ layers[i].weight.T
    return dh


def _check_width(model: EncoderModel, x: np.ndarray) -> None:
    if x.shape[1] != model.input_dim:
        raise ContractViolation(f"input has {x.shape[1]} columns, model expects {model.input_dim}")


def features(model: EncoderModel, batch) -> np.ndarray:
    """Encoder output for a batch; pure with respect to the model.  The body
    runs over blocks of FEATURE_BLOCK_ROWS rows, the remainder folded into
    the last block: a block of fewer rows would change the last bits."""
    x = as_matrix(batch, "batch")
    _check_width(model, x)
    blocks = max(1, x.shape[0] // FEATURE_BLOCK_ROWS)
    edges = [*range(0, blocks * FEATURE_BLOCK_ROWS, FEATURE_BLOCK_ROWS), x.shape[0]]
    out = np.empty((x.shape[0], model.feature_dim))
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = _body_forward(model.layers, x[lo:hi])[0]
    return out


def feature_norms(feats: np.ndarray, rows_per_sample: int = 1, first_sample: int = 0):
    """Row norms of feats, every one finite, or ContractViolation.

    Non-finite entries are named as as_matrix names them; finite entries whose
    squares overflow float64 are named by sample, rows_per_sample feature
    rows to a sample, numbered from first_sample.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(feats, axis=1)
    if not np.isfinite(norms).all():
        as_matrix(feats, "features")  # rejects non-finite features
        sample = first_sample + int(np.argmin(np.isfinite(norms))) // rows_per_sample
        raise ContractViolation(
            f"features of sample {sample} are finite, but their norm overflows float64"
        )
    return norms


def _sigmoid(t):
    """The logistic function; exp is taken of -|t| only, so it never overflows."""
    e = np.exp(-np.abs(t))
    denom = 1.0 + e
    return np.where(t >= 0, 1.0 / denom, e / denom)


def _head_forward(model, feats, mode):
    # The operations np.linalg.norm, np.mean and np.var run, bit for bit,
    # without their per-call overhead; fmin skips NaN rows as `<` does.
    norms = np.sqrt((feats * feats).sum(axis=1))
    if np.fmin.reduce(norms, initial=math.inf) < FEATURE_NORM_FLOOR:
        bad = int(np.argmax(norms < FEATURE_NORM_FLOOR))
        raise DegenerateFeatureError(bad, float(norms[bad]))
    unit = feats / norms[:, None]
    z = unit @ model.class_proj
    s = feats @ model.sharpen_w
    if mode == "train":
        mean = float(s.sum() / len(s))
        s_hat = s - mean
        var = float((s_hat * s_hat).sum() / len(s))
        model.bn_mean = (1.0 - BN_MOMENTUM) * model.bn_mean + BN_MOMENTUM * mean
        model.bn_var = (1.0 - BN_MOMENTUM) * model.bn_var + BN_MOMENTUM * var
    else:
        s_hat = s - model.bn_mean
        var = model.bn_var
    inv = 1.0 / math.sqrt(var + BN_EPS)
    s_hat *= inv
    t = float(model.bn_scale) * s_hat
    g = _sigmoid(t)
    if mode == "eval" and not g.all():
        raise NumericFailure(
            f"the sharpening scalar of sample {int(np.argmin(g))} underflows to 0, "
            "so its logits are infinite"
        )
    logits = z / g[:, None]
    record = ForwardRecord(feats, z, g, logits)
    cache = (norms, unit, s_hat, inv, g, mode)
    return record, cache


def head_logits(model: EncoderModel, feats) -> np.ndarray:
    """Eval-mode logits of encoder features, head_logits(model,
    features(model, x)) those of inputs x; pure.

    The stored running statistics normalize the sharpening pre-activation,
    so a row's logits do not depend on the rest of its batch.  Features
    whose norm overflows float64 raise ContractViolation, as feature_norms
    names them.
    """
    feats = as_matrix(feats, "features")
    feature_norms(feats)
    record, _ = _head_forward(model, feats, "eval")
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
        ds = ds_hat - ds_hat.sum() / len(ds_hat)
        ds -= s_hat * ((ds_hat * s_hat).sum() / len(ds_hat))
        ds *= inv
    else:
        ds = ds_hat * inv
    grads["bn_scale"][...] = (dt * s_hat).sum()
    np.matmul(record.features.T, ds, out=grads["sharpen_w"])
    dfeat = ds[:, None] * model.sharpen_w[None, :]
    # z = (f / |f|) @ proj; derivative of x/|x| is (I - u u^T) / |x|
    dunit = dz @ model.class_proj.T
    radial = np.einsum("ij,ij->i", unit, dunit)
    dunit -= unit * radial[:, None]
    dunit /= norms[:, None]
    dfeat += dunit
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
    dlogits = np.exp(shifted)
    total = dlogits.sum(axis=1)
    loss = float((np.log(total) - shifted[idx, labels]).sum() / n)
    dlogits /= total[:, None]  # the softmax
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
        # add.reduce of an array's flat slice is the pairwise sum its sum() takes.
        self._sq_slices = [view.reshape(-1) for view in sq_views.values()]
        self.velocity = np.zeros_like(self.params)

    def step(self, lr: float) -> tuple[float, bool]:
        """Apply the filled gradient; returns its norm and whether it was clipped.

        The squared norm is summed per array in gradient order, which keeps
        the clip factor's bits those of a per-array loop.  An overflowing
        norm comes back as inf, without a warning, for the caller to reject.
        """
        with np.errstate(over="ignore"):
            np.multiply(self.grad, self.grad, out=self._sq)
            norm = math.sqrt(sum(map(np.add.reduce, self._sq_slices)))
        clip = min(1.0, self.grad_clip / max(norm, 1e-12))
        self.velocity *= self.momentum
        self.velocity -= np.multiply(self.grad, lr * clip, out=self._sq)
        self.params += self.velocity
        return norm, clip < 1.0


def run_epochs(opt: MomentumSGD, n: int, batch_size: int, lrs, rng, batch_loss, min_batch=1):
    """Momentum-SGD epochs over n rows, one per learning rate in lrs.

    Each epoch draws one permutation of the rows from rng and steps once per
    batch of batch_size rows, skipping a tail batch of fewer than min_batch rows.
    batch_loss(epoch, idx) returns the loss of rows idx and, when it is
    finite, leaves its gradient in opt.grads.  Yields one entry per epoch:
    "epoch", the mean batch "loss", the mean pre-clip "grad_norm", the
    "clip_fraction" of clipped steps and the "lr".  Raises
    ContractViolation unless every epoch takes a step, and DivergenceError
    with the epoch index on a non-finite loss or gradient norm.
    """
    if min(n, batch_size) < min_batch:
        raise ContractViolation(
            f"training needs at least {min_batch} rows and a batch_size of at "
            f"least {min_batch}, got {n} rows and batch_size {batch_size}"
        )
    for epoch, lr in enumerate(lrs):
        order = rng.permutation(n)
        steps = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size < min_batch:
                continue
            loss = batch_loss(epoch, idx)
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            norm, clip = opt.step(lr)
            if not math.isfinite(norm):
                raise DivergenceError(epoch, "non-finite gradient norm")
            steps.append((loss, norm, clip))
        loss, norm, clipped = (float(np.mean(column)) for column in zip(*steps))
        yield {"epoch": epoch, "loss": loss, "grad_norm": norm, "clip_fraction": clipped, "lr": lr}


def _epoch_lr(base: float, epoch: int, epochs: int) -> float:
    """Cosine decay from base towards 0 over the epochs."""
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, epochs)))


def train(model: EncoderModel, dataset, config: TrainConfig):
    """SGD-with-momentum fine-tuning on labeled data.

    Deterministic for a fixed config/seed; the class projection is
    bit-identical before and after.  Returns (model, history), history
    being run_epochs' entry for each epoch; it encodes only the batches it
    trains on.  Batch statistics need 2 rows: a one-row tail batch is
    skipped, and fewer than 2 rows or a batch_size below 2 is a
    ContractViolation, as is data whose width is not the model's input_dim,
    and input_noise under the joint objective (mu > 0), which draws its own
    view noise.  Raises DivergenceError with the epoch index if the loss or
    the gradient norm goes non-finite.
    """
    if dataset.labels is None:
        raise ContractViolation("training requires labeled data")
    _check_width(model, dataset.inputs)
    if dataset.class_count != model.n_classes:
        raise ContractViolation(
            f"dataset has {dataset.class_count} classes, model expects {model.n_classes}"
        )
    counts = np.bincount(dataset.labels, minlength=dataset.class_count)
    if (counts == 0).any():
        raise ContractViolation(
            f"class {int(np.argmin(counts))} has no training samples"
        )
    if config.mu > 0:
        if config.input_noise > 0:
            raise ContractViolation(
                "train.input_noise applies only at train.mu = 0, "
                f"got mu {config.mu} and input_noise {config.input_noise}"
            )
        from .contrastive import view_pairs

    rng = np.random.default_rng(config.seed)
    opt = MomentumSGD(model, config.momentum, GRAD_CLIP)

    def batch_loss(epoch, idx):
        xb = dataset.inputs[idx]
        yb = dataset.labels[idx]
        if config.mu > 0:
            views, adjacency = view_pairs(xb, config.aug_gaussian_sigma, rng)
            # The pairwise term is a raw squared norm over the batch, so
            # weight it per view row to keep mu batch-size independent.
            labels, mu = np.concatenate([yb, yb]), config.mu / len(views)
            return _loss_and_grad(model, views, labels, opt.grads, mu, adjacency)
        if config.input_noise > 0:
            level = rng.uniform(0.0, config.input_noise)
            noise = rng.standard_normal(xb.shape)
            noise *= level
            xb += noise  # xb is a fresh copy of its rows
        return _loss_and_grad(model, xb, yb, opt.grads)

    lrs = [_epoch_lr(config.lr, epoch, config.epochs) for epoch in range(config.epochs)]
    return model, list(run_epochs(opt, dataset.n, config.batch_size, lrs, rng, batch_loss, 2))


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
    with open(path, "wb") as out:
        out.write(MODEL_MAGIC + struct.pack("<I", len(model.layers)))
        for layer in model.layers:
            out.write(struct.pack("<II", *layer.weight.shape))
            out.write(layer.weight.astype("<f8").tobytes())
            out.write(struct.pack("<I", int(layer.bias is not None)))
            if layer.bias is not None:
                out.write(layer.bias.astype("<f8").tobytes())
        out.write(struct.pack("<II", *model.class_proj.shape))
        out.write(model.class_proj.astype("<f8").tobytes())
        out.write(model.sharpen_w.astype("<f8").tobytes())
        out.write(struct.pack("<ddd", float(model.bn_scale), model.bn_mean, model.bn_var))


def load_model(path) -> EncoderModel:
    """Read a RODDMODL1 checkpoint.  Besides the reader's errors, a file with
    no layers, with layer widths that do not chain into the class projection
    or with a projection of no columns is a FormatError naming the shapes,
    and so is a non-finite stored number or a negative running variance."""
    reader = BinaryReader(path, MODEL_MAGIC)
    layers, width = [], None
    for i in range(reader.unpack("<I")[0]):
        rows, cols = reader.unpack("<II")
        if i and rows != width:
            raise FormatError(
                f"{path}: layer {i} is {rows}x{cols}, but layer {i - 1} outputs {width}"
            )
        weight = reader.array("f8", rows * cols).reshape(rows, cols)
        bias = reader.array("f8", cols) if reader.unpack("<I")[0] else None
        layers.append(DenseLayer(weight, bias))
        width = cols
    if not layers:
        raise FormatError(f"{path}: checkpoint has no layers")
    d, n_classes = reader.unpack("<II")
    if d != width:
        raise FormatError(
            f"{path}: class projection is {d}x{n_classes}, but the last layer outputs {width}"
        )
    proj = reader.array("f8", d * n_classes).reshape(d, n_classes)
    sharpen = reader.array("f8", d)
    bn_scale, bn_mean, bn_var = reader.unpack("<ddd")
    reader.close()
    if not n_classes:
        raise FormatError(f"{path}: class projection is {d}x0, it has no class columns")
    stored = [("class projection", proj), ("sharpening weights", sharpen),
              ("batch-norm scale, mean or variance", (bn_scale, bn_mean, bn_var))]
    for i, layer in enumerate(layers):
        stored += [(f"layer {i} weights", layer.weight), (f"layer {i} bias", layer.bias)]
    for name, values in stored:
        if values is not None and not np.isfinite(values).all():
            raise FormatError(f"{path}: non-finite {name}")
    if bn_var < 0.0:
        raise FormatError(f"{path}: batch-norm running variance {bn_var!r} is negative")
    return EncoderModel(layers, proj, sharpen, np.asarray(bn_scale), bn_mean, bn_var)
