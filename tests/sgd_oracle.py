"""Per-array momentum SGD: the test oracle for rodd's flat-buffer training core.

rodd.encoder.train and rodd.contrastive.pretrain update every trainable
array through one MomentumSGD step over a flat buffer, and their backward
pass writes gradients into that buffer in place.  These are the two
dict-based loops they replaced, with the forward and backward pass they
used (activation cache, fresh gradient arrays, a layer-0 input gradient),
kept so the tests can check that the new core changes no bit of the
parameters, batch-norm statistics or losses.

The head forward, cross-entropy, spectral loss, view augmentation and step
arithmetic are kept here too, as plain whole-array numpy expressions
(np.linalg.norm, mean, var, a boolean-mask sigmoid, fresh temporaries), so
the in-place arithmetic of the program is checked against them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from gradcheck import trainable_params
from rodd import encoder
from rodd.contrastive import batch_adjacency
from rodd.encoder import BN_EPS, BN_MOMENTUM, FEATURE_NORM_FLOOR, ForwardRecord, _epoch_lr
from rodd.errors import DegenerateFeatureError, DivergenceError
from rodd.linalg import as_matrix


def sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def head_forward(model, feats, mode, update_running=True):
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
    g = sigmoid(t)
    logits = z / g[:, None]
    return ForwardRecord(feats, z, g, logits), (norms, unit, s_hat, inv, g, mode)


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def spectral_contrastive_loss(f, a):
    residual = a - f @ f.T
    return float((residual * residual).sum()), -4.0 * (residual @ f)


def augment_batch(x, sigma, rng):
    """The draws augmentation took when it also had a per-row scale jitter
    and a per-entry dropout mask, both off: the jitter factors and the mask
    scores are drawn and unused."""
    x = as_matrix(x, "x")
    out = x + sigma * rng.standard_normal(x.shape)
    rng.uniform(-0.0, 0.0, size=(x.shape[0], 1))
    rng.random(x.shape)
    return out


def step(params, velocity, grads, lr, momentum, grad_clip):
    """One momentum step, array by array; grads in gradient order.  Returns
    (norm, clipped) as MomentumSGD.step does."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    clip = min(1.0, grad_clip / max(norm, 1e-12))
    for key, param in params.items():
        velocity[key] *= momentum
        velocity[key] -= lr * clip * grads[key]
        param += velocity[key]
    return norm, clip < 1.0


def body_forward(layers, x):
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


def body_backward(layers, cache, dfeat):
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


def head_backward(model, record, cache, dlogits, grads):
    norms, unit, s_hat, inv, g, mode = cache
    dz = dlogits / g[:, None]
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
    dunit = dz @ model.class_proj.T
    radial = np.einsum("ij,ij->i", unit, dunit)
    return dfeat + (dunit - unit * radial[:, None]) / norms[:, None]


def cross_entropy(logits, labels):
    n = logits.shape[0]
    idx = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float((lse - shifted[idx, labels]).mean())
    dlogits = softmax(logits)
    dlogits[idx, labels] -= 1.0
    return loss, dlogits / n


def loss_and_grad(model, x, labels, mu=0.0, contrastive_pairs=None):
    feats, body_cache = body_forward(model.layers, x)
    record, head_cache = head_forward(model, feats, "train")
    loss, dlogits = cross_entropy(record.logits, labels)
    grads: dict[str, np.ndarray] = {}
    dfeat = head_backward(model, record, head_cache, dlogits, grads)
    if contrastive_pairs is not None:
        adjacency = batch_adjacency(contrastive_pairs, x.shape[0])
        cl_loss, cl_grad = spectral_contrastive_loss(feats, adjacency)
        loss = loss + mu * cl_loss
        dfeat = dfeat + mu * cl_grad
    body_grads, _ = body_backward(model.layers, body_cache, dfeat)
    grads.update(body_grads)
    return loss, grads


def train(model, dataset, config):
    """rodd.encoder.train's loop; returns the model, the mean loss of each
    epoch and the clean training accuracy after the last epoch."""
    rng = np.random.default_rng(config.seed)
    params = trainable_params(model)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    losses = []
    n = dataset.n
    for epoch in range(config.epochs):
        lr = _epoch_lr(config.lr, epoch, config.epochs)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue
            xb = dataset.inputs[idx]
            yb = dataset.labels[idx]
            if config.mu > 0:
                views = augment_batch(np.vstack([xb, xb]), config.aug_gaussian_sigma, rng)
                pairs = [(i, idx.size + i) for i in range(idx.size)]
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
            step(params, velocity, grads, lr, config.momentum, encoder.GRAD_CLIP)
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
    feats, _ = body_forward(model.layers, dataset.inputs)
    record, _ = head_forward(model, feats, "eval")
    acc = float((np.argmax(record.logits, axis=1) == dataset.labels).mean())
    return model, losses, acc


def adversarial_perturb(model, x0, pairing, spec):
    if spec.epsilon == 0.0:
        return x0.copy()
    adjacency = batch_adjacency(pairing, x0.shape[0])
    x = x0.copy()
    for _ in range(spec.steps):
        feats, cache = body_forward(model.layers, x)
        _, dfeat = spectral_contrastive_loss(feats, adjacency)
        _, dx = body_backward(model.layers, cache, dfeat)
        x = x + spec.step_size * np.sign(dx)
        x = x0 + np.clip(x - x0, -spec.epsilon, spec.epsilon)
    return x


def pretrain(model, dataset, config):
    """rodd.contrastive.pretrain's loop; history holds the loss per epoch."""
    rng = np.random.default_rng(config.seed)
    body_params = {}
    for i, layer in enumerate(model.layers):
        body_params[f"layers.{i}.weight"] = layer.weight
        if layer.bias is not None:
            body_params[f"layers.{i}.bias"] = layer.bias
    velocity = {k: np.zeros_like(v) for k, v in body_params.items()}
    history = []
    n = dataset.n
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = dataset.inputs[idx]
            m = idx.size
            views = augment_batch(np.vstack([xb, xb]), config.aug_gaussian_sigma, rng)
            pairs = [(i, m + i) for i in range(m)]
            views = adversarial_perturb(model, views, pairs, config.adv)
            adjacency = batch_adjacency(pairs, 2 * m)
            feats, cache = body_forward(model.layers, views)
            loss, dfeat = spectral_contrastive_loss(feats, adjacency)
            scale = 1.0 / (2 * m)
            loss *= scale
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            grads, _ = body_backward(model.layers, cache, dfeat * scale)
            step(body_params, velocity, grads, config.lr, config.momentum, config.grad_clip)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return model, history
