"""Central finite-difference gradient checker for rodd.encoder.loss_and_grad.

The analytic gradients are hand-derived; these helpers compare them with
central differences of the cross-entropy loss, one scalar parameter at a
time, and give the analytic gradient with respect to the inputs.
Test-only: nothing in the program calls them.
"""

from __future__ import annotations

import copy

import numpy as np

from rodd.encoder import (
    EncoderModel,
    _body_backward,
    _body_forward,
    _head_backward,
    _head_forward,
    cross_entropy,
    loss_and_grad,
)
from rodd.errors import ContractViolation
from rodd.linalg import as_matrix


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


def input_gradient(model: EncoderModel, batch, dlogits=None, mode: str = "eval"):
    """Gradient of sum(logits * dlogits) with respect to the batch inputs.

    dlogits defaults to all-ones (the gradient of the summed logits).  Pure:
    running statistics are left untouched even in train mode.
    """
    x = as_matrix(batch, "batch")
    feats, acts = _body_forward(model.layers, x, keep=True)
    record, head_cache = _head_forward(model, feats, mode, update_running=False)
    if dlogits is None:
        dlogits = np.ones_like(record.logits)
    scratch = {"bn_scale": np.empty(()), "sharpen_w": np.empty_like(model.sharpen_w)}
    dfeat = _head_backward(model, record, head_cache, np.asarray(dlogits, float), scratch)
    return _body_backward(model.layers, acts, dfeat)
