"""Self-supervised pre-training of the encoder body on augmentation pairs.

The objective is the pairwise spectral term ||A - F F^T||_F^2 over a batch
adjacency built from two augmented views per source sample; an optional
projected sign-gradient perturbation of the views maximizes that same
objective within an infinity-norm budget before each update.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderModel, MomentumSGD, _body_backward, _body_forward, epoch_summary
from .errors import ContractViolation, DivergenceError
from .linalg import as_matrix


@dataclass(frozen=True)
class AugmentationSpec:
    """Stochastic input augmentation: additive noise, scale jitter, dropout."""

    gaussian_sigma: float = 0.0
    mask_fraction: float = 0.0
    scale_jitter: float = 0.0

    def __post_init__(self):
        if not all(
            math.isfinite(v)
            for v in (self.gaussian_sigma, self.mask_fraction, self.scale_jitter)
        ):
            raise ContractViolation("augmentation parameters must be finite")
        if self.gaussian_sigma < 0:
            raise ContractViolation("gaussian_sigma must be >= 0")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise ContractViolation("mask_fraction must lie in [0, 1)")
        if self.scale_jitter < 0:
            raise ContractViolation("scale_jitter must be >= 0")


@dataclass(frozen=True)
class AdversarialSpec:
    """Infinity-norm budget and schedule for the sign-gradient perturbation."""

    epsilon: float
    steps: int = 3
    step_size: float = 0.01

    def __post_init__(self):
        if self.epsilon < 0:
            raise ContractViolation("epsilon must be >= 0")
        if self.steps < 1:
            raise ContractViolation("steps must be >= 1")
        if self.step_size <= 0:
            raise ContractViolation("step_size must be > 0")
        if self.steps * self.step_size < self.epsilon:
            warnings.warn(
                "steps * step_size < epsilon: the budget cannot be reached",
                stacklevel=2,
            )


@dataclass
class PretrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 0.02
    momentum: float = 0.9
    grad_clip: float = 1.0  # global-norm cap; the objective is quartic in F
    aug: AugmentationSpec = AugmentationSpec(gaussian_sigma=0.1)
    adv: AdversarialSpec | None = None
    seed: int = 0


def augment_batch(x, spec: AugmentationSpec, rng: np.random.Generator) -> np.ndarray:
    """Independently augment each row; the all-zero spec is an exact identity.

    Each row becomes (x + gaussian_sigma * z) * (1 + U(-scale_jitter,
    scale_jitter)), then its round(mask_fraction * width) lowest-scored
    entries are set to 0 under U[0, 1) scores.  Draw order is fixed (noise,
    jitter factors, mask scores) so results only depend on the generator
    state, not on which parameters are active.
    """
    x = as_matrix(x, "x")
    out = x + spec.gaussian_sigma * rng.standard_normal(x.shape)
    out *= 1.0 + rng.uniform(-spec.scale_jitter, spec.scale_jitter, size=(x.shape[0], 1))
    scores = rng.random(x.shape)
    k = int(round(spec.mask_fraction * x.shape[1]))
    if k > 0:
        drop = np.argsort(scores, axis=1, kind="stable")[:, :k]
        np.put_along_axis(out, drop, 0.0, axis=1)
    return out


def batch_adjacency(pairing, n: int) -> np.ndarray:
    """Symmetric 0/1 adjacency with unit diagonal from positive view pairs.

    Each (i, j) marks both (i, j) and (j, i); listing the same unordered
    pair twice (or a self-pair) is a ContractViolation.
    """
    if n < 1:
        raise ContractViolation("batch size must be positive")
    a = np.eye(n)
    seen = set()
    for pair in pairing:
        i, j = (int(pair[0]), int(pair[1]))
        if not (0 <= i < n and 0 <= j < n):
            raise ContractViolation(f"pair ({i}, {j}) out of range for batch size {n}")
        if i == j:
            raise ContractViolation(f"self-pair ({i}, {i}) conflicts with the unit diagonal")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ContractViolation(f"duplicate pair {key}")
        seen.add(key)
        a[i, j] = a[j, i] = 1.0
    return a


@functools.lru_cache(maxsize=8)
def view_pair_adjacency(m: int) -> np.ndarray:
    """Read-only batch_adjacency of 2m views where view i pairs with view m + i."""
    a = batch_adjacency([(i, m + i) for i in range(m)], 2 * m)
    a.flags.writeable = False
    return a


def spectral_contrastive_loss(f, a) -> tuple[float, np.ndarray]:
    """||A - F F^T||_F^2 and its gradient -4 (A - F F^T) F with respect to F;
    unchecked: A is symmetric, with one row per row of F."""
    residual = a - f @ f.T
    return float((residual * residual).sum()), -4.0 * (residual @ f)


def _perturb(model, x0, adjacency, spec: AdversarialSpec) -> np.ndarray:
    """Projected sign-gradient ascent on the pairwise spectral objective.

    Each step moves every coordinate by +-step_size along the sign of the
    input gradient and re-projects onto the infinity-norm ball of radius
    epsilon around x0, which is left unchanged.  epsilon = 0 returns x0.
    """
    if spec.epsilon == 0.0:
        return x0
    x = x0
    for _ in range(spec.steps):
        feats, acts = _body_forward(model.layers, x, keep=True)
        _, dfeat = spectral_contrastive_loss(feats, adjacency)
        dx = _body_backward(model.layers, acts, dfeat)
        x = x + spec.step_size * np.sign(dx)
        x = x0 + np.clip(x - x0, -spec.epsilon, spec.epsilon)
    return x


def pretrain(model: EncoderModel, dataset, config: PretrainConfig):
    """Optimize the body on two augmented views per sample; head untouched.

    The per-batch objective is the spectral loss divided by the number of
    view rows (keeps the step size meaningful across batch sizes).  Returns
    (model, history); history maps each epoch_summary field ("loss" is the
    normalized value) to its per-epoch list.  Deterministic per seed.
    Raises DivergenceError with the epoch index if the features, the loss
    or the gradient norm go non-finite.
    """
    if dataset.n < 1:
        raise ContractViolation("dataset must be nonempty")
    rng = np.random.default_rng(config.seed)
    opt = MomentumSGD(model, config.momentum, config.grad_clip, body_only=True)
    history = {"loss": [], "grad_norm": [], "clip_fraction": [], "lr": []}
    n = dataset.n
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses, steps = [], []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = dataset.inputs[idx]
            m = idx.size
            views = augment_batch(np.vstack([xb, xb]), config.aug, rng)
            adjacency = view_pair_adjacency(m)
            if config.adv is not None:
                views = _perturb(model, views, adjacency, config.adv)
            feats, acts = _body_forward(model.layers, views, keep=True)
            # Overflowing features are a diverging run, not a bad input.
            if not np.isfinite(feats).all():
                raise DivergenceError(epoch, "non-finite features")
            loss, dfeat = spectral_contrastive_loss(feats, adjacency)
            scale = 1.0 / (2 * m)
            loss *= scale
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            _body_backward(model.layers, acts, dfeat * scale, opt.grads)
            steps.append(opt.step(config.lr))
            if not math.isfinite(steps[-1][0]):
                raise DivergenceError(epoch, "non-finite gradient norm")
            losses.append(loss)
        for key, value in epoch_summary(losses, steps, config.lr).items():
            history[key].append(value)
    return model, history
