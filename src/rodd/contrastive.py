"""Self-supervised pre-training of the encoder body on augmentation pairs.

The objective is the pairwise spectral term ||A - F F^T||_F^2 over the batch
adjacency A that pairs the two augmented views of each source sample
(batch_adjacency).  Before each update, a projected sign-gradient
perturbation of the views maximizes that same objective within an
infinity-norm budget; a budget of 0 leaves the views as drawn.  Each update's
gradient is capped at global norm GRAD_CLIP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderModel, MomentumSGD, _body_backward, _body_forward, run_epochs
from .errors import ContractViolation, DivergenceError
from .linalg import as_matrix

# Pre-training's global-norm gradient cap; the objective is quartic in F.
# pretrain reads it when called.
GRAD_CLIP = 1.0


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
            raise ContractViolation(
                "steps * step_size must reach epsilon, "
                f"got {self.steps} * {self.step_size} < {self.epsilon}"
            )


@dataclass
class PretrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 0.02
    momentum: float = 0.9
    aug_gaussian_sigma: float = 0.1
    adv: AdversarialSpec = AdversarialSpec(0.0)
    seed: int = 0


def augment_batch(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Each row plus independent gaussian noise of standard deviation sigma;
    sigma 0 is an exact identity.  After the noise the generator skips one
    64-bit word per row and one per entry.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ContractViolation(f"augmentation sigma must be finite and >= 0, got {sigma}")
    x = as_matrix(x, "x")
    out = rng.standard_normal(x.shape)
    out *= sigma
    out += x
    # The skipped words are those the retired scale jitter and mask drew, so
    # every later draw and checkpoint byte stays as it was.  Dropping the
    # skip moves them, and falls under ROADMAP item 4's fingerprint gate.
    rows, width = x.shape
    rng.bit_generator.random_raw(rows * (width + 1), output=False)
    return out


def batch_adjacency(m: int) -> np.ndarray:
    """Symmetric 0/1 adjacency of 2m views with unit diagonal, where view i
    pairs with view m + i."""
    a = np.eye(2 * m)
    i = np.arange(m)
    a[i, m + i] = a[m + i, i] = 1.0
    return a


@functools.lru_cache(maxsize=8)
def view_pair_adjacency(m: int) -> np.ndarray:
    """Read-only batch_adjacency(m), built once per m."""
    a = batch_adjacency(m)
    a.flags.writeable = False
    return a


def view_pairs(xb, sigma: float, rng: np.random.Generator):
    """Two augmented views of each row of xb, the first views stacked above
    the second, and the cached adjacency that pairs them."""
    return augment_batch(np.vstack([xb, xb]), sigma, rng), view_pair_adjacency(len(xb))


def spectral_contrastive_loss(f, a) -> tuple[float, np.ndarray]:
    """||A - F F^T||_F^2 and its gradient -4 (A - F F^T) F with respect to F;
    unchecked: A is symmetric, with one row per row of F."""
    residual = f @ f.T
    np.subtract(a, residual, out=residual)
    grad = residual @ f
    grad *= -4.0
    residual *= residual
    return float(residual.sum()), grad


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
    view rows (keeps the step size meaningful across batch sizes), and a
    one-row tail batch is trained on.  Returns (model, history), history
    holding encoder.run_epochs' entry per epoch ("loss" is the normalized
    value).  Deterministic per seed.  Raises DivergenceError with the epoch
    index if the features, the loss or the gradient norm go non-finite.
    """
    rng = np.random.default_rng(config.seed)
    opt = MomentumSGD(model, config.momentum, GRAD_CLIP, body_only=True)

    def batch_loss(epoch, idx):
        views, adjacency = view_pairs(dataset.inputs[idx], config.aug_gaussian_sigma, rng)
        views = _perturb(model, views, adjacency, config.adv)
        feats, acts = _body_forward(model.layers, views, keep=True)
        # Overflowing features are a diverging run, not a bad input.
        if not np.isfinite(feats).all():
            raise DivergenceError(epoch, "non-finite features")
        loss, dfeat = spectral_contrastive_loss(feats, adjacency)
        scale = 1.0 / len(views)
        loss *= scale
        if math.isfinite(loss):
            dfeat *= scale
            _body_backward(model.layers, acts, dfeat, opt.grads)
        return loss

    lrs = [config.lr] * config.epochs
    return model, list(run_epochs(opt, dataset.n, config.batch_size, lrs, rng, batch_loss))
