"""Gradient descent with doubling/backtracking step control: the test oracle
for rodd.theory.solve_joint.

solve_joint runs conjugate gradient with an exact line search.  This is the
plain first-order method it replaced, kept so the tests can check that the
faster solver never ends above it at the same iteration budget.
"""

from __future__ import annotations

import math

import numpy as np

from rodd.errors import NumericFailure
from rodd.theory import joint_loss_and_grad

BACKTRACK_CAP = 60
STEP_SLACK = 1e-12  # per-step nonincrease slack on the loss trace


def gd_solve(
    adjacency,
    f0,
    targets,
    mu: float,
    max_iters: int,
    lr: float = 0.05,
    tol: float = 1e-12,
) -> tuple[np.ndarray, list[float]]:
    """Minimize ||A - F F^T||^2 + mu ||F E - Y||^2 from f0; (F, loss trace).

    The step doubles at each iteration and halves (up to 60 times) whenever
    the candidate loss increases beyond a 1e-12 relative slack, so the loss
    trace is nonincreasing.  Stops when the relative loss change drops below
    tol or after max_iters steps; exhausting the line search raises
    NumericFailure.
    """
    f = np.array(f0, dtype=np.float64)
    loss, grad = joint_loss_and_grad(adjacency, f, targets, mu)
    trace = [loss]
    for iteration in range(max_iters):
        lr *= 2.0
        for _ in range(BACKTRACK_CAP + 1):
            cand = f - lr * grad
            cand_loss, cand_grad = joint_loss_and_grad(adjacency, cand, targets, mu)
            if math.isfinite(cand_loss) and cand_loss <= loss + STEP_SLACK * max(
                1.0, abs(loss)
            ):
                break
            lr /= 2.0
        else:
            raise NumericFailure(
                f"line search exhausted after {BACKTRACK_CAP} halvings "
                f"at iteration {iteration} (loss {loss:.6e})"
            )
        prev = loss
        f, loss, grad = cand, cand_loss, cand_grad
        trace.append(loss)
        if abs(prev - loss) <= tol * max(1.0, abs(prev)):
            break
    return f, trace
