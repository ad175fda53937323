"""Polak-Ribiere+ conjugate gradient without the gauge step: the test oracle
for rodd.theory.solve_joint.

solve_joint follows every line-search step with an exact rotation F -> FQ
on the mu-term.  This is the plain conjugate-gradient loop it grew from,
with the same exact quartic line search, nonincrease check and stop rule,
kept so the tests can check that the gauge-fixed solver never ends above it.
"""

from __future__ import annotations

import math

import numpy as np

from rodd.errors import NumericFailure
from rodd.theory import _STEP_SLACK, _quartic_argmin, joint_loss_and_grad, line_quartic


def cg_solve(
    adjacency,
    f0,
    proj,
    targets,
    mu: float,
    max_iters: int,
    tol: float = 1e-12,
) -> tuple[np.ndarray, list[float], bool]:
    """Minimize ||A - F F^T||^2 + mu ||F W - Y||^2 from f0; (F, loss trace, converged).

    Each step moves to the exact minimizer over t > 0 of the quartic the
    loss is along the search direction; the direction is -grad plus the PR+
    multiple of the previous one, restarted at -grad when it is not a
    descent direction.  A non-finite or rising loss (beyond a 1e-12
    relative slack) raises NumericFailure.  Stops when the relative loss
    change drops below tol (converged) or after max_iters steps.
    """
    a = adjacency
    f = np.array(f0, dtype=np.float64)
    loss, grad = joint_loss_and_grad(a, f, proj, targets, mu)
    grad_sq = float(np.vdot(grad, grad))
    direction = -grad
    trace = [loss]
    converged = False
    for iteration in range(max_iters):
        if not np.vdot(grad, direction) < 0.0:
            direction = -grad
        norm = math.sqrt(np.vdot(direction, direction))
        cand = f
        if 0.0 < norm < math.inf:
            unit = direction / norm
            c1, c2, c3, c4 = line_quartic(a, f, unit, proj, mu, grad)
            if c1 < 0.0:
                cand = f + _quartic_argmin(c1, c2, c3, c4) * unit
        cand_loss, cand_grad = joint_loss_and_grad(a, cand, proj, targets, mu)
        if not (
            math.isfinite(cand_loss)
            and cand_loss <= loss + _STEP_SLACK * max(1.0, abs(loss))
        ):
            raise NumericFailure(
                f"loss went from {loss:.6e} to {cand_loss:.6e} "
                f"at iteration {iteration}"
            )
        cand_sq = float(np.vdot(cand_grad, cand_grad))
        # Polak-Ribiere+: beta = max(0, <g', g' - g> / <g, g>).
        beta = (cand_sq - np.vdot(cand_grad, grad)) / grad_sq if grad_sq > 0.0 else 0.0
        direction = max(beta, 0.0) * direction - cand_grad
        prev = loss
        f, loss, grad, grad_sq = cand, cand_loss, cand_grad, cand_sq
        trace.append(loss)
        if abs(prev - loss) <= tol * max(1.0, abs(prev)):
            converged = True
            break
    return f, trace, converged
