"""Pure-Python Jacobi SVD and symmetric eigensolver: the test oracle for rodd.linalg.

rodd.linalg calls LAPACK.  These routines compute the same factorizations
by an independent route (one-sided Jacobi on the matrix columns for the SVD,
classical two-sided Jacobi for the symmetric eigenproblem) and follow the
same output conventions: values nonincreasing, and the largest-magnitude
entry of each left singular vector / eigenvector nonnegative.
"""

from __future__ import annotations

import math

import numpy as np

from rodd.errors import ContractViolation, NumericFailure
from rodd.linalg import SvdResult, as_matrix

# Jacobi sweeps stop when the off-diagonal mass falls below this tolerance
# (relative to max(1, Frobenius norm)); the sweep budget is 100 * min(dims).
JACOBI_TOL = 1e-12
SWEEP_CAP_FACTOR = 100


def jacobi_svd(m) -> SvdResult:
    """Thin SVD by one-sided Jacobi rotations.

    Columns of the working matrix are rotated pairwise until mutually
    orthogonal; their norms are the singular values.  Raises NumericFailure
    if the sweeps do not converge within the cap.
    """
    a = as_matrix(m, "m")
    if min(a.shape) < 1:
        raise ContractViolation(f"m must have at least one row and column, got {a.shape}")
    transpose = a.shape[0] < a.shape[1]
    work = a.T.copy() if transpose else a.copy()
    u, sigma, v = _one_sided_jacobi(work)
    if transpose:
        u, v = v, u
    u, v = _fix_signs_paired(u, v)
    return SvdResult(u, sigma, v)


def _one_sided_jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # a has shape (m, n) with m >= n; returns thin (u, sigma, v).
    m, n = a.shape
    v = np.eye(n)
    cap = SWEEP_CAP_FACTOR * n
    residual = 0.0
    for _sweep in range(cap):
        rotated = False
        residual = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                apq = float(a[:, p] @ a[:, q])
                denom = math.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= JACOBI_TOL * denom:
                    continue
                residual = max(residual, abs(apq) / denom)
                rotated = True
                # Rotation zeroing the (p, q) entry of the column Gram matrix.
                tau = (aqq - app) / (2.0 * apq)
                t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, -s], [s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
        if not rotated:
            break
    else:
        raise NumericFailure(
            f"svd did not converge within {cap} sweeps; "
            f"off-diagonal residual {residual:.3e}"
        )
    sigma = np.sqrt(np.einsum("ij,ij->j", a, a))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    # Norm floor below which a column is treated as a zero singular value.
    floor = max(sigma[0], 1.0) * 1e-13 if n else 0.0
    filled = []
    for j in range(n):
        if sigma[j] > floor:
            u[:, j] = a[:, j] / sigma[j]
        else:
            sigma[j] = 0.0
            filled.append(j)
    for j in filled:
        u[:, j] = _orthonormal_fill(u, j)
    return u, sigma, v


def _orthonormal_fill(u: np.ndarray, col: int) -> np.ndarray:
    # Deterministic unit vector orthogonal to every other populated column.
    m = u.shape[0]
    for k in range(m):
        cand = np.zeros(m)
        cand[k] = 1.0
        for j in range(u.shape[1]):
            if j == col:
                continue
            cand -= (u[:, j] @ cand) * u[:, j]
        nrm = float(np.linalg.norm(cand))
        if nrm > 0.5:
            return cand / nrm
    raise NumericFailure("failed to complete an orthonormal basis")


def _fix_signs_paired(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = u.copy()
    v = v.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


def jacobi_sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues nonincreasing, q with eigenvectors as columns).
    Convergence is on the off-diagonal Frobenius mass relative to
    max(1, ||s||_F).
    """
    a = as_matrix(s, "s")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"s must be square, got shape {a.shape}")
    if n and float(np.abs(a - a.T).max()) > 1e-10:
        raise ContractViolation("s is not symmetric within 1e-10")
    a = (a + a.T) / 2.0
    q = np.eye(n)
    tol = JACOBI_TOL * max(1.0, float(np.linalg.norm(a)))
    skip = tol / max(1, n * n)
    cap = SWEEP_CAP_FACTOR * max(1, n)
    off = _off_mass(a)
    for _sweep in range(cap):
        if off <= tol:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = float(a[p, r])
                if abs(apr) <= skip:
                    continue
                tau = (a[r, r] - a[p, p]) / (2.0 * apr)
                t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                sgn = t * c
                rot = np.array([[c, -sgn], [sgn, c]])
                a[:, [p, r]] = a[:, [p, r]] @ rot
                a[[p, r], :] = rot.T @ a[[p, r], :]
                a[p, r] = a[r, p] = 0.0
                q[:, [p, r]] = q[:, [p, r]] @ rot
        off = _off_mass(a)
    else:
        raise NumericFailure(
            f"sym_eig did not converge within {cap} sweeps; "
            f"off-diagonal mass {off:.3e}"
        )
    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    q = q[:, order]
    for j in range(n):
        i = int(np.argmax(np.abs(q[:, j])))
        if q[i, j] < 0.0:
            q[:, j] = -q[:, j]
    return lam, q


def _off_mass(a: np.ndarray) -> float:
    d = a - np.diag(np.diag(a))
    return float(np.linalg.norm(d))
