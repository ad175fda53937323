"""Dense real linear algebra: SVD, symmetric eigendecomposition, orthonormal init.

Everything operates on 2-D float64 numpy arrays and is a pure function of its
inputs.  The two factorizations are thin wrappers over LAPACK
(``np.linalg.svd`` and ``np.linalg.eigh``) that add input checks, a
nonincreasing order and a deterministic sign convention; singular_values
is the SVD's values-only call, for callers that read no singular vector.
The tests keep a pure-Python Jacobi implementation of both as an
independent oracle (``tests/jacobi_oracle.py``) and cross-check LAPACK
against it.

Results are bit-identical across reruns on the same machine and BLAS build;
a different LAPACK may differ in the last digits, so byte-identical reports
are promised only there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericFailure


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD M = u @ diag(sigma) @ v.T with orthonormal u, v columns."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(m) -> SvdResult:
    """Thin singular value decomposition (LAPACK).

    Singular values come out nonincreasing.  Deterministic sign convention:
    the largest-magnitude entry of each left singular vector is made
    nonnegative (the paired right vector is flipped with it).

    Raises NumericFailure if LAPACK does not converge.
    """
    u, sigma, vt = _lapack_svd(m, compute_uv=True)
    flip = _flip_signs(u)
    return SvdResult(u * flip, sigma, vt.T * flip)


def singular_values(m) -> np.ndarray:
    """svd(m).sigma without the singular vectors (LAPACK, values only).

    Nonincreasing, with svd's input checks and failure mapping.  A
    values-only bidiagonal SVD keeps high relative accuracy (Demmel and
    Kahan, 1990), but takes another path than svd, so the two may differ in
    the last digits.
    """
    return _lapack_svd(m, compute_uv=False)


def _lapack_svd(m, compute_uv: bool):
    a = as_matrix(m, "m")
    if min(a.shape) < 1:
        raise ContractViolation(f"m must have at least one row and column, got {a.shape}")
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"svd did not converge: {exc}") from exc


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK).

    Returns (eigenvalues, q) with eigenvalues sorted nonincreasing and q
    holding the matching orthonormal eigenvectors as columns, so that
    s = q @ diag(eigenvalues) @ q.T.  Each eigenvector's largest-magnitude
    entry is made nonnegative.

    Input must be square and symmetric within 1e-10 (ContractViolation
    otherwise); a LAPACK convergence failure raises NumericFailure.
    """
    a = as_matrix(s, "s")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"s must be square, got shape {a.shape}")
    if n and float(np.abs(a - a.T).max()) > 1e-10:
        raise ContractViolation("s is not symmetric within 1e-10")
    try:
        lam, q = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"sym_eig did not converge: {exc}") from exc
    # eigh returns ascending eigenvalues; reverse to nonincreasing.
    lam, q = lam[::-1].copy(), q[:, ::-1]
    return lam, q * _flip_signs(q)


def _flip_signs(cols: np.ndarray) -> np.ndarray:
    # +1/-1 per column, making each column's largest-magnitude entry
    # (first one on ties) nonnegative.
    if cols.shape[0] == 0:
        return np.ones(cols.shape[1])
    rows = np.argmax(np.abs(cols), axis=0)
    return np.where(cols[rows, np.arange(cols.shape[1])] < 0.0, -1.0, 1.0)


def orthonormal_init(d: int, n_cols: int, seed: int) -> np.ndarray:
    """Seeded d x n_cols matrix with orthonormal columns.

    Standard normal draws orthonormalized by modified Gram-Schmidt (two
    passes).  Deterministic: the same (d, n_cols, seed) always returns a
    bit-identical array.  n_cols > d is a ContractViolation.
    """
    if d < 1 or n_cols < 1:
        raise ContractViolation(f"dimensions must be positive, got ({d}, {n_cols})")
    if n_cols > d:
        raise ContractViolation(
            f"cannot build {n_cols} orthonormal columns in dimension {d}"
        )
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, n_cols))
    for _pass in range(2):
        for j in range(n_cols):
            col = w[:, j]
            for i in range(j):
                col = col - (w[:, i] @ col) * w[:, i]
            nrm = float(np.linalg.norm(col))
            if nrm < 1e-12:
                raise NumericFailure("degenerate random draw during orthonormalization")
            w[:, j] = col / nrm
    return w
