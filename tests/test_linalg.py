"""SVD / symmetric eigensolver / orthonormal init, cross-checked as oracles."""

import numpy as np
import pytest

from jacobi_oracle import jacobi_svd, jacobi_sym_eig
from rodd.errors import ContractViolation, NumericFailure
from rodd.linalg import orthonormal_init, svd, sym_eig


def reconstruction_error(m, result):
    approx = result.u @ np.diag(result.sigma) @ result.v.T
    return np.abs(approx - m).max()


class TestSvd:
    def test_identity(self):
        result = svd(np.eye(2))
        assert np.allclose(result.sigma, [1.0, 1.0], atol=1e-12)

    def test_diag_with_zero(self):
        result = svd(np.diag([3.0, 0.0]))
        assert np.allclose(result.sigma, [3.0, 0.0], atol=1e-12)
        # Sign convention makes the first left vector +e1 exactly.
        assert np.allclose(result.u[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.abs(result.u.T @ result.u - np.eye(2)).max() <= 1e-8

    def test_sigma_matches_eig_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 3))
        sigma = svd(m).sigma
        lam, _ = jacobi_sym_eig(m.T @ m)
        assert np.abs(sigma**2 - lam).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(4, 4), (7, 3), (3, 7), (1, 1), (6, 2)])
    def test_reconstruction_and_orthonormality(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        m = rng.standard_normal(shape)
        result = svd(m)
        k = min(shape)
        fro = np.linalg.norm(m)
        assert np.linalg.norm(
            result.u @ np.diag(result.sigma) @ result.v.T - m
        ) <= 1e-8 * max(1.0, fro)
        assert np.abs(result.u.T @ result.u - np.eye(k)).max() <= 1e-8
        assert np.abs(result.v.T @ result.v - np.eye(k)).max() <= 1e-8
        assert np.all(np.diff(result.sigma) <= 0)
        assert np.all(result.sigma >= 0)

    def test_rank_deficient_keeps_orthonormal_u(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((6, 1))
        m = base @ rng.standard_normal((1, 4))  # rank 1, 6x4
        result = svd(m)
        assert np.abs(result.u.T @ result.u - np.eye(4)).max() <= 1e-8
        assert np.abs(result.v.T @ result.v - np.eye(4)).max() <= 1e-8
        assert reconstruction_error(m, result) <= 1e-8 * max(1.0, np.linalg.norm(m))
        assert result.sigma[1] <= 1e-10 * result.sigma[0]

    def test_zero_matrix(self):
        result = svd(np.zeros((3, 2)))
        assert np.allclose(result.sigma, 0.0)
        assert np.abs(result.u.T @ result.u - np.eye(2)).max() <= 1e-12

    def test_sigma_squared_property(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rng.standard_normal((rows, cols))
            sigma = svd(m).sigma
            lam, _ = jacobi_sym_eig(m.T @ m if rows >= cols else m @ m.T)
            assert np.abs(sigma**2 - lam).max() <= 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ContractViolation):
            svd(np.array([1.0, 2.0]))
        with pytest.raises(ContractViolation):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestSymEig:
    def test_identity(self):
        lam, _ = sym_eig(np.eye(3))
        assert np.allclose(lam, [1.0, 1.0, 1.0], atol=1e-12)

    def test_all_ones_rank_one(self):
        lam, q = sym_eig(np.ones((4, 4)))
        assert np.abs(lam - np.array([4.0, 0.0, 0.0, 0.0])).max() <= 1e-10
        assert np.abs(q[:, 0] - 0.5).max() <= 1e-10  # sign convention -> +

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((6, 6))
        s = (s + s.T) / 2
        lam, _ = sym_eig(s)
        assert abs(np.trace(s) - lam.sum()) <= 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 5, 9):
            s = rng.standard_normal((n, n))
            s = (s + s.T) / 2
            lam, q = sym_eig(s)
            fro = max(1.0, np.linalg.norm(s))
            assert np.linalg.norm(q @ np.diag(lam) @ q.T - s) <= 1e-8 * fro
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolation):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractViolation):
            sym_eig(np.zeros((2, 3)))

    def test_nonincreasing_and_sign_convention(self):
        rng = np.random.default_rng(17)
        s = rng.standard_normal((7, 7))
        lam, q = sym_eig(s + s.T)
        assert np.all(np.diff(lam) <= 0)
        rows = np.argmax(np.abs(q), axis=0)
        assert np.all(q[rows, np.arange(7)] >= 0)


def _oracle_cases():
    rng = np.random.default_rng(2024)
    cases = {
        "tall": rng.standard_normal((9, 4)),
        "wide": rng.standard_normal((3, 8)),
        "square": rng.standard_normal((6, 6)),
        "rank2": rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5)),
        "rank1_wide": rng.standard_normal((3, 1)) @ rng.standard_normal((1, 6)),
        "zero": np.zeros((4, 3)),
        "one_by_one": np.array([[-2.5]]),
    }
    for i in range(6):
        rows, cols = (int(x) for x in rng.integers(1, 10, size=2))
        cases[f"random{i}_{rows}x{cols}"] = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(
            (rows, cols)
        )
    return cases


ORACLE_CASES = _oracle_cases()


class TestLapackAgainstJacobi:
    """LAPACK (production) and pure-Python Jacobi (oracle) are independent routes."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_svd(self, name):
        m = ORACLE_CASES[name]
        fast, ref = svd(m), jacobi_svd(m)
        scale = float(ref.sigma[0]) or 1.0
        assert np.abs(fast.sigma - ref.sigma).max() <= 1e-10 * scale
        assert np.all(np.diff(fast.sigma) <= 0)
        gap = ref.sigma[0] - (ref.sigma[1] if ref.sigma.size > 1 else 0.0)
        if gap > 1e-6 * scale:
            # The first singular pair is unique up to sign, and the shared
            # sign convention fixes it.  Vector error scales as 1 / gap.
            tol = 1e-10 * scale / gap
            big = int(np.argmax(np.abs(ref.u[:, 0])))
            assert np.sign(fast.u[big, 0]) == np.sign(ref.u[big, 0]) == 1.0
            assert np.abs(fast.u[:, 0] - ref.u[:, 0]).max() <= tol
            assert np.abs(fast.v[:, 0] - ref.v[:, 0]).max() <= tol

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_sym_eig(self, name):
        m = ORACLE_CASES[name]
        grams = [m.T @ m, m @ m.T]
        if m.shape[0] == m.shape[1]:
            grams.append((m + m.T) / 2)  # indefinite
        for s in grams:
            lam, q = sym_eig(s)
            ref_lam, ref_q = jacobi_sym_eig(s)
            scale = float(np.abs(ref_lam).max()) or 1.0
            assert np.abs(lam - ref_lam).max() <= 1e-10 * scale
            assert np.all(np.diff(lam) <= 0)
            for j in range(lam.size):
                neighbours = np.delete(ref_lam, j)
                gap = np.abs(neighbours - ref_lam[j]).min() if neighbours.size else scale
                if gap <= 1e-6 * scale:
                    continue  # repeated eigenvalue: the eigenvector is not unique
                big = int(np.argmax(np.abs(ref_q[:, j])))
                assert np.sign(q[big, j]) == np.sign(ref_q[big, j]) == 1.0
                # The oracle stops on an off-diagonal mass of 1e-12 *
                # max(1, ||s||), absolute for small s; vector error ~ that / gap.
                tol = 1e-10 * max(1.0, scale) / gap
                assert np.abs(q[:, j] - ref_q[:, j]).max() <= tol


class TestLapackFailure:
    def test_svd_failure_is_numeric(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericFailure, match="svd did not converge"):
            svd(np.eye(3))

    def test_sym_eig_failure_is_numeric(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericFailure, match="sym_eig did not converge"):
            sym_eig(np.eye(3))


class TestOrthonormalInit:
    def test_one_by_one(self):
        w = orthonormal_init(1, 1, seed=3)
        assert w.shape == (1, 1)
        assert abs(abs(w[0, 0]) - 1.0) <= 1e-12

    def test_orthonormal_columns(self):
        w = orthonormal_init(8, 4, seed=0)
        assert np.abs(w.T @ w - np.eye(4)).max() <= 1e-8

    def test_deterministic(self):
        a = orthonormal_init(8, 4, seed=42)
        b = orthonormal_init(8, 4, seed=42)
        assert np.array_equal(a, b)

    def test_unit_norm_columns(self):
        for seed in range(5):
            w = orthonormal_init(10, 6, seed=seed)
            norms = np.linalg.norm(w, axis=0)
            assert np.abs(norms - 1.0).max() <= 1e-10

    def test_too_many_columns(self):
        with pytest.raises(ContractViolation):
            orthonormal_init(3, 4, seed=0)
