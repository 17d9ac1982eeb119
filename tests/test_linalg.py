"""Matrix primitive tests: pseudoinverse identities, block inversion,
SPD solves, and the PSD-tolerant Cholesky."""

import numpy as np
import pytest

from sensel import linalg
from sensel.errors import InvalidMatrix, NotPSD, NotPositiveDefinite

from conftest import rand_spd


class TestPinv:
    def test_diagonal_with_zero(self):
        """A zero diagonal entry pseudoinverts to zero."""
        out = linalg.pinv(np.diag([2.0, 0.0]), tol=1e-12)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(linalg.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_full_column_rank_left_inverse(self, rng):
        a = rng.normal(size=(4, 2))
        plus = linalg.pinv(a)
        np.testing.assert_allclose(plus @ a, np.eye(2), atol=1e-10)

    def test_penrose_conditions(self, rng):
        """All four defining identities hold on random matrices of any rank."""
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            a = rng.normal(size=(rows, cols))
            if rng.random() < 0.4:  # force rank deficiency
                rank = int(rng.integers(0, min(rows, cols)))
                u, s, vt = np.linalg.svd(a, full_matrices=False)
                s[rank:] = 0.0
                a = (u * s) @ vt
            plus = linalg.pinv(a)
            tol = 1e-8 * (1.0 + np.linalg.norm(a))
            np.testing.assert_allclose(a @ plus @ a, a, atol=tol)
            np.testing.assert_allclose(plus @ a @ plus, plus, atol=tol)
            np.testing.assert_allclose(a @ plus, (a @ plus).T, atol=tol)
            np.testing.assert_allclose(plus @ a, (plus @ a).T, atol=tol)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            linalg.pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidMatrix):
            linalg.pinv(np.eye(2), tol=0.0)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([[3.0], [4.0]])
        np.testing.assert_allclose(linalg.solve_spd(np.eye(2), b), b)

    def test_diagonal(self):
        out = linalg.solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        np.testing.assert_allclose(out, np.array([[1.0], [2.0]]))

    def test_residual(self, rng):
        a = rand_spd(5, rng)
        b = rng.normal(size=(5, 3))
        x = linalg.solve_spd(a, b)
        resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert resid < 1e-10

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.solve_spd(np.diag([1.0, -1.0]), np.ones((2, 1)))


class TestCholesky:
    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(linalg.cholesky(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_tracking_process_noise(self):
        """The unit-interval process-noise blocks factor and reconstruct."""
        block = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
        q = np.zeros((4, 4))
        q[:2, :2] = block
        q[2:, 2:] = block
        low = linalg.cholesky(q)
        np.testing.assert_allclose(low @ low.T, q, atol=1e-10)
        assert np.allclose(low, np.tril(low))

    def test_reconstruction_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rand_spd(n, rng, ridge=0.1)
            low = linalg.cholesky(a)
            err = np.linalg.norm(low @ low.T - a) / np.linalg.norm(a)
            assert err < 1e-10

    def test_singular_psd(self, rng):
        """Rank-deficient PSD matrices factor with zeroed null columns."""
        for _ in range(25):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n))
            b = rng.normal(size=(n, rank))
            a = b @ b.T
            low = linalg.cholesky(a)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(low @ low.T - a).max() < 1e-8 * scale
            assert np.allclose(low, np.tril(low))

    def test_indefinite_raises(self):
        with pytest.raises(NotPSD):
            linalg.cholesky(np.diag([1.0, -1.0]))


class TestPsdProject:
    def test_clips_slightly_negative(self):
        a = np.diag([1.0, -1e-10])
        out = linalg.psd_project(a)
        assert linalg.min_eigenvalue(out) >= 0.0

    def test_rejects_clearly_indefinite(self):
        with pytest.raises(NotPSD):
            linalg.psd_project(np.diag([1.0, -0.5]))
