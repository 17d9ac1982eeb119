"""Matrix primitive tests: pseudoinverse identities, SPD inverses,
symmetrization, and the PSD projection."""

import numpy as np
import pytest

from sensel import linalg
from sensel.errors import InvalidMatrix, NotPositiveDefinite

from conftest import rand_spd


class TestPinv:
    def test_diagonal_with_zero(self):
        """A zero diagonal entry pseudoinverts to zero."""
        out = linalg.pinv(np.diag([2.0, 0.0]))
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


class TestInvSpd:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.inv_spd(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(linalg.inv_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual(self, rng):
        a = rand_spd(5, rng)
        inv = linalg.inv_spd(a)
        assert np.array_equal(inv, inv.T)
        assert np.linalg.norm(a @ inv - np.eye(5)) < 1e-10

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.inv_spd(np.diag([1.0, -1.0]))

    def test_equals_symmetrized_solve(self, rng):
        """One check and one factorization: the inverse is the symmetrized
        solve of the symmetrized input against the identity, bit for bit."""
        for _ in range(20):
            size = int(rng.integers(1, 7))
            a = rand_spd(size, rng) + 1e-9 * rng.normal(size=(size, size))  # off-symmetric in the last digits
            expected = linalg.symmetrize(np.linalg.solve(linalg.symmetrize(a), np.eye(size)))
            assert np.array_equal(linalg.inv_spd(a), expected)

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], [1.0, 2.0], [[np.nan]], np.eye(2)[None]])
    def test_rejects_non_square_and_non_finite(self, bad):
        with pytest.raises(InvalidMatrix):
            linalg.inv_spd(np.array(bad))


class TestSymmetrize:
    def test_stack(self, rng):
        a = rng.normal(size=(3, 2, 2))
        out = linalg.symmetrize(a)
        assert np.array_equal(out, np.swapaxes(out, -1, -2))
        np.testing.assert_allclose(out[1], 0.5 * (a[1] + a[1].T))

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2), (4, 1, 2), (3,)])
    def test_non_square_rejected(self, shape):
        """A non-square input is refused, not broadcast against its
        transpose (which turns a 1x2 matrix into a 2x2 one)."""
        with pytest.raises(InvalidMatrix, match="R0 must be square"):
            linalg.symmetrize(np.ones(shape), "R0")
