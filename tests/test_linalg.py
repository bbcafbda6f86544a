"""Small linear algebra: norms, symmetric input, inverse square root,
whitening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinlab.errors import DimensionMismatch, NotPositiveDefinite
from steinlab.linalg import inverse_sqrt, max_abs_norm, symmetrize, whiten


class TestMaxAbsNorm:
    def test_vector(self):
        assert max_abs_norm([1.0, -3.0, 2.0]) == 3.0

    def test_zero_vector(self):
        assert max_abs_norm(np.zeros(4)) == 0.0

    def test_matrix(self):
        assert max_abs_norm([[1.0, -5.0], [2.0, 3.0]]) == 5.0


class TestSymmetrize:
    def test_rejects_asymmetric(self):
        """numpy's eigh would read one triangle and ignore the other."""
        with pytest.raises(DimensionMismatch):
            inverse_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetrize_averages_roundoff(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
        out = symmetrize(a)
        assert out[0, 1] == out[1, 0]


class TestInverseSqrt:
    def test_scalar_matrix(self):
        np.testing.assert_allclose(inverse_sqrt(4.0 * np.eye(2)),
                                   0.5 * np.eye(2), atol=1e-12)

    def test_diagonal(self):
        # hand eigendecomposition: diag entries are the eigenvalues
        out = inverse_sqrt(np.diag([2.0, 8.0]))
        np.testing.assert_allclose(out, np.diag([2.0**-0.5, 8.0**-0.5]),
                                   atol=1e-12)

    def test_indefinite_raises(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            inverse_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_near_singular_raises(self):
        with pytest.raises(NotPositiveDefinite):
            inverse_sqrt(np.array([[1.0, 0.0], [0.0, 1e-13]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_roundtrip_random_pd(self, dim, seed):
        """M Sigma M = I within 1e-8 for condition numbers up to 1e6."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        vals = np.exp(rng.uniform(0.0, np.log(1e6), size=dim))
        sigma = (q * vals) @ q.T
        sigma = 0.5 * (sigma + sigma.T)
        m = inverse_sqrt(sigma)
        np.testing.assert_allclose(m @ sigma @ m, np.eye(dim), atol=1e-8)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(m) > 0)


class TestWhiten:
    def test_identity_map(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(whiten(x, np.zeros(2), np.eye(2)), x)

    def test_center_hits_zero(self):
        lam = np.array([2.0, -1.0])
        np.testing.assert_array_equal(whiten(lam[None, :], lam, np.eye(2)),
                                      np.zeros((1, 2)))

    def test_arithmetic(self):
        out = whiten(np.array([[3.0, 1.0]]), np.array([1.0, 1.0]),
                     0.5 * np.eye(2))
        np.testing.assert_allclose(out, np.array([[1.0, 0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            whiten(np.ones((3, 2)), np.ones(3), np.eye(2))

    def test_statistical_standardization(self):
        """Whitened Gaussian samples have mean ~ 0 and covariance ~ I."""
        rng = np.random.default_rng(7)
        dim, m = 3, 200_000
        a = rng.standard_normal((dim, dim))
        sigma = a @ a.T + np.eye(dim)
        lam = rng.standard_normal(dim)
        chol = np.linalg.cholesky(sigma)
        samples = lam + rng.standard_normal((m, dim)) @ chol.T
        out = whiten(samples, lam, inverse_sqrt(sigma))
        # 4-sigma bands: mean entries ~ N(0, 1/m), cov entries ~ O(1/sqrt(m))
        assert np.all(np.abs(out.mean(axis=0)) < 4.0 / np.sqrt(m))
        cov = np.cov(out.T)
        assert np.all(np.abs(cov - np.eye(dim)) < 4.0 * np.sqrt(2.0 / m))
