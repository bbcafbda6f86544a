"""Bound evaluators against hand-expanded arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinlab.bounds import (CouplingStats, LocalDepStats,
                             bound_multivariate_local,
                             bound_multivariate_size_bias,
                             bound_univariate_local,
                             bound_univariate_size_bias, floor_mean_sq_diff,
                             isqrt_norm_bound_check)
from steinlab.errors import NonfiniteNorm
from steinlab.linalg import inverse_sqrt, max_abs_norm


def _uni_stats(var_cond=0.04, msd=0.1, lam=1.0, sigma_sq=1.0):
    """p = 1 statistics: E|dW dW| is the mean square difference."""
    return CouplingStats(lam=np.array([lam]), sigma=np.array([[sigma_sq]]),
                         var_cond=np.array([[var_cond]]),
                         abs_cross=np.array([[[msd]]]))


class TestUnivariateSizeBias:
    def test_zero_statistics_zero_bound(self):
        rep = bound_univariate_size_bias(_uni_stats(0.0, 0.0), 1.0, 1.0)
        assert rep.total == 0.0

    def test_worked_arithmetic(self):
        """2 * 1 * sqrt(0.04) + 1 * 0.1 = 0.5."""
        rep = bound_univariate_size_bias(_uni_stats(), 1.0, 1.0)
        np.testing.assert_allclose(rep.total, 0.5, rtol=1e-15)

    def test_linear_in_sup_norm(self):
        one = bound_univariate_size_bias(_uni_stats(msd=0.0), 1.0, 0.0)
        two = bound_univariate_size_bias(_uni_stats(msd=0.0), 2.0, 0.0)
        np.testing.assert_allclose(two.total, 2.0 * one.total, rtol=1e-15)

    def test_nonfinite_norm_rejected(self):
        with pytest.raises(NonfiniteNorm):
            bound_univariate_size_bias(_uni_stats(), np.inf, 1.0)

    def test_vector_statistics_rejected(self):
        with pytest.raises(ValueError, match="needs p = 1, got p = 2"):
            bound_univariate_size_bias(_mv_stats(p=2), 1.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 2.0),
           st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_matches_independent_expansion(self, lam, sigma_sq, var_cond,
                                           msd, h_norm, dh_norm):
        rep = bound_univariate_size_bias(
            _uni_stats(var_cond, msd, lam, sigma_sq), h_norm, dh_norm)
        sigma = sigma_sq**0.5
        by_hand = (2 * h_norm * lam / sigma_sq * var_cond**0.5
                   + dh_norm * lam / sigma**3 * msd)
        np.testing.assert_allclose(rep.total, by_hand, rtol=1e-12)


class TestMeanSqDiffFloor:
    def test_below_floor_estimate_raised(self):
        """At lam = 1 and sigma^2 = 2, E (W* - W)^2 >= (sigma^2 / lam)^2 = 4:
        an estimate of 0.1 is raised to 4 with stderr 0, and the raw stats
        are left alone."""
        stats = CouplingStats(lam=np.array([1.0]), sigma=np.array([[2.0]]),
                              var_cond=np.array([[0.04]]),
                              abs_cross=np.array([[[0.1]]]),
                              abs_cross_sem=np.array([[[0.05]]]))
        floored = floor_mean_sq_diff(stats)
        assert floored.abs_cross[0, 0, 0] == 4.0
        assert floored.abs_cross_sem[0, 0, 0] == 0.0
        assert stats.abs_cross[0, 0, 0] == 0.1
        term = bound_univariate_size_bias(floored, 1.0, 1.0).terms[1]
        np.testing.assert_allclose(term.value, 4.0 / 2.0**1.5, rtol=1e-15)
        assert term.stderr == 0.0

    def test_estimate_above_floor_kept(self):
        stats = _uni_stats(msd=1.5)
        assert floor_mean_sq_diff(stats) is stats


def _size_bias(stats, d2h_norm, d3h_norm):
    """The multivariate size-bias bound at the whitening of ``stats.sigma``."""
    return bound_multivariate_size_bias(stats, inverse_sqrt(stats.sigma),
                                        d2h_norm, d3h_norm)


def _local(stats, sigma, dh_norm, d2h_norm, d3h_norm):
    """The multivariate local bound at the whitening of ``sigma``."""
    return bound_multivariate_local(stats, inverse_sqrt(sigma),
                                    dh_norm, d2h_norm, d3h_norm)


def _mv_stats(p=2, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    sigma = a @ a.T + p * np.eye(p)
    return CouplingStats(
        lam=rng.uniform(0.5, 3.0, p), sigma=sigma,
        var_cond=rng.uniform(0.0, 0.5, (p, p)),
        abs_cross=rng.uniform(0.0, 0.5, (p, p, p)),
    )


class TestMultivariateSizeBias:
    def test_zero_statistics(self):
        stats = _mv_stats()
        stats.var_cond *= 0.0
        stats.abs_cross *= 0.0
        assert _size_bias(stats, 1.0, 1.0).total == 0.0

    def test_p1_worked_arithmetic(self):
        """0.5 * 2 * 0.2 + (1/6) * 6 * 0.1 = 0.3 at unit whitening norm."""
        stats = CouplingStats(
            lam=np.array([1.0]), sigma=np.array([[1.0]]),
            var_cond=np.array([[0.04]]), abs_cross=np.array([[[0.1]]]))
        rep = _size_bias(stats, 2.0, 6.0)
        np.testing.assert_allclose(rep.total, 0.3, rtol=1e-14)

    def test_p1_exact_formula(self):
        stats = CouplingStats(
            lam=np.array([1.7]), sigma=np.array([[2.5]]),
            var_cond=np.array([[0.09]]), abs_cross=np.array([[[0.4]]]))
        rep = _size_bias(stats, 1.3, 0.7)
        snorm = 1.0 / np.sqrt(2.5)
        expected = (0.5 * snorm**2 * 1.3 * 1.7 * 0.3
                    + (1.0 / 6.0) * snorm**3 * 0.7 * 1.7 * 0.4)
        np.testing.assert_allclose(rep.total, expected, rtol=1e-12)

    def test_homogeneity_in_whitening_norm(self):
        """Scaling Sigma by 1/t^2 scales term1 by t^2 and term2 by t^3."""
        stats = _mv_stats(seed=3)
        base = _size_bias(stats, 1.0, 1.0)
        t = 1.7
        scaled = CouplingStats(
            lam=stats.lam, sigma=stats.sigma / t**2,
            var_cond=stats.var_cond, abs_cross=stats.abs_cross)
        rep = _size_bias(scaled, 1.0, 1.0)
        np.testing.assert_allclose(rep.terms[0].value,
                                   t**2 * base.terms[0].value, rtol=1e-9)
        np.testing.assert_allclose(rep.terms[1].value,
                                   t**3 * base.terms[1].value, rtol=1e-9)

    def test_matches_loop_expansion(self):
        stats = _mv_stats(p=3, seed=5)
        d2, d3 = 0.8, 1.4
        rep = _size_bias(stats, d2, d3)
        snorm = max_abs_norm(inverse_sqrt(stats.sigma))
        p = stats.p
        term1 = 0.0
        for i in range(p):
            for j in range(p):
                term1 += stats.lam[i] * np.sqrt(stats.var_cond[i, j])
        term1 *= 0.5 * p**2 * snorm**2 * d2
        term2 = 0.0
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    term2 += stats.lam[i] * stats.abs_cross[i, j, k]
        term2 *= (p**3 / 6.0) * snorm**3 * d3
        np.testing.assert_allclose(rep.total, term1 + term2, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100), st.integers(0, 3), st.floats(0.01, 1.0))
    def test_monotone_in_every_statistic(self, seed, which, bump):
        stats = _mv_stats(p=2, seed=seed)
        base = _size_bias(stats, 1.0, 1.0).total
        if which == 0:
            stats.var_cond[0, 1] += bump
        elif which == 1:
            stats.abs_cross[1, 0, 1] += bump
        elif which == 2:
            stats.lam[0] += bump
        else:
            stats = CouplingStats(
                lam=stats.lam, sigma=stats.sigma,
                var_cond=stats.var_cond, abs_cross=stats.abs_cross)
        bumped = _size_bias(stats, 1.0, 1.0).total
        assert bumped >= base - 1e-12


class TestUnivariateLocal:
    def test_zero_terms(self):
        assert bound_univariate_local(1.0, 0.0, 0.0, 0.0, 1.0, 1.0).total == 0.0

    def test_worked_arithmetic(self):
        """2*0.3 + sqrt(pi/2)*0.1 + 0.2 at unit sigma and norms."""
        rep = bound_univariate_local(1.0, 0.3, 0.1, 0.2, 1.0, 1.0)
        expected = 0.6 + np.sqrt(np.pi / 2.0) * 0.1 + 0.2
        np.testing.assert_allclose(rep.total, expected, rtol=1e-15)
        assert abs(rep.total - 0.92533) < 1e-4

    def test_middle_term_zero_under_independence(self):
        rep = bound_univariate_local(2.0, 0.5, 0.0, 0.4, 1.0, 1.0)
        assert rep.terms[1].value == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_matches_independent_expansion(self, sigma_sq, t1, t2, t3,
                                           h_norm, dh_norm):
        rep = bound_univariate_local(sigma_sq, t1, t2, t3, h_norm, dh_norm)
        sigma = sigma_sq**0.5
        by_hand = (2 * h_norm / sigma_sq * t1
                   + np.sqrt(np.pi / 2) * h_norm / sigma * t2
                   + dh_norm / sigma**3 * t3)
        np.testing.assert_allclose(rep.total, by_hand, rtol=1e-12)


class TestMultivariateLocal:
    def _stats(self, t1=0.3, t2=0.1, t3=0.4):
        return LocalDepStats(p=1, t1=np.array([[t1]]), t2=t2,
                             t3=np.array([[[t3]]]))

    def test_zero_terms(self):
        rep = _local(self._stats(t1=0.0, t2=0.0, t3=0.0), np.array([[2.0]]),
                     1.0, 1.0, 1.0)
        assert rep.total == 0.0

    def test_p1_term_shapes_match_univariate(self):
        """Same statistics, same sigma powers; only the norm conventions
        and constants differ between the p = 1 and univariate forms."""
        sigma_sq, t1, t2, t3 = 2.0, 0.3, 0.1, 0.4
        mv = _local(self._stats(t1, t2, t3), np.array([[sigma_sq]]),
                    1.0, 1.0, 1.0)
        uv = bound_univariate_local(sigma_sq, t1, t2, t3, 1.0, 1.0)
        np.testing.assert_allclose(mv.terms[0].value / uv.terms[0].value,
                                   0.25, rtol=1e-12)
        np.testing.assert_allclose(mv.terms[1].value / uv.terms[1].value,
                                   1.0 / np.sqrt(np.pi / 2.0), rtol=1e-12)
        np.testing.assert_allclose(mv.terms[2].value / uv.terms[2].value,
                                   1.0 / 6.0, rtol=1e-12)

    def test_matches_loop_expansion(self):
        rng = np.random.default_rng(9)
        p = 3
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + p * np.eye(p)
        stats = LocalDepStats(p=p, t1=rng.uniform(0, 1, (p, p)),
                              t2=float(rng.uniform(0, 1)),
                              t3=rng.uniform(0, 1, (p, p, p)))
        d1, d2, d3 = 0.5, 1.1, 0.9
        rep = _local(stats, sigma, d1, d2, d3)
        snorm = max_abs_norm(inverse_sqrt(sigma))
        expected = (0.5 * p**2 * snorm**2 * d2 * stats.t1.sum()
                    + p * snorm * d1 * stats.t2
                    + (p**3 / 6.0) * snorm**3 * d3 * stats.t3.sum())
        np.testing.assert_allclose(rep.total, expected, rtol=1e-12)


class TestIsqrtNormBound:
    def test_cap_and_flag(self):
        """cap = sqrt(B / count) = sqrt(8 / 2) = 2: a max entry of 2 holds
        and one of 2.001 is flagged."""
        at_cap = isqrt_norm_bound_check(np.diag([2.0, -1.0]), 8.0, 2)
        assert at_cap == {"B": 8.0, "cap": 2.0, "holds": True}
        assert not isqrt_norm_bound_check(np.diag([1.0, -2.001]), 8.0,
                                          2)["holds"]

    def test_infinite_b_always_holds(self):
        check = isqrt_norm_bound_check(np.eye(2), float("inf"), 10)
        assert check["cap"] == float("inf") and check["holds"]
