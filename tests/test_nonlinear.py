"""Nonlinear sums: tilted marginals, both couplers, exact moments."""

import tracemalloc
from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

import oracles
from steinlab import harness, testfuncs
from steinlab import nonlinear as nl
from steinlab.bounds import (CouplingStats, bound_univariate_size_bias,
                             floor_mean_sq_diff)
from steinlab.errors import InfeasibleAdjustment, NotPositiveDefinite
from steinlab.experiment import run_experiment
from steinlab.harness import StreamConfig
from steinlab.sizebias import DiscreteDistribution, verify_characterization
from steinlab.testfuncs import SmoothTestFunction


def assert_matches_oracle(coupler, u):
    """``cond_exp_given_u`` equals the term-by-term scalar sum to 1e-12
    relative to W."""
    n, rho, psi = coupler.cfg.n, coupler.rho, coupler.psi
    got = coupler.cond_exp_given_u(u)
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    want = [oracles.gaussian_cond_exp(row, corr, psi) for row in u]
    scale = max(1.0, float(np.abs(psi(u).sum(axis=1)).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestTiltedSampler:
    def test_normal_sf_matches_scipy(self):
        """The normal tail the indicator tilt's survival is built on."""
        t = np.linspace(-40.0, 40.0, 400_001)
        np.testing.assert_allclose(testfuncs._normal_sf(t), special.ndtr(-t),
                                   rtol=0, atol=1e-15)

    def test_square_tilt_moments(self):
        """u^2-tilted normal has mean 0 and variance E Z^4 / E Z^2 = 3."""
        tilt = nl.TiltedSampler(nl.parse_psi("square"))
        assert abs(tilt.mean) < 1e-9
        np.testing.assert_allclose(tilt.moment2, 3.0, atol=1e-7)
        draws = tilt.sample(StreamConfig(2).stream(0), 200_000)
        assert abs(draws.mean()) <= 4 * np.sqrt(3.0 / 200_000)
        assert abs(draws.var() - 3.0) <= 4 * np.sqrt(12.0 / 200_000) + 1e-3

    def test_indicator_tilt_is_half_normal(self):
        tilt = nl.TiltedSampler(nl.parse_psi("indicator"))
        np.testing.assert_allclose(tilt.psi_mean, 1.0, atol=1e-8)
        np.testing.assert_allclose(tilt.mean, np.sqrt(2.0 / np.pi),
                                   atol=1e-7)
        draws = tilt.sample(StreamConfig(3).stream(0), 50_000)
        assert np.all(draws >= 0)

    def test_exp_tilt_is_shifted_normal(self):
        """e^u-tilting a standard normal shifts it to N(1, 1)."""
        tilt = nl.TiltedSampler(nl.parse_psi("exp"))
        np.testing.assert_allclose(tilt.mean, 1.0, atol=1e-8)
        np.testing.assert_allclose(tilt.moment2 - tilt.mean**2, 1.0,
                                   atol=1e-7)
        np.testing.assert_allclose(tilt.mgf(0.5), np.exp(0.5 + 0.125),
                                   atol=1e-6)
        c = np.array([-2.0, -0.1, 0.0, 0.3, 1.5])
        np.testing.assert_allclose(tilt.mgf(c), np.exp(c + c * c / 2),
                                   rtol=1e-15)

    @pytest.mark.parametrize("name,cdf", [
        ("indicator", sps.halfnorm.cdf),
        ("exp", sps.norm(loc=1.0).cdf),
        ("square", lambda y: 0.5 + 0.5 * np.sign(y) * sps.maxwell.cdf(
            np.abs(y))),
    ], ids=["indicator", "exp", "square"])
    def test_gaussian_tilt_draws_follow_law(self, name, cdf):
        """KS test of the draws: half-normal, N(1, 1), and a fair random
        sign times a Maxwell (chi_3) length."""
        tilt = nl.TiltedSampler(nl.parse_psi(name))
        draws = tilt.sample(StreamConfig(1).stream(0), 100_000)
        assert sps.kstest(draws, cdf).pvalue > 1e-4

    def test_raw_callable_on_normal_base_rejected(self):
        with pytest.raises(ValueError, match="square, exp, indicator"):
            nl.TiltedSampler(lambda u: np.ones_like(u))

    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_every_named_psi_tilts_the_cell_law(self, name):
        """Every named psi is positive at counts >= 1, which the fewest
        balls the model allows (2 in 2 cells) reach, so the multinomial
        coupler's tilt psi(c) P(c) / E psi(c) is a law."""
        psi = nl.parse_psi(name)
        cfg = nl.MultinomialSumConfig(2, 1, psi)
        tilt = nl.MultinomialSumCoupler(cfg).tilted
        weight = {c: float(psi(c)) * p
                  for c, p in enumerate((0.25, 0.5, 0.25))}
        mass = fsum(weight.values())
        assert mass > 0
        assert oracles.laws_close(oracles.discrete_law(tilt),
                                  {float(c): w / mass
                                   for c, w in weight.items()})

    def test_discrete_tilt_is_exact_size_bias(self):
        """The multinomial coupler's tilt of a cell count c is
        psi(c) P(c) / E psi(c); with psi = square that is c^2 P(c) / E c^2,
        the count's law size-biased twice (3 cells, 6 balls)."""
        coupler = nl.MultinomialSumCoupler(
            nl.MultinomialSumConfig(3, 2, nl.parse_psi("square")))
        pmf = {float(c): comb(6, c) * 2**(6 - c) / 3**6 for c in range(7)}
        expected = oracles.size_biased_law(oracles.size_biased_law(pmf))
        assert oracles.laws_close(oracles.discrete_law(coupler.tilted),
                                  expected)
        # lam = 3 E c^2, with E c^2 = 6 (1/3)(2/3) + 2^2 for Bin(6, 1/3)
        np.testing.assert_allclose(coupler.lam, [16.0], rtol=1e-14)

    def test_survival_consistent_with_draws(self):
        tilt = nl.TiltedSampler(nl.parse_psi("indicator"))
        draws = tilt.sample(StreamConfig(4).stream(0), 200_000)
        for t in (-2.0, 0.0, 1.5):
            emp = float(np.mean(draws > t))
            assert abs(emp - tilt.survival(t)) <= 4 * np.sqrt(0.25 / 200_000)
        t = np.linspace(-3.0, 30.0, 3301)
        exact = np.where(t > 0, special.erfc(t / np.sqrt(2)), 1.0)
        np.testing.assert_allclose(tilt.survival(t), exact, rtol=0,
                                   atol=1e-15)


class TestGaussianCoupler:
    def test_identity_correlation_leaves_others(self):
        cfg = nl.GaussianSumConfig(5, nl.parse_psi("square"), rho=0.0)
        coupler = nl.GaussianSumCoupler(cfg)
        rng = StreamConfig(5).stream(0)
        u = coupler.draw(rng, 100)
        idx = rng.integers(5, size=100)
        y = coupler.tilted.sample(rng, 100)
        adjusted = coupler.adjust(u, idx, y)
        rows = np.arange(100)
        mask = np.ones_like(u, dtype=bool)
        mask[rows, idx] = False
        np.testing.assert_array_equal(adjusted[mask], u[mask])
        np.testing.assert_array_equal(adjusted[rows, idx], y)

    def test_conditional_law_two_dims(self):
        """rho = 0.5: given the resampled value y, the other coordinate is
        N(0.5 y, 0.75)."""
        cfg = nl.GaussianSumConfig(2, nl.parse_psi("square"), rho=0.5)
        coupler = nl.GaussianSumCoupler(cfg)
        rng = StreamConfig(6).stream(0)
        m = 200_000
        u = coupler.draw(rng, m)
        y_val = 1.3
        adjusted = coupler.adjust(u, np.zeros(m, dtype=int),
                                  np.full(m, y_val))
        other = adjusted[:, 1]
        assert abs(other.mean() - 0.5 * y_val) <= 4 * np.sqrt(0.75 / m)
        assert abs(other.var() - 0.75) <= 4 * np.sqrt(2 * 0.75**2 / m)

    def test_conditional_moments_general_matrix(self):
        """Given I and y, the unpicked block has mean rho y and covariance
        C - rho^2 J, with C the pair-covariance-rho matrix and J all ones;
        rho < 0 here."""
        rho, y_val = -0.3, -0.8
        cfg = nl.GaussianSumConfig(3, nl.parse_psi("square"), rho=rho)
        coupler = nl.GaussianSumCoupler(cfg)
        m = 300_000
        u = coupler.draw(StreamConfig(7).stream(0), m)
        idx = np.full(m, 1)
        adjusted = coupler.adjust(u, idx, np.full(m, y_val))
        others = adjusted[:, [0, 2]]
        cov_expected = (np.array([[1.0, rho], [rho, 1.0]])
                        - rho * rho * np.ones((2, 2)))
        se_mean = np.sqrt(np.diag(cov_expected) / m)
        assert np.all(np.abs(others.mean(axis=0) - rho * y_val)
                      <= 4 * se_mean)
        emp_cov = np.cov(others.T)
        assert np.all(np.abs(emp_cov - cov_expected) <= 4 * 2.0 / np.sqrt(m))

    def test_not_pd_rejected(self):
        """Pair covariance rho is a positive-definite law exactly for
        -1/(n-1) < rho < 1, and the message states that range."""
        for n, rho in [(2, 1.0), (2, 1.5), (2, -1.0), (3, -0.5),
                       (64, -0.02), (1, 1.0), (4, float("nan"))]:
            with pytest.raises(NotPositiveDefinite,
                               match=r"-1/\(n-1\) < rho < 1"):
                nl.GaussianSumConfig(n, nl.parse_psi("square"), rho=rho)

    @pytest.mark.parametrize("n,rho", [(2, -0.999), (3, -0.499), (64, -0.0158),
                                       (64, 0.999), (1, -5.0)])
    def test_draws_have_unit_variance_and_pair_covariance(self, n, rho):
        """U = a Z + b (sum Z) 1 has exactly the target law: checked on its
        covariance, including rho near both ends of the range."""
        coupler = nl.GaussianSumCoupler(
            nl.GaussianSumConfig(n, nl.parse_psi("square"), rho=rho))
        a, b = coupler._a, coupler._b
        np.testing.assert_allclose([a * a + 2 * a * b + n * b * b,
                                    2 * a * b + n * b * b], [1.0, rho],
                                   rtol=0, atol=1e-12)
        u = coupler.draw(StreamConfig(21).stream(0), 100_000)
        cov = np.cov(u[:, :2].T) if n > 1 else np.var(u)
        want = np.array([[1.0, rho], [rho, 1.0]]) if n > 1 else 1.0
        np.testing.assert_allclose(cov, want, rtol=0, atol=0.02)

    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_cond_exp_matches_nested_mc(self, name):
        """The closed-form conditional mean agrees with brute-force inner
        Monte Carlo on a handful of fixed configurations."""
        cfg = nl.GaussianSumConfig(4, nl.parse_psi(name), rho=0.25)
        coupler = nl.GaussianSumCoupler(cfg)
        rng = StreamConfig(8).stream(0)
        u = coupler.draw(rng, 6)
        exact = coupler.cond_exp_given_u(u)
        inner = 400_000
        for row in range(6):
            tiled = np.repeat(u[row:row + 1], inner, axis=0)
            idx = rng.integers(4, size=inner)
            y = coupler.tilted.sample(rng, inner)
            adjusted = coupler.adjust(tiled, idx, y)
            delta = coupler.psi(adjusted).sum(axis=1) - coupler.psi(tiled).sum(axis=1)
            se = delta.std() / np.sqrt(inner)
            assert abs(delta.mean() - exact[row]) <= 5 * se + 1e-8

    @pytest.mark.parametrize("n,rho", [(6, 0.0), (6, 0.1), (6, -0.01),
                                       (260, 0.1), (300, -0.003)],
                             ids=["rho=0", "rho=0.1", "rho=-0.01", "blocks",
                                  "negative-blocks"])
    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_cond_exp_matches_oracle(self, name, n, rho):
        """The kernel equals the term-by-term scalar sum to 1e-12 relative
        to W for rho > 0, rho < 0 and rho = 0."""
        cfg = nl.GaussianSumConfig(n, nl.parse_psi(name), rho=rho)
        coupler = nl.GaussianSumCoupler(cfg)
        assert_matches_oracle(coupler,
                              coupler.draw(StreamConfig(22).stream(n), 3))

    def test_indicator_sparse_window_matches_oracle(self):
        """At rho = 2/n a row's windows hold about 1 % of its pairs."""
        n = 800
        cfg = nl.GaussianSumConfig(n, nl.parse_psi("indicator"), rho=2 / n)
        coupler = nl.GaussianSumCoupler(cfg)
        assert_matches_oracle(coupler,
                              coupler.draw(StreamConfig(22).stream(n), 2))

    @pytest.mark.parametrize("rho,u,all_ones", [
        (0.1, [[2.0, -3.0, 1.5], [0.3, 0.2, -0.4]], False),
        (0.5, [[1.0, 1.02, 1.04, 1.05]], True),
        (-0.003, [[-1.0, -1.02, -1.04, -1.05]], True),
    ], ids=["empty-window", "all-ones", "all-ones-negative"])
    def test_indicator_edge_rows_match_oracle(self, rho, u, all_ones):
        """Rows whose first row has no pair in the tail window
        0 < t < T: every t = U_i - U_j / rho is <= 0, or each is <= 0 or
        >= T."""
        u = np.array(u)
        t = u[0][:, None] - u[0] / rho
        assert not np.any((t > 0) & (t < nl._TAIL_CUT))
        assert np.all(t <= 0) == all_ones
        cfg = nl.GaussianSumConfig(u.shape[1], nl.parse_psi("indicator"),
                                   rho=rho)
        assert_matches_oracle(nl.GaussianSumCoupler(cfg), u)

    def test_indicator_blocks_leave_sums_unchanged(self, monkeypatch):
        """One row per sort block and one window per window block give the
        bytes of a single block."""
        cfg = nl.GaussianSumConfig(6, nl.parse_psi("indicator"), rho=0.4)
        coupler = nl.GaussianSumCoupler(cfg)
        u = coupler.draw(StreamConfig(25).stream(0), 50)
        whole = coupler.cond_exp_given_u(u)
        monkeypatch.setattr(nl, "_SORT_BLOCK", 1)
        monkeypatch.setattr(nl, "_WINDOW_BLOCK", 3)
        np.testing.assert_array_equal(coupler.cond_exp_given_u(u), whole)
        assert_matches_oracle(coupler, u)

    def test_indicator_tail_work_is_linear_in_n(self, monkeypatch):
        """At rho = 2/n only the window's tails are evaluated: fewer than
        0.02 n^2 survival points per row at n = 800."""
        n, rows = 800, 4
        seen = []
        survival = nl.TiltedSampler.survival

        def spy(self, t):
            seen.append(np.size(t))
            return survival(self, t)

        monkeypatch.setattr(nl.TiltedSampler, "survival", spy)
        cfg = nl.GaussianSumConfig(n, nl.parse_psi("indicator"), rho=0.0025)
        coupler = nl.GaussianSumCoupler(cfg)
        coupler.cond_exp_given_u(
            coupler.draw(StreamConfig(26).stream(0), rows))
        assert 0 < sum(seen) < 0.02 * n * n * rows, sum(seen)

    def test_cond_exp_memory_is_linear_in_n(self):
        """One indicator row at n = 2000 is sorted in blocks of at most
        _SORT_BLOCK values and its tail windows are evaluated in blocks of
        at most _WINDOW_BLOCK points, so the kernel holds O(n) values, not
        n^2 pairs."""
        cfg = nl.GaussianSumConfig(2000, nl.parse_psi("indicator"), rho=0.1)
        coupler = nl.GaussianSumCoupler(cfg)
        u = coupler.draw(StreamConfig(23).stream(0), 1)
        tracemalloc.start()
        try:
            coupler.cond_exp_given_u(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_large_n_coupler_memory(self):
        """Building the coupler, drawing rows and the row-sum kernels of
        square and exp hold no n x n array."""
        n = 4000
        tracemalloc.start()
        try:
            for name in ("square", "exp"):
                coupler = nl.GaussianSumCoupler(
                    nl.GaussianSumConfig(n, nl.parse_psi(name), rho=0.01))
                u = coupler.draw(StreamConfig(24).stream(0), 16)
                coupler.cond_exp_given_u(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_draw_sub_batches_cap_values(self, monkeypatch):
        """A statistics pass at n = 3000 with 8192-row chunks draws U in
        sub-batches of at most SUB_BATCH_VALUES values; the benchmark's
        and the reference runs' chunks (n = 64 and n = 200) stay whole."""
        n = 3000
        coupler = nl.GaussianSumCoupler(
            nl.GaussianSumConfig(n, nl.parse_psi("square"), rho=0.00067))
        rows = []
        draw = coupler.draw
        monkeypatch.setattr(coupler, "draw", lambda rng, size:
                            rows.append(size) or draw(rng, size))
        coupler.coupling_stats(2000, seed=1, chunk_size=8192,
                               score=lambda w: w[:, 0])
        assert sum(rows) == 2000 and len(rows) > 1
        assert max(rows) * n <= harness.SUB_BATCH_VALUES
        for size, width in ((4096, 64), (8192, 200)):
            assert harness.sub_batch_sizes(size, width) == [size]

    def test_mean_identity(self):
        """E W* = E W^2 / lambda for the coupled pair."""
        cfg = nl.GaussianSumConfig(6, nl.parse_psi("square"), rho=0.2)
        coupler = nl.GaussianSumCoupler(cfg)
        lam, var = nl.gaussian_moments(cfg)
        m = 400_000
        w, ws = oracles.draw_batch(coupler, 0, m, StreamConfig(9).stream(0))
        expected = (var + lam**2) / lam
        se = ws.std() / np.sqrt(m)
        assert abs(ws.mean() - expected) <= 5 * se


class TestGaussianMoments:
    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_against_monte_carlo(self, name):
        cfg = nl.GaussianSumConfig(5, nl.parse_psi(name), rho=0.3)
        lam, var = nl.gaussian_moments(cfg)
        coupler = nl.GaussianSumCoupler(cfg)
        m = 400_000
        w = coupler.psi(coupler.draw(StreamConfig(10).stream(0), m)).sum(axis=1)
        assert abs(w.mean() - lam) <= 5 * w.std() / np.sqrt(m)
        assert abs(w.var() - var) <= 5 * np.sqrt(np.mean((w - w.mean())**4) / m)

    def test_config_properties(self):
        cfg = nl.GaussianSumConfig(4, nl.parse_psi("square"), rho=0.1)
        assert cfg.max_offdiag == pytest.approx(0.1)
        assert cfg.max_row_sum == pytest.approx(1.3)


def assert_rows_follow(rows, law):
    """Every row is in the support of ``law`` ({row tuple: prob}), and each
    row's frequency is within 4 binomial standard errors of its
    probability."""
    m = len(rows)
    values, freq = np.unique(rows, axis=0, return_counts=True)
    seen = dict(zip(map(tuple, values.tolist()), freq / m))
    assert set(seen) <= set(law)
    for row, prob in law.items():
        sd = np.sqrt(prob * (1 - prob) / m)
        assert abs(seen.get(row, 0.0) - prob) <= 4 * sd + 1e-12, row


class TestMultinomialCoupler:
    def test_ball_conservation(self):
        cfg = nl.MultinomialSumConfig(5, 3, nl.parse_psi("square"))
        coupler = nl.MultinomialSumCoupler(cfg)
        rng = StreamConfig(11).stream(0)
        counts = coupler.draw(rng, 5000)
        moved = coupler.couple_counts(counts, rng)
        np.testing.assert_array_equal(moved.sum(axis=1), counts.sum(axis=1))
        assert np.all(moved >= 0)

    def test_two_cells_one_ball_each_degenerate(self):
        """2 balls in 2 cells with identity psi: W and W* are exactly 2."""
        class Identity:
            name = "identity"

            def __call__(self, u):
                return np.asarray(u, dtype=float)

        cfg = nl.MultinomialSumConfig(2, 1, nl.parse_psi("square"))
        coupler = nl.MultinomialSumCoupler(cfg)
        coupler.psi = Identity()
        marg = cfg.cell_marginal()  # identity psi: the size-biased count
        coupler.tilted = DiscreteDistribution(
            marg.values, marg.values * marg.probs / marg.mean)
        coupler.lam = np.array([2 * marg.mean])
        w, ws = oracles.draw_batch(coupler, 0, 4000,
                                   StreamConfig(12).stream(0))
        np.testing.assert_array_equal(w, 2.0)
        np.testing.assert_array_equal(ws, 2.0)

    def test_wstar_law_matches_size_biased_enumeration(self):
        """Empirical W* frequencies match w P(W = w) / E W exactly computed
        from the occupancy law (3 balls in 3 cells)."""
        psi = nl.parse_psi("square")
        cfg = nl.MultinomialSumConfig(3, 1, psi)
        coupler = nl.MultinomialSumCoupler(cfg)
        w_law = oracles.multinomial_w_law(3, 3, psi)
        target = oracles.size_biased_law(w_law)
        m = 300_000
        _, ws = oracles.draw_batch(coupler, 0, m, StreamConfig(13).stream(0))
        for value, prob in target.items():
            freq = float(np.mean(np.isclose(ws[:, 0], value)))
            assert abs(freq - prob) <= 4 * np.sqrt(prob * (1 - prob) / m), value

    def test_exact_moments_against_occupancy_law(self):
        """Every psi at two balls per cell: n = 2 takes the flipped-marginal
        branch, n = 3 and 4 the joint pmf of two cells."""
        for name in ("square", "exp", "indicator"):
            psi = nl.parse_psi(name)
            for n in (2, 3, 4):
                lam, var = nl.multinomial_moments(
                    nl.MultinomialSumConfig(n, 2, psi))
                law = oracles.multinomial_w_law(n, 2 * n, psi)
                mean = fsum(v * p for v, p in law.items())
                second = fsum(v * v * p for v, p in law.items())
                np.testing.assert_allclose(lam, mean, rtol=1e-10,
                                           err_msg=f"{name}, n = {n}")
                np.testing.assert_allclose(var, second - mean**2, rtol=1e-9,
                                           err_msg=f"{name}, n = {n}")

    # (n, k): relative error of the uncentred sum n (E psi^2 - m^2) +
    # n (n - 1) (E psi_1 psi_2 - m^2), which cancelled 4 of its 16 digits
    # at (10, 1000)
    @pytest.mark.parametrize("n,k,uncentred", [
        (2, 500, 0.0), (6, 2, 1.6e-14), (100, 2, 1.7e-11),
        (1000, 2, 3.4e-9), (10, 1000, 4.5e-5)])
    def test_square_variance_against_factorial_moments(self, n, k,
                                                       uncentred):
        """psi centred at its mean: no worse than the uncentred sum, past
        the pmf's own rounding, and within 1e-7 everywhere."""
        _, var = nl.multinomial_moments(
            nl.MultinomialSumConfig(n, k, nl.parse_psi("square")))
        exact = oracles.multinomial_square_variance(n, k)
        err = abs(Fraction(var) - exact) / exact
        assert err <= 1e-7 and err <= max(uncentred, 1e-12), float(err)

    def test_moments_memory_follows_the_support(self):
        """The joint pmf of two cells spans the counts of positive
        probability only: at 2000 balls in 1000 cells that is about 150
        counts, where the dense (2001)^2 table took 61 MiB traced."""
        tracemalloc.start()
        try:
            nl.MultinomialSumCoupler(
                nl.MultinomialSumConfig(1000, 2, nl.parse_psi("square")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (10, 2), (100, 2)])
    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_cond_exp_matches_oracle(self, name, n, k):
        """The histogram kernel equals the term-by-term scalar sum to 1e-12
        relative to W."""
        psi = nl.parse_psi(name)
        coupler = nl.MultinomialSumCoupler(nl.MultinomialSumConfig(n, k, psi))
        counts = coupler.draw(StreamConfig(21).stream(n),
                                     1 if n == 100 else 4)
        got = coupler.cond_exp_given_counts(counts)
        want = [oracles.multinomial_cond_exp(row, psi) for row in counts]
        scale = max(1.0, float(psi(counts).sum(axis=1).max()))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("name", ["square", "indicator"])
    def test_cond_exp_matches_oracle_past_float_binomials(self, name):
        """1030 balls: C(1030, 515) overflows a float, so the kernel weighs
        in log space and the oracle divides exact integer binomials."""
        psi = nl.parse_psi(name)
        cfg = nl.MultinomialSumConfig(515, 2, psi)
        coupler = nl.MultinomialSumCoupler(cfg)
        counts = coupler.draw(StreamConfig(21).stream(515), 1)
        got = coupler.cond_exp_given_counts(counts)
        want = [oracles.multinomial_cond_exp(row, psi) for row in counts]
        scale = max(1.0, float(psi(counts).sum(axis=1).max()))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_cond_exp_averages_to_variance_over_mean(self, name, n, k):
        """E[W* - W] = E W^2 / lambda - lambda = sigma^2 / lambda, summed
        exactly over every occupancy vector."""
        psi = nl.parse_psi(name)
        coupler = nl.MultinomialSumCoupler(nl.MultinomialSumConfig(n, k, psi))
        occupancy = list(oracles.occupancy_law(n, n * k))
        counts = np.array([c for c, _ in occupancy])
        probs = np.array([p for _, p in occupancy])
        law = oracles.multinomial_w_law(n, n * k, psi)
        lam = fsum(w * p for w, p in law.items())
        var = fsum(w * w * p for w, p in law.items()) - lam**2
        mean_cond = fsum(probs * coupler.cond_exp_given_counts(counts))
        np.testing.assert_allclose(mean_cond, var / lam, rtol=1e-12)

    def test_draw_counts_match_occupancy_law(self):
        """Frequencies of every occupancy vector of 6 balls in 3 cells."""
        coupler = nl.MultinomialSumCoupler(
            nl.MultinomialSumConfig(3, 2, nl.parse_psi("square")))
        counts = coupler.draw(StreamConfig(22).stream(0), 200_000)
        assert_rows_follow(counts, dict(oracles.occupancy_law(3, 6)))

    @pytest.mark.parametrize("counts,idx,y", [
        ([1, 3, 2, 0], 0, 3),    # pull 2 of 5: picks the balls that move
        ([1, 3, 2, 0], 0, 5),    # pull 4 of 5: picks the ball that stays
        ([0, 2, 1, 3], 0, 6),    # pull every ball
        ([4, 1, 0, 1], 0, 1),    # spill 3
        ([1, 2, 3, 0], 2, 3),    # no-op
    ], ids=["pull-few", "pull-most", "pull-all", "spill", "no-op"])
    def test_move_balls_matches_exact_law(self, counts, idx, y):
        """Rows after resetting one cell follow the multivariate
        hypergeometric (pull) or multinomial (spill) law exactly."""
        m = 60_000
        moved = nl._move_balls(np.tile(counts, (m, 1)), np.full(m, idx),
                               np.full(m, y), StreamConfig(23).stream(0))
        assert_rows_follow(moved, oracles.moved_row_law(counts, idx, y))

    @pytest.mark.parametrize("name", ["square", "exp"])
    def test_coupling_mean_matches_cond_exp_oracle(self, name):
        """For fixed rows, the mean of W* - W over many couplings matches
        the exact ``E[W* - W | U]`` within 4 standard errors."""
        psi = nl.parse_psi(name)
        coupler = nl.MultinomialSumCoupler(nl.MultinomialSumConfig(4, 2,
                                                                   psi))
        rng = StreamConfig(24).stream(0)
        m = 100_000
        for row in ([2, 2, 2, 2], [5, 0, 3, 0], [0, 0, 0, 8]):
            counts = np.tile(row, (m, 1))
            d_w = (coupler.w(coupler.couple_counts(counts, rng))
                   - coupler.w(counts))[:, 0]
            want = oracles.multinomial_cond_exp(row, psi)
            assert abs(d_w.mean() - want) <= 4 * d_w.std() / np.sqrt(m), row

    def test_bound_inputs_match_exact_enumeration(self):
        """3 cells, 2 balls per cell, psi = square: over the 28 occupancy
        vectors, a uniform picked cell, the tilted new count and the moved
        row's exact law, Var E[W* - W | U] = 8.50166 and E (W* - W)^2 =
        26.1242. The raw estimates at 50,000 draws, seed 0, lie within 4
        standard errors of both; so do the reported bound (h = cosine a=1)
        and each of its terms, on the floored path the CLI takes, of the
        bound at the exact inputs, whose floor 0.694 does not bind."""
        psi = nl.parse_psi("square")
        n, balls = 3, 6
        model = nl.MultinomialSumCoupler(nl.MultinomialSumConfig(n, 2, psi))

        def f(x):
            return float(psi(np.array([x]))[0])

        def w(row):
            return fsum(f(c) for c in row)

        raw = [comb(balls, y) * (n - 1) ** (balls - y) * f(y)
               for y in range(balls + 1)]
        tilted = [x / fsum(raw) for x in raw]
        occupancy = list(oracles.occupancy_law(n, balls))
        cond = [oracles.multinomial_cond_exp(c, psi) for c, _ in occupancy]
        mean = fsum(p * c for (_, p), c in zip(occupancy, cond))
        var_cond = fsum(p * (c - mean) ** 2
                        for (_, p), c in zip(occupancy, cond))
        mean_sq = fsum(
            p / n * qy * prob * (w(row) - w(counts)) ** 2
            for counts, p in occupancy for idx in range(n)
            for y, qy in enumerate(tilted)
            for row, prob in oracles.moved_row_law(counts, idx, y).items())
        np.testing.assert_allclose([var_cond, mean_sq], [8.50166, 26.1242],
                                   atol=1e-4)
        norms = SmoothTestFunction("cosine", p=1, a=(1.0,)).derivative_norms()
        bound, stats, _ = model.bound(norms, 50_000, 0, 8192,
                                      lambda v: v[:, 0])
        assert abs(stats.var_cond.item() - var_cond) \
            <= 4 * stats.var_cond_sem.item()
        assert abs(stats.abs_cross.item() - mean_sq) \
            <= 4 * stats.abs_cross_sem.item()
        exact = bound_univariate_size_bias(floor_mean_sq_diff(CouplingStats(
            model.lam, model.sigma, np.array([[var_cond]]),
            np.array([[[mean_sq]]]))), norms.h, norms.d1)
        assert abs(bound.total - exact.total) <= 4 * bound.stderr
        for term, exact_term in zip(bound.terms, exact.terms):
            assert abs(term.value - exact_term.value) <= 4 * term.stderr

    def test_infeasible_adjustment_raises(self):
        counts = np.array([[2, 1, 1]])
        with pytest.raises(InfeasibleAdjustment):
            nl._move_balls(counts, np.array([0]), np.array([10]),
                           StreamConfig(0).stream(0))


class TestCharacterization:
    @pytest.mark.parametrize("name", ["square", "exp", "indicator"])
    def test_gaussian_couplers(self, name):
        cfg = nl.GaussianSumConfig(8, nl.parse_psi(name), rho=0.2)
        res = verify_characterization(nl.GaussianSumCoupler(cfg),
                                      samples=150_000, seed=14)
        assert res.max_abs_z <= 4.0, (name, res.max_abs_z)

    @pytest.mark.parametrize("name", ["square", "exp"])
    def test_multinomial_couplers(self, name):
        cfg = nl.MultinomialSumConfig(6, 2, nl.parse_psi(name))
        res = verify_characterization(nl.MultinomialSumCoupler(cfg),
                                      samples=150_000, seed=15)
        assert res.max_abs_z <= 4.0, (name, res.max_abs_z)


class TestExperiment:
    def test_iid_square_rate_shape(self):
        """Independent arguments, quadratic psi: bound scales like
        n^{-1/2}, so quadrupling n halves the bound."""
        h = SmoothTestFunction("cosine", p=1, a=(1.0,))
        totals = {}
        for n in (100, 400):
            cfg = nl.GaussianSumConfig(n, nl.parse_psi("square"), rho=0.0)
            rep = run_experiment(nl.GaussianSumCoupler(cfg), h,
                                 samples=20_000, seed=16, chunk_size=8192)
            assert rep.passed
            totals[n] = rep.bound.total
        assert 1.6 <= totals[100] / totals[400] <= 2.4

    def test_multinomial_experiment_passes(self):
        cfg = nl.MultinomialSumConfig(30, 2, nl.parse_psi("square"))
        h = SmoothTestFunction("cosine", p=1, a=(1.0,))
        rep = run_experiment(nl.MultinomialSumCoupler(cfg), h,
                             samples=8000, seed=17, chunk_size=8192)
        assert rep.passed

    def test_report_echoes_correlation_summary(self):
        cfg = nl.GaussianSumConfig(12, nl.parse_psi("exp"), rho=0.1)
        h = SmoothTestFunction("cosine", p=1, a=(0.5,))
        rep = run_experiment(nl.GaussianSumCoupler(cfg), h, samples=4000,
                             seed=18, chunk_size=8192)
        assert rep.config["max_offdiag"] == pytest.approx(0.1)
        assert rep.config["offdiag_below_third"] is True
        assert rep.passed
