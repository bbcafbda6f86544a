"""Size-biased laws and coupled-pair samplers against enumeration oracles.

Every finite-support construction is enumerated exactly and compared with
the coordinate-biased law ``x_i dF / lambda_i`` computed directly from the
base model; the statistical identity check then covers the sampling paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from steinlab.errors import ConditionalUnavailable, ZeroMean
from steinlab.sizebias import (DiscreteDistribution, FunctionSumCoupler,
                               IndependentSumCoupler, IndexPicker,
                               IndicatorCollectionCoupler,
                               independent_adjuster, size_bias_discrete,
                               verify_characterization)
from steinlab.validation import (discrete_function_sum_coupler,
                                 exchangeable_pair_coupler)


class TestSizeBiasDiscrete:
    def test_bernoulli_becomes_point_mass(self):
        biased = size_bias_discrete(DiscreteDistribution.bernoulli(0.3))
        law = oracles.discrete_law(biased)
        assert oracles.laws_close(law, {1.0: 1.0, 0.0: 0.0})

    def test_two_point_law(self):
        d = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])
        biased = size_bias_discrete(d)
        np.testing.assert_allclose(biased.probs, [0.25, 0.75], atol=1e-15)

    def test_truncated_poisson_shift(self):
        """Biasing a Poisson weight shifts the index down by one."""
        d = DiscreteDistribution.poisson_truncated(1.7, 9)
        biased = size_bias_discrete(d)
        shifted = DiscreteDistribution.poisson_truncated(1.7, 8)
        # biased pmf at k is proportional to lam^k / (k-1)!; compare on 1..9
        expected = shifted.probs / shifted.probs.sum()
        got = biased.probs[1:] / biased.probs[1:].sum()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMean):
            size_bias_discrete(DiscreteDistribution([0.0], [1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 1.0)),
                    min_size=1, max_size=6))
    def test_normalized_with_second_moment_mean(self, pairs):
        values = np.array([v for v, _ in pairs])
        weights = np.array([w for _, w in pairs])
        probs = weights / weights.sum()
        d = DiscreteDistribution(values, probs)
        if d.mean <= 1e-9:  # degenerate-mean laws are rejected elsewhere
            return
        biased = size_bias_discrete(d)
        assert abs(biased.probs.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(biased.mean, d.moment(2) / d.mean,
                                   rtol=1e-12)

    def test_sampling_tie_break_left_closed(self):
        """Index i is selected for u in [cum_{i-1}, cum_i)."""
        d = DiscreteDistribution([0.0, 1.0], [0.25, 0.75])

        class Fixed:
            def __init__(self, vals):
                self.vals = np.asarray(vals)

            def random(self, size):
                return self.vals[:size]

        out = d.sample(Fixed([0.0, 0.249999, 0.25, 0.9]), 4)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0])


class TestBinomial:
    def test_small_n_matches_exact_coefficients(self):
        from math import comb
        law = DiscreteDistribution.binomial(40, 0.3)
        exact = [comb(40, k) * 0.3**k * 0.7 ** (40 - k) for k in range(41)]
        np.testing.assert_allclose(law.probs, exact, rtol=1e-12, atol=0)

    def test_past_float_binomials(self):
        """C(2000, 1000) overflows a float; the log-space pmf keeps the
        mean np and the variance np(1 - p)."""
        law = DiscreteDistribution.binomial(2000, 0.3)
        assert np.all(np.isfinite(law.probs))
        np.testing.assert_allclose(law.mean, 600.0, rtol=1e-10)
        np.testing.assert_allclose(law.moment(2) - law.mean**2, 420.0,
                                   rtol=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_p(self, p):
        law = DiscreteDistribution.binomial(5, p)
        assert law.mean == 5 * p


class TestIndexPicker:
    def test_probabilities_proportional(self):
        picker = IndexPicker((1.0, 3.0))
        np.testing.assert_allclose(picker.probs, [0.25, 0.75])

    def test_zero_weights_rejected(self):
        with pytest.raises(ZeroMean):
            IndexPicker((0.0, 0.0))


class TestIndependentSumCoupler:
    def test_two_bernoulli_construction_law(self):
        """n=2 iid Bernoulli(1/2): W* is 1 + Bernoulli(1/2), exactly."""
        comps = [DiscreteDistribution.bernoulli(0.5)] * 2
        law = oracles.independent_sum_construction_law(
            [oracles.discrete_law(c) for c in comps])
        assert oracles.laws_close(law, {1.0: 0.5, 2.0: 0.5})
        # and this is the size-biased law of W
        w_law = oracles.convolve_laws([oracles.discrete_law(c)
                                       for c in comps])
        assert oracles.laws_close(law, oracles.size_biased_law(w_law))

    def test_single_component_reduces_to_definition(self):
        comp = DiscreteDistribution([1.0, 2.0, 5.0], [0.3, 0.5, 0.2])
        law = oracles.independent_sum_construction_law(
            [oracles.discrete_law(comp)])
        assert oracles.laws_close(
            law, oracles.size_biased_law(oracles.discrete_law(comp)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_indicator_sums_shift_to_binomial(self, n):
        """n iid indicators: W* = 1 + Binomial(n-1, p), by enumeration."""
        p = 0.35
        comp_law = {0.0: 1 - p, 1.0: p}
        law = oracles.independent_sum_construction_law([comp_law] * n)
        from math import comb
        expected = {float(1 + k): comb(n - 1, k) * p**k * (1 - p) ** (n - 1 - k)
                    for k in range(n)}
        assert oracles.laws_close(law, expected)
        w_law = oracles.convolve_laws([comp_law] * n)
        assert oracles.laws_close(law, oracles.size_biased_law(w_law))

    def test_sampler_matches_construction_law(self):
        """Empirical W* frequencies match the enumerated law at 4 sigma."""
        comps = [DiscreteDistribution([0.0, 1.0, 2.0], [0.3, 0.4, 0.3]),
                 DiscreteDistribution.bernoulli(0.6)]
        coupler = IndependentSumCoupler(comps)
        law = oracles.independent_sum_construction_law(
            [oracles.discrete_law(c) for c in comps])
        rng = np.random.default_rng(4)
        m = 200_000
        _, wstar = coupler.draw_batch(0, m, rng)
        for value, prob in law.items():
            freq = float(np.mean(wstar[:, 0] == value))
            assert abs(freq - prob) <= 4.0 * np.sqrt(prob * (1 - prob) / m)

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMean):
            IndependentSumCoupler([DiscreteDistribution([0.0], [1.0])])


class TestIndicatorCollectionCoupler:
    def test_exchangeable_pair_matches_biased_law(self):
        """Enumerated construction equals x_beta dF / lambda_beta."""
        p_marg, q = 0.4, 0.25
        outcomes = oracles.exchangeable_pair_outcomes(p_marg, q)
        for sets in ([[0, 1]], [[0], [1]]):
            for i in range(len(sets)):
                construction = oracles.exchangeable_pair_construction_law(
                    p_marg, q, sets, i)
                oracle = oracles.vector_outcomes_to_biased_w_law(
                    outcomes, sets, i)
                assert oracles.laws_close(construction, oracle), (sets, i)

    def test_sampler_frequencies_match_enumeration(self):
        coupler = exchangeable_pair_coupler(0.4, 0.25, split_coordinates=True)
        law = oracles.exchangeable_pair_construction_law(
            0.4, 0.25, [[0], [1]], 0)
        rng = np.random.default_rng(8)
        m = 200_000
        _, wi = coupler.draw_batch(0, m, rng)
        for value, prob in law.items():
            freq = float(np.mean(np.all(wi == np.array(value), axis=1)))
            assert abs(freq - prob) <= 4.0 * np.sqrt(prob * (1 - prob) / m)

    def test_sure_event_keeps_w(self):
        """If every indicator is already 1, conditioning changes nothing."""
        def joint(rng, size):
            return np.ones((size, 3))

        def given_one(beta, rng, size):
            return np.ones((size, 3))

        coupler = IndicatorCollectionCoupler(joint, given_one,
                                             [[0, 1, 2]], [1.0, 1.0, 1.0])
        w, wi = coupler.draw_batch(0, 100, np.random.default_rng(0))
        np.testing.assert_array_equal(w, wi)

    def test_conditional_must_pin_the_index(self):
        def joint(rng, size):
            return np.ones((size, 2))

        def given_one(beta, rng, size):
            return np.zeros((size, 2))

        coupler = IndicatorCollectionCoupler(joint, given_one,
                                             [[0, 1]], [0.5, 0.5])
        with pytest.raises(ConditionalUnavailable):
            coupler.draw_batch(0, 10, np.random.default_rng(0))


class TestFunctionSumCoupler:
    def test_single_identity_summand_is_size_bias(self):
        """n=1 with psi(u) = u: W* has the size-biased law of U."""
        base = DiscreteDistribution([1.0, 2.0, 4.0], [0.5, 0.25, 0.25])
        coupler = discrete_function_sum_coupler([base])
        rng = np.random.default_rng(3)
        m = 100_000
        _, wstar = coupler.draw_batch(0, m, rng)
        expected = oracles.size_biased_law(oracles.discrete_law(base))
        for value, prob in expected.items():
            freq = float(np.mean(wstar[:, 0] == value))
            assert abs(freq - prob) <= 4.0 * np.sqrt(prob * (1 - prob) / m)

    def test_independent_arguments_match_sum_coupler_law(self):
        comps = [DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.5, 0.3]),
                 DiscreteDistribution([1.0, 4.0], [0.6, 0.4])]
        coupler = discrete_function_sum_coupler(comps)
        law = oracles.independent_sum_construction_law(
            [oracles.discrete_law(c) for c in comps])
        rng = np.random.default_rng(5)
        m = 200_000
        _, wstar = coupler.draw_batch(0, m, rng)
        for value, prob in law.items():
            freq = float(np.mean(np.isclose(wstar[:, 0], value)))
            assert abs(freq - prob) <= 4.0 * np.sqrt(prob * (1 - prob) / m)

    def test_constant_psi_degenerate(self):
        base = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])

        def u_sampler(rng, size):
            return np.stack([base.sample(rng, size) for _ in range(3)], axis=1)

        import steinlab.nonlinear as nl
        const = lambda u: np.full(np.shape(u), 2.0)
        tilted = [nl.TiltedSampler(const, base)] * 3
        coupler = FunctionSumCoupler(u_sampler, [const] * 3, tilted,
                                     independent_adjuster)
        w, wstar = coupler.draw_batch(0, 50, np.random.default_rng(1))
        np.testing.assert_array_equal(w, 6.0)
        np.testing.assert_array_equal(wstar, 6.0)


class TestVerifyCharacterization:
    def test_single_bernoulli_near_zero(self):
        coupler = IndependentSumCoupler([DiscreteDistribution.bernoulli(0.4)])
        res = verify_characterization(coupler, samples=50_000, seed=1)
        assert res.max_abs_z <= 4.0

    def test_broken_sampler_flagged(self):
        """Skipping the resampling step must blow up some z-score."""
        comps = [DiscreteDistribution.bernoulli(0.2) for _ in range(5)]
        good = IndependentSumCoupler(comps)

        class Broken:
            p = 1
            mean_vector = good.mean_vector

            def draw_batch(self, i, size, rng):
                w, _ = good.draw_batch(i, size, rng)
                return w, w.copy()

        res = verify_characterization(Broken(), samples=100_000, seed=2)
        assert res.max_abs_z > 4.0

    def test_mean_recovers_variance_identity(self):
        """With G(w) = w the check statistic estimates lam E(W*-W) = Var W."""
        comps = [DiscreteDistribution.bernoulli(0.5)] * 2
        coupler = IndependentSumCoupler(comps)
        rng = np.random.default_rng(11)
        w, ws = coupler.draw_batch(0, 400_000, rng)
        lam = coupler.mean_vector[0]
        est = lam * float(np.mean(ws - w))
        # Var W = 0.5 for two fair coins
        assert abs(est - 0.5) <= 4.0 * lam * float(np.std(ws - w)) / np.sqrt(400_000)
