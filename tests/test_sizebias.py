"""Finite laws and the statistical check of the coupling identity.

The model couplers are checked against enumeration oracles in their own
test modules; here the characterization check itself gets a positive and
a negative control built on a model coupler.
"""

import numpy as np
import pytest

import steinlab.nonlinear as nl
from steinlab.sizebias import DiscreteDistribution, verify_characterization


class TestDiscreteDistribution:
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


def _gauss_square_coupler():
    return nl.GaussianSumCoupler(
        nl.GaussianSumConfig(8, nl.parse_psi("square"), rho=0.2))


class TestVerifyCharacterization:
    def test_model_coupler_near_zero(self):
        res = verify_characterization(_gauss_square_coupler(),
                                      samples=50_000, seed=1)
        assert res.max_abs_z <= 4.0

    def test_broken_sampler_flagged(self):
        """Skipping the size-bias step must blow up some z-score."""
        class Broken(nl.GaussianSumCoupler):
            def couple(self, u, i, rng):
                return self.w(u)

        res = verify_characterization(Broken(_gauss_square_coupler().cfg),
                                      samples=100_000, seed=2)
        assert res.max_abs_z > 4.0
