"""Finite laws and the statistical check of the coupling identity.

The model couplers are checked against enumeration oracles in their own
test modules; here the characterization check itself gets a positive and
a negative control built on a model coupler, and the distinct-label
sampler the couplings share is checked against its sorting version.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import steinlab.nonlinear as nl
from steinlab.sizebias import (DiscreteDistribution, distinct_labels,
                               verify_characterization)


@st.composite
def _label_requests(draw):
    """Rows of ``[0, high)`` label ranges under one stride, each with some
    excluded labels (maybe none at all) and a wanted count that the labels
    left can meet."""
    stride = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 6))
    high = np.array([draw(st.integers(1, stride)) for _ in range(rows)])
    exclude, want = [], []
    for r in range(rows):
        labels = draw(st.sets(st.integers(0, stride - 1), max_size=stride))
        exclude += [r * stride + x for x in sorted(labels)]
        free = int(high[r]) - sum(x < high[r] for x in labels)
        want.append(draw(st.integers(0, free)))
    return high, np.array(want), stride, exclude or ()


class TestDistinctLabels:
    @settings(max_examples=60, deadline=None)
    @given(_label_requests(), st.integers(0, 2**32 - 1))
    # exclude=(), as the multinomial ball mover passes it
    @example((np.array([5, 9]), np.array([2, 4]), 9, ()), 3)
    def test_lookup_matches_sorting_version(self, request, seed):
        """The boolean-table rejections keep the keys ``np.isin`` keeps,
        in the same order, and leave the stream in the same place, with
        and without excluded keys."""
        high, want, stride, exclude = request
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = distinct_labels(rng, high, want, stride, exclude=exclude)
        ref = oracles.distinct_labels_by_sorting(ref_rng, high, want, stride,
                                                  exclude=exclude)
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype
        assert rng.random() == ref_rng.random()
        row, label = np.divmod(got, stride)
        assert np.array_equal(np.bincount(row, minlength=high.size), want)
        assert np.all(label < high[row]) and not np.isin(got, exclude).any()


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
