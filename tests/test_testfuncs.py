"""Test functions: certified derivative norms and Gaussian expectations.

The cosine family has closed forms for everything, so it anchors the other
checks. Finite-difference mixed partials on a grid must never beat the
certified sup-norms by more than 1e-6. The Gaussian smoothing of every
built-in family is checked against the tensor Gauss-Hermite rule of
``oracles.gauss_hermite_mean``.
"""

import itertools

import numpy as np
import pytest

from scipy import stats as sps

import oracles
from steinlab.errors import DimensionMismatch
from steinlab.testfuncs import (SmoothTestFunction, parse_test_function,
                                phi_h)

BUILTINS_1D = [
    SmoothTestFunction("cosine", p=1, a=(1.0,)),
    SmoothTestFunction("cosine", p=1, a=(2.0,), b=0.7),
    SmoothTestFunction("gauss-radial", p=1, scale=1.0),
    SmoothTestFunction("product-probit", p=1, a=(1.5,)),
]
BUILTINS_2D = [
    SmoothTestFunction("cosine", p=2, a=(1.0, 0.5)),
    SmoothTestFunction("gauss-radial", p=2, scale=1.2),
    SmoothTestFunction("product-probit", p=2, a=(1.0, 2.0)),
]


class TestCosineNorms:
    def test_unit_frequency(self):
        n = SmoothTestFunction("cosine", p=1, a=(1.0,)).derivative_norms()
        assert (n.h, n.d1, n.d2, n.d3) == (1.0, 1.0, 1.0, 1.0)

    def test_mixed_partial_max(self):
        n = SmoothTestFunction("cosine", p=2, a=(2.0, 0.5)).derivative_norms()
        assert n.d2 == 4.0  # max |a_i a_j|

    def test_constant_function(self):
        n = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.0).derivative_norms()
        assert (n.h, n.d1, n.d2, n.d3) == (1.0, 0.0, 0.0, 0.0)


def _fd_mixed_partial(h, points, axes, step=1e-3):
    """Central finite-difference mixed partial along the given axes."""
    stencil = {tuple(np.zeros(h.p)): 1.0}
    for ax in axes:
        new = {}
        for off, c in stencil.items():
            up = np.array(off)
            up[ax] += step
            dn = np.array(off)
            dn[ax] -= step
            new[tuple(up)] = new.get(tuple(up), 0.0) + c / (2 * step)
            new[tuple(dn)] = new.get(tuple(dn), 0.0) - c / (2 * step)
        stencil = new
    out = np.zeros(points.shape[0])
    for off, c in stencil.items():
        out += c * h.evaluate(points + np.array(off))
    return out


class TestCertifiedNormsDominateGridDerivatives:
    """Grid finite differences never exceed the certified norms by > 1e-6."""

    @pytest.mark.parametrize("h", BUILTINS_1D + BUILTINS_2D,
                             ids=lambda h: h.spec_string())
    def test_grid_domination(self, h):
        norms = h.derivative_norms()
        axis = np.linspace(-4.0, 4.0, 41 if h.p == 1 else 17)
        grids = np.meshgrid(*([axis] * h.p), indexing="ij")
        points = np.stack([g.reshape(-1) for g in grids], axis=1)
        assert float(np.max(np.abs(h.evaluate(points)))) <= norms.h + 1e-6
        for k in (1, 2, 3):
            worst = 0.0
            for axes in itertools.combinations_with_replacement(range(h.p), k):
                vals = _fd_mixed_partial(h, points, axes)
                worst = max(worst, float(np.max(np.abs(vals))))
            assert worst <= norms.order(k) + 1e-6, (k, worst, norms.order(k))


class TestCertifiedNormsAreTight:
    """The separable families' norms are the exact per-axis sups: a
    certified norm may not undershoot, and these do not overshoot."""

    @pytest.mark.parametrize("s", [1.0, 0.7, 2.5])
    def test_gauss_radial(self, s):
        r = 3.0 - np.sqrt(6.0)
        n = SmoothTestFunction("gauss-radial", p=1, scale=s).derivative_norms()
        np.testing.assert_allclose(
            [n.h, n.d1, n.d2, n.d3],
            [1.0, 1.0 / (s * np.sqrt(np.e)), 1.0 / s**2,
             np.sqrt(6.0 * r) * np.exp(-r / 2.0) / s**3], rtol=1e-14)

    @pytest.mark.parametrize("a", [1.5, -2.0, 0.3])
    def test_product_probit(self, a):
        """|a| phi(0), a^2 phi(1) and |a|^3 phi(0), phi the normal
        density; each is the largest of the derivative on a fine grid."""
        n = SmoothTestFunction("product-probit", p=1,
                               a=(a,)).derivative_norms()
        pdf = sps.norm.pdf
        np.testing.assert_allclose(
            [n.h, n.d1, n.d2, n.d3],
            [1.0, abs(a) * pdf(0.0), a**2 * pdf(1.0), abs(a)**3 * pdf(0.0)],
            rtol=1e-14)
        t = np.linspace(-8.0, 8.0, 160_001)
        np.testing.assert_allclose(
            [np.max(np.abs(d)) for d in (pdf(t), t * pdf(t),
                                        (t * t - 1.0) * pdf(t))],
            [n.d1 / abs(a), n.d2 / a**2, n.d3 / abs(a)**3], rtol=1e-9)

    def test_product_probit_zero_slope(self):
        """Phi(0 * w) is the constant 1/2."""
        n = SmoothTestFunction("product-probit", p=2,
                               a=(0.0, 2.0)).derivative_norms()
        assert n.h == 0.5
        assert n.d1 == pytest.approx(sps.norm.pdf(0.0), rel=1e-15)


class TestPhiH:
    def test_odd_function_is_zero(self):
        val = phi_h(oracles.PolynomialTestFunction(lambda x: x[:, 0], p=1))
        assert abs(val) < 1e-12

    def test_second_moment_is_one(self):
        val = phi_h(oracles.PolynomialTestFunction(lambda x: x[:, 0] ** 2,
                                                   p=1))
        np.testing.assert_allclose(val, 1.0, atol=1e-12)

    def test_cosine_characteristic_function(self):
        """E cos(a Z) = exp(-a^2 / 2)."""
        for a in (0.5, 1.0, 2.0):
            h = SmoothTestFunction("cosine", p=1, a=(a,))
            val = phi_h(h)
            np.testing.assert_allclose(val, np.exp(-0.5 * a * a), atol=1e-10)

    @pytest.mark.parametrize("h", BUILTINS_1D + BUILTINS_2D,
                             ids=lambda h: h.spec_string())
    def test_quadrature_matches_closed_form(self, h):
        """Tensor quadrature of ``h`` reproduces the built-in ``E h(Z)``."""
        val = phi_h(h)
        quad = oracles.gauss_hermite_mean(h.evaluate, np.zeros((1, h.p)),
                                          1.0, 40)
        np.testing.assert_allclose(val, quad[0], atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_quadrature_vs_monte_carlo(self, p):
        """``E h(c + sigma Z)`` agrees with a plain Monte Carlo mean within
        4 standard errors."""
        funcs = [
            SmoothTestFunction("cosine", p=p, a=tuple([0.8] * p)),
            SmoothTestFunction("gauss-radial", p=p, scale=1.0),
            SmoothTestFunction("product-probit", p=p, a=tuple([1.0] * p)),
        ]
        center = np.array([0.3, -0.2, 0.5][:p])
        sigma = 0.8
        z = np.random.default_rng(3).standard_normal((1_000_000, p))
        for h in funcs:
            exact = h.smoothed_mean(center, sigma)[0]
            vals = h.evaluate(center + sigma * z)
            sem = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(exact - vals.mean()) <= 4.0 * sem


SMOOTHING_CASES = BUILTINS_1D + BUILTINS_2D + [
    SmoothTestFunction("cosine", p=3, a=(0.5, -1.0, 0.25), b=0.3),
    SmoothTestFunction("gauss-radial", p=3, scale=0.8),
    SmoothTestFunction("product-probit", p=3, a=(1.0, -0.5, 2.0)),
]


class TestSmoothedMean:
    """The closed forms of ``E h(c + sigma Z)`` against the tensor
    Gauss-Hermite rule; with ``sigma = 0`` they return ``h(c)``."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("h", SMOOTHING_CASES,
                             ids=lambda h: h.spec_string())
    def test_matches_tensor_rule(self, h, sigma):
        """60 nodes per axis: at 40 the rule itself is off by 1.5e-9 on
        ``Phi(2 (c + Z))``, against 5e-13 at 60."""
        centers = np.random.default_rng(h.p).uniform(-2.5, 2.5, (7, h.p))
        centers[0] = 0.0
        got = h.smoothed_mean(centers, sigma)
        oracle = oracles.gauss_hermite_mean(h.evaluate, centers, sigma, 60)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)
        if sigma == 0.0:
            np.testing.assert_allclose(got, h.evaluate(centers),
                                       rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        h = SmoothTestFunction("gauss-radial", p=2)
        with pytest.raises(DimensionMismatch):
            h.smoothed_mean(np.zeros((3, 3)), 0.5)


class TestParsing:
    def test_cosine_spec(self):
        h = parse_test_function("cosine:a=1,0.5:b=0")
        assert h.kind == "cosine" and h.p == 2 and h.a == (1.0, 0.5)
        assert h.b == 0.0

    def test_radial_spec(self):
        h = parse_test_function("gauss-radial:scale=1.5:p=2")
        assert h.kind == "gauss-radial" and h.scale == 1.5 and h.p == 2

    def test_probit_spec(self):
        h = parse_test_function("probit:a=1,2")
        assert h.kind == "product-probit" and h.p == 2
        assert parse_test_function(h.spec_string()) == h

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_test_function("sine:a=1")

    def test_roundtrip(self):
        h = SmoothTestFunction("cosine", p=2, a=(0.5, 0.25), b=1.0)
        assert parse_test_function(h.spec_string()) == h


class TestLengthScale:
    @pytest.mark.parametrize("h,scale", [
        (SmoothTestFunction("gauss-radial", p=2, scale=0.01), 0.01),
        (SmoothTestFunction("cosine", p=2, a=(0.5, -4.0)), 0.25),
        (SmoothTestFunction("product-probit", p=2, a=(-8.0, 2.0)), 0.125),
        (SmoothTestFunction("cosine", p=2, a=(0.0, 0.0), b=1.0), np.inf),
        (SmoothTestFunction("product-probit", p=1, a=(0.0,)), np.inf),
    ], ids=["gauss-radial", "cosine", "product-probit", "cosine-a=0",
            "product-probit-a=0"])
    def test_each_kind(self, h, scale):
        """``scale`` for gauss-radial, ``1 / max |a_i|`` otherwise."""
        assert h.length_scale == scale


class TestValidation:
    def test_dimension_mismatch_on_eval(self):
        h = SmoothTestFunction("cosine", p=2, a=(1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            h.evaluate(np.zeros((3, 3)))
