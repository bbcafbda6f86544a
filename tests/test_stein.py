"""Smoothing-equation solution: closed forms, residuals, derivative caps.

Two polynomial test functions have exact solutions (g = -w and
g = -(w^2 - 1)/2), pinning the quadrature; the built-in families are then
checked through the residual of the defining identity.
"""

import numpy as np
import pytest

from steinlab.errors import QuadratureNotConverged
from steinlab.stein import SteinSolution, grid_points
from steinlab.testfuncs import SmoothTestFunction


def _linear(x):
    return x[:, 0]


def _square(x):
    return x[:, 0] ** 2


class TestClosedFormSolutions:
    def test_linear(self):
        w = np.array([[1.5], [0.25], [-2.0]])
        np.testing.assert_allclose(SteinSolution(_linear, phi=0.0, p=1).g(w),
                                   -w[:, 0], atol=1e-6)

    def test_quadratic(self):
        w = np.array([[1.5], [-0.5], [2.0]])
        np.testing.assert_allclose(SteinSolution(_square, phi=1.0, p=1).g(w),
                                   -(w[:, 0] ** 2 - 1.0) / 2.0, atol=1e-6)

    def test_constant_h_gives_zero(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.5)
        w = np.array([[0.7], [-1.1]])
        np.testing.assert_allclose(SteinSolution(h).g(w), 0.0, atol=1e-12)

    def test_non_convergence_raises(self):
        sol = SteinSolution(_square, phi=1.0, p=1, tol=1e-16,
                            start_nodes=8, max_nodes=8)
        with pytest.raises(QuadratureNotConverged):
            sol.g(np.array([[1.0]]))

    def test_quadrature_nodes_in_unit_interval(self):
        sol = SteinSolution(_linear, phi=0.0, p=1)
        sol.g(np.array([[1.0]]))
        assert np.all(sol.s_nodes > 0.0) and np.all(sol.s_nodes <= 1.0)
        assert np.all(sol.s_weights > 0.0)


class TestResidual:
    def test_linear_residual_small(self):
        sol = SteinSolution(_linear, phi=0.0, p=1)
        res = sol.pde_residual(np.array([[0.8], [-1.3]]))
        assert np.max(res) < 1e-6

    def test_quadratic_residual_small(self):
        sol = SteinSolution(_square, phi=1.0, p=1)
        res = sol.pde_residual(np.array([[1.5]]))
        assert np.max(res) < 1e-6

    def test_constant_residual_exact(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.0)
        res = SteinSolution(h).pde_residual(np.array([[0.5]]))
        assert np.max(res) < 1e-13

    @pytest.mark.parametrize("h", [
        SmoothTestFunction("cosine", p=1, a=(1.0,)),
        SmoothTestFunction("gauss-radial", p=1, scale=1.0),
        SmoothTestFunction("product-logistic", p=1, a=(1.5,)),
    ], ids=lambda h: h.spec_string())
    def test_builtin_residual_1d(self, h):
        grid = grid_points(1, 2.0, 21)
        res = SteinSolution(h).pde_residual(grid)
        assert float(np.max(res)) <= 1e-3

    @pytest.mark.parametrize("h", [
        SmoothTestFunction("cosine", p=2, a=(1.0, 0.5)),
        SmoothTestFunction("gauss-radial", p=2, scale=1.2),
        SmoothTestFunction("product-logistic", p=2, a=(1.0, 2.0)),
    ], ids=lambda h: h.spec_string())
    def test_builtin_residual_2d(self, h):
        grid = grid_points(2, 2.0, 9)
        assert float(np.max(SteinSolution(h).pde_residual(grid))) <= 1e-3


class TestDerivativeBound:
    def test_constant_no_violation(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,))
        grid = grid_points(1, 2.0, 9)
        assert SteinSolution(h).derivative_violation(
            grid, 1, norm_k=h.derivative_norms().d1) <= 0.0

    def test_quadratic_bound_is_tight(self):
        """|g''| = 1 against the cap ||D^2 h|| / 2 = 1: violation ~ 0."""
        grid = grid_points(1, 2.0, 9)
        v = SteinSolution(_square, phi=1.0, p=1).derivative_violation(
            grid, 2, norm_k=2.0)
        assert abs(v) <= 1e-4

    def test_cosine_first_derivative(self):
        h = SmoothTestFunction("cosine", p=1, a=(1.0,))
        grid = grid_points(1, 2.0, 21)
        assert SteinSolution(h).derivative_violation(
            grid, 1, norm_k=h.derivative_norms().d1) <= 1e-3

    def test_all_orders_cosine_2d(self):
        h = SmoothTestFunction("cosine", p=2, a=(1.0, 0.5))
        grid = grid_points(2, 2.0, 7)
        sol, norms = SteinSolution(h), h.derivative_norms()
        for k in (1, 2, 3):
            assert sol.derivative_violation(grid, k,
                                            norm_k=norms.order(k)) <= 1e-3
