"""Smoothing-equation solution: closed forms, residuals, derivative caps.

Two polynomial test functions have exact solutions (g = -w and
g = -(w^2 - 1)/2), pinning the quadrature; the built-in families are then
checked through the residual of the defining identity. Every residual and
cap comes from :meth:`SteinSolution.run_checks`, the one check path.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from steinlab import stein
from steinlab.errors import QuadratureNotConverged
from steinlab.stein import SteinSolution, grid_points
from steinlab.testfuncs import DerivativeNorms, SmoothTestFunction

LINEAR = oracles.PolynomialTestFunction(lambda x: x[:, 0], p=1)
SQUARE = oracles.PolynomialTestFunction(lambda x: x[:, 0] ** 2, p=1)
# sup-norms of h, Dh, D^2 h and D^3 h for w and w^2 on the real line
LINEAR_NORMS = DerivativeNorms(np.inf, 1.0, 0.0, 0.0)
SQUARE_NORMS = DerivativeNorms(np.inf, np.inf, 2.0, 0.0)


def _checks(h, grid, norms=None):
    norms = norms or h.derivative_norms()
    return SteinSolution(h).run_checks(grid, norms)


class TestClosedFormSolutions:
    def test_linear(self):
        w = np.array([[1.5], [0.25], [-2.0]])
        np.testing.assert_allclose(SteinSolution(LINEAR).g(w),
                                   -w[:, 0], atol=1e-6)

    def test_quadratic(self):
        w = np.array([[1.5], [-0.5], [2.0]])
        np.testing.assert_allclose(SteinSolution(SQUARE).g(w),
                                   -(w[:, 0] ** 2 - 1.0) / 2.0, atol=1e-6)

    def test_constant_h_gives_zero(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.5)
        w = np.array([[0.7], [-1.1]])
        np.testing.assert_allclose(SteinSolution(h).g(w), 0.0, atol=1e-12)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(stein, "G_TOL", 1e-16)
        monkeypatch.setattr(stein, "LEGENDRE_START", 8)
        monkeypatch.setattr(stein, "LEGENDRE_MAX", 8)
        sol = SteinSolution(SQUARE)
        with pytest.raises(QuadratureNotConverged):
            sol.g(np.array([[1.0]]))

    def test_quadrature_nodes_in_unit_interval(self):
        sol = SteinSolution(LINEAR)
        sol.g(np.array([[1.0]]))
        assert np.all(sol.s_nodes > 0.0) and np.all(sol.s_nodes <= 1.0)
        assert np.all(sol.s_weights > 0.0)


class TestResidual:
    def test_linear_residual_small(self):
        res = _checks(LINEAR, np.array([[0.8], [-1.3]]), LINEAR_NORMS)
        assert res["max_pde_residual"] < 1e-6

    def test_quadratic_residual_small(self):
        res = _checks(SQUARE, np.array([[1.5]]), SQUARE_NORMS)
        assert res["max_pde_residual"] < 1e-6

    def test_constant_residual_exact(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.0)
        assert _checks(h, np.array([[0.5]]))["max_pde_residual"] < 1e-13

    @pytest.mark.parametrize("h", [
        SmoothTestFunction("cosine", p=1, a=(1.0,)),
        SmoothTestFunction("gauss-radial", p=1, scale=1.0),
        SmoothTestFunction("product-probit", p=1, a=(1.5,)),
    ], ids=lambda h: h.spec_string())
    def test_builtin_residual_1d(self, h):
        grid = grid_points(1, 21)
        assert _checks(h, grid)["max_pde_residual"] <= 1e-3

    @pytest.mark.parametrize("h", [
        SmoothTestFunction("cosine", p=2, a=(1.0, 0.5)),
        SmoothTestFunction("gauss-radial", p=2, scale=1.2),
        SmoothTestFunction("product-probit", p=2, a=(1.0, 2.0)),
    ], ids=lambda h: h.spec_string())
    def test_builtin_residual_2d(self, h):
        grid = grid_points(2, 9)
        assert _checks(h, grid)["max_pde_residual"] <= 1e-3


class TestDerivativeBound:
    def test_constant_no_violation(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,))
        grid = grid_points(1, 9)
        assert _checks(h, grid)["derivative_violation_1"] <= 0.0

    def test_quadratic_bound_is_tight(self):
        """|g''| = 1 against the cap ||D^2 h|| / 2 = 1: violation ~ 0."""
        grid = grid_points(1, 9)
        v = _checks(SQUARE, grid, SQUARE_NORMS)["derivative_violation_2"]
        assert abs(v) <= 1e-4

    def test_cosine_first_derivative(self):
        h = SmoothTestFunction("cosine", p=1, a=(1.0,))
        grid = grid_points(1, 21)
        assert _checks(h, grid)["derivative_violation_1"] <= 1e-3

    def test_all_orders_cosine_2d(self):
        h = SmoothTestFunction("cosine", p=2, a=(1.0, 0.5))
        grid = grid_points(2, 7)
        checks = _checks(h, grid)
        for k in (1, 2, 3):
            assert checks[f"derivative_violation_{k}"] <= 1e-3


class TestOneCheckPath:
    def test_one_g_batch_two_stages(self, monkeypatch):
        """run_checks evaluates g once, on every distinct offset point of
        every stencil, and reads that batch in one residual stage and one
        cap stage per order."""
        calls = []
        for name in ("g", "pde_residual", "derivative_violation"):
            def spy(self, *args, _name=name,
                    _original=getattr(SteinSolution, name)):
                calls.append((_name, args))
                return _original(self, *args)

            monkeypatch.setattr(SteinSolution, name, spy)
        h = SmoothTestFunction("cosine", p=2, a=(1.0, 0.5))
        grid = grid_points(2, 5)
        # offsets besides zero: order 1 at step e, (+-e, 0) and (0, +-e);
        # order 2 adds (+-2e, 0), (0, +-2e) and (+-e, +-e); order 3 at its
        # own step t, (+-t, 0), (+-3t, 0), (+-2t, +-t), (0, +-t),
        # (+-t, +-2t) and (0, +-3t)
        distinct = 1 + 4 + 8 + 16
        SteinSolution(h).run_checks(grid, h.derivative_norms())
        assert [name for name, _ in calls] == [
            "g", "pde_residual"] + ["derivative_violation"] * 3
        assert len(calls[0][1][0]) == len(grid) * distinct
        assert [args[1] for _, args in calls[2:]] == [1, 2, 3]


class TestBatchMemory:
    H = SmoothTestFunction("cosine", p=2, a=(1.0, 0.5))

    def test_blocks_give_the_one_block_values(self, monkeypatch):
        """g at the converged level is the same in blocks of a few rows as
        in one block."""
        w = grid_points(2, 15)
        whole = SteinSolution(self.H).g(w)
        monkeypatch.setattr(stein, "G_BLOCK_VALUES", 64 * 7)
        np.testing.assert_allclose(SteinSolution(self.H).g(w), whole,
                                   rtol=0.0, atol=1e-14)

    def test_check_peak_is_capped(self):
        """At 61 grid points the checks evaluate g at 107,909 points, which
        in one block peaked at 108 MiB traced."""
        grid = grid_points(2, 61)
        tracemalloc.start()
        try:
            SteinSolution(self.H).run_checks(grid,
                                             self.H.derivative_norms())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
