"""Numerical solution of the multivariate Stein equation and its checks.

For a smooth test function ``h`` with standard-normal mean ``phi``, the
function

    g(w) = -int_0^inf [ E h(w e^{-u} + sqrt(1 - e^{-2u}) Z) - phi ] du

solves ``tr D^2 g(w) - w . grad g(w) = h(w) - phi`` and obeys the derivative
bounds ``|d^k g| <= ||D^k h|| / k``. This module evaluates ``g`` as a
one-dimensional integral over the smoothing time, whose integrand is the
Gaussian smoothing ``E h(c + sigma Z)`` of ``testfuncs.smoothed_mean`` (a
closed form for the built-in families), and verifies both facts pointwise
with finite differences.

The substitution ``s = e^{-u}`` turns the integral into
``-int_0^1 [E h(w s + sqrt(1-s^2) Z) - phi] ds / s``. We integrate in the
angle ``phi_ang`` with ``s = cos(phi_ang)`` so the integrand is analytic on
``[0, pi/2]`` and no node ever touches ``s = 0``; Gauss-Legendre levels are
doubled until the values stabilize.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, QuadratureNotConverged
from .testfuncs import (GaussianExpectation, SmoothTestFunction, phi_h,
                        smoothed_mean)

FD_STEP_LOW_ORDER = 1e-3   # finite-difference step for orders 1 and 2
FD_STEP_THIRD = 5e-3       # order 3 trades truncation against quadrature noise


@lru_cache(maxsize=32)
def _legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    # map [-1, 1] -> [0, pi/2]
    ang = (x + 1.0) * (np.pi / 4.0)
    return ang, w * (np.pi / 4.0)


def _as_evaluator(h, p):
    if isinstance(h, SmoothTestFunction):
        return h.evaluate, h.p
    if p is None:
        raise DimensionMismatch("p is required when h is a raw callable")
    return h, p


class SteinSolution:
    """Evaluator for the Stein-equation solution ``g`` attached to one ``h``.

    Parameters
    ----------
    h : SmoothTestFunction or callable
        Test function. A raw callable needs ``p`` and ``phi`` supplied.
    phi : float, optional
        ``E h(Z)``; computed by :func:`~steinlab.testfuncs.phi_h` when
        omitted.
    gh_nodes : int
        Gauss-Hermite nodes per axis for the inner Gaussian expectation.
        Only product-logistic and raw callables use it; cosine and
        gauss-radial smooth in closed form.
    tol : float
        Quadrature refinement tolerance on values of ``g``.
    """

    def __init__(self, h, phi: float | None = None, p: int | None = None,
                 gh_nodes: int = 40, tol: float = 1e-8,
                 start_nodes: int = 32, max_nodes: int = 512):
        self.h = h
        self.h_eval, self.p = _as_evaluator(h, p)
        self.gh_nodes = gh_nodes
        self.tol = tol
        self.start_nodes = start_nodes
        self.max_nodes = max_nodes
        if phi is None:
            phi = phi_h(h, GaussianExpectation(nodes=gh_nodes), p=self.p)
        self.phi = float(phi)
        self.s_nodes: np.ndarray | None = None
        self.s_weights: np.ndarray | None = None

    # g evaluation --------------------------------------------------------

    def _g_level(self, w: np.ndarray, n_leg: int):
        ang, wt = _legendre_rule(n_leg)
        s_nodes = np.cos(ang)
        s_weights = wt * np.tan(ang)
        smooth = np.stack([
            smoothed_mean(self.h, s * w, np.sqrt(1.0 - s**2), self.gh_nodes)
            for s in s_nodes])
        # canonical node-order contraction keeps the value reproducible
        total = s_weights @ (smooth - self.phi)
        return -total, s_nodes, s_weights

    def g(self, w) -> np.ndarray:
        """Value of ``g`` at each row of ``w``, by adaptive quadrature.

        The refinement level is chosen on a probe subsample (the error
        varies smoothly with the evaluation point), then the full batch is
        evaluated once at the converged level.
        """
        w = np.atleast_2d(np.asarray(w, dtype=float))
        if w.shape[1] != self.p:
            raise DimensionMismatch(
                f"points have dimension {w.shape[1]}, expected {self.p}"
            )
        m = w.shape[0]
        probe = w if m <= 96 else w[:: max(1, m // 64)]
        n = self.start_nodes
        prev = None
        converged = None
        while n <= self.max_nodes:
            val, s_nodes, s_weights = self._g_level(probe, n)
            if prev is not None and float(np.max(np.abs(val - prev))) < self.tol:
                converged = n
                break
            prev = val
            n *= 2
        if converged is None:
            raise QuadratureNotConverged(
                f"g quadrature did not reach tol {self.tol} "
                f"by {self.max_nodes} nodes"
            )
        if probe is w:
            self.s_nodes, self.s_weights = s_nodes, s_weights
            return val
        out, s_nodes, s_weights = self._g_level(w, converged)
        self.s_nodes, self.s_weights = s_nodes, s_weights
        return out

    # Checks ---------------------------------------------------------------

    def pde_residual(self, w, fd_step: float = FD_STEP_LOW_ORDER) -> np.ndarray:
        """``|tr D^2 g(w) - w . grad g(w) - (h(w) - phi)|`` per row of ``w``.

        Derivatives of ``g`` are central finite differences with step
        ``fd_step``.
        """
        return self._checks(w, fd_step, {})[0]

    def derivative_violation(self, grid, k: int, norm_k: float | None = None,
                             fd_step: float | None = None) -> float:
        """Max over the grid of ``|fd d^k g| - norm_k / k``.

        A nonpositive result confirms the derivative bound numerically at
        every grid point and multi-index of order ``k``.
        """
        if not 1 <= k <= 3:
            raise ValueError("k must be 1, 2 or 3")
        if fd_step is None:
            fd_step = FD_STEP_THIRD if k == 3 else FD_STEP_LOW_ORDER
        if norm_k is None:
            raise ValueError("norm_k is required (certified ||D^k h||)")
        return self._checks(grid, None, {k: fd_step})[1][k] - norm_k / k

    def run_checks(self, grid, norms=None, fd_step: float = FD_STEP_LOW_ORDER,
                   fd_step_third: float = FD_STEP_THIRD) -> dict:
        """Residual and all derivative-cap checks from one shared g batch.

        Equivalent to calling :meth:`pde_residual` and
        :meth:`derivative_violation` for k = 1..3, but every distinct
        offset point is evaluated exactly once.
        """
        if norms is None:
            raise ValueError("norms are required (certified sup-norms)")
        residual, sups = self._checks(
            grid, fd_step, {1: fd_step, 2: fd_step, 3: fd_step_third})
        out = {"max_pde_residual": float(np.max(residual))}
        for k in (1, 2, 3):
            out[f"derivative_violation_{k}"] = sups[k] - norms.order(k) / k
        return out

    def _checks(self, grid, residual_step, steps: dict):
        """Offset table, one ``g`` batch, stencil contraction: the path
        behind every check. Returns the residual per grid point (``None``
        without ``residual_step``) and ``{k: max |fd d^k g|}`` over the grid
        and all order-``k`` multi-indices, with step ``steps[k]``."""
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        m, p = grid.shape
        # the keys of a first-order stencil are the +step and -step shifts
        shifts = ([_fd_stencil((i,), residual_step, p) for i in range(p)]
                  if residual_step is not None else [])
        stencil_sets = {
            k: [_fd_stencil(axes, step, p) for axes in
                itertools.combinations_with_replacement(range(p), k)]
            for k, step in steps.items()}
        offsets: dict[tuple, int] = {(0.0,) * p: 0} if shifts else {}
        for stencil in itertools.chain(shifts, *stencil_sets.values()):
            for off in stencil:
                offsets.setdefault(off, len(offsets))
        offset_arr = np.array(list(offsets), dtype=float)
        points = (grid[:, None, :] + offset_arr[None, :, :]).reshape(-1, p)
        vals = self.g(points).reshape(m, len(offsets))
        residual = None
        if shifts:
            g0 = vals[:, 0]
            lap = np.zeros(m)
            dot = np.zeros(m)
            for i, shift in enumerate(shifts):
                up, dn = (vals[:, offsets[off]] for off in shift)
                lap += (up - 2.0 * g0 + dn) / residual_step**2
                dot += grid[:, i] * (up - dn) / (2.0 * residual_step)
            residual = np.abs(lap - dot - (self.h_eval(grid) - self.phi))
        sups = {}
        for k, stencils in stencil_sets.items():
            sups[k] = -np.inf
            for stencil in stencils:
                deriv = np.zeros(m)
                for off, coeff in stencil.items():
                    deriv += coeff * vals[:, offsets[off]]
                sups[k] = max(sups[k], float(np.max(np.abs(deriv))))
        return residual, sups


def _fd_stencil(axes, step: float, p: int):
    """Central-difference stencil for the mixed partial along ``axes``.

    Built by composing the two-point central difference once per axis
    occurrence; offsets are absolute displacements.
    """
    stencil = {(0.0,) * p: 1.0}
    for ax in axes:
        new: dict[tuple, float] = {}
        for off, c in stencil.items():
            up = list(off)
            up[ax] += step
            dn = list(off)
            dn[ax] -= step
            new[tuple(up)] = new.get(tuple(up), 0.0) + c / (2.0 * step)
            new[tuple(dn)] = new.get(tuple(dn), 0.0) - c / (2.0 * step)
        stencil = new
    return stencil


def grid_points(p: int, extent: float = 2.0, per_axis: int = 21) -> np.ndarray:
    """Uniform grid over ``[-extent, extent]^p`` as an ``(m, p)`` array."""
    axis = np.linspace(-extent, extent, per_axis)
    grids = np.meshgrid(*([axis] * p), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)
