"""Numerical solution of the multivariate Stein equation and its checks.

For a smooth test function ``h`` with standard-normal mean ``phi``, the
function

    g(w) = -int_0^inf [ E h(w e^{-u} + sqrt(1 - e^{-2u}) Z) - phi ] du

solves ``tr D^2 g(w) - w . grad g(w) = h(w) - phi`` and obeys the derivative
bounds ``|d^k g| <= ||D^k h|| / k``. This module evaluates ``g`` as a
one-dimensional integral over the smoothing time, whose integrand is the
test function's Gaussian smoothing ``h.smoothed_mean`` (a closed form for
every built-in family, in any dimension), and verifies both facts pointwise
with finite differences in :meth:`SteinSolution.run_checks`, whose step for
the residual and orders 1 and 2 follows ``h.length_scale``.

The substitution ``s = e^{-u}`` turns the integral into
``-int_0^1 [E h(w s + sqrt(1-s^2) Z) - phi] ds / s``. We integrate in the
angle ``phi_ang`` with ``s = cos(phi_ang)`` so the integrand is analytic on
``[0, pi/2]`` and no node ever touches ``s = 0``. Each block of points doubles
its own Gauss-Legendre level until its values stabilize.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, QuadratureNotConverged, SteinLabError
from .testfuncs import SmoothTestFunction, phi_h, tensor_grid

FD_STEP_LOW_ORDER = 1e-3   # orders 1 and 2, times min(1, h.length_scale)
FD_STEP_THIRD = 5e-3       # order 3 trades truncation against quadrature noise
G_TOL = 1e-8               # refinement tolerance on values of g
LEGENDRE_START = 16        # Gauss-Legendre nodes of the first level
LEGENDRE_MAX = 512         # nodes of the last level tried
G_BLOCK_VALUES = 1 << 18   # most smoothed values one stack of g holds
GRID_EXTENT = 2.0          # half-width of the cube the check grid covers
CHECK_TOL = 1e-3           # largest residual or cap excess that passes
CHECK_POINTS_MAX = 1 << 22  # g points (grid x stencil offsets) of one check


@lru_cache(maxsize=32)
def _legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    # map [-1, 1] -> [0, pi/2]
    ang = (x + 1.0) * (np.pi / 4.0)
    return np.cos(ang), w * (np.pi / 4.0) * np.tan(ang)


class SteinSolution:
    """Evaluator for the Stein-equation solution ``g`` attached to one ``h``,
    whose Gaussian smoothing ``h.smoothed_mean`` is exact. ``phi`` is
    ``E h(Z)``.
    """

    def __init__(self, h: SmoothTestFunction):
        self.h = h
        self.p = h.p
        self.phi = phi_h(h)
        self.fd_step = FD_STEP_LOW_ORDER * min(1.0, h.length_scale)
        # the difference step of each derivative order the checks take
        self.steps = {1: self.fd_step, 2: self.fd_step, 3: FD_STEP_THIRD}
        self.s_nodes: np.ndarray | None = None
        self.s_weights: np.ndarray | None = None

    # g evaluation --------------------------------------------------------

    def _g_level(self, w: np.ndarray, n_leg: int) -> np.ndarray:
        """``g`` at the rows of ``w`` by the ``n_leg``-node rule, in slices
        of rows whose smoothed values fit :data:`G_BLOCK_VALUES`."""
        s_nodes, s_weights = _legendre_rule(n_leg)
        rows = max(1, G_BLOCK_VALUES // n_leg)
        out = np.empty(len(w))
        for lo in range(0, len(w), rows):
            smooth = np.stack([
                self.h.smoothed_mean(s * w[lo:lo + rows], np.sqrt(1.0 - s**2))
                for s in s_nodes])
            # canonical node-order contraction keeps the value reproducible
            out[lo:lo + rows] = -(s_weights @ (smooth - self.phi))
        return out

    def g(self, w) -> np.ndarray:
        """Value of ``g`` at each row of ``w``, by adaptive quadrature.

        Each block of ``G_BLOCK_VALUES // LEGENDRE_START`` rows doubles its
        own Gauss-Legendre level until two levels agree within
        :data:`G_TOL` at all its points, and keeps the finer level's values.
        :attr:`s_nodes` and :attr:`s_weights` hold the highest level used.
        """
        w = np.atleast_2d(np.asarray(w, dtype=float))
        if w.shape[1] != self.p:
            raise DimensionMismatch(
                f"points have dimension {w.shape[1]}, expected {self.p}"
            )
        rows = max(1, G_BLOCK_VALUES // LEGENDRE_START)
        out = np.empty(w.shape[0])
        top = LEGENDRE_START
        for lo in range(0, w.shape[0], rows):
            block = w[lo:lo + rows]
            prev = self._g_level(block, LEGENDRE_START)
            n = 2 * LEGENDRE_START
            while n <= LEGENDRE_MAX:
                val = self._g_level(block, n)
                if float(np.max(np.abs(val - prev))) < G_TOL:
                    break
                prev, n = val, 2 * n
            else:
                raise QuadratureNotConverged(
                    f"g quadrature did not reach tol {G_TOL} "
                    f"by {LEGENDRE_MAX} nodes")
            out[lo:lo + rows] = val
            top = max(top, n)
        self.s_nodes, self.s_weights = _legendre_rule(top)
        return out

    # Checks ---------------------------------------------------------------

    @cached_property
    def offsets(self) -> dict:
        """Every distinct stencil offset of the checks, zero first, mapped
        to its column in their ``g`` batch (the residual's shifts are the
        order-1 offsets)."""
        offsets: dict[tuple, int] = {(0.0,) * self.p: 0}
        for k, step in self.steps.items():
            for stencil in _stencils(k, step, self.p):
                for off in stencil:
                    offsets.setdefault(off, len(offsets))
        return offsets

    def run_checks(self, grid, norms) -> dict:
        """The PDE residual and the derivative caps of orders 1 to 3 on
        ``grid``, against the certified sup-norms ``norms``.

        Orders 1 and 2 and the residual take central differences with step
        :attr:`fd_step`, order 3 with :data:`FD_STEP_THIRD`. One ``g`` batch
        covers every point of :attr:`offsets` around every grid point;
        :meth:`pde_residual` and :meth:`derivative_violation` read it. A
        batch of more than :data:`CHECK_POINTS_MAX` points is refused
        before it is built.
        """
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        m, p = grid.shape
        offsets = self.offsets
        _refuse_past_cap(m, len(offsets))
        offset_arr = np.array(list(offsets), dtype=float)
        points = (grid[:, None, :] + offset_arr[None, :, :]).reshape(-1, p)
        vals = self.g(points).reshape(m, len(offsets))
        g_at = {off: vals[:, col] for off, col in offsets.items()}
        out = {"max_pde_residual":
               float(np.max(self.pde_residual(grid, g_at)))}
        for k, step in self.steps.items():
            out[f"derivative_violation_{k}"] = self.derivative_violation(
                g_at, k, norms.order(k), step)
        return out

    def pde_residual(self, grid: np.ndarray, g_at: dict) -> np.ndarray:
        """``|tr D^2 g(w) - w . grad g(w) - (h(w) - phi)|`` per row ``w`` of
        ``grid``, where ``g_at[offset]`` holds ``g(grid + offset)`` for the
        zero offset and the ``+-fd_step`` shifts along each axis."""
        g0 = g_at[(0.0,) * self.p]
        lap = np.zeros(grid.shape[0])
        dot = np.zeros(grid.shape[0])
        for i, shift in enumerate(_stencils(1, self.fd_step, self.p)):
            up, dn = (g_at[off] for off in shift)
            lap += (up - 2.0 * g0 + dn) / self.fd_step**2
            dot += grid[:, i] * (up - dn) / (2.0 * self.fd_step)
        return np.abs(lap - dot - (self.h.evaluate(grid) - self.phi))

    def derivative_violation(self, g_at: dict, k: int, norm_k: float,
                             fd_step: float) -> float:
        """Max over the grid and the order-``k`` multi-indices of
        ``|fd d^k g| - norm_k / k``, from the values ``g_at[offset] =
        g(grid + offset)`` at the offsets of the order-``k`` stencils.

        A nonpositive result confirms the derivative bound numerically at
        every grid point and multi-index of order ``k``.
        """
        sup = -np.inf
        for stencil in _stencils(k, fd_step, self.p):
            deriv = sum(coeff * g_at[off] for off, coeff in stencil.items())
            sup = max(sup, float(np.max(np.abs(deriv))))
        return sup - norm_k / k


def _stencils(k: int, step: float, p: int) -> list:
    """The central-difference stencils of every order-``k`` mixed partial
    in ``R^p``, one per multi-index, in lexicographic order."""
    return [_fd_stencil(axes, step, p) for axes in
            itertools.combinations_with_replacement(range(p), k)]


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


def _refuse_past_cap(m: int, offsets: int) -> None:
    """Refuse a check of ``m`` grid points times ``offsets`` offsets."""
    if m * offsets > CHECK_POINTS_MAX:
        raise SteinLabError(
            f"{m} grid points times {offsets} stencil offsets is "
            f"{m * offsets} points of g, more than {CHECK_POINTS_MAX}; "
            f"use fewer grid points")


def grid_points(p: int, per_axis: int = 21, offsets: int = 1) -> np.ndarray:
    """Uniform ``(m, p)`` grid over ``[-GRID_EXTENT, GRID_EXTENT]^p``. A
    grid whose check, at ``offsets`` stencil offsets per point, would take
    more than :data:`CHECK_POINTS_MAX` points of ``g`` is refused before
    it is built."""
    if per_axis**p > CHECK_POINTS_MAX:
        raise SteinLabError(f"{per_axis}**{p} grid points is more than "
                            f"{CHECK_POINTS_MAX}; use fewer grid points")
    _refuse_past_cap(per_axis**p, offsets)
    return tensor_grid(np.linspace(-GRID_EXTENT, GRID_EXTENT, per_axis), p)
