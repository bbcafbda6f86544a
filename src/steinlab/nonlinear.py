"""Size-bias couplings for sums ``W = sum_i psi(U_i)`` of nonnegative
functions of Gaussian or multinomial argument vectors.

The coupling follows the argument-vector recipe: pick a summand index with
probability proportional to ``E psi_i(U_i)``, redraw that argument from its
psi-tilted marginal, and move the remaining arguments to their conditional
law given the new value. For jointly Gaussian arguments with unit variances
and one pair covariance rho, valid for ``-1/(n-1) < rho < 1``, the
conditional move is the linear update ``Y_j = U_j + rho (y - U_I)``; for
equiprobable multinomial cell counts it moves single balls: cell counts are
drawn by throwing each ball into a uniform cell, and the coupling pulls
distinct uniform balls from the other cells into the picked one, or spills
its extra balls each into a uniform other cell, so its work grows with the
balls moved rather than with n. Both feed the univariate size-bias bound.
The tilted Gaussian laws of the named psi and both couplers' conditional
means ``E[W* - W | U]`` are exact, so only the draws of U are Monte Carlo.
A state is a batch of argument rows, ``row_values = n`` values each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log

import numpy as np

from .bounds import (CouplingStats, bound_univariate_size_bias,
                     floor_mean_sq_diff)
from .errors import (InfeasibleAdjustment, InvariantViolation,
                     NonfiniteMoment, NotPositiveDefinite)
from .harness import Accumulator
from .linalg import inverse_sqrt
from .sizebias import CoupledPairSampler, DiscreteDistribution, distinct_labels
from .testfuncs import _upper_tail


# ---------------------------------------------------------------------------
# Nonnegative summand functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiFunction:
    """A named nonnegative summand function.

    ``square`` is ``u^2``, ``exp`` is ``e^u``, ``indicator`` is ``1{u > 0}``.
    There is no scale: the bounds are stated for the standardized sum
    ``(W - lam) / sigma``, which no positive multiple of psi changes.
    """

    name: str

    _GAUSSIAN_MEANS = {"square": 1.0, "exp": float(np.exp(0.5)),
                       "indicator": 0.5}

    def __post_init__(self):
        if self.name not in self._GAUSSIAN_MEANS:
            raise ValueError(f"unknown psi {self.name!r}")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.name == "square":
            return u**2
        if self.name == "exp":
            return np.exp(u)
        return (u > 0).astype(float)

    def gaussian_mean(self) -> float:
        return self._GAUSSIAN_MEANS[self.name]

    def gaussian_pair_cov(self, rho):
        """``Cov(psi(U), psi(V))`` for standard normal pairs, closed form.

        ``rho = 1`` gives the variance.
        """
        rho = np.asarray(rho, dtype=float)
        if self.name == "square":
            return 2.0 * rho**2
        if self.name == "exp":
            return np.exp(1.0 + rho) - np.e
        return np.arcsin(rho) / (2.0 * np.pi)


def parse_psi(name: str) -> PsiFunction:
    return PsiFunction(name.strip().lower())


# ---------------------------------------------------------------------------
# Tilted marginals
# ---------------------------------------------------------------------------

def _psi_on_support(psi, dist: DiscreteDistribution) -> np.ndarray:
    """``psi`` at each value of ``dist``, and 0 where its probability is 0:
    ``e^u`` is inf past u = 709, and inf * 0 would make every moment nan."""
    out = np.zeros(len(dist.values))
    live = dist.probs > 0
    out[live] = psi(dist.values[live])
    return out


# Mean and second moment of the psi-tilted standard normal y, and E psi(y),
# per psi name.
_GAUSSIAN_TILT_MOMENTS = {
    "square": (0.0, 3.0, 3.0), "exp": (1.0, 2.0, float(np.exp(1.5))),
    "indicator": (float(np.sqrt(2.0 / np.pi)), 1.0, 1.0)}

# Pairs of the indicator kernel with a tail argument t >= _TAIL_CUT are left
# out of its sum: each would add 2 P(Z > t) < 2e-17.
_TAIL_CUT = 8.5

# Indicator kernel blocks: rows of at most _SORT_BLOCK values are sorted at a
# time, and window tails are evaluated at most _WINDOW_BLOCK at a time.
_SORT_BLOCK = 1 << 14
_WINDOW_BLOCK = 1 << 15


class TiltedSampler:
    """The standard normal law tilted by a named :class:`PsiFunction`,
    proportional to ``psi(u) phi(u)``.

    Each name has an exact tilted law: ``square`` (density ``u^2 phi(u)``)
    is a random sign times a chi variable with 3 degrees of freedom, ``exp``
    is N(1, 1) and ``indicator`` is the half-normal ``|Z|``. ``mean`` and
    ``moment2`` are its first two moments, and ``psi_mean`` is ``E psi(y)``
    under the tilt, the picked summand's conditional mean.
    """

    def __init__(self, psi):
        if not isinstance(psi, PsiFunction):
            raise ValueError("the normal tilt needs a named psi: square, exp, "
                             "indicator")
        self.psi = psi
        self.mean, self.moment2, self.psi_mean = _GAUSSIAN_TILT_MOMENTS[
            psi.name]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.psi.name == "exp":
            return 1.0 + rng.standard_normal(size)
        if self.psi.name == "indicator":
            return np.abs(rng.standard_normal(size))
        # square: a 3-d normal's length (chi_3) is independent of its signs
        z = rng.standard_normal((size, 3))
        return np.copysign(np.sqrt((z * z).sum(axis=1)), z[:, 0])

    def mgf(self, c):
        """``E e^{c y}`` under the exp tilt N(1, 1), vectorized over ``c``."""
        c = np.asarray(c, dtype=float)
        return np.exp(c + 0.5 * c * c)

    def survival(self, t):
        """``P(y > t)`` under the indicator tilt, the half-normal law:
        ``2 P(Z > max(t, 0))``, which is exactly 1 for t <= 0."""
        t = np.asarray(t, dtype=float)
        tail = _upper_tail(np.maximum(t.ravel(), 0.0)).reshape(t.shape)
        tail *= 2.0
        return tail


# ---------------------------------------------------------------------------
# The sum models
# ---------------------------------------------------------------------------

def estimate_nonlinear_stats(model: _SumCoupler, samples: int, seed: int = 0,
                             chunk_size: int = 8192, *,
                             score) -> tuple[CouplingStats, Accumulator]:
    """Coupling statistics for the univariate bound of a nonlinear sum, and
    the accumulated ``score`` of the same rows' W, by the shared pass of
    :meth:`~steinlab.sizebias.CoupledPairSampler.coupling_stats`:
    ``Var E[W* - W | U]`` from the exact conditional means and
    ``E (W* - W)^2`` from one size-bias move per row. A name of its own
    lets the benchmark's tracer time this family's pass apart."""
    return model.coupling_stats(samples, seed, chunk_size, score)


class _SumCoupler(CoupledPairSampler):
    """``W = sum psi(U_i)``, certified by the univariate size-bias bound.

    A state is a batch of argument rows U: 16 MB of U or 8 MB of int32
    cell counts in a full sub-batch, with psi(U) and the coupled rows about
    as much again each. A subclass sets ``tilted``, the psi-tilted
    marginal, and implements :meth:`draw`, :meth:`couple` (one size-bias
    move per row) and :meth:`cond_exp` (exact ``E[W* - W | U]``).
    """

    name = "nonlinear-sum"
    sigma_field = "U"

    def __init__(self, cfg, lam: float, sigma_sq: float):
        if sigma_sq <= 0:
            raise ValueError("degenerate sum: variance is zero")
        self.cfg = cfg
        self.psi = cfg.psi
        self.lam = np.array([lam])
        self.sigma = np.array([[sigma_sq]])
        self.isqrt = inverse_sqrt(self.sigma)
        self.row_values = cfg.n

    def w(self, u: np.ndarray) -> np.ndarray:
        return self.psi(u).sum(axis=1)[:, None]

    def bound(self, norms, samples: int, seed: int, chunk_size: int, score):
        """The univariate bound, on the estimate of ``E (W* - W)^2`` raised
        to its exact floor (lam and sigma^2 are exact here); the returned
        stats keep the raw estimate."""
        stats, scores = estimate_nonlinear_stats(
            self, samples, seed=seed, chunk_size=chunk_size, score=score)
        return bound_univariate_size_bias(floor_mean_sq_diff(stats), norms.h,
                                          norms.d1), stats, scores

    def extras(self, stats) -> dict:
        return {"var_cond": float(stats.var_cond[0, 0]),
                "mean_sq_diff": float(stats.abs_cross[0, 0, 0])}


def _only_coordinate_zero(i: int) -> None:
    if i != 0:
        raise IndexError("univariate coupler only has coordinate 0")


# ---------------------------------------------------------------------------
# Gaussian sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSumConfig:
    """``W = sum psi(U_i)`` with each U_i standard normal and
    ``Cov(U_i, U_j) = rho`` for i != j, a positive-definite law exactly when
    ``-1/(n-1) < rho < 1``.
    """

    n: int
    psi: PsiFunction
    rho: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        low = -1.0 / (self.n - 1) if self.n > 1 else -np.inf
        if not low < self.rho < 1.0:
            raise NotPositiveDefinite(
                f"rho = {self.rho} at n = {self.n} is not positive definite: "
                f"need -1/(n-1) < rho < 1, here {low:.6g} < rho < 1")

    @property
    def max_offdiag(self) -> float:
        return abs(self.rho) if self.n > 1 else 0.0

    @property
    def max_row_sum(self) -> float:
        return 1.0 + (self.n - 1) * abs(self.rho)


def gaussian_moments(cfg: GaussianSumConfig):
    """Exact mean and variance of W from the pairwise covariance function."""
    psi, n = cfg.psi, cfg.n
    lam = n * psi.gaussian_mean()
    var = (n * psi.gaussian_pair_cov(1.0)
           + n * (n - 1) * psi.gaussian_pair_cov(cfg.rho))
    return float(lam), float(var)


class GaussianSumCoupler(_SumCoupler):
    """``W = sum psi(U_i)`` with jointly Gaussian arguments; the size-bias
    coupling is the Gaussian conditional linear update."""

    def __init__(self, cfg: GaussianSumConfig):
        super().__init__(cfg, *gaussian_moments(cfg))
        self.rho = float(cfg.rho)
        # U = a Z + b (sum Z) 1 has unit variances and pair covariance
        # 2 a b + n b^2 = rho when a = sqrt(1 - rho) and
        # b = (sqrt(a^2 + n rho) - a) / n, written without the cancellation
        self._a = np.sqrt(1.0 - self.rho)
        self._b = self.rho / (np.sqrt(self._a**2 + cfg.n * self.rho)
                              + self._a)
        self.tilted = TiltedSampler(cfg.psi)
        self.config = {"model": "gauss", "n": cfg.n, "rho": cfg.rho,
                       "psi": cfg.psi.name,
                       "max_offdiag": cfg.max_offdiag,
                       "max_row_sum": cfg.max_row_sum,
                       "offdiag_below_third": cfg.max_offdiag < 1.0 / 3.0}

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.standard_normal((size, self.cfg.n))
        total = u.sum(axis=1)
        u *= self._a
        u += (self._b * total)[:, None]
        return u

    def adjust(self, u: np.ndarray, idx: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Linear conditional move of the unpicked coordinates."""
        rows = np.arange(u.shape[0])
        out = u + self.rho * (y - u[rows, idx])[:, None]
        out[rows, idx] = y
        return out

    def couple_u(self, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One size-bias move per row: a uniform index is redrawn from the
        tilted law and the other coordinates follow linearly."""
        size = u.shape[0]
        idx = rng.integers(self.cfg.n, size=size)
        return self.adjust(u, idx, self.tilted.sample(rng, size))

    def couple(self, u: np.ndarray, i: int, rng: np.random.Generator):
        _only_coordinate_zero(i)
        return self.w(self.couple_u(u, rng))

    def cond_exp(self, u: np.ndarray) -> np.ndarray:
        return self.cond_exp_given_u(u)[:, None, None]

    def cond_exp_given_u(self, u: np.ndarray) -> np.ndarray:
        """Exact ``E[W* - W | U]`` from the tilted law of the picked
        coordinate, in O(n) memory per row for any valid rho
        (``-1/(n-1) < rho < 1``).

        Picking i moves coordinate j to ``a + rho y`` with
        ``a = U_j - rho U_i`` and y tilted. At rho = 0 only the picked
        coordinate moves. The square family reduces to row sums, and exp to
        one factor per row. For the indicator the half-normal tail S at
        ``t = -a / rho = U_i - U_j / rho`` is summed over (i, j) pairs,
        complemented when rho < 0, by :func:`_tail_pair_sums`: S is
        counted as exactly 1 for t <= 0, evaluated only in the window
        0 < t < T = :data:`_TAIL_CUT`, and dropped for t >= T, which moves
        each row's sum by less than ``n^2 * 2e-17``. At rho = c / n the
        window holds O(n) pairs per row, so the kernel costs O(n log n) per
        row. Rows are sorted in blocks of at most :data:`_SORT_BLOCK`
        values (whole rows) and window tails evaluated in blocks of at most
        :data:`_WINDOW_BLOCK` points (or one window of at most n), so
        memory is capped at any n and rho.
        """
        u = np.atleast_2d(u)
        b, n = u.shape
        rho = self.rho
        psi = self.psi
        tilt = self.tilted
        # psi(u) is not held past this line: a live (b, n) array here made
        # the pair loop's first call in each worker trim and re-fault its
        # heap on every block (117k minor page faults against 1.1k at n = 64)
        w = psi(u).sum(axis=1)
        base = n * tilt.psi_mean - w
        if rho == 0.0 or n == 1:
            return base / n
        if psi.name == "square":
            total = u.sum(axis=1)
            sq = (u * u).sum(axis=1)
            # picking i: sum_j!=i (a^2 - U_j^2) = -2 rho U_i (S - U_i)
            # + rho^2 (n - 1) U_i^2, and the symmetric tilt adds
            # rho^2 (n - 1) E y^2
            spread = (n - 1) * rho * rho
            cross = (-2.0 * rho * (total * total - sq)
                     + spread * (sq + n * tilt.moment2))
            return (base + cross) / n
        if psi.name == "exp":
            factor = np.exp(-rho * u) * float(tilt.mgf(rho)) - 1.0
            cross = ((w[:, None] - psi(u)) * factor).sum(axis=1)
            return (base + cross) / n
        # pair[r]: sum over j != i of the tilt's tail P(y > t) at
        # t = U_i - U_j / rho
        pair = np.empty(b)
        rows = max(1, _SORT_BLOCK // n)
        for lo in range(0, b, rows):
            pair[lo:lo + rows] = _tail_pair_sums(tilt, u[lo:lo + rows], rho)
        if rho < 0:
            pair = n * (n - 1) - pair
        return (base + pair - (n - 1) * w) / n


def _tail_pair_sums(tilt: TiltedSampler, u: np.ndarray,
                    rho: float) -> np.ndarray:
    """Per row of ``u``, ``sum over i != j of S(U_i - c_j)`` with
    ``c = U / rho`` and S the half-normal tail ``tilt.survival``.

    With each row sorted, the c_j of one i fall in three runs: S is exactly
    1 where ``c_j >= U_i`` (t <= 0), and those pairs are counted as
    integers; pairs with ``c_j <= U_i - T``, T = :data:`_TAIL_CUT`, are
    dropped; only the window ``U_i - T < c_j < U_i`` between them goes
    through ``tilt.survival``. The own pair j = i is subtracted last.
    """
    b, n = u.shape
    us = np.sort(u, axis=1)
    c_own = us / rho                     # c_j of each sorted U_j
    cs = c_own if rho > 0 else c_own[:, ::-1]
    low = us - _TAIL_CUT
    # One stable merge of the three sorted runs per row. U_i goes before an
    # equal c_j and U_i - T after one, so the c_j counted before them are
    # those with c_j < U_i (hi) and c_j <= U_i - T (lo).
    order = np.argsort(np.concatenate([us, cs, low], axis=1), axis=1,
                       kind="stable")
    below = np.cumsum((order >= n) & (order < 2 * n), axis=1)
    hi = below[order < n].reshape(b, n)
    lo = below[order >= 2 * n].reshape(b, n)
    del order, below
    ones = (n - hi).sum(axis=1)
    # Windows run over the sorted c of their row, flattened: the window of
    # unit k = (row, i) holds cs.flat[first[k]:first[k] + length[k]].
    length = (hi - lo).ravel()
    first = (lo + n * np.arange(b)[:, None]).ravel()
    cs, us_flat = cs.ravel(), us.ravel()
    ends = np.cumsum(length)
    # A block is a run of whole windows with at most _WINDOW_BLOCK points,
    # or one longer window; each window is summed alone, so the blocks do
    # not change the sums.
    sums = np.zeros(b * n)
    step = np.arange(min(int(ends[-1]), _WINDOW_BLOCK + n))
    start = 0
    while start < b * n:
        base = ends[start] - length[start]
        stop = max(int(np.searchsorted(ends, base + _WINDOW_BLOCK,
                                       side="right")), start + 1)
        size = int(ends[stop - 1] - base)
        if size:
            seg = length[start:stop]
            offs = ends[start:stop] - seg - base
            idx = np.repeat(first[start:stop] - offs, seg)
            idx += step[:size]
            t = np.repeat(us_flat[start:stop], seg)
            t -= cs[idx]
            live = seg > 0
            sums[start:stop][live] = np.add.reduceat(tilt.survival(t),
                                                     offs[live])
        start = stop
    own = np.where(c_own > low, tilt.survival(us - c_own), 0.0)
    return ones + sums.reshape(b, n).sum(axis=1) - own.sum(axis=1)


# ---------------------------------------------------------------------------
# Multinomial sums: kn balls in n equiprobable cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultinomialSumConfig:
    """``W = sum psi(U_i)`` with ``(U_1..U_n)`` multinomial cell counts."""

    n: int
    k: int
    psi: PsiFunction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 cells")
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        marg = self.cell_marginal()
        with np.errstate(over="ignore"):
            second = np.dot(_psi_on_support(self.psi, marg) ** 2, marg.probs)
        if not np.isfinite(second):
            raise NonfiniteMoment(
                f"psi = {self.psi.name} overflows a float on {self.balls} "
                f"balls: E psi(U_1)^2 is not finite; use fewer balls (n*k)")

    @property
    def balls(self) -> int:
        return self.n * self.k

    def cell_marginal(self) -> DiscreteDistribution:
        return DiscreteDistribution.binomial(self.balls, 1.0 / self.n)


def _joint_cell_pmf(balls: int, n: int, lo: int, hi: int):
    """Exact joint pmf of two cell counts, each in ``lo..hi``, as a dense
    ``(hi - lo + 1)^2`` array."""
    la = np.array([lgamma(x + 1.0) for x in range(balls + 1)])
    out = np.full((hi - lo + 1, hi - lo + 1), -np.inf)
    rest = 1.0 - 2.0 / n
    logp = log(1.0 / n)
    logr = log(rest) if rest > 0 else -np.inf
    for i in range(lo, min(hi, balls - lo) + 1):
        j = np.arange(lo, min(hi, balls - i) + 1)
        terms = (lgamma(balls + 1.0) - la[i] - la[j] - la[balls - i - j]
                 + (i + j) * logp + (balls - i - j) * logr)
        out[i - lo, : len(j)] = terms
    return np.exp(out)


def multinomial_moments(cfg: MultinomialSumConfig):
    """Exact mean and variance of W by summing over the cell-count pmf; the
    pair term sums over the counts of positive probability only."""
    marg = cfg.cell_marginal()
    vals = _psi_on_support(cfg.psi, marg)
    # summed as MultinomialSumCoupler sums its tilt's mass, so that lam is
    # n times the tilt's normalizer bit for bit
    mean1 = float((vals * marg.probs).sum())
    mom2 = float(np.dot(vals**2, marg.probs))
    lam = cfg.n * mean1
    if cfg.n == 2:
        flipped = vals[::-1]  # U_2 = balls - U_1
        pair = float(np.dot(vals * flipped, marg.probs))
    else:
        live = np.flatnonzero(marg.probs > 0)  # one run: the pmf is unimodal
        lo, hi = int(live[0]), int(live[-1])
        joint = _joint_cell_pmf(cfg.balls, cfg.n, lo, hi)
        pair = float(vals[lo:hi + 1] @ joint @ vals[lo:hi + 1])
    var = cfg.n * (mom2 - mean1**2) + cfg.n * (cfg.n - 1) * (pair - mean1**2)
    return lam, var


# Balls thrown at a time by MultinomialSumCoupler.draw: 512 KB of
# int64 cell labels.
_BALL_BLOCK = 1 << 16

# Transfer tables a multinomial coupler keeps, one per set of counts present.
_TABLES_KEPT = 32


def _move_balls(counts: np.ndarray, idx: np.ndarray, new_count: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Reset cell ``idx`` to ``new_count`` by moving single balls.

    With a the picked cell's count and R the balls in the other cells, a
    row short of ``m = y - a`` balls pulls m distinct balls uniformly from
    its R: :func:`~steinlab.sizebias.distinct_labels` picks ball labels in
    ``[0, R)`` and one ``searchsorted`` over the pulling rows' cumulative
    counts maps each to its cell. Where ``2 m > R`` it picks the ``R - m`` balls that stay
    instead, so the rejection loop stays O(m). A row over by ``a - y``
    balls lands each in a uniform other cell. Either way the other cells
    stay jointly multinomial given the new count, so the move realizes the
    conditional law exactly; the total ball count is conserved. Counts
    change one ball at a time through ``np.subtract.at`` / ``np.add.at``,
    so beyond the copy of ``counts`` the work and memory are O(rows that
    pull x n + balls moved).
    """
    counts = np.asarray(counts)
    if np.any(new_count > counts.sum(axis=1)):
        raise InfeasibleAdjustment("new cell count exceeds the ball budget")
    size, n = counts.shape
    rows = np.arange(size)
    out = counts.copy()
    change = new_count - out[rows, idx]
    pull = np.flatnonzero(change > 0)
    if pull.size:
        cum = out[pull].astype(np.int64)
        cum[np.arange(pull.size), idx[pull]] = 0
        np.cumsum(cum, axis=1, out=cum)
        have = cum[:, -1].copy()
        need = change[pull]
        stay = 2 * need > have
        stride = int(have.max())
        key = distinct_labels(rng, have, np.where(stay, have - need, need),
                              stride)
        # row p's cumulative counts lie in [p * stride, p * stride + R_p],
        # so the flat search finds label l of row p inside row p
        cum += np.arange(0, pull.size * stride, stride)[:, None]
        row = key // stride
        cell = np.searchsorted(cum.ravel(), key, side="right") - row * n
        kept = stay[row]
        out[pull[stay]] = 0
        np.add.at(out, (pull[row[kept]], cell[kept]), 1)
        np.subtract.at(out, (pull[row[~kept]], cell[~kept]), 1)
    spill = np.flatnonzero(change < 0)
    if spill.size:
        row = np.repeat(spill, -change[spill])
        cell = rng.integers(n - 1, size=row.size)
        cell += cell >= idx[row]
        np.add.at(out, (row, cell), 1)
    out[rows, idx] = new_count
    return out


class MultinomialSumCoupler(_SumCoupler):
    """``W = sum psi(U_i)`` over multinomial cell counts; the size-bias
    coupling resets one cell by moving single balls."""

    def __init__(self, cfg: MultinomialSumConfig):
        super().__init__(cfg, *multinomial_moments(cfg))
        # the psi-tilted cell law: positive mass, as every named psi is
        # positive at counts >= 1, which K >= 2 balls reach
        marg = cfg.cell_marginal()
        raw = _psi_on_support(cfg.psi, marg) * marg.probs
        self.tilted = DiscreteDistribution(marg.values, raw / float(raw.sum()))
        self.config = {"model": "multinomial", "n": cfg.n, "k": cfg.k,
                       "psi": cfg.psi.name}
        self._tables = lru_cache(maxsize=_TABLES_KEPT)(_transfer_table)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` rows of int32 cell counts: each of a row's K balls lands
        in a uniform cell, and one ``bincount`` of ``row * n + cell`` counts
        a block of whole rows of at most :data:`_BALL_BLOCK` balls (one row
        when K is larger)."""
        n, balls = self.cfg.n, self.cfg.balls
        out = np.empty((size, n), dtype=np.int32)
        per = max(1, _BALL_BLOCK // balls)
        for lo in range(0, size, per):
            part = min(per, size - lo)
            cells = rng.integers(n, size=(part, balls))
            cells += np.arange(0, part * n, n)[:, None]
            out[lo:lo + part] = np.bincount(
                cells.ravel(), minlength=part * n).reshape(part, n)
        return out

    def couple_counts(self, counts: np.ndarray, rng: np.random.Generator):
        size = counts.shape[0]
        idx = rng.integers(self.cfg.n, size=size)
        new_count = self.tilted.sample(rng, size).astype(np.int64)
        return _move_balls(counts, idx, new_count, rng)

    def w(self, counts: np.ndarray) -> np.ndarray:
        """W per row, each ``psi(count)`` read from a table of
        ``psi(0..max count)``: the same values as ``psi(counts)``, and the
        table is built from ``self.psi`` on each call."""
        top = int(counts.max(initial=0))
        table = np.asarray(self.psi(np.arange(top + 1)), dtype=float)
        return table[counts].sum(axis=1)[:, None]

    def couple(self, counts: np.ndarray, i: int, rng: np.random.Generator):
        _only_coordinate_zero(i)
        moved = self.couple_counts(counts, rng)
        if not np.array_equal(moved.sum(axis=1), counts.sum(axis=1)):
            raise InvariantViolation("ball conservation violated")
        return self.w(moved)

    def cond_exp(self, counts: np.ndarray) -> np.ndarray:
        return self.cond_exp_given_counts(counts)[:, None, None]

    def cond_exp_given_counts(self, counts: np.ndarray) -> np.ndarray:
        """Exact ``E[W* - W | U]`` per row of cell counts: with ``N`` a row's
        histogram of counts, ``G`` the :func:`_transfer_table` and ``q`` the
        tilted law, ``n E[W* | U] = N^T G N - diag(G) . N + n E_q psi(Y)``.
        Tables are kept per set of counts present (and psi), so a chunk
        whose rows hold the same counts as an earlier one reuses its table.
        """
        counts = np.asarray(counts)
        size = counts.shape[0]
        top = int(counts.max(initial=0)) + 1
        hist = np.bincount((np.arange(size)[:, None] * top + counts).ravel(),
                           minlength=size * top).reshape(size, top)
        present = np.flatnonzero(hist.any(axis=0))
        hist = hist[:, present].astype(float)
        table = self._tables(self.cfg, self.psi, self.tilted,
                             tuple(present.tolist()))
        pairs = ((hist @ table) * hist).sum(axis=1) - hist @ np.diag(table)
        tilt = self.tilted
        e_psi_y = float(np.dot(tilt.probs, _psi_on_support(self.psi, tilt)))
        return pairs / self.cfg.n + e_psi_y - self.w(counts)[:, 0]


def _transfer_table(cfg: MultinomialSumConfig, psi,
                    tilted: DiscreteDistribution,
                    present: tuple) -> np.ndarray:
    """``G[a, v]``, for counts ``a, v`` in ``present``: the mean new psi
    of a cell holding v when the picked cell, holding a, is reset to y.
    Read-only, as the coupler keeps and shares it.

    For ``y < a`` the cell gains ``Bin(a - y, 1 / (n - 1))`` balls; for
    ``y >= a`` it keeps ``J ~ Hypergeom(v, R - v, K - y)`` of them, with
    ``R = K - a`` and K balls in all. Then ``sum_y q_y P(J = j) =
    C(v, j) H(R - v, j)``, where ``H(u, j) = sum_m q_{K-m} C(u, m - j) /
    C(R, m)`` follows Pascal's rule ``H(u + 1, j) = H(u, j) + H(u, j+1)``.
    """
    n, balls = cfg.n, cfg.balls
    q = tilted.probs
    present = np.array(present)
    top = int(present[-1]) + 1
    k = np.arange(top)
    psi_at = np.asarray(psi(np.arange(2 * top - 1)), dtype=float)
    # binomial coefficients in log space: C(s, g) overflows a float
    # once s >= 1030
    log_fact = np.array([lgamma(x + 1.0) for x in range(balls + 1)])
    drop = k[:, None] - k                                # s - g
    with np.errstate(divide="ignore", invalid="ignore"):
        log_binom = np.where(drop >= 0, log_fact[:top, None]
                             - log_fact[:top] - log_fact[np.abs(drop)],
                             -np.inf)                    # log C(s, g)
        # gains, by spill s: P(G = g) = C(s, g) p^g (1 - p)^(s - g)
        p = 1.0 / (n - 1)
        spill = np.exp(log_binom + k * log(p)
                       + np.where(drop > 0, drop * np.log1p(-p), 0.0))
    gain = psi_at[present[:, None] + k] @ spill.T        # [v, s]
    y_of = present[:, None] - k                          # y = a - s
    picked = np.where((k >= 1) & (y_of >= 0),
                      q[np.maximum(y_of, 0)], 0.0)
    table = picked @ gain.T                              # [a, v]
    column = {v: c for c, v in enumerate(present.tolist())}
    for row, a in enumerate(present.tolist()):
        rest = balls - a
        # q_{K-m} / C(R, m) for m = 0..R
        h = q[a:][::-1] * np.exp(log_fact[:rest + 1] + log_fact[rest::-1]
                                 - log_fact[rest])
        for v in range(rest, int(present[0]) - 1, -1):   # u = rest - v
            if v in column:
                with np.errstate(divide="ignore"):
                    kept = np.exp(log_binom[v, :v + 1] + np.log(h))
                table[row, column[v]] += psi_at[:v + 1] @ kept
            h = h[:-1] + h[1:]
    table.flags.writeable = False
    return table
