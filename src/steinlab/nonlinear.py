"""Size-bias couplings for sums ``W = sum_i psi(U_i)`` of nonnegative
functions of Gaussian or multinomial argument vectors.

The coupling follows the argument-vector recipe: pick a summand index with
probability proportional to ``E psi_i(U_i)``, redraw that argument from its
psi-tilted marginal, and move the remaining arguments to their conditional
law given the new value. For jointly Gaussian arguments with unit variances
the conditional move is the linear update ``Y_j = U_j + rho_jI (y - U_I)``;
for equiprobable multinomial cell counts it is a uniform per-ball transfer
between cells. Both feed the univariate size-bias bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .bounds import UnivariateCouplingStats, bound_univariate_size_bias
from .errors import (InfeasibleAdjustment, InvariantViolation,
                     NotPositiveDefinite, TiltedSamplerFailure, ZeroMass)
from .harness import Accumulator, StreamConfig, parallel_mc
from .sizebias import CoupledPairSampler, DiscreteDistribution


# ---------------------------------------------------------------------------
# Nonnegative summand functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiFunction:
    """A named nonnegative summand function, optionally rescaled.

    ``square`` is ``u^2``, ``exp`` is ``e^u``, ``indicator`` is ``1{u > 0}``;
    ``scale`` multiplies the base function. ``normalized()`` rescales so the
    standard-normal mean is 1.
    """

    name: str
    scale: float = 1.0

    _GAUSSIAN_MEANS = {"square": 1.0, "exp": float(np.exp(0.5)),
                       "indicator": 0.5}

    def __post_init__(self):
        if self.name not in self._GAUSSIAN_MEANS:
            raise ValueError(f"unknown psi {self.name!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.name == "square":
            return self.scale * u**2
        if self.name == "exp":
            return self.scale * np.exp(u)
        return self.scale * (u > 0).astype(float)

    def gaussian_mean(self) -> float:
        return self.scale * self._GAUSSIAN_MEANS[self.name]

    def normalized(self) -> "PsiFunction":
        return PsiFunction(self.name, self.scale / self.gaussian_mean())

    def gaussian_pair_cov(self, rho):
        """``Cov(psi(U), psi(V))`` for standard normal pairs, closed form.

        ``rho = 1`` gives the variance.
        """
        rho = np.asarray(rho, dtype=float)
        s2 = self.scale**2
        if self.name == "square":
            return s2 * 2.0 * rho**2
        if self.name == "exp":
            return s2 * (np.exp(1.0 + rho) - np.e)
        return s2 * np.arcsin(rho) / (2.0 * np.pi)


def parse_psi(name: str, normalize: bool = True) -> PsiFunction:
    psi = PsiFunction(name.strip().lower())
    return psi.normalized() if normalize else psi


# ---------------------------------------------------------------------------
# Tilted marginals
# ---------------------------------------------------------------------------

class TiltedSampler:
    """Law proportional to ``psi(u) d(base)(u)``.

    Continuous standard-normal bases use inverse CDF on an adaptive grid
    extended until the truncated tail mass is below 1e-10 of the total;
    finite bases are tilted exactly. ``mass`` is the normalizer
    ``E psi(U)``, also the summand's mean, hence the index-picker weight.
    """

    def __init__(self, psi, base="normal", points_per_unit: int = 4096,
                 start_halfwidth: float = 10.0, max_halfwidth: float = 40.0):
        self.psi = psi
        if isinstance(base, DiscreteDistribution):
            self._init_discrete(psi, base)
            return
        if base != "normal":
            raise ValueError("base must be 'normal' or a DiscreteDistribution")
        half = start_halfwidth
        while True:
            k = int(np.ceil(half * points_per_unit))
            grid = np.linspace(-half, half, 2 * k + 1)
            centers = 0.5 * (grid[1:] + grid[:-1])
            # midpoint cell masses: exact to O(h^2) even across jumps of psi
            # that sit on grid nodes (the indicator family)
            dens = (np.asarray(psi(centers))
                    * np.exp(-centers**2 / 2.0) / np.sqrt(2 * np.pi))
            if not np.all(np.isfinite(dens)):
                raise TiltedSamplerFailure(
                    "tilted density overflows; psi grows too fast"
                )
            cell = dens * np.diff(grid)
            total = float(cell.sum())
            edge = max(float(dens[0]), float(dens[-1])) * (2.0 / points_per_unit)
            if total > 0 and edge <= 1e-10 * total:
                break
            if half >= max_halfwidth:
                if total <= 0:
                    raise ZeroMass("psi puts no mass under the base law")
                break
            half = min(half + 4.0, max_halfwidth)
        if total <= 0:
            raise ZeroMass("psi puts no mass under the base law")
        self.discrete = None
        self.grid = grid
        self.mass = total
        self._cdf = np.concatenate([[0.0], np.cumsum(cell)]) / total
        self._cdf[-1] = 1.0
        weights = cell / total
        self._qweights = weights
        self._qcenters = centers
        self.mean = float(np.dot(weights, centers))
        self.moment2 = float(np.dot(weights, centers**2))

    def _init_discrete(self, psi, base: DiscreteDistribution):
        raw = np.asarray(psi(base.values)) * base.probs
        total = float(raw.sum())
        if total <= 0:
            raise ZeroMass("psi puts no mass under the base law")
        self.discrete = DiscreteDistribution(base.values, raw / total)
        self.mass = total
        self.grid = None
        self.mean = self.discrete.mean
        self.moment2 = self.discrete.moment(2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.discrete is not None:
            return self.discrete.sample(rng, size)
        return np.interp(rng.random(size), self._cdf, self.grid)

    # Expectations under the tilted law ---------------------------------

    def expect(self, f) -> float:
        if self.discrete is not None:
            return float(np.dot(self.discrete.probs, f(self.discrete.values)))
        return float(np.dot(self._qweights, f(self._qcenters)))

    def mgf(self, c):
        """``E e^{c y}`` under the tilted law, vectorized over ``c``."""
        c = np.asarray(c, dtype=float)
        flat = np.round(c.reshape(-1), 12)
        uniq, inverse = np.unique(flat, return_inverse=True)
        if self.discrete is not None:
            vals = np.array([
                float(np.dot(self.discrete.probs,
                             np.exp(u * self.discrete.values)))
                for u in uniq
            ])
        else:
            vals = np.array([
                float(np.dot(self._qweights, np.exp(u * self._qcenters)))
                for u in uniq
            ])
        return vals[inverse].reshape(c.shape)

    def survival(self, t):
        """``P(y > t)`` under the tilted law, vectorized."""
        if self.discrete is not None:
            vals = self.discrete.values
            out = np.empty(np.shape(t))
            flat = np.asarray(t, dtype=float).reshape(-1)
            cum = np.cumsum(self.discrete.probs)
            idx = np.searchsorted(vals, flat, side="right")
            out = np.where(idx == 0, 1.0, 1.0 - cum[np.minimum(idx, len(cum)) - 1])
            return out.reshape(np.shape(t))
        t = np.asarray(t, dtype=float)
        return 1.0 - np.interp(t, self.grid, self._cdf, left=0.0, right=1.0)

    def affine_mean(self, psi: PsiFunction, a, c):
        """``E psi(a + c y)`` under the tilted law, closed form per family."""
        a = np.asarray(a, dtype=float)
        c = np.asarray(c, dtype=float)
        if psi.name == "square":
            return psi.scale * (a**2 + 2 * a * c * self.mean
                                + c**2 * self.moment2)
        if psi.name == "exp":
            return psi.scale * np.exp(a) * self.mgf(c)
        # indicator: P(a + c y > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            thresh = np.where(c != 0, -a / np.where(c != 0, c, 1.0), 0.0)
        pos = self.survival(thresh)
        neg = 1.0 - pos
        return psi.scale * np.where(c > 0, pos,
                                    np.where(c < 0, neg, (a > 0).astype(float)))


def tilted_marginal_sampler(psi, base="normal",
                            points_per_unit: int = 4096) -> TiltedSampler:
    return TiltedSampler(psi, base, points_per_unit)


# ---------------------------------------------------------------------------
# Gaussian sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSumConfig:
    """``W = sum psi(U_i)`` with ``U ~ N(0, corr)``, unit diagonal."""

    n: int
    psi: PsiFunction
    rho: float | None = None          # equicorrelated shortcut
    corr: np.ndarray | None = None    # full correlation matrix

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if (self.rho is None) == (self.corr is None):
            raise ValueError("give exactly one of rho or corr")
        if self.corr is not None:
            corr = np.asarray(self.corr, dtype=float)
            if corr.shape != (self.n, self.n):
                raise ValueError("corr has the wrong shape")
            if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
                raise ValueError("corr must have unit diagonal")
            object.__setattr__(self, "corr", corr)

    @property
    def corr_matrix(self) -> np.ndarray:
        if self.corr is not None:
            return self.corr
        m = np.full((self.n, self.n), float(self.rho))
        np.fill_diagonal(m, 1.0)
        return m

    @property
    def max_offdiag(self) -> float:
        m = self.corr_matrix
        if self.n == 1:
            return 0.0
        off = m[~np.eye(self.n, dtype=bool)]
        return float(np.max(np.abs(off)))

    @property
    def max_row_sum(self) -> float:
        return float(np.max(np.abs(self.corr_matrix).sum(axis=1)))


def gaussian_moments(cfg: GaussianSumConfig):
    """Exact mean and variance of W from the pairwise covariance function."""
    lam = cfg.n * cfg.psi.gaussian_mean()
    cov = cfg.psi.gaussian_pair_cov(cfg.corr_matrix)
    return float(lam), float(np.sum(cov))


class GaussianSumCoupler(CoupledPairSampler):
    """Size-bias coupling via the Gaussian conditional linear update."""

    def __init__(self, cfg: GaussianSumConfig,
                 points_per_unit: int = 4096):
        self.cfg = cfg
        self.psi = cfg.psi
        corr = cfg.corr_matrix
        try:
            self._chol = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("correlation matrix is not PD") from exc
        self.tilted = TiltedSampler(cfg.psi, "normal", points_per_unit)
        self.p = 1
        # identical psi across coordinates: the index is uniform and the
        # total mean is n * E psi(U_1)
        self.mean_vector = np.array([cfg.n * self.tilted.mass])

    def draw_u(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal((size, self.cfg.n)) @ self._chol.T

    def adjust(self, u: np.ndarray, idx: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Linear conditional move of the unpicked coordinates."""
        corr = self.cfg.corr_matrix
        rows = np.arange(u.shape[0])
        shift = (y - u[rows, idx])[:, None]
        out = u + corr[idx] * shift
        out[rows, idx] = y
        return out

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        if i != 0:
            raise IndexError("univariate coupler only has coordinate 0")
        u = self.draw_u(rng, size)
        idx = rng.integers(self.cfg.n, size=size)
        y = self.tilted.sample(rng, size)
        adjusted = self.adjust(u, idx, y)
        w = self.psi(u).sum(axis=1)
        wstar = self.psi(adjusted).sum(axis=1)
        return w[:, None], wstar[:, None]

    def cond_exp_given_u(self, u: np.ndarray, block: int = 1 << 22) -> np.ndarray:
        """Exact ``E[W* - W | U]`` using the tilted affine moments.

        The square family reduces to matrix products; the others evaluate
        the affine moment on (i, j) pairs, in blocks to bound memory.
        """
        u = np.atleast_2d(u)
        b, n = u.shape
        corr = self.cfg.corr_matrix
        psi = self.psi
        tilt = self.tilted
        m1 = float(tilt.affine_mean(psi, 0.0, 1.0))
        w = psi(u).sum(axis=1)
        base = n * m1 - w
        if psi.name == "square":
            proj = u @ corr
            r2 = (corr**2).sum(axis=0)
            ui2 = u**2
            mu1, mu2 = tilt.mean, tilt.moment2
            cross = (
                -2.0 * u * (proj - u)
                + ui2 * (r2 - 1.0)
                + 2.0 * mu1 * ((proj - u) - u * (r2 - 1.0))
                + (r2 - 1.0) * mu2
            )
            return (base + psi.scale * cross.sum(axis=1)) / n
        if psi.name == "exp" and self.cfg.rho is not None and n > 1:
            rho = float(self.cfg.rho)
            vals = psi(u)
            srow = vals.sum(axis=1)
            factor = np.exp(-rho * u) * float(tilt.mgf(rho)) - 1.0
            cross = ((srow[:, None] - vals) * factor).sum(axis=1)
            return (base + cross) / n
        # generic pairwise path, blocked over the batch
        out = np.empty(b)
        rows_per_block = max(1, block // max(n * n, 1))
        for lo in range(0, b, rows_per_block):
            hi = min(b, lo + rows_per_block)
            ub = u[lo:hi]
            a = ub[:, :, None] - corr[None, :, :] * ub[:, None, :]
            c = np.broadcast_to(corr, a.shape)
            vals = tilt.affine_mean(psi, a, c)
            cur = psi(ub)
            cross = vals.sum(axis=1) - cur.sum(axis=1)[:, None] \
                - (vals[:, np.arange(n), np.arange(n)] - cur)
            out[lo:hi] = (base[lo:hi] + cross.sum(axis=1)) / n
        return out


def couple_gaussian_sum(cfg: GaussianSumConfig) -> GaussianSumCoupler:
    return GaussianSumCoupler(cfg)


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

    @property
    def balls(self) -> int:
        return self.n * self.k

    def cell_marginal(self) -> DiscreteDistribution:
        return DiscreteDistribution.binomial(self.balls, 1.0 / self.n)


def _joint_cell_pmf(balls: int, n: int):
    """Exact joint pmf of two cell counts, as a dense (balls+1)^2 array."""
    a = np.arange(balls + 1)
    la = np.array([lgamma(x + 1.0) for x in a])
    out = np.full((balls + 1, balls + 1), -np.inf)
    rest = 1.0 - 2.0 / n
    logp = log(1.0 / n)
    logr = log(rest) if rest > 0 else -np.inf
    for i in range(balls + 1):
        j = np.arange(0, balls - i + 1)
        terms = (lgamma(balls + 1.0) - la[i] - la[j] - la[balls - i - j]
                 + (i + j) * logp + (balls - i - j) * logr)
        out[i, : balls - i + 1] = terms
    return np.exp(out)


def multinomial_moments(cfg: MultinomialSumConfig):
    """Exact mean and variance of W by summing over the cell-count pmf."""
    marg = cfg.cell_marginal()
    vals = np.asarray(cfg.psi(marg.values))
    mean1 = float(np.dot(vals, marg.probs))
    mom2 = float(np.dot(vals**2, marg.probs))
    lam = cfg.n * mean1
    if cfg.n == 2:
        flipped = vals[::-1]  # U_2 = balls - U_1
        pair = float(np.dot(vals * flipped, marg.probs))
    else:
        joint = _joint_cell_pmf(cfg.balls, cfg.n)
        pair = float(vals @ joint @ vals)
    var = cfg.n * (mom2 - mean1**2) + cfg.n * (cfg.n - 1) * (pair - mean1**2)
    return lam, var


def _move_balls(counts: np.ndarray, idx: np.ndarray, new_count: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Reset cell ``idx`` to ``new_count`` by uniform per-ball transfers.

    Additions pull the missing balls uniformly (without replacement) from
    the balls sitting in the other cells; removals land each excess ball in
    a uniformly chosen other cell. Either way the other cells stay jointly
    multinomial given the new count, so the move realizes the conditional
    law exactly. Total ball count is conserved.
    """
    counts = np.asarray(counts)
    size, n = counts.shape
    rows = np.arange(size)
    total = int(counts[0].sum()) if size else 0
    if np.any(new_count > counts.sum(axis=1)):
        raise InfeasibleAdjustment("new cell count exceeds the ball budget")
    out = counts.copy()
    cur = out[rows, idx].copy()
    out[rows, idx] = 0
    # balls to pull into the chosen cell
    need = np.maximum(new_count - cur, 0).astype(np.int64)
    pop_left = out.sum(axis=1).astype(np.int64)
    for c in range(n):
        good = out[:, c].astype(np.int64)
        bad = pop_left - good
        ok = (good + bad) > 0
        take = rng.hypergeometric(np.where(ok, good, 1),
                                  np.where(ok, bad, 0),
                                  np.where(ok, np.minimum(need, good + bad), 0))
        take = np.where(ok, take, 0)
        out[:, c] -= take
        need -= take
        pop_left -= good
    # excess balls to scatter over the other cells
    spill = np.maximum(cur - new_count, 0).astype(np.int64)
    for c in range(n):
        remaining_cells = (n - c) - (idx >= c).astype(np.int64)
        is_target = idx == c
        prob = np.where(is_target | (remaining_cells == 0), 0.0,
                        1.0 / np.maximum(remaining_cells, 1))
        take = rng.binomial(spill, prob)
        out[:, c] += take
        spill -= take
    out[rows, idx] = new_count
    return out


class MultinomialSumCoupler(CoupledPairSampler):
    """Size-bias coupling for sums over multinomial cell counts."""

    def __init__(self, cfg: MultinomialSumConfig):
        self.cfg = cfg
        self.psi = cfg.psi
        self.tilted = TiltedSampler(cfg.psi, cfg.cell_marginal())
        self.p = 1
        self.mean_vector = np.array([cfg.n * self.tilted.mass])

    def draw_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.multinomial(self.cfg.balls,
                               [1.0 / self.cfg.n] * self.cfg.n, size=size)

    def couple_counts(self, counts: np.ndarray, rng: np.random.Generator):
        size = counts.shape[0]
        idx = rng.integers(self.cfg.n, size=size)
        new_count = self.tilted.sample(rng, size).astype(np.int64)
        moved = _move_balls(counts, idx, new_count, rng)
        return moved

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        if i != 0:
            raise IndexError("univariate coupler only has coordinate 0")
        counts = self.draw_counts(rng, size)
        moved = self.couple_counts(counts, rng)
        if not np.array_equal(moved.sum(axis=1), counts.sum(axis=1)):
            raise InvariantViolation("ball conservation violated")
        w = self.psi(counts).sum(axis=1)
        wstar = self.psi(moved).sum(axis=1)
        return w[:, None], wstar[:, None]


def couple_multinomial_sum(cfg: MultinomialSumConfig) -> MultinomialSumCoupler:
    return MultinomialSumCoupler(cfg)


# ---------------------------------------------------------------------------
# End-to-end experiment (univariate size-bias bound)
# ---------------------------------------------------------------------------

def estimate_nonlinear_stats(coupler, samples: int, seed: int = 0,
                             chunk_size: int = 8192,
                             inner: int = 32) -> UnivariateCouplingStats:
    """Coupling statistics for the univariate bound.

    For Gaussian sums the inner conditional expectation given U is exact
    (closed-form affine moments). For multinomial sums it is a nested Monte
    Carlo mean over ``inner`` fresh couplings per configuration; the
    resulting variance estimate is biased upward by the unaveraged inner
    noise, which only enlarges the bound.
    """
    cfg = StreamConfig(seed, chunk_size)
    gaussian = isinstance(coupler, GaussianSumCoupler)

    def task(rng, size):
        if gaussian:
            u = coupler.draw_u(rng, size)
            idx = rng.integers(coupler.cfg.n, size=size)
            moved = coupler.adjust(u, idx, coupler.tilted.sample(rng, size))
            cond = coupler.cond_exp_given_u(u)
        else:
            u = coupler.draw_counts(rng, size)
            moved = coupler.couple_counts(u, rng)
            tiled = np.repeat(u, inner, axis=0)
            moved_inner = coupler.couple_counts(tiled, rng)
            delta = (coupler.psi(moved_inner).sum(axis=1)
                     - coupler.psi(tiled).sum(axis=1))
            cond = delta.reshape(size, inner).mean(axis=1)
        w = coupler.psi(u).sum(axis=1)
        wstar = coupler.psi(moved).sum(axis=1)
        return (Accumulator(max_power=4).add(cond),
                Accumulator().add((wstar - w) ** 2))

    cond_acc, sq_acc = parallel_mc(task, cfg, samples)
    if gaussian:
        lam, sigma_sq = gaussian_moments(coupler.cfg)
    else:
        lam, sigma_sq = multinomial_moments(coupler.cfg)
    return UnivariateCouplingStats(
        lam=lam, sigma_sq=sigma_sq,
        var_cond=float(cond_acc.variance),
        mean_sq_diff=float(sq_acc.mean),
        var_cond_sem=float(cond_acc.variance_sem),
        mean_sq_diff_sem=float(sq_acc.sem),
        sigma_field="U",
    )


class _SumModel:
    """Nonlinear sums for :func:`steinlab.experiment.run_experiment`,
    certified by the univariate size-bias bound."""

    name = "nonlinear-sum"
    p = 1

    def __init__(self, coupler, lam: float, sigma_sq: float, **stats_options):
        if sigma_sq <= 0:
            raise ValueError("degenerate sum: variance is zero")
        self.coupler = coupler
        self.stats_options = stats_options
        self.lam = np.array([lam])
        self.sigma = np.array([[sigma_sq]])

    def bound(self, norms, samples: int, seed: int, chunk_size: int):
        stats = estimate_nonlinear_stats(self.coupler, samples, seed=seed,
                                         chunk_size=chunk_size,
                                         **self.stats_options)
        return bound_univariate_size_bias(stats, norms.h, norms.d1), stats

    def sample_w(self, rng, size: int) -> np.ndarray:
        return self.coupler.psi(self._draw(rng, size)).sum(axis=1)[:, None]

    def extras(self, stats) -> dict:
        return {"var_cond": stats.var_cond,
                "mean_sq_diff": stats.mean_sq_diff}


class GaussianSumModel(_SumModel):
    """``W = sum psi(U_i)`` with jointly Gaussian arguments."""

    def __init__(self, cfg: GaussianSumConfig):
        super().__init__(GaussianSumCoupler(cfg), *gaussian_moments(cfg))
        self._draw = self.coupler.draw_u
        self.config = {"model": "gauss", "n": cfg.n, "rho": cfg.rho,
                       "psi": cfg.psi.name, "psi_scale": cfg.psi.scale,
                       "max_offdiag": cfg.max_offdiag,
                       "max_row_sum": cfg.max_row_sum,
                       "offdiag_below_third": cfg.max_offdiag < 1.0 / 3.0}


class MultinomialSumModel(_SumModel):
    """``W = sum psi(U_i)`` over multinomial cell counts; ``inner`` fresh
    couplings per sample estimate the conditional mean."""

    def __init__(self, cfg: MultinomialSumConfig, inner: int = 32):
        if inner < 1:
            raise ValueError(f"inner draws must be at least 1, got {inner}")
        super().__init__(MultinomialSumCoupler(cfg), *multinomial_moments(cfg),
                         inner=inner)
        self._draw = self.coupler.draw_counts
        self.config = {"model": "multinomial", "n": cfg.n, "k": cfg.k,
                       "psi": cfg.psi.name, "psi_scale": cfg.psi.scale,
                       "inner_draws": inner}
