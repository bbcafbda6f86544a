"""Size-biased distributions and joint coupling samplers.

For a nonnegative variable W with law dF and mean lambda, the size-biased
law is ``w dF(w) / lambda``; for a collection ``X`` the law biased in
coordinate beta is ``x_beta dF(x) / lambda_beta``. A coupled pair sampler
produces joint draws ``(W, W^i)`` whose second component follows the law
biased in coordinate i, which is exactly what the coupling-based bound
theorems consume. The characterizing identity

    E[W_i G(W)] = lambda_i E[G(W^i)]

is checked statistically by :func:`verify_characterization`.

Every sampler here is an immutable description; draws consume an explicit
seeded stream, so concurrent draws on distinct streams are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .errors import ConditionalUnavailable, ZeroMean
from .harness import Accumulator, StreamConfig, parallel_mc, require_samples

# Stream-index stride separating the estimation passes for different
# coordinates under one master seed.
COORD_STREAM_STRIDE = 1 << 32


def log_binomial(n: int, k) -> np.ndarray:
    """``log C(n, k)`` for each entry of ``k``, by ``lgamma``: finite where
    the float of ``math.comb(n, k)`` overflows (n >= 1030)."""
    top = lgamma(n + 1.0)
    return np.array([top - lgamma(j + 1.0) - lgamma(n - j + 1.0)
                     for j in np.ravel(k).tolist()])


# ---------------------------------------------------------------------------
# Discrete distributions and exact size biasing
# ---------------------------------------------------------------------------

class DiscreteDistribution:
    """Finite distribution on nonnegative values.

    Sampling uses inverse CDF with left-closed cumulative cells: a uniform
    ``u`` selects index ``i`` when ``cum[i-1] <= u < cum[i]``. This
    tie-breaking rule is part of the reproducibility contract.
    """

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probs must be matching 1-d arrays")
        if np.any(values < 0):
            raise ValueError("size biasing needs nonnegative values")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability")
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.values = values
        self.probs = np.maximum(probs, 0.0)
        self._cum = np.cumsum(self.probs)
        self._cum[-1] = 1.0

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def moment(self, k: int) -> float:
        return float(np.dot(self.values**k, self.probs))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        return self.values[idx]

    # Common cases -------------------------------------------------------

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteDistribution":
        return cls([0.0, 1.0], [1.0 - p, p])

    @classmethod
    def binomial(cls, n: int, p: float) -> "DiscreteDistribution":
        """Binomial(n, p), its pmf formed in log space so that any n works."""
        k = np.arange(n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pmf = (log_binomial(n, k)
                       + np.where(k > 0, k * np.log(p), 0.0)
                       + np.where(k < n, (n - k) * np.log1p(-p), 0.0))
        pmf = np.exp(log_pmf - log_pmf.max())
        pmf /= pmf.sum()
        return cls(k.astype(float), pmf)

    @classmethod
    def poisson_truncated(cls, lam: float, kmax: int) -> "DiscreteDistribution":
        from math import factorial

        k = np.arange(kmax + 1)
        pmf = np.array([lam**int(j) / factorial(int(j)) for j in k])
        pmf /= pmf.sum()
        return cls(k.astype(float), pmf)


def size_bias_discrete(d: DiscreteDistribution) -> DiscreteDistribution:
    """The size-biased law ``prob(w) = w p(w) / mean``."""
    lam = d.mean
    if lam <= 0.0:
        raise ZeroMean("cannot size bias a distribution with mean 0")
    return DiscreteDistribution(d.values, d.values * d.probs / lam)


@dataclass(frozen=True)
class IndexPicker:
    """Random index with probabilities proportional to the given weights."""

    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise ZeroMean("index weights must be nonnegative with positive sum")

    @property
    def probs(self) -> np.ndarray:
        w = np.asarray(self.weights, dtype=float)
        return w / w.sum()

    def pick(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        return np.searchsorted(cum, rng.random(size), side="right")


# ---------------------------------------------------------------------------
# Coupled pair samplers
# ---------------------------------------------------------------------------

class CoupledPairSampler:
    """Joint draws ``(W, W^i)`` with ``W^i`` size biased in coordinate ``i``.

    Subclasses implement :meth:`draw_batch`; the marginal of the first
    component must be the target law and the pair must satisfy the
    characterizing identity for every coordinate.
    """

    p: int = 1
    mean_vector: np.ndarray

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        """Return ``(W, Wi)`` as ``(size, p)`` arrays."""
        raise NotImplementedError

    def draw(self, i: int, rng: np.random.Generator):
        w, wi = self.draw_batch(i, 1, rng)
        return w[0], wi[0]


class IndependentSumCoupler(CoupledPairSampler):
    """Size-bias coupling for ``W = X_1 + ... + X_n`` with independent X.

    A summand index is chosen with probability proportional to its mean and
    replaced by a draw from its size-biased law; independence makes any
    further conditional adjustment of the other summands vacuous.
    """

    def __init__(self, components: list[DiscreteDistribution]):
        means = np.array([c.mean for c in components])
        if means.sum() <= 0:
            raise ZeroMean("total mean must be positive")
        self.components = list(components)
        self.biased = [size_bias_discrete(c) if c.mean > 0 else None
                       for c in components]
        self.picker = IndexPicker(tuple(means))
        self.p = 1
        self.mean_vector = np.array([means.sum()])

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        if i != 0:
            raise IndexError("univariate coupler only has coordinate 0")
        k = len(self.components)
        x = np.empty((size, k))
        for j, comp in enumerate(self.components):
            x[:, j] = comp.sample(rng, size)
        idx = self.picker.pick(rng, size)
        replaced = np.empty(size)
        for j in range(k):
            mask = idx == j
            cnt = int(mask.sum())
            if cnt:
                replaced[mask] = self.biased[j].sample(rng, cnt)
        w = x.sum(axis=1)
        wstar = w - x[np.arange(size), idx] + replaced
        return w[:, None], wstar[:, None]


class IndicatorCollectionCoupler(CoupledPairSampler):
    """Coupling for sums of 0/1 variables over coordinate sets A_1..A_p.

    ``joint_sampler(rng, size)`` draws the indicator collection;
    ``conditional_given_one(beta, rng, size)`` draws the collection from its
    conditional law given ``X_beta = 1`` (indicators are size biased simply
    by pinning the chosen one to 1). ``W^i_j`` sums the conditioned
    collection over ``A_j``.
    """

    def __init__(self, joint_sampler, conditional_given_one,
                 coordinate_sets, means):
        self.joint_sampler = joint_sampler
        self.conditional_given_one = conditional_given_one
        self.sets = [np.asarray(s, dtype=int) for s in coordinate_sets]
        self.means = np.asarray(means, dtype=float)
        self.p = len(self.sets)
        self.mean_vector = np.array(
            [self.means[s].sum() for s in self.sets]
        )
        self.pickers = []
        for s in self.sets:
            if self.means[s].sum() <= 0:
                raise ZeroMean(f"coordinate set {s} has zero total mean")
            self.pickers.append(IndexPicker(tuple(self.means[s])))

    def _sums(self, x: np.ndarray) -> np.ndarray:
        return np.stack([x[:, s].sum(axis=1) for s in self.sets], axis=1)

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        x = self.joint_sampler(rng, size)
        members = self.sets[i]
        which = self.pickers[i].pick(rng, size)
        xcond = np.empty_like(x, dtype=float)
        for slot, beta in enumerate(members):
            mask = which == slot
            cnt = int(mask.sum())
            if not cnt:
                continue
            redraw = np.asarray(self.conditional_given_one(int(beta), rng, cnt),
                                dtype=float)
            if not np.all(redraw[:, beta] == 1.0):
                raise ConditionalUnavailable(
                    f"conditional law for index {beta} did not pin X_beta = 1"
                )
            xcond[mask] = redraw
        return self._sums(np.asarray(x, dtype=float)), self._sums(xcond)


class FunctionSumCoupler(CoupledPairSampler):
    """Coupling for ``W = sum_j psi_j(U_j)`` built on the argument vector.

    Index ``I`` is chosen with probability proportional to ``E psi_i(U_i)``
    (the tilted samplers' masses), ``Y_I`` is drawn from the psi-tilted
    marginal, and the supplied adjuster produces the remaining coordinates
    from their conditional law given ``U_I = Y_I``.
    """

    def __init__(self, u_sampler, psis, tilted_samplers, adjuster):
        self.u_sampler = u_sampler
        self.psis = list(psis)
        self.tilted = list(tilted_samplers)
        if len(self.tilted) != len(self.psis):
            raise ValueError("need one tilted sampler per summand")
        self.adjuster = adjuster
        masses = np.array([t.mass for t in self.tilted])
        if masses.sum() <= 0:
            raise ZeroMean("all summands have zero mean")
        self.picker = IndexPicker(tuple(masses))
        self.p = 1
        self.mean_vector = np.array([masses.sum()])

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        if i != 0:
            raise IndexError("univariate coupler only has coordinate 0")
        u = self.u_sampler(rng, size)
        idx = self.picker.pick(rng, size)
        y = np.empty(size)
        for j, tilt in enumerate(self.tilted):
            mask = idx == j
            cnt = int(mask.sum())
            if cnt:
                y[mask] = tilt.sample(rng, cnt)
        adjusted = np.array(self.adjuster(u, idx, y, rng), dtype=float)
        adjusted[np.arange(size), idx] = y
        w = np.zeros(size)
        wstar = np.zeros(size)
        for j, psi in enumerate(self.psis):
            w += psi(u[:, j])
            wstar += psi(adjusted[:, j])
        return w[:, None], wstar[:, None]


def independent_adjuster(u, idx, y, rng):
    """Conditional adjuster for independent arguments: leave others alone."""
    return u.copy()


# ---------------------------------------------------------------------------
# Statistical verification of the characterizing identity
# ---------------------------------------------------------------------------

@dataclass
class CharacterizationResult:
    """Per-(coordinate, G) standardized differences of the identity."""

    labels: list
    diffs: np.ndarray      # (p, nG) estimates of E W_i G(W) - lam_i E G(W^i)
    sems: np.ndarray
    zscores: np.ndarray
    samples: int
    seed: int

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.zscores)))

    def passed(self, threshold: float = 4.0) -> bool:
        return bool(np.all(np.abs(self.zscores) <= threshold))


def default_g_suite(p: int, median: float):
    suite = [(f"w{j + 1}", lambda w, j=j: w[:, j]) for j in range(p)]
    suite += [(f"w{j + 1}^2", lambda w, j=j: w[:, j] ** 2) for j in range(p)]
    suite.append(("exp(-sum)", lambda w: np.exp(-w.sum(axis=1))))
    suite.append((f"ind(sum<={median:.6g})",
                  lambda w, m=median: (w.sum(axis=1) <= m).astype(float)))
    return suite


def verify_characterization(sampler: CoupledPairSampler, g_suite=None,
                            samples: int = 1_000_000, seed: int = 0,
                            chunk_size: int = 16384) -> CharacterizationResult:
    """Standardized checks of ``E W_i G(W) = lambda_i E G(W^i)``.

    For every coordinate i and every G in the suite, estimates the coupled
    per-draw difference ``W_i G(W) - lambda_i G(W^i)`` and reports its mean
    over its standard error. Validation passes when all ``|z| <= 4``.
    """
    require_samples(samples)
    cfg = StreamConfig(seed, chunk_size)
    lam = np.asarray(sampler.mean_vector, dtype=float)
    if g_suite is None:
        pilot = sampler.draw_batch(0, 4096, cfg.aux_stream(1))[0]
        median = float(np.median(pilot.sum(axis=1)))
        g_suite = default_g_suite(sampler.p, median)
    labels = [label for label, _ in g_suite]
    funcs = [fn for _, fn in g_suite]
    n_g = len(funcs)

    diffs = np.empty((sampler.p, n_g))
    sems = np.empty((sampler.p, n_g))
    for i in range(sampler.p):
        def task(rng, size, i=i):
            w, wi = sampler.draw_batch(i, size, rng)
            d = np.stack(
                [w[:, i] * fn(w) - lam[i] * fn(wi) for fn in funcs], axis=1
            )
            return Accumulator(shape=(n_g,)).add(d)

        acc = parallel_mc(task, cfg.offset(i * COORD_STREAM_STRIDE), samples)
        diffs[i] = acc.mean
        sems[i] = acc.sem
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sems > 0, diffs / np.where(sems > 0, sems, 1.0),
                     np.where(diffs == 0.0, 0.0, np.inf))
    return CharacterizationResult(labels, diffs, sems, z, samples, seed)
