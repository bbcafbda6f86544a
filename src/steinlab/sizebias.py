"""The coupled-pair interface and its statistical check.

For a nonnegative variable W with law dF and mean lambda, the size-biased
law is ``w dF(w) / lambda``; for a collection ``X`` the law biased in
coordinate beta is ``x_beta dF(x) / lambda_beta``. A coupled pair sampler
produces joint draws ``(W, W^i)`` whose second component follows the law
biased in coordinate i, which is exactly what the coupling-based bound
theorems consume. The three model couplers (degree counts, Gaussian sums
and multinomial sums) implement :class:`CoupledPairSampler`; the
characterizing identity

    E[W_i G(W)] = lambda_i E[G(W^i)]

is checked statistically by :func:`verify_characterization`.
:class:`DiscreteDistribution` holds the finite laws the models draw from.

Every sampler is an immutable description; draws consume an explicit
seeded stream, so concurrent draws on distinct streams are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

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
# Discrete distributions
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
