"""The size-bias model protocol and the statistical check of its coupling.

For a nonnegative variable W with law dF and mean lambda, the size-biased
law is ``w dF(w) / lambda``; for a vector ``W`` the law biased in
coordinate i is ``w_i dF(w) / lambda_i``. Every size-bias model (degree
counts, Gaussian sums and multinomial sums) is one
:class:`CoupledPairSampler`. A subclass supplies four methods over a drawn
state (a batch of graphs, or of argument vectors U):

* ``draw(rng, size)`` yields the states of ``size`` independent draws, in
  one or more batches;
* ``w(state)`` is W, shape (b, p);
* ``couple(state, i, rng)`` is one draw of W^i per row, (b, p), whose law
  is W's biased in coordinate i;
* ``cond_exp(state)`` is the exact ``E[W^i_j - W_j | state]``, (b, p, p).

From these the base class gives fresh draws of W (:meth:`sample_w`, for
the validation pilot), coupled pairs (:meth:`draw_batch`) and, in one
pass, the statistics both size-bias theorems read (:meth:`coupling_stats`):
``Var E[W^i_j - W_j | state]`` and ``E |(W^i - W)_j (W^i - W)_k|``, whose
p = 1 case is ``E (W* - W)^2``. That pass also averages a caller's score
of each W it draws, so an experiment's distance to normality comes from
the same draws as its bound. The characterizing identity

    E[W_i G(W)] = lambda_i E[G(W^i)]

is checked statistically by :func:`verify_characterization`.
:class:`DiscreteDistribution` holds the finite laws the models draw from.

Every model is an immutable description; draws consume an explicit
seeded stream, so concurrent draws on distinct streams are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .bounds import CouplingStats
from .harness import Accumulator, StreamConfig, parallel_mc, require_samples

# Stream-index stride separating the estimation passes for different
# coordinates under one master seed.
COORD_STREAM_STRIDE = 1 << 32
Z_THRESHOLD = 4.0  # largest |z| of the identity's checks that passes


def log_binomial(n: int, k) -> np.ndarray:
    """``log C(n, k)`` for each entry of ``k``, by ``lgamma``: finite where
    the float of ``math.comb(n, k)`` overflows (n >= 1030)."""
    top = lgamma(n + 1.0)
    return np.array([top - lgamma(j + 1.0) - lgamma(n - j + 1.0)
                     for j in np.ravel(k).tolist()])


def sub_batch_sizes(size: int, cost: float, budget: float) -> list[int]:
    """Rows per sub-batch for a batch of ``size`` rows of ``cost`` stored
    values each: as many as ``budget`` values hold (at least one), all full
    but the last. Only the arguments enter, so a chunk's stream is used the
    same way at any worker count."""
    per = max(1, int(budget // cost))
    full, rest = divmod(size, per)
    return [per] * full + ([rest] if rest else [])


def rank_in_group(g: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal values in sorted ``g``."""
    return np.arange(g.size) - np.searchsorted(g, g)


def distinct_labels(rng: np.random.Generator, high: np.ndarray,
                    want: np.ndarray, stride: int, exclude=()) -> np.ndarray:
    """Uniform ``want[r]``-subsets of ``[0, high[r])``, for each r, as keys
    ``r * stride + label`` (``high <= stride``), row by row. No key in
    ``exclude`` is picked.

    Each round draws twice the labels a row still lacks, rejects excluded
    keys and those taken in earlier rounds and keeps the first occurrences,
    in draw order, up to what the row lacks. While a row's excluded and
    wanted labels fill at most half of ``[0, high[r])``, each draw is
    accepted with probability above 1/2, so the work is O(want). Excluded
    and taken keys are marked in one boolean table of ``rows * stride``
    entries, so a rejection is one lookup, with no sort.
    """
    rows = np.arange(high.size)
    left = want.copy()
    blocked = np.zeros(rows.size * stride, dtype=bool)
    blocked[np.asarray(exclude, dtype=np.intp)] = True
    taken = [np.empty(0, dtype=np.int64)]
    while left.any():
        g = np.repeat(rows, 2 * left)
        key = g * stride + rng.integers(high[g])
        key = key[~blocked[key]]
        _, first = np.unique(key, return_index=True)
        key = key[np.sort(first)]
        g = key // stride
        key = key[rank_in_group(g) < left[g]]
        left -= np.bincount(key // stride, minlength=rows.size)
        blocked[key] = True
        taken.append(key)
    return np.concatenate(taken)


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
# Size-bias models
# ---------------------------------------------------------------------------

class CoupledPairSampler:
    """A size-bias model: W, its coupling, and the exact conditional means.

    Subclasses set ``name`` (the report's ``experiment``), ``p``, ``lam``
    (mean vector, shape (p,)), ``sigma`` (covariance, (p, p)), ``isqrt``
    (``Sigma^{-1/2}``, made once from ``sigma``), ``sigma_field`` (what
    ``cond_exp`` conditions on) and ``config`` (their fields of the
    report), and implement :meth:`draw`, :meth:`w`,
    :meth:`couple`, :meth:`cond_exp`, :meth:`bound` and :meth:`extras`.
    """

    p: int = 1
    sigma_field: str = "W"

    def draw(self, rng: np.random.Generator, size: int):
        """Yield the states of ``size`` draws, in order, from ``rng``."""
        raise NotImplementedError

    def w(self, state) -> np.ndarray:
        """W for each draw in ``state``, shape (b, p)."""
        raise NotImplementedError

    def couple(self, state, i: int, rng: np.random.Generator) -> np.ndarray:
        """One draw of W^i for each draw in ``state``, shape (b, p)."""
        raise NotImplementedError

    def cond_exp(self, state) -> np.ndarray:
        """Exact ``E[W^i_j - W_j | state]`` per draw, shape (b, p, p)."""
        raise NotImplementedError

    def _over_states(self, rng: np.random.Generator, size: int, work) -> list:
        """``work(state)`` for each state :meth:`draw` yields, in order. A
        state is released before the next is drawn, so memory is capped by
        one state, not by ``size``."""
        out = []
        for state in self.draw(rng, size):
            out.append(work(state))
            del state
        return out

    def sample_w(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` fresh draws of W, shape (size, p)."""
        return np.concatenate(self._over_states(rng, size, self.w))

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        """Return ``(W, W^i)`` as ``(size, p)`` arrays."""
        w, wi = zip(*self._over_states(
            rng, size, lambda state: (self.w(state),
                                      self.couple(state, i, rng))))
        return np.concatenate(w), np.concatenate(wi)

    def coupling_stats(self, samples: int, seed: int, chunk_size: int,
                       score) -> tuple[CouplingStats, Accumulator]:
        """Monte Carlo inputs to the size-bias bounds, in one pass.

        Per state: W, the exact conditional means, and one coupling draw
        per coordinate i, giving ``dW = W^i - W``. Conditioning on the
        state rather than on W only enlarges the bound, keeping it valid.
        The same draws of W feed ``score(w)``, a batch of (b, p) draws to
        b values, whose accumulator is returned beside the statistics.
        """
        require_samples(samples)
        p = self.p

        def task(rng, size):
            cond_acc = Accumulator(shape=(p, p), max_power=4)
            cross_acc = Accumulator(shape=(p, p, p))
            score_acc = Accumulator()

            def add(state):
                w = self.w(state)
                score_acc.add(score(w))
                cond_acc.add(self.cond_exp(state))
                cross = np.empty((len(w), p, p, p))
                for i in range(p):
                    d_w = self.couple(state, i, rng) - w
                    cross[:, i] = np.abs(d_w[:, :, None] * d_w[:, None, :])
                cross_acc.add(cross)

            self._over_states(rng, size, add)
            return cond_acc, cross_acc, score_acc

        cond_acc, cross_acc, score_acc = parallel_mc(
            task, StreamConfig(seed, chunk_size), samples)
        return CouplingStats(
            lam=self.lam, sigma=self.sigma,
            var_cond=cond_acc.variance, abs_cross=cross_acc.mean,
            var_cond_sem=cond_acc.variance_sem, abs_cross_sem=cross_acc.sem,
            sigma_field=self.sigma_field,
        ), score_acc


# ---------------------------------------------------------------------------
# Statistical verification of the characterizing identity
# ---------------------------------------------------------------------------

@dataclass
class CharacterizationResult:
    """Per-(coordinate, G) standardized differences of the identity."""

    labels: list
    zscores: np.ndarray    # (p, nG)

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.zscores)))

    def passed(self) -> bool:
        return bool(np.all(np.abs(self.zscores) <= Z_THRESHOLD))


def default_g_suite(p: int, median: float):
    suite = [(f"w{j + 1}", lambda w, j=j: w[:, j]) for j in range(p)]
    suite += [(f"w{j + 1}^2", lambda w, j=j: w[:, j] ** 2) for j in range(p)]
    suite.append(("exp(-sum)", lambda w: np.exp(-w.sum(axis=1))))
    suite.append((f"ind(sum<={median:.6g})",
                  lambda w, m=median: (w.sum(axis=1) <= m).astype(float)))
    return suite


def verify_characterization(sampler: CoupledPairSampler,
                            samples: int = 1_000_000, seed: int = 0,
                            chunk_size: int = 16384) -> CharacterizationResult:
    """Standardized checks of ``E W_i G(W) = lambda_i E G(W^i)``.

    For every coordinate i and every G in :func:`default_g_suite`, whose
    indicator cuts at the median of a pilot draw of W, estimates the
    coupled per-draw difference ``W_i G(W) - lambda_i G(W^i)`` and reports
    its mean over its standard error. Validation passes when all
    ``|z| <=`` :data:`Z_THRESHOLD`.
    """
    require_samples(samples)
    cfg = StreamConfig(seed, chunk_size)
    lam = np.asarray(sampler.lam, dtype=float)
    pilot = sampler.sample_w(cfg.aux_stream(1), 4096)
    g_suite = default_g_suite(sampler.p, float(np.median(pilot.sum(axis=1))))
    labels = [label for label, _ in g_suite]
    funcs = [fn for _, fn in g_suite]
    n_g = len(funcs)

    z = np.empty((sampler.p, n_g))
    for i in range(sampler.p):
        def task(rng, size, i=i):
            w, wi = sampler.draw_batch(i, size, rng)
            d = np.stack(
                [w[:, i] * fn(w) - lam[i] * fn(wi) for fn in funcs], axis=1
            )
            return Accumulator(shape=(n_g,)).add(d)

        acc = parallel_mc(task, cfg.offset(i * COORD_STREAM_STRIDE), samples)
        diffs, sems = acc.mean, acc.sem
        with np.errstate(divide="ignore", invalid="ignore"):
            z[i] = np.where(sems > 0, diffs / np.where(sems > 0, sems, 1.0),
                            np.where(diffs == 0.0, 0.0, np.inf))
    return CharacterizationResult(labels, z)
