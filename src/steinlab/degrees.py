"""Degree counts in the Erdos-Renyi random graph.

The random vector of interest counts, for each prescribed degree ``d_i``,
the vertices of that degree in a graph where every pair is an edge
independently with probability ``pi``. The mean vector and covariance have
exact closed forms; a size-bias coupling is realized by forcing a uniformly
chosen vertex to have degree ``d_i`` through uniform edge insertions or
deletions, and the inner conditional expectation of the count change given
the graph is available exactly, which removes all nested Monte Carlo from
the conditional-variance estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, fsum

import numpy as np

from .bounds import (MultivariateCouplingStats, bound_multivariate_size_bias)
from .errors import InvariantViolation, TooLarge
from .harness import Accumulator, StreamConfig, parallel_mc, require_samples
from .linalg import inverse_sqrt, max_abs_norm
from .sizebias import CoupledPairSampler

BRUTE_FORCE_MAX_N = 5


@dataclass(frozen=True)
class ErdosRenyiConfig:
    """Graph size, edge probability and the degree values to count."""

    n: int
    pi: float
    degrees: tuple
    check_pd: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if not 0.0 < self.pi < 1.0:
            raise ValueError("edge probability must lie strictly in (0, 1)")
        degs = tuple(int(d) for d in self.degrees)
        if len(set(degs)) != len(degs):
            raise ValueError("degree values must be distinct")
        if any(d < 0 or d > self.n - 1 for d in degs):
            raise ValueError("degrees must lie in [0, n-1]")
        object.__setattr__(self, "degrees", degs)
        if self.check_pd:
            _, sigma, _ = theoretical_moments(self)
            inverse_sqrt(sigma)  # raises NotPositiveDefinite if unusable

    @classmethod
    def from_c(cls, n: int, c: float, degrees, check_pd: bool = True):
        """Sparse parameterization ``pi = c / (n - 1)``."""
        return cls(n, c / (n - 1), tuple(degrees), check_pd)

    @property
    def c(self) -> float:
        return self.pi * (self.n - 1)

    @property
    def p(self) -> int:
        return len(self.degrees)


def degree_probability(n: int, pi: float, d: int) -> float:
    """``P(Binomial(n-1, pi) = d)``, the chance a fixed vertex has degree d."""
    return comb(n - 1, d) * pi**d * (1.0 - pi) ** (n - 1 - d)


def theoretical_moments(cfg: ErdosRenyiConfig):
    """Exact mean vector, covariance matrix and the constant B.

    ``lam_i = n beta(i)`` with ``beta(i)`` the binomial degree probability;
    the covariance is
    ``sigma_ij = n beta(i) beta(j) [ (d_i - c)(d_j - c) / (c (1 - c/(n-1))) - 1 ]
    + delta_ij n beta(i)`` where ``c = pi (n - 1)``. B is
    ``1 / (min_i beta(i) (1 - sum_i beta(i)))``, infinite when the degree
    probabilities exhaust the mass.
    """
    n, pi = cfg.n, cfg.pi
    c = cfg.c
    beta = np.array([degree_probability(n, pi, d) for d in cfg.degrees])
    lam = n * beta
    d = np.array(cfg.degrees, dtype=float)
    quad = np.outer(d - c, d - c) / (c * (1.0 - c / (n - 1)))
    sigma = n * np.outer(beta, beta) * (quad - 1.0) + np.diag(n * beta)
    slack = 1.0 - float(beta.sum())
    denom = float(beta.min()) * slack
    b_const = 1.0 / denom if denom > 0 else float("inf")
    return lam, sigma, b_const


# ---------------------------------------------------------------------------
# Graph samples
# ---------------------------------------------------------------------------

@dataclass
class GraphSample:
    """A realized graph: sorted edge pairs ``u < v`` plus its degree array."""

    n: int
    edges: np.ndarray      # (E, 2) ints with u < v
    degrees: np.ndarray    # (n,) ints

    def validate(self):
        u, v = self.edges[:, 0], self.edges[:, 1]
        if not np.all(u < v):
            raise InvariantViolation("self-loop or unsorted pair")
        codes = u * self.n + v
        if len(np.unique(codes)) != len(codes):
            raise InvariantViolation("duplicate edge")
        deg = np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n)
        if not np.array_equal(deg, self.degrees):
            raise InvariantViolation("degree array inconsistent")

    def neighbors(self, vertex: int) -> np.ndarray:
        u, v = self.edges[:, 0], self.edges[:, 1]
        return np.concatenate([v[u == vertex], u[v == vertex]])

    def degree_counts(self, degrees) -> np.ndarray:
        return np.array([(self.degrees == d).sum() for d in degrees],
                        dtype=float)


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _decode_pair_codes(codes: np.ndarray, n: int):
    """Invert the row-major upper-triangle code ``t = offset(u) + (v - u - 1)``."""
    t = codes.astype(np.int64)
    b = 2 * n - 1
    u = np.floor((b - np.sqrt(b * b - 8.0 * t.astype(float))) / 2.0).astype(np.int64)
    u = np.clip(u, 0, n - 2)
    for _ in range(2):  # fix float rounding at offset boundaries
        off = u * (2 * n - u - 1) // 2
        u = np.where(t < off, u - 1, u)
        u = np.clip(u, 0, n - 2)
        off = u * (2 * n - u - 1) // 2
        nxt = (u + 1) * (2 * n - u - 2) // 2
        u = np.where((t >= nxt) & (u < n - 2), u + 1, u)
    off = u * (2 * n - u - 1) // 2
    v = t - off + u + 1
    return u, v


def _distinct_codes(rng: np.random.Generator, npop: int, m: int) -> np.ndarray:
    """``m`` distinct uniform draws from ``range(npop)``, set-uniform."""
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if npop <= 8192 or 8 * m >= npop:
        return rng.permutation(npop)[:m].astype(np.int64)
    # Rejection: keep first occurrences in draw order until m are collected.
    out = np.empty(0, dtype=np.int64)
    while out.size < m:
        need = m - out.size
        draw = rng.integers(0, npop, size=need + need // 8 + 16, dtype=np.int64)
        _, first = np.unique(draw, return_index=True)
        fresh = draw[np.sort(first)]
        if out.size:
            fresh = fresh[~np.isin(fresh, out)]
        out = np.concatenate([out, fresh])
    return out[:m]


def sample_graph(cfg: ErdosRenyiConfig, rng: np.random.Generator) -> GraphSample:
    """One draw of the graph: every pair is an edge independently w.p. pi."""
    npairs = _pair_count(cfg.n)
    m = int(rng.binomial(npairs, cfg.pi))
    codes = _distinct_codes(rng, npairs, m)
    u, v = _decode_pair_codes(codes, cfg.n)
    deg = (np.bincount(u, minlength=cfg.n)
           + np.bincount(v, minlength=cfg.n))
    return GraphSample(cfg.n, np.stack([u, v], axis=1), deg)


# ---------------------------------------------------------------------------
# The coupling
# ---------------------------------------------------------------------------

@dataclass
class DegreeCouplingDraw:
    """One coupling draw: the graph, the chosen vertex, and both counts."""

    graph: GraphSample
    vertex: int
    modified: GraphSample
    w: np.ndarray
    wi: np.ndarray


def _coupling_delta(rng, deg_row, edge_u, edge_v, n, degrees, i):
    """Vertex choice plus count changes for one graph and coordinate i.

    Returns ``(V, touched, added, dW)`` where ``touched`` are the other
    endpoints of inserted/removed edges and ``added`` says which.
    """
    d_i = degrees[i]
    vertex = int(rng.integers(n))
    dv = int(deg_row[vertex])
    delta = dv - d_i
    darr = np.asarray(degrees)
    if delta == 0:
        return vertex, np.empty(0, dtype=np.int64), False, np.zeros(len(degrees))
    nb = np.concatenate([edge_v[edge_u == vertex], edge_u[edge_v == vertex]])
    if delta > 0:
        sel = rng.permutation(dv)[:delta]
        touched = nb[sel]
        added = False
        old = deg_row[touched]
        new = old - 1
    else:
        mask = np.ones(n, dtype=bool)
        mask[vertex] = False
        mask[nb] = False
        cand = np.flatnonzero(mask)
        sel = rng.permutation(cand.size)[:-delta]
        touched = cand[sel]
        added = True
        old = deg_row[touched]
        new = old + 1
    d_w = ((new[:, None] == darr).sum(axis=0)
           - (old[:, None] == darr).sum(axis=0)).astype(float)
    d_w += (darr == d_i).astype(float) - (darr == dv).astype(float)
    return vertex, touched, added, d_w


def couple_degree(graph: GraphSample, cfg: ErdosRenyiConfig, i: int,
                  rng: np.random.Generator) -> DegreeCouplingDraw:
    """Force a uniformly chosen vertex to degree ``d_i``.

    Edges at the vertex are removed uniformly when its degree is too high,
    or edges to uniformly chosen non-neighbors inserted when too low. The
    modified graph then has the conditional law of the original given that
    the chosen vertex has degree ``d_i``.
    """
    vertex, touched, added, d_w = _coupling_delta(
        rng, graph.degrees, graph.edges[:, 0], graph.edges[:, 1],
        cfg.n, cfg.degrees, i
    )
    edges = graph.edges
    if touched.size:
        pairs = np.stack([np.minimum(touched, vertex),
                          np.maximum(touched, vertex)], axis=1)
        if added:
            edges = np.concatenate([edges, pairs], axis=0)
        else:
            codes = edges[:, 0] * cfg.n + edges[:, 1]
            drop = pairs[:, 0] * cfg.n + pairs[:, 1]
            edges = edges[~np.isin(codes, drop)]
    deg = (np.bincount(edges[:, 0], minlength=cfg.n)
           + np.bincount(edges[:, 1], minlength=cfg.n))
    modified = GraphSample(cfg.n, edges, deg)
    w = graph.degree_counts(cfg.degrees)
    wi = modified.degree_counts(cfg.degrees)
    if deg[vertex] != cfg.degrees[i]:
        raise InvariantViolation("chosen vertex missed the target degree")
    if not np.allclose(wi - w, d_w):
        raise InvariantViolation("count change disagrees with the coupling")
    return DegreeCouplingDraw(graph, vertex, modified, w, wi)


def cond_exp_given_graph(graph: GraphSample, cfg: ErdosRenyiConfig,
                         i: int, j: int) -> float:
    """Exact ``E[W^i_j - W_j | graph]`` over the coupling's randomness.

    Averages over the uniform vertex choice and the uniform edge
    insertions/removals: a neighbor of an over-degree vertex loses its edge
    with probability ``(D(v) - d_i) / D(v)``, a non-neighbor of an
    under-degree vertex gains one with probability
    ``(d_i - D(v)) / (n - 1 - D(v))``, and the chosen vertex itself moves to
    degree ``d_i`` deterministically.
    """
    n = cfg.n
    d_i, d_j = cfg.degrees[i], cfg.degrees[j]
    deg = graph.degrees
    total = 0.0
    for v in range(n):
        dv = int(deg[v])
        if dv != d_i:
            nb = graph.neighbors(v)
            if dv > d_i:
                gain = int(np.sum(deg[nb] == d_j + 1))
                lose = int(np.sum(deg[nb] == d_j))
                total += (gain - lose) * (dv - d_i) / dv
            else:
                nn_total = n - 1 - dv
                nn_at = lambda t: (
                    int(np.sum(deg == t)) - int(dv == t)
                    - int(np.sum(deg[nb] == t))
                ) if t >= 0 else 0
                gain = nn_at(d_j - 1)
                lose = nn_at(d_j)
                total += (gain - lose) * (d_i - dv) / nn_total
        # the chosen vertex itself: after coupling its degree is d_i
        total += float(d_i == d_j) - float(dv == d_j)
    return total / n


# ---------------------------------------------------------------------------
# Vectorized chunk kernel
# ---------------------------------------------------------------------------

class _GraphChunk:
    """A batch of independent graph draws in flat-edge representation."""

    __slots__ = ("size", "n", "counts", "offsets", "u", "v", "deg")

    def __init__(self, rng, size, cfg):
        n = cfg.n
        npairs = _pair_count(n)
        counts = rng.binomial(npairs, cfg.pi, size=size)
        codes = np.empty(int(counts.sum()), dtype=np.int64)
        pos = 0
        for b in range(size):
            m = int(counts[b])
            codes[pos:pos + m] = _distinct_codes(rng, npairs, m)
            pos += m
        self.size = size
        self.n = n
        self.counts = counts
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.u, self.v = _decode_pair_codes(codes, n)
        gid = np.repeat(np.arange(size), counts)
        flat = np.bincount(gid * n + self.u, minlength=size * n)
        flat += np.bincount(gid * n + self.v, minlength=size * n)
        self.deg = flat.reshape(size, n)

    @property
    def gid(self):
        return np.repeat(np.arange(self.size), self.counts)

    def degree_count_matrix(self, degrees) -> np.ndarray:
        return np.stack(
            [(self.deg == d).sum(axis=1) for d in degrees], axis=1
        ).astype(float)

    def edge_slice(self, b):
        lo, hi = self.offsets[b], self.offsets[b + 1]
        return self.u[lo:hi], self.v[lo:hi]


def _cond_exp_chunk(chunk: _GraphChunk, degrees) -> np.ndarray:
    """Exact ``E[W^i_j - W_j | graph]`` for every graph in the chunk."""
    size, n = chunk.size, chunk.n
    deg = chunk.deg
    gid = chunk.gid
    deg_u = deg[gid, chunk.u]
    deg_v = deg[gid, chunk.v]
    tvals = set()
    for d in degrees:
        tvals.update(t for t in (d - 1, d, d + 1) if t >= 0)
    base_u = gid * n + chunk.u
    base_v = gid * n + chunk.v
    nbr = {}
    cnt = {}
    for t in sorted(tvals):
        flat = np.bincount(base_u, weights=(deg_v == t).astype(float),
                           minlength=size * n)
        flat += np.bincount(base_v, weights=(deg_u == t).astype(float),
                            minlength=size * n)
        nbr[t] = flat.reshape(size, n)
        cnt[t] = (deg == t).sum(axis=1).astype(float)
    p = len(degrees)
    out = np.empty((size, p, p))
    zero = np.zeros((size, n))
    for i, d_i in enumerate(degrees):
        over = deg > d_i
        under = deg < d_i
        w_over = np.where(over, (deg - d_i) / np.maximum(deg, 1), 0.0)
        w_under = np.where(under, (d_i - deg) / (n - 1 - deg), 0.0)
        n_not_i = (deg != d_i).sum(axis=1).astype(float)
        for j, d_j in enumerate(degrees):
            a_plus = nbr.get(d_j + 1, zero)
            a_zero = nbr[d_j]
            term1 = (w_over * (a_plus - a_zero)).sum(axis=1)
            nn_zero = cnt[d_j][:, None] - (deg == d_j) - nbr[d_j]
            if d_j - 1 >= 0:
                nn_minus = (cnt[d_j - 1][:, None] - (deg == d_j - 1)
                            - nbr[d_j - 1])
            else:
                nn_minus = zero
            term2 = (w_under * (nn_minus - nn_zero)).sum(axis=1)
            if i == j:
                fixed = n_not_i
            else:
                fixed = -cnt[d_j]
            out[:, i, j] = (term1 + term2 + fixed) / n
    return out


# ---------------------------------------------------------------------------
# Coupler object and statistics estimation
# ---------------------------------------------------------------------------

class DegreeCountCoupler(CoupledPairSampler):
    """Coupled pair sampler ``(W, W^i)`` for the degree-count vector.

    Batches are drawn through a dense pair-indicator kernel whenever the
    (sub-batch x pair-count) footprint is affordable: the uniform edge
    choices at the picked vertex become a rank threshold on per-slot random
    keys, so a whole batch is coupled without a Python loop.
    """

    _DENSE_BUDGET = 1 << 25  # bools per sub-batch
    _DENSE_MAX_N = 1024

    def __init__(self, cfg: ErdosRenyiConfig):
        self.cfg = cfg
        self.p = cfg.p
        lam, sigma, _ = theoretical_moments(cfg)
        self.mean_vector = lam
        self.sigma = sigma
        n = cfg.n
        if n <= self._DENSE_MAX_N:
            others = np.empty((n, n - 1), dtype=np.int64)
            codes = np.empty((n, n - 1), dtype=np.int64)
            for v in range(n):
                other = np.concatenate([np.arange(v), np.arange(v + 1, n)])
                others[v] = other
                lo = np.minimum(other, v)
                hi = np.maximum(other, v)
                codes[v] = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
            self._others = others
            self._codes = codes
            incidence = np.zeros((_pair_count(n), n), dtype=np.float32)
            all_u, all_v = _decode_pair_codes(np.arange(_pair_count(n)), n)
            incidence[np.arange(_pair_count(n)), all_u] = 1.0
            incidence[np.arange(_pair_count(n)), all_v] = 1.0
            self._incidence = incidence
        else:
            self._others = None

    def draw_batch(self, i: int, size: int, rng: np.random.Generator):
        cfg = self.cfg
        if self._others is None:
            return self._sparse_draw_batch(i, size, rng)
        npairs = _pair_count(cfg.n)
        sub = max(1, min(size, self._DENSE_BUDGET // max(npairs, 1)))
        w = np.empty((size, self.p))
        wi = np.empty((size, self.p))
        pos = 0
        while pos < size:
            take = min(sub, size - pos)
            w_sub, wi_sub = self._dense_draw(i, take, rng)
            w[pos:pos + take] = w_sub
            wi[pos:pos + take] = wi_sub
            pos += take
        return w, wi

    def _dense_draw(self, i: int, size: int, rng: np.random.Generator):
        cfg = self.cfg
        n = cfg.n
        d_i = cfg.degrees[i]
        darr = np.asarray(cfg.degrees)
        bits = rng.random((size, _pair_count(n))) < cfg.pi
        deg = np.rint(bits.astype(np.float32) @ self._incidence).astype(np.int64)
        w = np.stack([(deg == d).sum(axis=1) for d in darr], axis=1).astype(float)
        vertex = rng.integers(n, size=size)
        keys = rng.random((size, n - 1))
        rows = np.arange(size)
        nbmask = bits[rows[:, None], self._codes[vertex]]
        dv = deg[rows, vertex]
        delta = dv - d_i
        need = np.abs(delta)
        eligible = np.where((delta > 0)[:, None], nbmask, ~nbmask)
        masked = np.where(eligible, keys, np.inf)
        order = np.argsort(masked, axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order,
                          np.broadcast_to(np.arange(n - 1), order.shape), axis=1)
        chosen = (ranks < need[:, None]) & eligible
        udeg = deg[rows[:, None], self._others[vertex]]
        newdeg = udeg + np.where(delta > 0, -1, 1)[:, None]
        d_w = np.zeros((size, self.p))
        for k, d_j in enumerate(darr):
            d_w[:, k] = (
                (chosen & (newdeg == d_j)).sum(axis=1).astype(float)
                - (chosen & (udeg == d_j)).sum(axis=1).astype(float)
                + float(d_i == d_j)
                - (dv == d_j).astype(float)
            )
        return w, w + d_w

    def _sparse_draw_batch(self, i: int, size: int, rng: np.random.Generator):
        cfg = self.cfg
        chunk = _GraphChunk(rng, size, cfg)
        w = chunk.degree_count_matrix(cfg.degrees)
        wi = w.copy()
        for b in range(size):
            eu, ev = chunk.edge_slice(b)
            _, _, _, d_w = _coupling_delta(
                rng, chunk.deg[b], eu, ev, cfg.n, cfg.degrees, i
            )
            wi[b] += d_w
        return w, wi


def degree_coupler(cfg: ErdosRenyiConfig) -> DegreeCountCoupler:
    return DegreeCountCoupler(cfg)


def estimate_coupling_stats(cfg: ErdosRenyiConfig, samples: int, seed: int = 0,
                            chunk_size: int = 512) -> MultivariateCouplingStats:
    """Monte Carlo coupling statistics for the multivariate size-bias bound.

    The conditional variance conditions on the whole graph: the inner
    expectation is then exact (no nested sampling) and conditioning on this
    larger sigma-field only enlarges the bound, keeping it valid. The
    absolute cross moments come from one coupling draw per graph and
    coordinate.
    """
    require_samples(samples)
    p = cfg.p
    stream_cfg = StreamConfig(seed, chunk_size)

    def task(rng, size):
        chunk = _GraphChunk(rng, size, cfg)
        cond = _cond_exp_chunk(chunk, cfg.degrees)
        cross = np.empty((size, p, p, p))
        for b in range(size):
            eu, ev = chunk.edge_slice(b)
            for i in range(p):
                _, _, _, d_w = _coupling_delta(
                    rng, chunk.deg[b], eu, ev, cfg.n, cfg.degrees, i
                )
                cross[b, i] = np.abs(np.outer(d_w, d_w))
        return (Accumulator(shape=(p, p), max_power=4).add(cond),
                Accumulator(shape=(p, p, p)).add(cross))

    cond_acc, cross_acc = parallel_mc(task, stream_cfg, samples)
    lam, sigma, _ = theoretical_moments(cfg)
    return MultivariateCouplingStats(
        p=p, lam=lam, sigma=sigma,
        var_cond=cond_acc.variance,
        abs_cross=cross_acc.mean,
        var_cond_sem=cond_acc.variance_sem,
        abs_cross_sem=cross_acc.sem,
        sigma_field="graph",
    )


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------

def brute_force_moments(cfg: ErdosRenyiConfig):
    """Exact mean and covariance by enumerating all graphs (n <= 5)."""
    if cfg.n > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"enumeration supports n <= {BRUTE_FORCE_MAX_N}")
    n, pi = cfg.n, cfg.pi
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    p = cfg.p
    mean_terms = [[] for _ in range(p)]
    cross_terms = [[[] for _ in range(p)] for _ in range(p)]
    pi_pow = [pi**k * (1.0 - pi) ** (m - k) for k in range(m + 1)]
    for mask in range(1 << m):
        deg = [0] * n
        bits = mask
        k = 0
        while bits:
            idx = (bits & -bits).bit_length() - 1
            a, b = pairs[idx]
            deg[a] += 1
            deg[b] += 1
            k += 1
            bits &= bits - 1
        weight = pi_pow[k]
        w = [sum(1 for v in range(n) if deg[v] == d) for d in cfg.degrees]
        for i in range(p):
            if w[i]:
                mean_terms[i].append(weight * w[i])
                for j in range(p):
                    if w[j]:
                        cross_terms[i][j].append(weight * w[i] * w[j])
    lam = np.array([fsum(t) for t in mean_terms])
    second = np.array([[fsum(cross_terms[i][j]) for j in range(p)]
                       for i in range(p)])
    sigma = second - np.outer(lam, lam)
    return lam, sigma


# ---------------------------------------------------------------------------
# End-to-end experiment
# ---------------------------------------------------------------------------

def isqrt_norm_bound_check(cfg: ErdosRenyiConfig) -> dict:
    """Numerical check of ``||Sigma^{-1/2}|| <= n^{-1/2} B^{1/2}``.

    Violations are flagged, not raised: the inequality is verified rather
    than relied upon.
    """
    lam, sigma, b_const = theoretical_moments(cfg)
    isqrt = inverse_sqrt(sigma)
    lhs = max_abs_norm(isqrt)
    rhs = np.sqrt(b_const / cfg.n)
    return {"holds": bool(lhs <= rhs * (1.0 + 1e-12)),
            "max_norm": lhs, "cap": float(rhs), "B": b_const}


class DegreeCountModel:
    """Degree counts in G(n, pi) for
    :func:`steinlab.experiment.run_experiment`, certified by the multivariate
    size-bias bound."""

    name = "degree-count"

    def __init__(self, cfg: ErdosRenyiConfig):
        self.cfg = cfg
        self.p = cfg.p
        self.lam, self.sigma, _ = theoretical_moments(cfg)
        self.config = {"n": cfg.n, "pi": cfg.pi, "c": cfg.c,
                       "degrees": list(cfg.degrees)}

    def bound(self, norms, samples: int, seed: int, chunk_size: int):
        stats = estimate_coupling_stats(self.cfg, samples, seed=seed,
                                        chunk_size=chunk_size)
        return bound_multivariate_size_bias(stats, norms.d2, norms.d3), stats

    def sample_w(self, rng, size: int) -> np.ndarray:
        return _GraphChunk(rng, size, self.cfg).degree_count_matrix(
            self.cfg.degrees)

    def extras(self, stats) -> dict:
        return {"isqrt_norm_bound": isqrt_norm_bound_check(self.cfg),
                "var_cond": stats.var_cond,
                "abs_cross_total": float(np.sum(stats.abs_cross))}
