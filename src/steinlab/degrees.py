"""Degree counts in the Erdos-Renyi random graph.

The random vector of interest counts, for each prescribed degree ``d_i``,
the vertices of that degree in a graph where every pair is an edge
independently with probability ``pi``. The mean vector and covariance have
exact closed forms; a size-bias coupling is realized by forcing a uniformly
chosen vertex to have degree ``d_i`` through uniform edge insertions or
deletions (Goldstein & Rinott 1996), and the inner conditional expectation of
the count change given the graph is available exactly, which removes all
nested Monte Carlo from the conditional-variance estimate.

All Monte Carlo work runs through one chunk kernel over a flat int32 edge
list ``(gid, u, v)`` plus an int32 per-graph degree array. Graphs are
sampled by geometric skips over the pair codes; the skips are made by
inversion of standard exponentials, value for value numpy's own geometric
draws, so a chunk's edges are fixed by its stream alone. Each graph's edge
offsets come from one search, and a pair code decodes to its vertex pair
in closed form. The exact conditional expectation is a contraction of
small per-graph degree histograms, and the coupling is one vectorised edge
move per graph. Time is linear in a chunk's edges and vertices. Memory is
capped: a chunk's graphs run in sub-batches of at most
:data:`SUB_BATCH_SLOTS` expected vertex-plus-edge slots (``n (1 + c/2)``
per graph), about 8 stored bytes each: they are the states
:meth:`DegreeCountCoupler.draw` yields, so the statistics pass, which
also scores each graph's W for the gap, and the coupling draws all run on
them. Scalar reference versions live in the test suite.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from math import comb, exp, fsum, isqrt, log, log1p

import numpy as np

from .bounds import CouplingStats, bound_multivariate_size_bias
from .errors import NotPositiveDefinite, TooLarge
from .harness import Accumulator
from .linalg import DEFAULT_PD_TOL, inverse_sqrt, max_abs_norm
from .sizebias import (CoupledPairSampler, distinct_labels, log_binomial,
                        rank_in_group, sub_batch_sizes)

BRUTE_FORCE_MAX_N = 5
# Vertex plus expected edge slots, n (1 + c/2) per graph, that one sub-batch
# of a chunk's graphs may hold; at 8 stored bytes per slot (int32 arrays) a
# sub-batch of 2**23 slots keeps 64 MB, and its transients about as much.
SUB_BATCH_SLOTS = 1 << 23
# Vertices per group of graphs that building a chunk and its conditional
# means work through at a time, so that their int64 transients stay small.
_GROUP_VERTICES = 1 << 15


@dataclass(frozen=True)
class ErdosRenyiConfig:
    """Graph size, edge probability and the degree values to count."""

    n: int
    pi: float
    degrees: tuple
    check_pd: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2 vertices, got n = {self.n}")
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
            try:
                inverse_sqrt(sigma)
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(
                    _singular_message(self.degrees, sigma, exc)) from exc

    @classmethod
    def from_c(cls, n: int, c: float, degrees, check_pd: bool = True):
        """Sparse parameterization ``pi = c / (n - 1)``."""
        if n < 2:
            raise ValueError(f"need n >= 2 vertices, got n = {n}")
        return cls(n, c / (n - 1), tuple(degrees), check_pd)

    @property
    def c(self) -> float:
        return self.pi * (self.n - 1)

    @property
    def p(self) -> int:
        return len(self.degrees)


def _singular_message(degrees, sigma, exc) -> str:
    """Why the covariance of the degree counts cannot be whitened: the
    degree whose count barely varies, if there is one."""
    var = np.diag(sigma)
    low = int(np.argmin(var))
    if var[low] <= DEFAULT_PD_TOL * var.max():
        d = degrees[low]
        return (f"the count of degree {d} has variance {var[low]:.3g} "
                f"against {var.max():.3g}, so the covariance is singular; "
                f"leave degree {d} out of --degrees")
    return (f"{exc}: the counts of degrees "
            f"{', '.join(map(str, degrees))} are nearly dependent; "
            f"leave one of them out of --degrees")


def degree_probability(n: int, pi: float, d: int) -> float:
    """``P(Binomial(n-1, pi) = d)``, the chance a fixed vertex has degree d.

    The exact binomial coefficient is used while it fits a float; past that
    (n - 1 >= 1030, d far from 0 and n - 1) the probability is formed in
    log space. The exact form is kept where it works because ``lgamma(n)``
    loses about ``n log n`` ulps, 5e-12 relative at n = 5000.
    """
    coeff = comb(n - 1, d)
    if coeff <= sys.float_info.max:
        return coeff * pi**d * (1.0 - pi) ** (n - 1 - d)
    return exp(log_binomial(n - 1, d)[0] + d * log(pi)
               + (n - 1 - d) * log1p(-pi))


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
# The chunk kernel
# ---------------------------------------------------------------------------

def _decode_pair_codes(codes: np.ndarray, n: int):
    """Invert the row-major upper-triangle code ``t = off(u) + (v - u - 1)``,
    where ``off(u) = u (2n - u - 1) / 2`` is the first code of row u.

    Row u is the floor of the smaller root of ``off(u) = t``,
    ``h - sqrt(h^2 - 2t)`` with ``h = n - 1/2``. In float64 ``h^2 - 2t`` is
    exact while ``h^2 < 2^51`` (n below 4.7e7), so the floor is within one
    of u. The exact integer offsets show which codes the float root misses
    (their v would leave the row), and those move a row at a time until
    none does, so larger n decode exactly too. Returns int64 ``(u, v)``.
    """
    def lead(u):  # off(u) - u - 1, so that v = t - lead(u)
        return ((2 * n - 3 - u) * u >> 1) - 1

    h = n - 0.5
    root = np.multiply(codes, -2.0)
    root += h * h
    np.sqrt(root, out=root)
    np.subtract(h, root, out=root)
    u = root.astype(np.int64)
    del root
    v = codes - lead(u)
    miss = np.flatnonzero((v <= u) | (v >= n))
    while miss.size:
        u[miss] += np.where(v[miss] >= n, 1, -1)
        v[miss] = codes[miss] - lead(u[miss])
        miss = miss[(v[miss] <= u[miss]) | (v[miss] >= n)]
    return u, v


# Geometric draws made at a time, so that the only transient beside the
# int64 gaps is a small float64 buffer.
_DRAW_BLOCK = 1 << 16
# numpy's cap on a geometric draw by inversion: the first float past
# INT64_MAX; a draw at or above it is INT64_MAX.
_GEOMETRIC_CAP = 9.223372036854776e18


def _geometric(rng: np.random.Generator, pi: float, out: np.ndarray):
    """Fill int64 ``out`` with Geometric(pi) draws on {1, 2, ...}, equal
    value for value, and in stream use, to ``rng.geometric(pi, out.size)``.

    Below pi = 1/3 numpy inverts, ``ceil(-E / log1p(-pi))`` for a standard
    exponential E, and so does this, but with libm's ``log1p`` taken once
    rather than once per draw. At pi >= 1/3 numpy searches the distribution
    function instead, and is called as it is. Draws are made
    :data:`_DRAW_BLOCK` at a time; each consumes its own stream values, so
    the blocks do not change them.
    """
    if pi >= 1.0 / 3.0:
        for lo in range(0, out.size, _DRAW_BLOCK):
            part = out[lo:lo + _DRAW_BLOCK]
            part[...] = rng.geometric(pi, size=part.size)
        return
    rate = -log1p(-pi)
    buf = np.empty(min(out.size, _DRAW_BLOCK))
    for lo in range(0, out.size, _DRAW_BLOCK):
        part = out[lo:lo + _DRAW_BLOCK]
        e = buf[:part.size]
        rng.standard_exponential(out=e)
        e /= rate
        np.ceil(e, out=e)
        if e.max() < _GEOMETRIC_CAP:
            part[...] = e
        else:
            huge = e >= _GEOMETRIC_CAP
            e[huge] = 0.0
            part[...] = e
            part[huge] = np.iinfo(np.int64).max


def _bernoulli_positions(rng: np.random.Generator, total: int,
                         pi: float) -> np.ndarray:
    """Sorted indices of the successes among ``total`` Bernoulli(pi) trials.

    The gaps between successes are i.i.d. geometric, so they are drawn
    directly (Batagelj & Brandes 2005) by :func:`_geometric`. Each block
    draws ``int((total - 1 - last) pi) + 1`` gaps, about as many as the
    trials still left hold, and takes their running sum in place. A block
    lands in room left after the one before (a few standard deviations of
    the shortfall, so a second block rarely needs a copy), and the int64
    positions are the only array of the run's size, 8 bytes per success.
    """
    pos = np.empty(0, dtype=np.int64)
    filled = 0
    last = -1
    while last < total:
        draws = int((total - 1 - last) * pi) + 1
        if filled + draws > pos.size:
            grown = np.empty(filled + draws + 4 * isqrt(draws) + 16,
                             dtype=np.int64)
            grown[:filled] = pos[:filled]
            pos = grown
        block = pos[filled:filled + draws]
        _geometric(rng, pi, block)
        np.cumsum(block, out=block)
        block += last
        filled += draws
        last = int(block[-1])
    return pos[:np.searchsorted(pos[:filled], total)]


def _non_neighbours(rng, n, d_i, vertex, need, nb_keys):
    """Uniform ``need[b]``-subsets of the non-neighbours of ``vertex[b]``.

    Graph b gets ``need[b] = d_i - D(vertex[b])`` new neighbours when that
    is positive; ``nb_keys`` holds ``b * n + x`` for each neighbour x of
    ``vertex[b]``. Returns ``b * n + x`` for every chosen x.

    While ``2 d_i <= n - 1``, the neighbours and the vertices already taken
    (fewer than d_i) fill less than half of the n - 1 other vertices, so
    uniform draws from those, rejecting neighbours and repeats, are accepted
    with probability above 1/2 and the work is O(need). Larger targets, up
    to d_i = n - 1, enumerate the candidates instead at O(n) = O(d_i) cost.
    """
    size = vertex.size
    row, x = np.divmod(nb_keys, n)
    if 2 * d_i > n - 1:
        rows = np.flatnonzero(need > 0)
        local = np.full(size, -1)
        local[rows] = np.arange(rows.size)
        row = local[row]
        cand = np.ones((rows.size, n), dtype=bool)
        cand[row[row >= 0], x[row >= 0]] = False
        cand[np.arange(rows.size), vertex[rows]] = False
        order = np.argsort(np.where(cand, rng.random(cand.shape), 2.0), axis=1)
        pick = np.arange(n) < need[rows, None]
        return rows[np.nonzero(pick)[0]] * n + order[pick]
    # label l in [0, n - 1) of graph b stands for vertex l + (l >= vertex[b])
    key = distinct_labels(rng, np.full(size, n - 1), np.maximum(need, 0), n,
                          exclude=nb_keys - (x > vertex[row]))
    row, label = np.divmod(key, n)
    return key + (label >= vertex[row])


class _GraphChunk:
    """``size`` independent G(n, pi) draws as one flat edge list.

    The chunk is one run of Bernoulli(pi) trials over the concatenated pair
    codes of its graphs (:func:`_bernoulli_positions`), so every pair of
    every graph is an edge independently with probability pi. Edge k joins
    ``u[k] < v[k]`` in graph ``gid[k]``; edges are sorted by graph, then by
    pair code, graph b owns edges ``starts[b]:starts[b + 1]``, and
    ``deg[b]`` is its degree array. ``gid``, ``u``, ``v`` and ``deg`` are
    int32, so a chunk stores 12 bytes per edge and 4 per vertex.

    The build finds ``starts`` with one search of the success positions at
    the graph boundaries, then works through groups of about
    :data:`_GROUP_VERTICES` vertices: a group's graph ids are repeated from
    its edge counts, its pair codes are the positions less each graph's
    first code (taken in place), and :func:`_decode_pair_codes` maps codes
    to vertex pairs in closed form. The int64 positions live only while the
    chunk is built.
    """

    __slots__ = ("size", "n", "gid", "u", "v", "deg", "starts", "_counts")

    def __init__(self, rng, size, cfg):
        n = cfg.n
        npairs = n * (n - 1) // 2
        pos = _bernoulli_positions(rng, size * npairs, cfg.pi)
        self.size = size
        self.n = n
        self.starts = np.searchsorted(
            pos, np.arange(size + 1, dtype=np.int64) * npairs)
        self.gid = np.empty(pos.size, dtype=np.int32)
        self.u = np.empty_like(self.gid)
        self.v = np.empty_like(self.gid)
        self.deg = np.empty((size, n), dtype=np.int32)
        self._counts = None
        for rows, edges in self._groups():
            gid = np.repeat(np.arange(rows.start, rows.stop),
                            np.diff(self.starts[rows.start:rows.stop + 1]))
            self.gid[edges] = gid
            codes = pos[edges]
            codes -= gid * npairs
            u, v = _decode_pair_codes(codes, n)
            self.u[edges], self.v[edges] = u, v
            gid -= rows.start
            gid *= n
            u += gid
            v += gid
            cells = (rows.stop - rows.start) * n
            deg = np.bincount(u, minlength=cells)
            deg += np.bincount(v, minlength=cells)
            self.deg[rows] = deg.reshape(-1, n)

    def _groups(self):
        """Split the chunk into groups of about :data:`_GROUP_VERTICES`
        vertices, so that int64 transients stay small. Yields
        ``(rows, edges)``: a slice of the chunk's graphs and the slice of
        the edge list they own."""
        per = max(1, _GROUP_VERTICES // self.n)
        starts = self.starts.tolist()
        for first in range(0, self.size, per):
            last = min(first + per, self.size)
            yield slice(first, last), slice(starts[first], starts[last])

    def degree_count_matrix(self, degrees) -> np.ndarray:
        """W, the number of vertices of each degree in ``degrees`` per graph,
        shape (size, p). It is computed once per ``degrees`` and shared by
        every caller, so callers must not write to it."""
        key = tuple(degrees)
        if self._counts is None or self._counts[0] != key:
            counts = np.stack([(self.deg == d).sum(axis=1) for d in key],
                              axis=1).astype(float)
            counts.flags.writeable = False
            self._counts = (key, counts)
        return self._counts[1]

    def cond_exp(self, degrees) -> np.ndarray:
        """Exact ``E[W^i_j - W_j | graph]`` for every graph, (size, p, p).

        The coupling averages over the uniform vertex V and the uniform
        edge choices: when ``D(V) = a > d_i`` each neighbour of V loses its
        edge with probability ``(a - d_i) / a``; when ``a < d_i`` each
        non-neighbour gains one with probability ``(d_i - a) / (n - 1 - a)``;
        and V itself moves to degree d_i. Summed over V this needs only,
        per graph, the number of vertices of each degree a and the number
        of edges from a degree-a vertex to a degree-t neighbour, for t in
        ``d_j - 1, d_j, d_j + 1``.
        """
        size, n, p = self.size, self.n, len(degrees)
        top = max(int(self.deg.max(initial=0)), max(degrees)) + 2
        a = np.arange(top)
        tvals = sorted({t for d in degrees for t in (d - 1, d, d + 1)
                        if t >= 0})
        width = len(tvals) + 1  # the last slot collects every other t
        slot = np.full(top, len(tvals))
        slot[tvals] = np.arange(len(tvals))
        count = np.empty((size, top))
        edges_to = np.empty((size, top, width))
        for rows, edges in self._groups():
            block = self.deg[rows]
            local = self.gid[edges] - rows.start
            count[rows] = np.bincount(
                (np.arange(len(block))[:, None] * top + block).ravel(),
                minlength=len(block) * top).reshape(-1, top)
            degs = block.ravel()
            at = local * n
            deg_u = degs[at + self.u[edges]]
            deg_v = degs[at + self.v[edges]]
            del at
            local = local * top
            flat = np.bincount((local + deg_u) * width + slot[deg_v],
                               minlength=len(block) * top * width)
            flat += np.bincount((local + deg_v) * width + slot[deg_u],
                                minlength=flat.size)
            edges_to[rows] = flat.reshape(-1, top, width)
        zero = np.zeros((size, top))

        def neighbours(t):  # degree-t neighbours of the degree-a vertices
            return edges_to[:, :, slot[t]] if t >= 0 else zero

        def non_neighbours(t):
            if t < 0:
                return zero
            return count * (count[:, t, None] - (a == t)) - neighbours(t)

        out = np.empty((size, p, p))
        for i, d_i in enumerate(degrees):
            drop = np.where(a > d_i, (a - d_i) / np.maximum(a, 1), 0.0)
            link = np.where(a < d_i, (d_i - a) / np.maximum(n - 1 - a, 1), 0.0)
            for j, d_j in enumerate(degrees):
                moved = ((neighbours(d_j + 1) - neighbours(d_j)) @ drop
                         + (non_neighbours(d_j - 1) - non_neighbours(d_j))
                         @ link)
                out[:, i, j] = (moved + n * (i == j) - count[:, d_j]) / n
        return out

    def couple(self, rng, i: int, degrees) -> np.ndarray:
        """One coupling draw per graph: ``W^i - W``, shape (size, p).

        A uniformly chosen vertex V is forced to degree ``d_i``: when its
        degree is too high the incident edges with the lowest random keys
        go, a uniform subset; when too low, edges to a uniform subset of
        its non-neighbours come in.
        """
        size, n = self.size, self.n
        d_i = degrees[i]
        vertex = rng.integers(n, size=size)
        dv = self.deg[np.arange(size), vertex]
        delta = dv - d_i
        at_v = vertex.astype(np.int32)[self.gid]
        inc = np.flatnonzero((self.u == at_v) | (self.v == at_v))
        del at_v
        g_inc = self.gid[inc].astype(np.int64)
        nb = np.where(self.u[inc] == vertex[g_inc], self.v[inc], self.u[inc])

        over = delta[g_inc] > 0
        g_del, x_del = g_inc[over], nb[over]
        order = np.lexsort((rng.random(g_del.size), g_del))
        g_del, x_del = g_del[order], x_del[order]
        keep = rank_in_group(g_del) < delta[g_del]
        g_add, x_add = np.divmod(
            _non_neighbours(rng, n, d_i, vertex, -delta, g_inc * n + nb), n)

        g = np.concatenate([g_del[keep], g_add])
        old = self.deg[g, np.concatenate([x_del[keep], x_add])]
        new = old + np.sign(-delta[g])
        darr = np.asarray(degrees)
        d_w = (darr == d_i).astype(float) - (dv[:, None] == darr)
        for k, d in enumerate(degrees):
            d_w[:, k] += np.bincount(
                g, weights=(new == d).astype(float) - (old == d),
                minlength=size)
        return d_w


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

def _sub_batch_sizes(size: int, n: int, c: float) -> list[int]:
    """Graphs per sub-batch for a chunk of ``size`` graphs: as many as
    :data:`SUB_BATCH_SLOTS` holds at ``n (1 + c/2)`` slots per graph."""
    return sub_batch_sizes(size, n * (1.0 + c / 2.0), SUB_BATCH_SLOTS)


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


def estimate_coupling_stats(model: DegreeCountCoupler, samples: int,
                            seed: int = 0, chunk_size: int = 512, *,
                            score) -> tuple[CouplingStats, Accumulator]:
    """Coupling statistics for the multivariate size-bias bound, and the
    accumulated ``score`` of the same graphs' W, by the shared pass
    :meth:`~steinlab.sizebias.CoupledPairSampler.coupling_stats`.

    The conditional variance conditions on the whole graph: the inner
    expectation is then exact (no nested sampling). The absolute cross
    moments come from one coupling draw per graph and coordinate. A name of
    its own lets the benchmark's tracer time this family's pass apart.
    """
    return model.coupling_stats(samples, seed, chunk_size, score)


class DegreeCountCoupler(CoupledPairSampler):
    """Degree counts in G(n, pi), certified by the multivariate size-bias
    bound.

    A state is one :class:`_GraphChunk` sub-batch: W counts its degrees,
    a coupling draw moves one vertex per graph, and the conditional means
    are exact. Time is linear in a batch's edges and vertices, and memory
    in a sub-batch's.
    """

    name = "degree-count"
    sigma_field = "graph"

    def __init__(self, cfg: ErdosRenyiConfig):
        self.cfg = cfg
        self.p = cfg.p
        self.lam, self.sigma, _ = theoretical_moments(cfg)
        self.config = {"n": cfg.n, "pi": cfg.pi, "c": cfg.c,
                       "degrees": list(cfg.degrees)}

    def draw(self, rng, size: int):
        for part in _sub_batch_sizes(size, self.cfg.n, self.cfg.c):
            yield _GraphChunk(rng, part, self.cfg)

    def w(self, chunk: _GraphChunk) -> np.ndarray:
        return chunk.degree_count_matrix(self.cfg.degrees)

    def couple(self, chunk: _GraphChunk, i: int, rng) -> np.ndarray:
        return self.w(chunk) + chunk.couple(rng, i, self.cfg.degrees)

    def cond_exp(self, chunk: _GraphChunk) -> np.ndarray:
        return chunk.cond_exp(self.cfg.degrees)

    def bound(self, norms, samples: int, seed: int, chunk_size: int, score):
        stats, scores = estimate_coupling_stats(
            self, samples, seed=seed, chunk_size=chunk_size, score=score)
        return (bound_multivariate_size_bias(stats, norms.d2, norms.d3),
                stats, scores)

    def extras(self, stats) -> dict:
        return {"isqrt_norm_bound": isqrt_norm_bound_check(self.cfg),
                "var_cond": stats.var_cond,
                "abs_cross_total": float(np.sum(stats.abs_cross))}


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
