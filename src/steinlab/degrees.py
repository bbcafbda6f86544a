"""Degree counts in the Erdos-Renyi random graph.

The random vector of interest counts, for each prescribed degree ``d_i``,
the vertices of that degree in a graph where every pair is an edge
independently with probability ``pi``. The mean vector and covariance have
exact closed forms; a size-bias coupling is realized by forcing a uniformly
chosen vertex to have degree ``d_i`` through uniform edge insertions or
deletions (Goldstein & Rinott 1996), and the inner conditional expectation of
the count change given the graph is available exactly, which removes all
nested Monte Carlo from the conditional-variance estimate.

All Monte Carlo work runs through one chunk kernel over flat edge lists
``(u, v)``, per-graph degree arrays and each graph's edge offsets
``starts``; no array names an edge's graph. Endpoints and degrees are
int16 up to n = 2**15 and int32 above. Graphs are sampled by geometric
skips over the pair codes; the skips are made by inversion of standard
exponentials, value for value numpy's own geometric draws, so a chunk's
edges are fixed by its stream alone. The run is built a piece of
draws at a time: each piece's pair codes decode to vertex pairs in closed
form and go straight into the edge lists. One pass over the edges then
counts the degrees and each graph's degree histogram, whose columns are W,
and counts each edge once in an unordered histogram of the degree pairs
edges join; both directions of an edge are read off it. The exact
conditional expectation is a contraction of those small tables, and the
coupling is one vectorised edge move per graph. Time is linear in a chunk's
edges and vertices. Memory is capped: a graph counts ``n (1 + c/2) / 4``
stored values toward a sub-batch of the statistics pass (see
:data:`_SLOTS_PER_VALUE`), and each sub-batch is one state
:meth:`DegreeCountCoupler.draw` returns. Scalar reference versions live in
the test suite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, exp, isqrt, log, log1p

import numpy as np

from .bounds import (CouplingStats, bound_multivariate_size_bias,
                     isqrt_norm_bound_check)
from .errors import NotPositiveDefinite
from .harness import Accumulator
from .linalg import PD_TOL, inverse_sqrt
from .sizebias import (CoupledPairSampler, distinct_labels, log_binomial,
                        rank_in_group)

# Vertex-plus-edge slots per stored value of a sub-batch. Up to n = 2**15 a
# chunk stores 2 bytes per vertex and 4 per edge (int16), 3 per slot at
# c = 2, so a sub-batch of 2**23 slots keeps about 25 MB; above, twice that
# (int32). Its degree tables add a few floats per graph; its transients,
# one draw piece and one group of graphs, and a one-byte-per-vertex label
# table while a coupling draw runs, a few MB.
_SLOTS_PER_VALUE = 4
# Vertices plus edges per group of graphs that tabulating a chunk and its
# coupling draws work through at a time, so that their per-edge int64
# transients stay small. A group's degree-pair histogram has (max degree)^2
# bins per graph, at most a few times this many while the max degree is
# c + O(sqrt(c)), as it is wherever the degree counts can be whitened.
_GROUP_SLOTS = 1 << 16


@dataclass(frozen=True)
class ErdosRenyiConfig:
    """Graph size, edge probability and the degree values to count."""

    n: int
    pi: float
    degrees: tuple

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

    @classmethod
    def from_c(cls, n: int, c: float, degrees):
        """Sparse parameterization ``pi = c / (n - 1)``."""
        if n < 2:
            raise ValueError(f"need n >= 2 vertices, got n = {n}")
        return cls(n, c / (n - 1), tuple(degrees))

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
    if var[low] <= PD_TOL * var.max():
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


# Geometric draws made at a time: the piece of a Bernoulli run that building
# a chunk turns into edges while it is cache-resident.
_DRAW_BLOCK = 1 << 16
# numpy's cap on a geometric draw by inversion: the first float past
# INT64_MAX; a draw at or above it is INT64_MAX.
_GEOMETRIC_CAP = 9.223372036854776e18


def _geometric(rng: np.random.Generator, pi: float, count: int):
    """Yield ``count`` Geometric(pi) draws on {1, 2, ...} in int64 pieces
    of at most :data:`_DRAW_BLOCK`, equal value for value, and in stream
    use, to ``rng.geometric(pi, count)``.

    Below pi = 1/3 numpy inverts, ``ceil(-E / log1p(-pi))`` for a standard
    exponential E, and so does this, but with libm's ``log1p`` taken once
    rather than once per draw. At pi >= 1/3 numpy searches the distribution
    function instead, and is called as it is. Each piece consumes its own
    stream values, so the pieces do not change them. Every piece is the
    same buffer refilled, so a caller is done with one before it asks for
    the next.
    """
    out = np.empty(min(count, _DRAW_BLOCK), dtype=np.int64)
    if pi >= 1.0 / 3.0:
        for lo in range(0, count, _DRAW_BLOCK):
            part = out[:min(count - lo, _DRAW_BLOCK)]
            part[...] = rng.geometric(pi, size=part.size)
            yield part
        return
    rate = -log1p(-pi)
    buf = np.empty(out.size)
    for lo in range(0, count, _DRAW_BLOCK):
        part = out[:min(count - lo, _DRAW_BLOCK)]
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
        yield part


def _bernoulli_positions(rng: np.random.Generator, total: int, pi: float):
    """Yield the sorted indices of the successes among ``total``
    Bernoulli(pi) trials, in int64 pieces of at most :data:`_DRAW_BLOCK`.

    The gaps between successes are i.i.d. geometric, so they are drawn
    directly (Batagelj & Brandes 2005) by :func:`_geometric`. Each round
    draws ``int((total - 1 - last) pi) + 1`` gaps, about as many as the
    trials still left hold, and takes their running sum piece by piece in
    place. Gaps a round draws past ``total`` are drawn all the same and
    dropped, so the stream is left where one draw of the whole round would
    leave it. No piece is empty, and each is :func:`_geometric`'s buffer,
    which a caller may overwrite but is done with before it asks for the
    next; no array of the run's size is made.
    """
    last = -1
    while last < total:
        for pos in _geometric(rng, pi, int((total - 1 - last) * pi) + 1):
            if last >= total:
                continue
            np.cumsum(pos, out=pos)
            pos += last
            last = int(pos[-1])
            if last >= total:
                pos = pos[:np.searchsorted(pos, total)]
            if pos.size:
                yield pos


def _non_neighbours(rng, n, d_i, vertex, need, nb_keys):
    """Uniform ``need[b]``-subsets of the non-neighbours of ``vertex[b]``.

    Graph b gets ``need[b] = d_i - D(vertex[b])`` new neighbours when that
    is positive; ``nb_keys`` holds ``b * n + x`` for each neighbour x of
    ``vertex[b]``. Returns ``b * n + x`` for every chosen x. Only the graphs
    that draw are passed on, renumbered in order, so the label and
    candidate tables hold rows for them alone.

    While ``2 d_i <= n - 1``, the neighbours and the vertices already taken
    (fewer than d_i) fill less than half of the n - 1 other vertices, so
    uniform draws from those, rejecting neighbours and repeats, are accepted
    with probability above 1/2 and the work is O(need). Larger targets, up
    to d_i = n - 1, enumerate the candidates instead at O(n) = O(d_i) cost.
    """
    rows = np.flatnonzero(need > 0)
    local = np.full(vertex.size, -1)
    local[rows] = np.arange(rows.size)
    row, x = np.divmod(nb_keys, n)
    row = local[row]
    row, x = row[row >= 0], x[row >= 0]
    vertex = vertex[rows]
    if 2 * d_i > n - 1:
        cand = np.ones((rows.size, n), dtype=bool)
        cand[row, x] = False
        cand[np.arange(rows.size), vertex] = False
        order = np.argsort(np.where(cand, rng.random(cand.shape), 2.0), axis=1)
        pick = np.arange(n) < need[rows, None]
        return rows[np.nonzero(pick)[0]] * n + order[pick]
    # label l in [0, n - 1) of graph b stands for vertex l + (l >= vertex[b])
    key = distinct_labels(rng, np.full(rows.size, n - 1), need[rows], n,
                          exclude=row * n + x - (x > vertex[row]))
    row, label = np.divmod(key, n)
    return rows[row] * n + label + (label >= vertex[row])


def _vertex_dtype(n: int):
    """The integer type of a chunk's endpoints and degrees. Both lie in
    [0, n - 1], so int16 holds them up to n = 2**15 and int32 above."""
    return np.int16 if n <= 1 << 15 else np.int32


def _pair_columns(degrees) -> dict:
    """The column of ``edges_to`` for each neighbour degree the conditional
    means read, ``d - 1``, ``d`` and ``d + 1`` (those >= 0) for each target
    d, in increasing order; no other degree has a column."""
    tvals = sorted({t for d in degrees for t in (d - 1, d, d + 1) if t >= 0})
    return {t: k for k, t in enumerate(tvals)}


def _grown(a: np.ndarray, filled: int, size: int) -> np.ndarray:
    """A new array of ``size`` entries of ``a``'s type, holding its first
    ``filled``."""
    out = np.empty(size, dtype=a.dtype)
    out[:filled] = a[:filled]
    return out


class _GraphChunk:
    """``size`` independent G(n, pi) draws as one flat edge list, with the
    tables its W and conditional means are read from.

    The chunk is one run of Bernoulli(pi) trials over the concatenated pair
    codes of its graphs (:func:`_bernoulli_positions`), so every pair of
    every graph is an edge independently with probability pi. Edges are
    sorted by graph, then by pair code: graph b owns edges
    ``starts[b]:starts[b + 1]``, edge k joins ``u[k] < v[k]``, and
    ``deg[b]`` is graph b's degree array. ``u``, ``v`` and ``deg`` have the
    type of :func:`_vertex_dtype`: int16 up to n = 2**15, so a chunk stores
    4 bytes per edge and 2 per vertex, 3 per vertex-plus-edge slot at
    c = 2, and int32 (6 per slot) above. No array names an edge's graph,
    which ``starts`` already fixes.

    The build works on each piece of success positions while it is
    cache-resident: the graph boundaries the piece crosses give ``starts``,
    each position less its graph's first code is a pair code, and
    :func:`_decode_pair_codes` maps the codes to vertex pairs, written
    straight into the edge arrays. Those grow as the trials still left
    require, with a few standard deviations of room, so they are rarely
    copied. :meth:`_tabulate` then counts the degrees and, each edge once,
    the unordered degree pairs the edges join, in one pass over the groups
    of :meth:`_groups`; no step holds a transient the size of the chunk.
    """

    __slots__ = ("size", "n", "degrees", "u", "v", "deg", "starts",
                 "count", "edges_to")

    def __init__(self, rng, size, cfg):
        n, pi = cfg.n, cfg.pi
        npairs = n * (n - 1) // 2
        total = size * npairs
        self.size = size
        self.n = n
        self.degrees = cfg.degrees
        starts = np.empty(size + 1, dtype=np.int64)
        u = v = np.empty(0, dtype=_vertex_dtype(n))
        filled, unset, last = 0, 0, -1  # unset: first graph with no start
        for pos in _bernoulli_positions(rng, total, pi):
            k = pos.size
            if filled + k > u.size:
                room = max(k, int((total - 1 - last) * pi) + 1)
                u, v = (_grown(a, filled, filled + room + 4 * isqrt(room)
                               + 16) for a in (u, v))
            last = int(pos[-1])
            first, top = int(pos[0]) // npairs, last // npairs + 1
            cut = np.searchsorted(pos, np.arange(first + 1, top) * npairs)
            starts[unset:first + 1] = filled
            starts[first + 1:top] = filled + cut
            unset = top
            # each position less its graph's first code is its pair code
            pos -= np.repeat(np.arange(first, top) * npairs,
                             np.diff(cut, prepend=0, append=k))
            u[filled:filled + k], v[filled:filled + k] = _decode_pair_codes(
                pos, n)
            filled += k
        starts[unset:] = filled
        self.starts = starts
        self.u, self.v = u[:filled], v[:filled]
        self._tabulate()

    def _tabulate(self):
        """Count the degrees and tabulate them, in one pass over the groups
        of :meth:`_groups`.

        ``count[b, a]`` is the number of degree-a vertices of graph b. Each
        edge is counted once, in an unordered pair histogram: ``H[b, x, y]``
        is the number of edges ``u < v`` of graph b with ``D(u) = x`` and
        ``D(v) = y``. ``edges_to[b, a, k] = H[b, a, t] + H[b, t, a]``, with t
        the degree of column k of :func:`_pair_columns`, is then the number
        of edges from a degree-a vertex of graph b to a degree-t neighbour.
        Both are exact integer counts, held as floats, for a ranging up to
        ``top = max(max degree, max(degrees)) + 2`` chunk-wide: each group's
        tables are made at its own top and padded with zeros. Per-vertex
        keys are intp, so no product is formed in the narrow vertex type.
        """
        n, degrees = self.n, self.degrees
        tvals = np.array(list(_pair_columns(degrees)))
        self.deg = np.empty((self.size, n), dtype=_vertex_dtype(n))
        parts = []
        for rows, edges in self._groups():
            graphs = rows.stop - rows.start
            at_u = self._per_edge(rows, np.arange(0, graphs * n, n))
            at_v = at_u + self.v[edges]
            at_u += self.u[edges]
            deg = np.bincount(at_u, minlength=graphs * n)
            deg += np.bincount(at_v, minlength=deg.size)
            self.deg[rows] = deg.reshape(graphs, n)
            top = max(int(deg.max()), max(degrees)) + 2
            # per vertex: (row top + deg) top, the first key of its H row
            key = np.repeat(np.arange(0, graphs * top, top), n) + deg
            count = np.bincount(key, minlength=graphs * top)
            key *= top
            at_u = key[at_u]  # each edge's pair key, made in place
            at_u += deg[at_v]
            del at_v
            pairs = np.bincount(at_u, minlength=count.size * top).reshape(
                graphs, top, top)
            parts.append((rows, count.reshape(graphs, top),
                          pairs[:, :, tvals]
                          + pairs[:, tvals].transpose(0, 2, 1)))
            del at_u, pairs  # gone before the next group's edges come
        top = max(count.shape[1] for _, count, _ in parts)
        self.count = np.zeros((self.size, top))
        self.edges_to = np.zeros((self.size, top, tvals.size))
        for rows, count, pairs in parts:
            self.count[rows, :count.shape[1]] = count
            self.edges_to[rows, :count.shape[1]] = pairs

    def _groups(self):
        """Split the chunk into runs of whole graphs of about
        :data:`_GROUP_SLOTS` vertices plus edges (one graph when a graph
        holds more), so that per-edge transients stay small. Yields
        ``(rows, edges)``: a nonempty slice of the chunk's graphs and the
        slice of the edge list they own."""
        through = self.starts[1:] + self.n * np.arange(1, self.size + 1)
        cuts = np.searchsorted(
            through, np.arange(_GROUP_SLOTS, int(through[-1]), _GROUP_SLOTS),
            side="right")
        # the cuts do not fall, so dropping repeats leaves them increasing
        cuts = np.concatenate([[0], cuts, [self.size]])
        cuts = cuts[np.diff(cuts, prepend=-1) > 0].tolist()
        starts = self.starts[cuts].tolist()
        for first, last, lo, hi in zip(cuts, cuts[1:], starts, starts[1:]):
            yield slice(first, last), slice(lo, hi)

    def _per_edge(self, rows, values):
        """``values[b]`` for graph ``rows.start + b``, repeated over that
        graph's edges."""
        counts = np.diff(self.starts[rows.start:rows.stop + 1])
        return np.repeat(values, counts)

    def degree_count_matrix(self) -> np.ndarray:
        """W, the number of vertices of each target degree per graph, shape
        (size, p): the columns of the degree histogram."""
        return self.count[:, list(self.degrees)]

    def cond_exp(self) -> np.ndarray:
        """Exact ``E[W^i_j - W_j | graph]`` for every graph, (size, p, p).

        The coupling averages over the uniform vertex V and the uniform
        edge choices: when ``D(V) = a > d_i`` each neighbour of V loses its
        edge with probability ``(a - d_i) / a``; when ``a < d_i`` each
        non-neighbour gains one with probability ``(d_i - a) / (n - 1 - a)``;
        and V itself moves to degree d_i. Summed over V this needs only,
        per graph, the number of vertices of each degree a and the number
        of edges from a degree-a vertex to a degree-t neighbour, for t in
        ``d_j - 1, d_j, d_j + 1``: the tables :meth:`_tabulate` made.
        """
        size, n, degrees = self.size, self.n, self.degrees
        count, edges_to = self.count, self.edges_to
        cols = _pair_columns(degrees)
        a = np.arange(count.shape[1])
        zero = np.zeros(count.shape)

        def neighbours(t):  # degree-t neighbours of the degree-a vertices
            return edges_to[:, :, cols[t]] if t >= 0 else zero

        def non_neighbours(t):
            if t < 0:
                return zero
            return count * (count[:, t, None] - (a == t)) - neighbours(t)

        out = np.empty((size, len(degrees), len(degrees)))
        for i, d_i in enumerate(degrees):
            drop = np.where(a > d_i, (a - d_i) / np.maximum(a, 1), 0.0)
            link = np.where(a < d_i, (d_i - a) / np.maximum(n - 1 - a, 1), 0.0)
            for j, d_j in enumerate(degrees):
                moved = ((neighbours(d_j + 1) - neighbours(d_j)) @ drop
                         + (non_neighbours(d_j - 1) - non_neighbours(d_j))
                         @ link)
                out[:, i, j] = (moved + n * (i == j) - count[:, d_j]) / n
        return out

    def _incident(self, vertex) -> np.ndarray:
        """Indices of the edges at ``vertex[b]`` in each graph b, in
        order, found a group of :meth:`_groups` at a time."""
        found = []
        for rows, edges in self._groups():
            at = self._per_edge(rows, vertex[rows].astype(self.u.dtype))
            hit = self.u[edges] == at
            hit |= self.v[edges] == at
            found.append(edges.start + np.flatnonzero(hit))
        return np.concatenate(found)

    def couple(self, rng, i: int) -> np.ndarray:
        """One coupling draw per graph: ``W^i - W``, shape (size, p).

        A uniformly chosen vertex V is forced to degree ``d_i``: when its
        degree is too high the incident edges with the lowest random keys
        go, a uniform subset; when too low, edges to a uniform subset of
        its non-neighbours come in.
        """
        size, n, degrees = self.size, self.n, self.degrees
        d_i = degrees[i]
        vertex = rng.integers(n, size=size)
        dv = self.deg[np.arange(size), vertex]
        delta = dv.astype(np.intp) - d_i
        inc = self._incident(vertex)
        g_inc = np.searchsorted(self.starts, inc, "right") - 1
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

    A state is one :class:`_GraphChunk`: W counts its degrees,
    a coupling draw moves one vertex per graph, and the conditional means
    are exact. Time is linear in a batch's edges and vertices, and memory
    in a sub-batch's. A configuration whose covariance cannot be whitened
    is refused here, with the degree to leave out when one is to blame;
    ``isqrt`` (``Sigma^{-1/2}``), made for that check, is the whitening the
    gap, the bound and the norm-cap check all read.
    """

    name = "degree-count"
    sigma_field = "graph"

    def __init__(self, cfg: ErdosRenyiConfig):
        self.cfg = cfg
        self.p = cfg.p
        self.lam, self.sigma, self.b_const = theoretical_moments(cfg)
        try:
            self.isqrt = inverse_sqrt(self.sigma)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                _singular_message(cfg.degrees, self.sigma, exc)) from exc
        self.config = {"n": cfg.n, "pi": cfg.pi, "c": cfg.c,
                       "degrees": list(cfg.degrees)}
        self.row_values = cfg.n * (1.0 + cfg.c / 2.0) / _SLOTS_PER_VALUE

    def draw(self, rng, rows: int) -> _GraphChunk:
        return _GraphChunk(rng, rows, self.cfg)

    def w(self, chunk: _GraphChunk) -> np.ndarray:
        return chunk.degree_count_matrix()

    def couple(self, chunk: _GraphChunk, i: int, rng) -> np.ndarray:
        return self.w(chunk) + chunk.couple(rng, i)

    def cond_exp(self, chunk: _GraphChunk) -> np.ndarray:
        return chunk.cond_exp()

    def bound(self, norms, samples: int, seed: int, chunk_size: int, score):
        stats, scores = estimate_coupling_stats(
            self, samples, seed=seed, chunk_size=chunk_size, score=score)
        return (bound_multivariate_size_bias(stats, self.isqrt, norms.d2,
                                             norms.d3), stats, scores)

    def extras(self, stats) -> dict:
        return {"isqrt_norm_bound": isqrt_norm_bound_check(
                    self.isqrt, self.b_const, self.cfg.n),
                "var_cond": stats.var_cond,
                "abs_cross_total": float(np.sum(stats.abs_cross))}

