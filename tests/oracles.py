"""Exact enumeration oracles shared by the test suite.

Everything here recomputes laws from first principles (enumerating
outcomes), independent of the production sampling paths it checks. The
one Monte Carlo reference, the covariance identity, is for couplers at
sizes no enumeration reaches. Gaussian expectations are taken on the full
``nodes^p``-point Gauss-Hermite product rule, which the closed-form
smoothings of the built-in test functions avoid.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, erfc, exp, fsum, sqrt

import numpy as np

from steinlab.errors import InvariantViolation
from steinlab.harness import sub_batch_sizes
from steinlab.testfuncs import gauss_hermite_tensor


def discrete_law(dist):
    """``{value: prob}`` view of a DiscreteDistribution."""
    out = {}
    for v, p in zip(dist.values, dist.probs):
        out[float(v)] = out.get(float(v), 0.0) + float(p)
    return out


def size_biased_law(law):
    """``w p(w) / lambda`` over a finite ``{value: prob}`` law."""
    lam = fsum(v * p for v, p in law.items())
    assert lam > 0
    return {v: v * p / lam for v, p in law.items() if v * p > 0}


def laws_close(a, b, atol=1e-12):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= atol for k in keys)


def vector_outcomes_to_biased_w_law(outcomes, sets, i):
    """Exact law of W^i from a finite base model.

    ``outcomes`` is a list of ``(prob, x_vector)``; W_j sums x over
    ``sets[j]``. The coordinate-i biased law of the W vector is
    ``P(W^i = s) = E[W_i 1{W = s}] / lambda_i``.
    """
    lam_i = 0.0
    law = {}
    for prob, x in outcomes:
        x = np.asarray(x, dtype=float)
        w = tuple(float(x[list(s)].sum()) for s in sets)
        weight = prob * w[i]
        lam_i += weight
        if weight:
            law[w] = law.get(w, 0.0) + weight
    assert lam_i > 0
    return {k: v / lam_i for k, v in law.items()}


# ---------------------------------------------------------------------------
# Degree-count coupler at tiny n: full construction enumeration
# ---------------------------------------------------------------------------

def _graph_outcomes(n, pi):
    pairs = list(itertools.combinations(range(n), 2))
    for included in itertools.product([0, 1], repeat=len(pairs)):
        k = sum(included)
        prob = pi**k * (1 - pi) ** (len(pairs) - k)
        edges = [e for e, keep in zip(pairs, included) if keep]
        yield prob, edges


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def degree_w_outcomes(n, pi, degree_values):
    """Base-model outcomes ``(prob, indicator matrix)`` for the W oracle."""
    out = []
    for prob, edges in _graph_outcomes(n, pi):
        deg = _degrees(n, edges)
        x = np.array([[1.0 if deg[v] == d else 0.0 for d in degree_values]
                      for v in range(n)])
        out.append((prob, x))
    return out


def degree_moments(n, pi, degree_values):
    """Exact mean and covariance of the degree counts W by enumerating
    every graph on ``n`` vertices."""
    outcomes = [(prob, x.sum(axis=0))
                for prob, x in degree_w_outcomes(n, pi, degree_values)]
    p = len(degree_values)
    lam = np.array([fsum(prob * w[i] for prob, w in outcomes)
                    for i in range(p)])
    second = np.array([[fsum(prob * w[i] * w[j] for prob, w in outcomes)
                        for j in range(p)] for i in range(p)])
    return lam, second - np.outer(lam, lam)


def degree_biased_w_law(n, pi, degree_values, i):
    """Oracle: ``P(W^i = s) = E[W_i 1{W = s}] / lambda_i`` by enumeration."""
    outcomes = []
    for prob, x in degree_w_outcomes(n, pi, degree_values):
        outcomes.append((prob, x.reshape(-1)))
    p = len(degree_values)
    n_rows = outcomes[0][1].size // p
    sets = [[r * p + j for r in range(n_rows)] for j in range(p)]
    return vector_outcomes_to_biased_w_law(outcomes, sets, i)


def degree_construction_outcomes(n, pi, degree_values, i):
    """Every outcome ``(prob, W, W^i)`` of the edge-insertion/deletion
    recipe, W and W^i as tuples of counts.

    Enumerates: the graph, the uniform vertex, and every uniform subset of
    removed incident edges or added non-neighbor edges.
    """
    d_i = degree_values[i]

    def counts(edges):
        deg = _degrees(n, edges)
        return tuple(float(sum(1 for u in range(n) if deg[u] == d))
                     for d in degree_values)

    for prob, edges in _graph_outcomes(n, pi):
        deg = _degrees(n, edges)
        w = counts(edges)
        for v in range(n):
            pv = prob / n
            dv = deg[v]
            if dv == d_i:
                variants = [(1.0, edges)]
            elif dv > d_i:
                incident = [e for e in edges if v in e]
                others = [e for e in edges if v not in e]
                subsets = list(itertools.combinations(incident, dv - d_i))
                variants = [
                    (1.0 / len(subsets),
                     others + [e for e in incident if e not in drop])
                    for drop in subsets
                ]
            else:
                nbrs = {u for e in edges if v in e for u in e if u != v}
                candidates = [u for u in range(n) if u != v and u not in nbrs]
                subsets = list(itertools.combinations(candidates, d_i - dv))
                variants = [
                    (1.0 / len(subsets),
                     edges + [(min(v, u), max(v, u)) for u in add])
                    for add in subsets
                ]
            for weight, new_edges in variants:
                yield pv * weight, w, counts(new_edges)


def degree_construction_law(n, pi, degree_values, i):
    """Exact law of W^i from the edge-insertion/deletion recipe."""
    law = {}
    for prob, _, wi in degree_construction_outcomes(n, pi, degree_values, i):
        law[wi] = law.get(wi, 0.0) + prob
    return law


def degree_coupling_stats(cfg):
    """Exact inputs of the degree-count size-bias bound, by enumeration:
    ``var_cond[i, j] = Var E[W^i_j - W_j | graph]`` over every graph, from
    :func:`cond_exp_given_graph`, and ``abs_cross[i, j, k] =
    E |(W^i_j - W_j)(W^i_k - W_k)|`` over every outcome of the recipe."""
    n, pi, degrees = cfg.n, cfg.pi, tuple(cfg.degrees)
    p = len(degrees)
    probs, means = [], []
    for prob, edges in _graph_outcomes(n, pi):
        graph = graph_from_edges(n, edges)
        probs.append(prob)
        means.append([[cond_exp_given_graph(graph, cfg, i, j)
                       for j in range(p)] for i in range(p)])
    probs, means = np.array(probs), np.array(means)
    first = np.einsum("g,gij->ij", probs, means)
    var_cond = np.einsum("g,gij->ij", probs, means**2) - first**2
    abs_cross = np.zeros((p, p, p))
    for i in range(p):
        for prob, w, wi in degree_construction_outcomes(n, pi, degrees, i):
            dw = np.subtract(wi, w)
            abs_cross[i] += prob * np.abs(np.outer(dw, dw))
    return var_cond, abs_cross


# ---------------------------------------------------------------------------
# Degree counts: scalar reference versions of the chunk kernel
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


def graph_from_edges(n, edges) -> GraphSample:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = (np.bincount(edges[:, 0], minlength=n)
           + np.bincount(edges[:, 1], minlength=n))
    return GraphSample(n, edges, deg)


def sample_graph(cfg, rng) -> GraphSample:
    """One draw of G(n, pi): one uniform per pair, kept when below pi."""
    u, v = np.triu_indices(cfg.n, 1)
    keep = rng.random(u.size) < cfg.pi
    return graph_from_edges(cfg.n, np.stack([u[keep], v[keep]], axis=1))


def bernoulli_positions(rng, total, pi):
    """Sorted successes among ``total`` Bernoulli(pi) trials, from numpy's
    own geometric gaps: blocks of ``int((total - 1 - last) pi) + 1`` gaps,
    each block's running sum appended to the last."""
    pos = None
    last = -1
    while last < total:
        gaps = rng.geometric(pi, size=int((total - 1 - last) * pi) + 1)
        np.cumsum(gaps, out=gaps)
        gaps += last
        pos = gaps if pos is None else np.concatenate([pos, gaps])
        last = int(gaps[-1])
    return pos[:np.searchsorted(pos, total)]


def distinct_labels_by_sorting(rng, high, want, stride, exclude=()):
    """``sizebias.distinct_labels`` with its rejections made by
    ``np.isin``, which sorts: the same rounds, draws and keys."""
    rows = np.arange(high.size)
    left = want.copy()
    taken = np.empty(0, dtype=np.int64)
    while left.any():
        g = np.repeat(rows, 2 * left)
        key = g * stride + rng.integers(high[g])
        key = key[~(np.isin(key, exclude) | np.isin(key, taken))]
        _, first = np.unique(key, return_index=True)
        key = key[np.sort(first)]
        g = key // stride
        key = key[np.arange(g.size) - np.searchsorted(g, g) < left[g]]
        left -= np.bincount(key // stride, minlength=rows.size)
        taken = np.concatenate([taken, key])
    return taken


def decode_pair_codes(codes, n):
    """Row-major upper-triangle codes to pairs ``u < v`` by a binary search
    of the row offsets."""
    rows = np.arange(n, dtype=np.int64)
    offset = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(offset, codes, side="right") - 1
    return u, codes - offset[u] + u + 1


def graph_chunk_arrays(rng, size, cfg):
    """``(gid, u, v, deg)`` of ``size`` G(n, pi) draws made as the chunk
    kernel makes them: one Bernoulli run over the concatenated pair codes,
    split into graphs by division."""
    n = cfg.n
    npairs = n * (n - 1) // 2
    gid, codes = np.divmod(bernoulli_positions(rng, size * npairs, cfg.pi),
                           npairs)
    u, v = decode_pair_codes(codes, n)
    deg = np.zeros((size, n), dtype=np.int64)
    np.add.at(deg, (gid, u), 1)
    np.add.at(deg, (gid, v), 1)
    return gid, u, v, deg


def degree_tables(graph, top, degrees):
    """``(count, edges_to)`` of one graph, vertex by vertex and edge by edge:
    ``count[a]`` vertices have degree a, and ``edges_to[a, k]`` edges run
    from a degree-a vertex to a neighbour whose degree is the k-th smallest
    of the ``d - 1``, ``d`` and ``d + 1`` (those >= 0) over ``degrees``.
    Degrees are counted from the edge list; a runs over ``range(top)``."""
    tvals = sorted({t for d in degrees for t in (d - 1, d, d + 1) if t >= 0})
    deg = [0] * graph.n
    for u, v in graph.edges.tolist():
        deg[u] += 1
        deg[v] += 1
    count = np.zeros(top)
    for x in range(graph.n):
        count[deg[x]] += 1
    edges_to = np.zeros((top, len(tvals)))
    for u, v in graph.edges.tolist():
        for a, b in ((u, v), (v, u)):
            if deg[b] in tvals:
                edges_to[deg[a], tvals.index(deg[b])] += 1
    return count, edges_to


@dataclass
class DegreeCouplingDraw:
    """One coupling draw: the graph, the chosen vertex, and both counts."""

    graph: GraphSample
    vertex: int
    modified: GraphSample
    w: np.ndarray
    wi: np.ndarray


def couple_degree(graph: GraphSample, cfg, i: int, rng) -> DegreeCouplingDraw:
    """Force a uniformly chosen vertex to degree ``d_i``.

    Edges at the vertex are removed uniformly when its degree is too high,
    or edges to uniformly chosen non-neighbors inserted when too low. The
    modified graph then has the conditional law of the original given that
    the chosen vertex has degree ``d_i``.
    """
    n, d_i = cfg.n, cfg.degrees[i]
    vertex = int(rng.integers(n))
    dv = int(graph.degrees[vertex])
    edges = graph.edges
    if dv > d_i:
        incident = np.flatnonzero((edges[:, 0] == vertex)
                                  | (edges[:, 1] == vertex))
        edges = np.delete(edges, rng.choice(incident, dv - d_i,
                                            replace=False), axis=0)
    elif dv < d_i:
        others = np.setdiff1d(np.arange(n),
                              np.append(graph.neighbors(vertex), vertex))
        add = rng.choice(others, d_i - dv, replace=False)
        edges = np.concatenate([edges, np.stack(
            [np.minimum(add, vertex), np.maximum(add, vertex)], axis=1)])
    modified = graph_from_edges(n, edges)
    if modified.degrees[vertex] != d_i:
        raise InvariantViolation("chosen vertex missed the target degree")
    return DegreeCouplingDraw(graph, vertex, modified,
                              graph.degree_counts(cfg.degrees),
                              modified.degree_counts(cfg.degrees))


def cond_exp_given_graph(graph: GraphSample, cfg, i: int, j: int) -> float:
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
# Multinomial occupancy W law
# ---------------------------------------------------------------------------

def occupancy_law(n_cells, balls):
    """Every occupancy vector of ``balls`` balls in ``n_cells`` equiprobable
    cells, with its probability, as ``(counts, prob)`` pairs."""
    for counts in itertools.product(range(balls + 1), repeat=n_cells):
        if sum(counts) != balls:
            continue
        weight = 1.0
        remaining = balls
        for c in counts:
            weight *= comb(remaining, c)
            remaining -= c
        yield counts, weight * (1.0 / n_cells) ** balls


def multinomial_w_law(n_cells, balls, psi):
    """Exact law of ``sum psi(counts)`` over all occupancy vectors."""
    law = {}
    for counts, weight in occupancy_law(n_cells, balls):
        w = float(fsum(float(psi(np.array([c]))[0]) for c in counts))
        law[w] = law.get(w, 0.0) + weight
    return law


def moved_row_law(counts, idx, y):
    """Exact law of a count row after cell ``idx`` is reset to ``y``, as
    ``{row: prob}``: pulling ``y - counts[idx]`` balls uniformly without
    replacement from the other cells (multivariate hypergeometric), or
    landing each of ``counts[idx] - y`` spilled balls in a uniform other
    cell (multinomial)."""
    counts = [int(c) for c in counts]
    others = [j for j in range(len(counts)) if j != idx]
    change = y - counts[idx]
    law = {}
    for moved in itertools.product(range(abs(change) + 1),
                                   repeat=len(others)):
        if sum(moved) != abs(change):
            continue
        row = list(counts)
        row[idx] = y
        if change > 0:
            if any(m > counts[j] for m, j in zip(moved, others)):
                continue
            weight = 1
            for m, j in zip(moved, others):
                weight *= comb(counts[j], m)
                row[j] -= m
            prob = weight / comb(sum(counts) - counts[idx], change)
        else:
            weight, left = 1, abs(change)
            for m, j in zip(moved, others):
                weight *= comb(left, m)
                left -= m
                row[j] += m
            prob = weight / len(others) ** abs(change)
        law[tuple(row)] = law.get(tuple(row), 0.0) + prob
    return law


def multinomial_cond_exp(counts, psi):
    """``E[W* - W | U = counts]`` for the multinomial size-bias coupling,
    summed term by term over the picked cell I, its new count y and every
    other cell j.

    y has the psi-tilted Binomial(K, 1/n) law. For y >= U_I the y - U_I
    missing balls are pulled uniformly without replacement from the other
    cells, so cell j loses a hypergeometric number; for y < U_I each
    spilled ball lands in a uniform other cell, so cell j gains a binomial
    number. Probabilities come from exact integer binomial coefficients,
    divided as integers before any float multiplies them, so that they stay
    finite past 1030 balls.
    """
    counts = [int(c) for c in counts]
    n, balls = len(counts), sum(counts)

    def f(x):
        return float(psi(np.array([x]))[0])

    raw = [comb(balls, y) * (n - 1) ** (balls - y) / n**balls * f(y)
           for y in range(balls + 1)]
    mass = fsum(raw)
    q = [x / mass for x in raw]

    @lru_cache(maxsize=None)
    def other_cell(a, v):
        """Mean new psi of a cell holding v when the picked cell holds a."""
        terms = []
        for y, qy in enumerate(q):
            if qy == 0.0:
                continue
            if y >= a:
                pulled, rest = y - a, balls - a
                terms += [qy * (comb(v, lost) * comb(rest - v, pulled - lost)
                                / comb(rest, pulled)) * f(v - lost)
                          for lost in range(min(v, pulled) + 1)]
            else:
                # each spilled ball lands in this cell w.p. 1 / (n - 1)
                spill = a - y
                terms += [qy * (comb(spill, got) * (n - 2) ** (spill - got)
                                / (n - 1) ** spill) * f(v + got)
                          for got in range(spill + 1)]
        return fsum(terms)

    total = n * fsum(qy * f(y) for y, qy in enumerate(q))
    pairs = fsum(other_cell(counts[i], counts[j])
                 for i in range(n) for j in range(n) if j != i)
    return (total + pairs) / n - fsum(f(c) for c in counts)


# ---------------------------------------------------------------------------
# Gaussian sums: conditional mean of the size-bias move
# ---------------------------------------------------------------------------

def gaussian_cond_exp(u, corr, psi):
    """``E[W* - W | U = u]`` for ``W = sum psi(U_i)`` with ``U ~ N(0, corr)``,
    summed term by term over the picked index i and every other index j.

    Picking i redraws ``U_i`` as y from the psi-tilted normal and moves
    ``U_j`` to ``a + c y`` with ``c = corr[j][i]`` and ``a = u_j - c u_i``.
    The tilted laws are the half-normal (indicator), N(1, 1) (exp) and a
    random sign times chi_3 (square), so ``E psi(a + c y)`` is
    ``P(y > -a / c)`` from ``math.erfc`` (complemented for c < 0,
    ``1{a > 0}`` for c = 0), ``e^{a + c + c^2 / 2}`` and ``a^2 + 3 c^2``.
    """
    u = [float(x) for x in u]
    n = len(u)

    def affine_mean(a, c):
        if psi.name == "square":
            return a * a + 3.0 * c * c
        if psi.name == "exp":
            return exp(a + c + 0.5 * c * c)
        if c == 0.0:
            return 1.0 if a > 0 else 0.0
        t = -a / c
        upper = 1.0 if t <= 0 else erfc(t / sqrt(2.0))
        return upper if c > 0 else 1.0 - upper

    total = fsum(affine_mean(0.0, 1.0)
                 + fsum(affine_mean(u[j] - float(corr[j][i]) * u[i],
                                    float(corr[j][i]))
                        for j in range(n) if j != i)
                 for i in range(n))
    w = fsum(float(psi(np.array([x]))[0]) for x in u)
    return total / n - w


# ---------------------------------------------------------------------------
# Coupled pairs and the covariance identity, by plain Monte Carlo
# ---------------------------------------------------------------------------

def draw_batch(coupler, i, size, rng):
    """``(W, W^i)`` as ``(size, p)`` arrays from a size-bias model: each
    state of a pass's sub-batches is drawn, then coupled in coordinate i."""
    w, wi = [], []
    for rows in sub_batch_sizes(size, coupler.row_values):
        state = coupler.draw(rng, rows)
        w.append(coupler.w(state))
        wi.append(coupler.couple(state, i, rng))
    return np.concatenate(w), np.concatenate(wi)


def covariance_identity_z(coupler, sigma, samples, rng):
    """z-scores of ``lam_i E(W^i_j - W_j)`` against ``sigma[i, j]``.

    Every size-bias coupling satisfies the identity, so with a correct
    coupler and closed-form ``sigma`` the z-scores are about standard normal.
    """
    lam = np.asarray(coupler.lam, dtype=float)
    z = np.empty((coupler.p, coupler.p))
    for i in range(coupler.p):
        w, wi = draw_batch(coupler, i, samples, rng)
        d = lam[i] * (wi - w)
        z[i] = (d.mean(axis=0) - sigma[i]) * sqrt(samples) / d.std(axis=0)
    return z


# ---------------------------------------------------------------------------
# Monochromatic edge counts: every coloring of a small graph
# ---------------------------------------------------------------------------

def edge_neighborhoods(g):
    """``(N, N)`` 0/1 matrix whose row e marks the edges of ``S_e``: those
    sharing an endpoint with e, e included. Built pair by pair from the
    edge list."""
    ends = [set(edge) for edge in g.edges.tolist()]
    return np.array([[float(bool(a & b)) for b in ends] for a in ends])


def counts_from_colors(g, colors, p):
    """Monochromatic edge counts per colour, ``(B, p)`` floats, for a batch
    of colourings: for each colour, the edges whose two ends both have it."""
    colors = np.atleast_2d(colors)
    cu, cv = colors[:, g.edges[:, 0]], colors[:, g.edges[:, 1]]
    return np.stack([((cu == i) & (cv == i)).sum(axis=1) for i in range(p)],
                    axis=1).astype(float)


def coloring_moments(g, cfg):
    """Exact ``(lam, sigma, t1, t3)`` of the monochromatic edge counts by
    enumerating all ``p^n`` colorings.

    The pairwise indicator means inside ``t1`` are themselves taken from the
    enumeration, so nothing here shares code with the closed-form path.
    """
    p = cfg.p
    pi = np.asarray(cfg.probs)
    colorings = np.array(list(itertools.product(range(p), repeat=g.n)),
                         dtype=np.int64)
    weights = np.prod(pi[colorings], axis=1)
    cu = colorings[:, g.edges[:, 0]]
    cv = colorings[:, g.edges[:, 1]]
    mono = cu == cv
    raw = np.stack([(mono & (cu == i)) for i in range(p)], axis=2).astype(float)
    w_counts = raw.sum(axis=1)  # (M, p)
    lam = np.array([fsum((weights * w_counts[:, i]).tolist())
                    for i in range(p)])
    second = np.array(
        [[fsum((weights * w_counts[:, i] * w_counts[:, j]).tolist())
          for j in range(p)] for i in range(p)]
    )
    sigma = second - np.outer(lam, lam)
    # centered indicators and their exact pairwise means
    x = raw - pi**2  # (M, N, p)
    neigh = np.einsum("ef,mfi->mei", edge_neighborhoods(g), x)
    quad = np.einsum("mei,mej->mij", x, neigh)
    pair_mean = np.einsum("m,mij->ij", weights, quad)
    centered = quad - pair_mean
    t1 = np.sqrt(np.einsum("m,mij->ij", weights, centered**2))
    # |X n_j n_k| factors since the absolute value of a product splits
    t3 = np.einsum("m,mijk->ijk", weights,
                   np.einsum("mei,mej,mek->mijk", np.abs(x), np.abs(neigh),
                             np.abs(neigh)))
    return lam, sigma, t1, t3


# ---------------------------------------------------------------------------
# Gaussian smoothing on the tensor Gauss-Hermite rule
# ---------------------------------------------------------------------------

def gauss_hermite_mean(f, centers, sigma, nodes):
    """``E f(c + sigma Z)`` for each row ``c`` of ``centers``, Z standard
    normal, on the ``nodes^p``-point product rule; ``f`` maps an ``(m, p)``
    batch to ``(m,)`` values."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m, p = centers.shape
    z, w = gauss_hermite_tensor(nodes, p)
    pts = centers[None, :, :] + sigma * z[:, None, :]
    return w @ f(pts.reshape(-1, p)).reshape(z.shape[0], m)


# nodes per axis of PolynomialTestFunction's Gaussian smoothing
POLYNOMIAL_NODES = 40


@dataclass(frozen=True)
class PolynomialTestFunction:
    """A polynomial test function ``f`` on ``R^p``, given as a batch
    callable, in the place of a SmoothTestFunction. The product rule
    integrates a polynomial of degree below ``2 nodes`` exactly, so the
    Stein solutions of low-degree ``f`` are known in closed form."""

    f: object
    p: int
    length_scale = 1.0

    def evaluate(self, points):
        return self.f(np.atleast_2d(np.asarray(points, dtype=float)))

    def smoothed_mean(self, centers, sigma):
        return gauss_hermite_mean(self.f, centers, sigma, POLYNOMIAL_NODES)
