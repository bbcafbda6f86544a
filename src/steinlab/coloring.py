"""Monochromatic edge counts under independent vertex coloring.

Each vertex of a fixed d-regular graph receives one of p colors
independently; ``W_i`` counts the edges whose two endpoints both got color
i. The indicator of edge e being monochromatic in color i depends only on
the colors of e's endpoints, so the edges at either endpoint of e (the set
``S_e``, of size 2d-1 including e itself) form an exact dependency
neighborhood: everything outside it is independent. That makes the
local-dependence bound applicable with its middle term identically zero,
and gives closed forms for the mean and covariance. The edge list alone
fixes every ``S_e``: sums over it are per-vertex sums at e's two
endpoints, less e's own term counted twice. A state of
:class:`ColoringModel` is a batch of colourings' edge-colour indicators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import (LocalDepStats, bound_multivariate_local,
                     isqrt_norm_bound_check, sqrt_with_sem)
from .errors import BadSpec, NotPositiveDefinite
from .harness import Accumulator, StreamConfig, state_pass
from .linalg import inverse_sqrt
from .specs import read_spec


# ---------------------------------------------------------------------------
# Regular graphs
# ---------------------------------------------------------------------------

@dataclass
class RegularGraph:
    """A simple d-regular graph on vertices ``0..n-1``, given by its edge
    list alone: ``S_e``, the ``2d - 1`` edges at either endpoint of e, is
    never listed, and sums over it come from per-vertex sums."""

    n: int
    d: int
    edges: np.ndarray  # (N, 2) with u < v, sorted and distinct

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def validate(self):
        n, d = self.n, self.d
        u, v = self.edges[:, 0], self.edges[:, 1]
        if not np.all(u < v) or not np.all(np.diff(u * n + v) > 0):
            raise ValueError("edges must be sorted and distinct, with u < v")
        deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        if not np.all(deg == d):
            raise ValueError("graph is not d-regular")


def _finish_graph(n: int, d: int, pairs) -> RegularGraph:
    edges = np.array(sorted((min(a, b), max(a, b)) for a, b in pairs),
                     dtype=np.int64)
    g = RegularGraph(n, d, edges)
    g.validate()
    return g


def cycle_graph(n: int) -> RegularGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return _finish_graph(n, 2, [(v, (v + 1) % n) for v in range(n)])


def complete_graph(n: int) -> RegularGraph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return _finish_graph(n, n - 1, itertools.combinations(range(n), 2))


def matching_graph(n: int) -> RegularGraph:
    if n < 2 or n % 2:
        raise ValueError("perfect matching needs even n >= 2")
    return _finish_graph(n, 1, [(2 * k, 2 * k + 1) for k in range(n // 2)])


def random_regular_graph(n: int, d: int, seed: int = 0) -> RegularGraph:
    """Random simple d-regular graph, for every even n*d with 0 < d < n.

    For ``2d < n``: the circulant graph joining each vertex to its ``d // 2``
    nearest vertices on each side (and to the opposite one when d is odd),
    then ``10 |E|`` random degree-preserving switches ``{a, b}, {c, e} ->
    {a, e}, {c, b}``, each skipped if it would make a loop or a repeated
    edge. Larger d take the complement of such a graph of degree
    ``n - 1 - d``. Not uniform over d-regular graphs; the bound needs none.
    """
    if n * d % 2:
        raise ValueError("n*d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0xD1CE], dtype=np.uint64))
    )
    sparse = min(d, n - 1 - d)
    edges = [(v, (v + k) % n) for k in range(1, sparse // 2 + 1)
             for v in range(n)]
    if sparse % 2:
        edges += [(v, v + n // 2) for v in range(n // 2)]
    edges = [(min(e), max(e)) for e in edges]
    present = set(edges)
    steps = 10 * len(edges)
    picks = rng.integers(max(len(edges), 1), size=(steps, 2)).tolist()
    flips = (rng.random(steps) < 0.5).tolist()
    for (i, j), flip in zip(picks, flips):
        (a, b), (c, e) = edges[i], edges[j]
        if flip:
            c, e = e, c
        first, second = (min(a, e), max(a, e)), (min(c, b), max(c, b))
        if a == e or c == b or first in present or second in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {first, second}
        edges[i], edges[j] = first, second
    if sparse != d:
        present = set(itertools.combinations(range(n), 2)) - present
    return _finish_graph(n, d, present)


def parse_graph_spec(spec: str, seed: int = 0) -> RegularGraph:
    """Graph from a CLI spec: ``cycle:64``, ``complete:8``, ``matching:10``,
    ``regular:n=200,d=3``."""
    kind, _, rest = spec.strip().partition(":")
    kind = kind.lower()
    builders = {"cycle": cycle_graph, "complete": complete_graph,
                "matching": matching_graph}
    if kind in builders:
        try:
            size = int(rest)
        except ValueError:
            raise BadSpec(f"spec {spec!r}: size {rest.strip()!r} is not a "
                          f"valid int") from None
        return builders[kind](size)
    if kind == "regular":
        kv = read_spec(spec, {"n": int, "d": int}, required=("n", "d"))
        return random_regular_graph(kv["n"], kv["d"], seed=seed)
    raise BadSpec(f"unknown graph spec {spec!r}")


# ---------------------------------------------------------------------------
# Coloring model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColoringConfig:
    """Color probabilities; every color must have positive mass."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(x) for x in self.probs)
        if not all(x > 0 for x in probs):  # written to also reject NaN
            raise ValueError("color probabilities must be positive")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValueError("color probabilities must sum to 1")
        object.__setattr__(self, "probs", probs)

    @property
    def p(self) -> int:
        return len(self.probs)

    @property
    def b_const(self) -> float:
        pi = np.asarray(self.probs)
        return float(1.0 / np.min(pi**2 * (1.0 - pi))) if self.p > 1 else float("inf")


def theoretical_moments(g: RegularGraph, cfg: ColoringConfig):
    """Exact mean ``N pi_i^2`` and covariance of the monochromatic counts.

    ``sigma_ii = N pi_i^2 (1 - pi_i^2) + 2 N (d-1)(pi_i^3 - pi_i^4)`` and
    ``sigma_ij = -N (2d-1) pi_i^2 pi_j^2`` for different colors.
    """
    n_edges = g.num_edges
    d = g.d
    pi = np.asarray(cfg.probs)
    lam = n_edges * pi**2
    sigma = -n_edges * (2 * d - 1) * np.outer(pi**2, pi**2)
    diag = n_edges * pi**2 * (1 - pi**2) + 2 * n_edges * (d - 1) * (pi**3 - pi**4)
    np.fill_diagonal(sigma, diag)
    return lam, sigma


def sample_colors(g: RegularGraph, cfg: ColoringConfig,
                  rng: np.random.Generator, size: int) -> np.ndarray:
    cum = np.cumsum(cfg.probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random((size, g.n)), side="right")


def _indicators(g: RegularGraph, colors: np.ndarray, p: int) -> np.ndarray:
    """``(B, N, p)`` table: 1.0 where edge e is monochromatic in colour i.

    Row e of a colouring is row ``c`` of ``eye(p + 1, p)``, with c the
    colour of a monochromatic edge and ``c = p``, a zero row, otherwise.
    """
    cu, cv = (np.take(colors, end, axis=1) for end in g.edges.T)
    return np.take(np.eye(p + 1, p), np.where(cu == cv, cu, p), axis=0)


# ---------------------------------------------------------------------------
# Local-dependence statistics
# ---------------------------------------------------------------------------

def _neighborhood_sums(g: RegularGraph, ind: np.ndarray,
                       pi: np.ndarray) -> np.ndarray:
    """``N_ei``, the sum of the centered indicators ``X_fi = ind_fi - pi_i^2``
    over the edges f of ``S_e``, for each row of ``ind``.

    With ``V_wi`` the sum of ``ind_fi`` over the d edges f at vertex w, and
    since the edges at u and those at v share only e = (u, v) in a simple
    graph, ``N_ei = V_ui + V_vi - ind_ei - (2d - 1) pi_i^2``.
    """
    rows, _, p = ind.shape
    slots = (np.arange(0, rows * g.n, g.n)[:, None, None] + g.edges).ravel()
    vertex = np.stack([np.bincount(slots, np.repeat(ind[:, :, i], 2),
                                   rows * g.n) for i in range(p)],
                      axis=1).reshape(rows, g.n, p)
    del slots
    out = np.take(vertex, g.edges[:, 0], axis=1)
    out += np.take(vertex, g.edges[:, 1], axis=1)
    out -= ind
    out -= (2 * g.d - 1) * pi**2
    return out


def local_dep_stats(model: ColoringModel, samples: int, seed: int = 0,
                    chunk_size: int = 2048, *,
                    score) -> tuple[LocalDepStats, Accumulator]:
    """Monte Carlo estimates of the local-dependence bound inputs, and the
    accumulated ``score`` of the same colorings' counts W, in one pass.

    Each state's indicator table gives W, the centered indicators and, by
    :func:`_neighborhood_sums`, their sums over each ``S_e``.

    ``t2`` is exactly zero: an edge's indicator is a function of its two
    endpoint colors, and every edge outside its neighborhood touches neither
    endpoint, so the conditional mean of the centered indicator given the
    outside is zero. The model's ``sigma`` is the exact covariance of
    :func:`theoretical_moments`, valid because the neighborhoods cover all
    correlated pairs.
    """
    g, p, sigma = model.g, model.p, model.sigma
    pi = np.asarray(model.cfg.probs)

    def per_state(ind, rng):
        """Squared centered pair sums, absolute triple products, scores."""
        scores = score(model.w(ind))
        neigh = _neighborhood_sums(g, ind, pi)
        x = ind  # centered in place: X = ind - pi^2
        x -= pi**2
        sq = (np.matmul(x.transpose(0, 2, 1), neigh) - sigma) ** 2
        ax = np.abs(x, out=x).transpose(0, 2, 1)
        np.abs(neigh, out=neigh)
        triple = np.stack([ax @ (neigh * neigh[:, :, [j]]) for j in range(p)],
                          axis=2)
        return sq, triple, scores

    sq_acc, triple_acc, scores = state_pass(
        model, per_state, StreamConfig(seed, chunk_size), samples,
        powers=(2, 2, 2))
    t1, t1_sem = sqrt_with_sem(sq_acc.mean, sq_acc.sem)
    return LocalDepStats(p=p, t1=t1, t2=0.0, t3=triple_acc.mean,
                         t1_sem=t1_sem, t3_sem=triple_acc.sem), scores


# ---------------------------------------------------------------------------
# Spectral inequality checks and the end-to-end experiment
# ---------------------------------------------------------------------------

def spectral_checks(g: RegularGraph, cfg: ColoringConfig,
                    sigma: np.ndarray) -> dict:
    """PSD margin of ``Sigma - N H``, ``H = diag(pi_i^2 - pi_i^3)``, for the
    covariance ``sigma`` of :func:`theoretical_moments`: the domination
    that caps ``||Sigma^{-1/2}||`` by ``N^{-1/2} B^{1/2}``, the cap
    :func:`~steinlab.bounds.isqrt_norm_bound_check` verifies.
    """
    pi = np.asarray(cfg.probs)
    vals = np.linalg.eigvalsh(sigma - np.diag(g.num_edges * (pi**2 - pi**3)))
    return {"min_eig_margin": float(np.min(vals)),
            "psd_holds": bool(np.min(vals) >= -1e-10)}


class ColoringModel:
    """Monochromatic edge counts for
    :func:`steinlab.experiment.run_experiment`, certified by the multivariate
    local-dependence bound. A state is a ``(rows, N, p)`` table of
    edge-colour indicators. A colouring whose covariance cannot be whitened
    (one colour, or one of negligible mass) is refused here, naming the
    colour of negligible mass."""

    name = "color-match"

    def __init__(self, g: RegularGraph, cfg: ColoringConfig,
                 graph_name: str = "regular"):
        self.g, self.cfg, self.p = g, cfg, cfg.p
        self.lam, self.sigma = theoretical_moments(g, cfg)
        try:
            self.isqrt = inverse_sqrt(self.sigma)
        except NotPositiveDefinite as exc:
            if cfg.p == 1:
                raise
            low = int(np.argmin(cfg.probs))
            raise NotPositiveDefinite(
                f"color {low + 1} has mass {cfg.probs[low]:.3g}, too little "
                f"for its count to vary, so the covariance is singular; "
                f"give it more mass in --colors") from exc
        self.config = {"graph": graph_name, "n": g.n, "d": g.d,
                       "edges": g.num_edges, "colors": list(cfg.probs)}
        self.row_values = g.num_edges * cfg.p

    def draw(self, rng, rows: int) -> np.ndarray:
        return _indicators(self.g, sample_colors(self.g, self.cfg, rng, rows),
                           self.p)

    def w(self, ind: np.ndarray) -> np.ndarray:
        return ind.sum(axis=1)

    def bound(self, norms, samples: int, seed: int, chunk_size: int, score):
        stats, scores = local_dep_stats(self, samples, seed=seed,
                                        chunk_size=chunk_size, score=score)
        return (bound_multivariate_local(stats, self.isqrt, norms.d1,
                                         norms.d2, norms.d3), stats, scores)

    def extras(self, stats) -> dict:
        return {"spectral": spectral_checks(self.g, self.cfg, self.sigma),
                "isqrt_norm_bound": isqrt_norm_bound_check(
                    self.isqrt, self.cfg.b_const, self.g.num_edges),
                "t1": stats.t1, "t3_total": float(np.sum(stats.t3))}
