"""Monochromatic edge counts under independent vertex coloring.

Each vertex of a fixed d-regular graph receives one of p colors
independently; ``W_i`` counts the edges whose two endpoints both got color
i. The indicator of edge e being monochromatic in color i depends only on
the colors of e's endpoints, so the edges sharing a vertex with e (the set
``S_e``, of size 2d-1 including e itself) form an exact dependency
neighborhood: everything outside it is independent. That makes the
local-dependence bound applicable with its middle term identically zero,
and gives closed forms for the mean and covariance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import fsum

import numpy as np

from .bounds import LocalDepStats, bound_multivariate_local
from .errors import (AsymmetricNeighborhoods, BadSpec, NotPositiveDefinite,
                     TooLarge)
from .harness import Accumulator, StreamConfig, parallel_mc
from .linalg import inverse_sqrt, max_abs_norm
from .specs import read_spec

BRUTE_FORCE_MAX_COLORINGS = 10_000_000


# ---------------------------------------------------------------------------
# Regular graphs with per-edge neighborhoods
# ---------------------------------------------------------------------------

@dataclass
class RegularGraph:
    """A d-regular graph with the edge-neighborhood index built once.

    ``neighborhoods[e]`` lists the ``2d - 1`` edges sharing a vertex with
    edge ``e`` (including ``e``); symmetry ``f in S_e iff e in S_f`` holds by
    construction and is validated.
    """

    n: int
    d: int
    edges: np.ndarray          # (N, 2) with u < v
    neighborhoods: np.ndarray  # (N, 2d-1) edge indices

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def validate(self):
        n, d = self.n, self.d
        deg = (np.bincount(self.edges[:, 0], minlength=n)
               + np.bincount(self.edges[:, 1], minlength=n))
        if not np.all(deg == d):
            raise ValueError("graph is not d-regular")
        if self.neighborhoods.shape != (self.num_edges, 2 * d - 1):
            raise ValueError("neighborhood index has the wrong shape")
        sets = [set(row.tolist()) for row in self.neighborhoods]
        for e, members in enumerate(sets):
            if e not in members:
                raise AsymmetricNeighborhoods(f"edge {e} missing from its own S_e")
            for f in members:
                if e not in sets[f]:
                    raise AsymmetricNeighborhoods(
                        f"edge {f} in S_{e} but {e} not in S_{f}"
                    )


def _build_neighborhoods(n: int, edges: np.ndarray) -> np.ndarray:
    num = edges.shape[0]
    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        incident[int(u)].append(e)
        incident[int(v)].append(e)
    rows = []
    for e, (u, v) in enumerate(edges):
        members = sorted(set(incident[int(u)]) | set(incident[int(v)]))
        rows.append(members)
    width = max(len(r) for r in rows)
    if any(len(r) != width for r in rows):
        raise ValueError("irregular neighborhood sizes; graph not simple-regular")
    return np.array(rows, dtype=np.int64)


def _finish_graph(n: int, d: int, pairs) -> RegularGraph:
    edges = np.array(sorted((min(a, b), max(a, b)) for a, b in pairs),
                     dtype=np.int64)
    g = RegularGraph(n, d, edges, _build_neighborhoods(n, edges))
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
    if kind == "cycle":
        return cycle_graph(int(rest))
    if kind == "complete":
        return complete_graph(int(rest))
    if kind == "matching":
        return matching_graph(int(rest))
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
    vals = np.linalg.eigvalsh(sigma)
    if np.min(vals) <= 1e-12 * max(np.max(vals), 1e-300):
        raise NotPositiveDefinite(
            f"coloring covariance is not PD (eigenvalues {np.sort(vals)})"
        )
    return lam, sigma


def sample_colors(g: RegularGraph, cfg: ColoringConfig,
                  rng: np.random.Generator, size: int) -> np.ndarray:
    cum = np.cumsum(cfg.probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random((size, g.n)), side="right")


def counts_from_colors(g: RegularGraph, colors: np.ndarray,
                       p: int) -> np.ndarray:
    """Monochromatic edge counts per color for a batch of colorings."""
    colors = np.atleast_2d(colors)
    cu = colors[:, g.edges[:, 0]]
    cv = colors[:, g.edges[:, 1]]
    mono = cu == cv
    return np.stack([(mono & (cu == i)).sum(axis=1) for i in range(p)],
                    axis=1).astype(float)


# ---------------------------------------------------------------------------
# Local-dependence statistics
# ---------------------------------------------------------------------------

def _centered_indicators(g: RegularGraph, colors: np.ndarray,
                         cfg: ColoringConfig):
    """Centered edge indicators ``X_ei`` and their neighborhood sums."""
    pi = np.asarray(cfg.probs)
    cu = colors[:, g.edges[:, 0]]
    cv = colors[:, g.edges[:, 1]]
    mono = cu == cv
    x = np.stack(
        [(mono & (cu == i)).astype(float) - pi[i] ** 2 for i in range(cfg.p)],
        axis=2,
    )  # (B, N, p)
    neigh = x[:, g.neighborhoods, :].sum(axis=2)  # (B, N, p)
    return x, neigh


def local_dep_stats(g: RegularGraph, cfg: ColoringConfig, samples: int,
                    seed: int = 0, chunk_size: int = 2048, *,
                    score) -> tuple[LocalDepStats, Accumulator]:
    """Monte Carlo estimates of the local-dependence bound inputs, and the
    accumulated ``score`` of the same colorings' counts W.

    ``t2`` is exactly zero: an edge's indicator is a function of its two
    endpoint colors, and every edge outside its neighborhood touches neither
    endpoint, so the conditional mean of the centered indicator given the
    outside is zero. The covariance matrix is the exact closed form, valid
    because the neighborhoods cover all correlated pairs.
    """
    lam, sigma = theoretical_moments(g, cfg)
    p = cfg.p
    stream_cfg = StreamConfig(seed, chunk_size)

    def task(rng, size):
        colors = sample_colors(g, cfg, rng, size)
        scores = Accumulator().add(score(counts_from_colors(g, colors, p)))
        x, neigh = _centered_indicators(g, colors, cfg)
        quad = np.einsum("bei,bej->bij", x, neigh)
        q_centered = quad - sigma
        sq = q_centered**2
        triple = np.einsum("bei,bej,bek->bijk", np.abs(x), np.abs(neigh),
                           np.abs(neigh))
        return (Accumulator(shape=(p, p)).add(sq),
                Accumulator(shape=(p, p, p)).add(triple), scores)

    sq_acc, triple_acc, scores = parallel_mc(task, stream_cfg, samples)
    mean_sq = sq_acc.mean
    t1 = np.sqrt(np.maximum(mean_sq, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1_sem = np.where(t1 > 0, sq_acc.sem / np.where(t1 > 0, 2 * t1, 1.0),
                          np.sqrt(sq_acc.sem))
    return LocalDepStats(
        p=p, sigma=sigma, t1=t1, t2=0.0, t3=triple_acc.mean,
        t1_sem=t1_sem, t3_sem=triple_acc.sem,
    ), scores


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------

def brute_force_moments(g: RegularGraph, cfg: ColoringConfig):
    """Exact ``(lam, sigma, t1, t3)`` by enumerating all colorings.

    The pairwise indicator means inside ``t1`` are themselves taken from the
    enumeration, so nothing here shares code with the closed-form path.
    """
    p = cfg.p
    if p**g.n > BRUTE_FORCE_MAX_COLORINGS:
        raise TooLarge(f"{p}^{g.n} colorings exceed the enumeration cap")
    n_edges = g.num_edges
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
    neigh = x[:, g.neighborhoods, :].sum(axis=2)
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
# Spectral inequality checks and the end-to-end experiment
# ---------------------------------------------------------------------------

def spectral_checks(g: RegularGraph, cfg: ColoringConfig) -> dict:
    """PSD margin of ``Sigma - N H`` and the whitening-norm cap.

    ``H = diag(pi_i^2 - pi_i^3)``; the covariance dominates ``N H`` in the
    PSD order, which caps the max-abs-entry norm of the inverse square root
    by ``N^{-1/2} B^{1/2}``.
    """
    lam, sigma = theoretical_moments(g, cfg)
    n_edges = g.num_edges
    pi = np.asarray(cfg.probs)
    h_diag = np.diag(n_edges * (pi**2 - pi**3))
    vals = np.linalg.eigvalsh(sigma - h_diag)
    isqrt = inverse_sqrt(sigma)
    lhs = max_abs_norm(isqrt)
    cap = float(np.sqrt(cfg.b_const / n_edges))
    return {
        "min_eig_margin": float(np.min(vals)),
        "psd_holds": bool(np.min(vals) >= -1e-10),
        "max_norm": lhs,
        "cap": cap,
        "norm_holds": bool(lhs <= cap * (1.0 + 1e-12)),
        "B": cfg.b_const,
    }


class ColoringModel:
    """Monochromatic edge counts for
    :func:`steinlab.experiment.run_experiment`, certified by the multivariate
    local-dependence bound."""

    name = "color-match"

    def __init__(self, g: RegularGraph, cfg: ColoringConfig,
                 graph_name: str = "regular"):
        self.g, self.cfg, self.p = g, cfg, cfg.p
        self.lam, self.sigma = theoretical_moments(g, cfg)
        self.config = {"graph": graph_name, "n": g.n, "d": g.d,
                       "edges": g.num_edges, "colors": list(cfg.probs)}

    def bound(self, norms, samples: int, seed: int, chunk_size: int, score):
        stats, scores = local_dep_stats(self.g, self.cfg, samples, seed=seed,
                                        chunk_size=chunk_size, score=score)
        return (bound_multivariate_local(stats, norms.d1, norms.d2, norms.d3),
                stats, scores)

    def extras(self, stats) -> dict:
        return {"spectral": spectral_checks(self.g, self.cfg),
                "t1": stats.t1, "t3_total": float(np.sum(stats.t3))}
