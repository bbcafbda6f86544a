"""Monochromatic edge counts: graphs, moments, dependency statistics."""

import tracemalloc

import numpy as np
import pytest

import oracles
from steinlab import coloring as cm
from steinlab import harness
from steinlab.bounds import isqrt_norm_bound_check
from steinlab.errors import NotPositiveDefinite
from steinlab.experiment import run_experiment
from steinlab.harness import StreamConfig
from steinlab.testfuncs import SmoothTestFunction


def _first(w):
    """A score for statistics passes whose gap a test does not read."""
    return w[:, 0]


def _local_dep_stats(g, cfg, samples, seed):
    """The local-dependence statistics at the closed-form covariance."""
    return cm.local_dep_stats(cm.ColoringModel(g, cfg), samples, seed=seed,
                              score=_first)


class TestGraphBuilders:
    @pytest.mark.parametrize("graph,expected_d,expected_edges", [
        (cm.cycle_graph(8), 2, 8),
        (cm.complete_graph(5), 4, 10),
        (cm.matching_graph(6), 1, 3),
        (cm.random_regular_graph(16, 3, seed=2), 3, 24),
        (cm.random_regular_graph(200, 6, seed=2), 6, 600),
        (cm.random_regular_graph(200, 8, seed=2), 8, 800),
        (cm.random_regular_graph(7, 6, seed=2), 6, 21),
    ])
    def test_regularity_and_neighborhoods(self, graph, expected_d,
                                          expected_edges):
        graph.validate()
        assert graph.d == expected_d
        assert graph.num_edges == expected_edges
        # simple: no loop and no repeated edge, so |S_e| = 2d - 1
        pairs = {tuple(e) for e in graph.edges.tolist()}
        assert len(pairs) == graph.num_edges
        assert all(u < v for u, v in pairs)

    @pytest.mark.parametrize("n,d,edges", [
        (5, 3, cm.cycle_graph(5).edges),            # not d-regular
        (4, 2, [[0, 1], [0, 1], [2, 3], [2, 3]]),   # a repeated edge
        (2, 2, [[0, 0], [1, 1]]),                   # loops
        (4, 1, [[2, 3], [0, 1]]),                   # unsorted
    ])
    def test_validate_rejects(self, n, d, edges):
        graph = cm.RegularGraph(n, d, np.array(edges, dtype=np.int64))
        with pytest.raises(ValueError):
            graph.validate()

    def test_parse_specs(self):
        assert cm.parse_graph_spec("cycle:12").num_edges == 12
        assert cm.parse_graph_spec("complete:4").d == 3
        assert cm.parse_graph_spec("matching:8").d == 1
        assert cm.parse_graph_spec("regular:n=10,d=3", seed=1).d == 3

    def test_pairing_model_needs_even_stubs(self):
        with pytest.raises(ValueError):
            cm.random_regular_graph(5, 3)


class TestTheoreticalMoments:
    def test_triangle_worked_values(self):
        g = cm.complete_graph(3)
        cfg = cm.ColoringConfig((0.5, 0.5))
        lam, sigma = cm.theoretical_moments(g, cfg)
        np.testing.assert_allclose(lam, [0.75, 0.75], rtol=1e-15)
        np.testing.assert_allclose(sigma, [[0.9375, -0.5625],
                                           [-0.5625, 0.9375]], rtol=1e-15)

    def test_single_color_degenerate(self):
        """One colour makes W constant, and one of mass 1e-6 leaves Sigma
        numerically singular: the model refuses to whiten either."""
        g = cm.cycle_graph(5)
        with pytest.raises(NotPositiveDefinite):
            cm.ColoringModel(g, cm.ColoringConfig((1.0,)))
        with pytest.raises(NotPositiveDefinite,
                           match="color 3 has mass 1e-06, too little"):
            cm.ColoringModel(g, cm.ColoringConfig((0.4999995, 0.4999995,
                                                   0.000001)))

    def test_matching_is_independent_edges(self):
        """d = 1: disjoint edges, so the count is a sum of independent
        indicators with variance N pi^2 (1 - pi^2)."""
        g = cm.matching_graph(8)
        cfg = cm.ColoringConfig((0.4, 0.6))
        lam, sigma = cm.theoretical_moments(g, cfg)
        n_edges = 4
        np.testing.assert_allclose(
            np.diag(sigma),
            [n_edges * p**2 * (1 - p**2) for p in cfg.probs], rtol=1e-14)
        np.testing.assert_allclose(sigma[0, 1],
                                   -n_edges * 0.4**2 * 0.6**2, rtol=1e-14)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            cm.ColoringConfig((0.5, 0.4))
        with pytest.raises(ValueError):
            cm.ColoringConfig((1.2, -0.2))

    @pytest.mark.parametrize("probs", [(0.5, float("nan")),
                                       (float("nan"), float("nan"))])
    def test_nan_probability_is_refused(self, probs):
        with pytest.raises(ValueError):
            cm.ColoringConfig(probs)


class TestBruteForceOracle:
    CASES = [
        (cm.complete_graph(3), (0.5, 0.5)),
        (cm.complete_graph(3), (0.2, 0.3, 0.5)),
        (cm.cycle_graph(4), (0.5, 0.5)),
        (cm.cycle_graph(4), (0.25, 0.35, 0.4)),
        (cm.matching_graph(4), (0.6, 0.4)),
        (cm.matching_graph(6), (0.3, 0.3, 0.4)),
    ]

    @pytest.mark.parametrize("graph,probs", CASES)
    def test_formula_equals_enumeration(self, graph, probs):
        cfg = cm.ColoringConfig(probs)
        lam, sigma = cm.theoretical_moments(graph, cfg)
        exact_lam, exact_sigma, _, _ = oracles.coloring_moments(graph, cfg)
        scale = max(np.abs(exact_sigma).max(), 1.0)
        assert np.abs(lam - exact_lam).max() <= 1e-12 * scale
        assert np.abs(sigma - exact_sigma).max() <= 1e-12 * scale


class TestSampling:
    def test_single_color_counts_every_edge(self):
        g = cm.cycle_graph(6)
        cfg = cm.ColoringConfig((1.0,))
        w = oracles.counts_from_colors(
            g, cm.sample_colors(g, cfg, StreamConfig(0).stream(0), 10), cfg.p)
        np.testing.assert_array_equal(w, np.full((10, 1), 6.0))

    def test_fixed_coloring_count(self):
        """Triangle colored (1, 1, 2): one edge matches color 1."""
        g = cm.complete_graph(3)
        w = oracles.counts_from_colors(g, np.array([[0, 0, 1]]), 2)
        np.testing.assert_array_equal(w, [[1.0, 0.0]])

    def test_empirical_moments_match_formulas(self):
        g = cm.random_regular_graph(24, 3, seed=7)
        cfg = cm.ColoringConfig((0.3, 0.45, 0.25))
        lam, sigma = cm.theoretical_moments(g, cfg)
        m = 200_000
        w = oracles.counts_from_colors(
            g, cm.sample_colors(g, cfg, StreamConfig(9).stream(0), m), cfg.p)
        se = np.sqrt(np.diag(sigma) / m)
        assert np.all(np.abs(w.mean(axis=0) - lam) <= 4 * se)
        cov = np.cov(w.T)
        assert np.all(np.abs(cov - sigma) <= 4 * np.abs(sigma).max()
                      * np.sqrt(8.0 / m) + 1e-9)


class TestLocalDependenceStats:
    def test_outside_mean_term_is_exactly_zero(self):
        g = cm.cycle_graph(10)
        stats, _ = _local_dep_stats(g, cm.ColoringConfig((0.5, 0.5)),
                                    samples=2000, seed=1)
        assert stats.t2 == 0.0

    def test_matching_t1_closed_form(self):
        """d = 1: the pair sum is a sum over independent edges, so the
        fluctuation reduces to a Bernoulli-variance computation."""
        g = cm.matching_graph(10)
        pi = 0.4
        cfg = cm.ColoringConfig((pi, 0.6))
        stats, _ = _local_dep_stats(g, cfg, samples=400_000, seed=3)
        # Q_ii = sum_e (X_ei^2 - E X_ei^2): X_ei^2 takes (1-pi^2)^2 w.p.
        # pi^2 and pi^4 otherwise, an affine Bernoulli with span 1 - 2 pi^2
        n_edges = 5
        q = pi * pi
        var_per_edge = (1 - 2 * q) ** 2 * q * (1 - q)
        expected = np.sqrt(n_edges * var_per_edge)
        assert abs(stats.t1[0, 0] - expected) <= 5 * stats.t1_sem[0, 0] + 1e-3

    def test_mc_matches_enumeration_on_triangle(self):
        g = cm.complete_graph(3)
        cfg = cm.ColoringConfig((0.5, 0.5))
        _, _, exact_t1, exact_t3 = oracles.coloring_moments(g, cfg)
        stats, _ = _local_dep_stats(g, cfg, samples=400_000, seed=5)
        assert np.all(np.abs(stats.t1 - exact_t1)
                      <= 5 * stats.t1_sem + 1e-6)
        assert np.all(np.abs(stats.t3 - exact_t3)
                      <= 5 * stats.t3_sem + 1e-6)

    @pytest.mark.parametrize("graph", [
        cm.cycle_graph(8), cm.complete_graph(3), cm.complete_graph(5),
        cm.matching_graph(6), cm.random_regular_graph(16, 3),
        cm.random_regular_graph(7, 6)])
    def test_neighborhood_sums_match_brute_force(self, graph):
        """The pass's S_e sums, from vertex sums, equal sums over each S_e
        listed pair by pair from the edge list (d = 1: S_e = {e})."""
        cfg = cm.ColoringConfig((0.3, 0.3, 0.4))
        colors = cm.sample_colors(graph, cfg, StreamConfig(6).stream(0), 64)
        ind = cm._indicators(graph, colors, cfg.p)
        pi = np.asarray(cfg.probs)
        expected = np.einsum("ef,mfi->mei", oracles.edge_neighborhoods(graph),
                             ind - pi**2)
        np.testing.assert_allclose(cm._neighborhood_sums(graph, ind, pi),
                                   expected, rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self):
        g = cm.cycle_graph(12)
        cfg = cm.ColoringConfig((0.5, 0.5))
        a, a_scores = _local_dep_stats(g, cfg, samples=3000, seed=11)
        b, b_scores = _local_dep_stats(g, cfg, samples=3000, seed=11)
        np.testing.assert_array_equal(a.t1, b.t1)
        np.testing.assert_array_equal(a.t3, b.t3)
        np.testing.assert_array_equal(a_scores.sums, b_scores.sums)


class TestSubBatches:
    """A chunk's colourings run in sub-batches of at most
    ``SUB_BATCH_VALUES`` edge-colour values."""

    GRAPH = cm.random_regular_graph(16, 3, seed=1)  # 24 edges
    CFG = cm.ColoringConfig((0.4, 0.6))
    SPLIT = 7 * 24 * 2  # 7 colourings per sub-batch

    def test_split_pass_matches_unsplit(self, monkeypatch):
        whole, whole_scores = _local_dep_stats(self.GRAPH, self.CFG,
                                               samples=1000, seed=8)
        monkeypatch.setattr(harness, "SUB_BATCH_VALUES", self.SPLIT)
        parts = harness.sub_batch_sizes(
            1000, cm.ColoringModel(self.GRAPH, self.CFG).row_values)
        assert parts[:2] == [7, 7]
        split, split_scores = _local_dep_stats(self.GRAPH, self.CFG,
                                               samples=1000, seed=8)
        for name in ("t1", "t3", "t1_sem", "t3_sem"):
            np.testing.assert_allclose(getattr(split, name),
                                       getattr(whole, name), rtol=1e-12)
        assert split_scores.count == whole_scores.count == 1000
        np.testing.assert_allclose(split_scores.sums, whole_scores.sums,
                                   rtol=1e-12)

    def test_pass_peak_memory(self):
        """One 2048-colouring chunk on 2000 edges and 2 colours, drawn in
        sub-batches of 16 MiB tables, peaks at 60 MiB; a (B, N, 2d-1, p)
        gather of the centered indicators would take 459 MB alone."""
        model = cm.ColoringModel(cm.random_regular_graph(1000, 4, seed=5),
                                 cm.ColoringConfig((0.4, 0.6)))
        tracemalloc.start()
        try:
            cm.local_dep_stats(model, 2048, seed=3, chunk_size=2048,
                               score=_first)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 72 * 2**20


class TestSpectralChecks:
    @pytest.mark.parametrize("graph", [cm.cycle_graph(20),
                                       cm.complete_graph(6),
                                       cm.matching_graph(10),
                                       cm.random_regular_graph(30, 3, seed=4)])
    def test_domination_and_norm_cap(self, graph):
        cfg = cm.ColoringConfig((0.3, 0.45, 0.25))
        model = cm.ColoringModel(graph, cfg)
        out = cm.spectral_checks(graph, cfg, model.sigma)
        assert out["psd_holds"] and out["min_eig_margin"] >= -1e-10
        assert isqrt_norm_bound_check(model.isqrt, cfg.b_const,
                                      graph.num_edges)["holds"]


class TestExperiment:
    def test_constant_h(self):
        g = cm.cycle_graph(16)
        cfg = cm.ColoringConfig((0.5, 0.5))
        h = SmoothTestFunction("cosine", p=2, a=(0.0, 0.0))
        rep = run_experiment(cm.ColoringModel(g, cfg), h, samples=500,
                             seed=1, chunk_size=2048)
        assert rep.bound.total == 0.0 and rep.gap <= 1e-12 and rep.passed

    def test_small_run_passes(self):
        g = cm.random_regular_graph(40, 3, seed=3)
        cfg = cm.ColoringConfig((0.4, 0.6))
        h = SmoothTestFunction("cosine", p=2, a=(0.5, 0.5))
        rep = run_experiment(cm.ColoringModel(g, cfg), h, samples=5000,
                             seed=2, chunk_size=2048)
        assert rep.passed and rep.bound.total > 0
