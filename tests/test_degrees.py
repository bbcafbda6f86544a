"""Degree counts: closed-form moments, the coupling, exact conditional
expectations, enumeration oracles and the end-to-end experiment."""

import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from steinlab import degrees as dg
from steinlab import harness
from steinlab.bounds import (CouplingStats, bound_multivariate_size_bias,
                             isqrt_norm_bound_check)
from steinlab.errors import InvariantViolation, NotPositiveDefinite
from steinlab.experiment import run_experiment
from steinlab.harness import StreamConfig
from steinlab.linalg import inverse_sqrt, max_abs_norm
from steinlab.sizebias import verify_characterization
from steinlab.testfuncs import SmoothTestFunction


def _first(w):
    """A score for statistics passes whose gap a test does not read."""
    return w[:, 0]


class TestTheoreticalMoments:
    def test_worked_case(self):
        """n=4, pi=0.5, counting degree 1: mean 1.5, variance 1.125."""
        cfg = dg.ErdosRenyiConfig(4, 0.5, (1,))
        lam, sigma, b_const = dg.theoretical_moments(cfg)
        np.testing.assert_allclose(lam, [1.5], rtol=1e-15)
        np.testing.assert_allclose(sigma, [[1.125]], rtol=1e-15)
        np.testing.assert_allclose(b_const, 1.0 / (0.375 * 0.625), rtol=1e-15)

    def test_isolated_vertex_limit(self):
        """Counting degree 0 near pi = 1: mean ~ n (1-pi)^{n-1}."""
        cfg = dg.ErdosRenyiConfig(6, 0.95, (0,))
        lam, _, _ = dg.theoretical_moments(cfg)
        np.testing.assert_allclose(lam, [6 * 0.05**5], rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dg.ErdosRenyiConfig(4, 0.0, (1,))
        with pytest.raises(ValueError):
            dg.ErdosRenyiConfig(4, 0.5, (1, 1))
        with pytest.raises(ValueError):
            dg.ErdosRenyiConfig(4, 0.5, (4,))

    def test_degree_probability_past_float_binomials(self):
        """C(1099, 550) overflows a float; the log-space form still gives
        P(Bin(1099, 1/2) = 550) = C(1099, 550) / 2**1099, and the law sums
        to one."""
        from math import comb
        got = dg.degree_probability(1100, 0.5, 550)
        np.testing.assert_allclose(got, comb(1099, 550) / 2**1099, rtol=1e-11)
        total = sum(dg.degree_probability(1100, 0.5, d) for d in range(1100))
        np.testing.assert_allclose(total, 1.0, rtol=1e-11)

    def test_singular_covariance_rejected_at_construction(self):
        # two vertices: the two counts always sum to 2, so Sigma is singular;
        # the config holds it, and the coupler, which whitens, refuses it
        cfg = dg.ErdosRenyiConfig(2, 0.5, (0, 1))
        with pytest.raises(NotPositiveDefinite, match="nearly dependent"):
            dg.DegreeCountCoupler(cfg)


class TestBruteForceOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("pi", [0.3, 0.5, 0.7])
    def test_formula_equals_enumeration(self, n, pi):
        degree_sets = [(d,) for d in range(n)]
        degree_sets += list(itertools.combinations(range(n), 2))
        for degrees in degree_sets:
            cfg = dg.ErdosRenyiConfig(n, pi, degrees)
            lam, sigma, _ = dg.theoretical_moments(cfg)
            exact_lam, exact_sigma = oracles.degree_moments(n, pi, degrees)
            scale = max(np.abs(exact_sigma).max(), np.abs(exact_lam).max(), 1.0)
            assert np.abs(lam - exact_lam).max() <= 1e-12 * scale
            assert np.abs(sigma - exact_sigma).max() <= 1e-12 * scale

    def test_complement_symmetry_at_half(self):
        """At pi = 1/2 the counts of degree d and n-1-d have equal means."""
        for d in (0, 1):
            a = dg.theoretical_moments(
                dg.ErdosRenyiConfig(5, 0.5, (d,)))[0]
            b = dg.theoretical_moments(
                dg.ErdosRenyiConfig(5, 0.5, (4 - d,)))[0]
            np.testing.assert_allclose(a, b, rtol=1e-14)


def _chunk_graphs(chunk):
    """The chunk's graphs as scalar-oracle graph samples."""
    return [oracles.GraphSample(chunk.n,
                                np.stack([chunk.u[lo:hi], chunk.v[lo:hi]],
                                         axis=1),
                                chunk.deg[b])
            for b, (lo, hi) in enumerate(zip(chunk.starts[:-1],
                                             chunk.starts[1:]))]


def _chunk_gid(chunk):
    """Each edge's graph, from the chunk's edge offsets."""
    return np.repeat(np.arange(chunk.size), np.diff(chunk.starts))


def _chunk_from_arrays(cfg, size, gid, u, v, deg):
    """A chunk holding the given edge list, with each graph's edge offsets
    found from its graph ids and its tables made by the chunk's own
    tabulation, whose degrees must equal ``deg``."""
    chunk = object.__new__(dg._GraphChunk)
    chunk.size, chunk.n, chunk.degrees = size, cfg.n, cfg.degrees
    chunk.u, chunk.v = (np.asarray(a, dtype=dg._vertex_dtype(cfg.n))
                        for a in (u, v))
    chunk.starts = np.searchsorted(gid, np.arange(size + 1))
    chunk._tabulate()
    np.testing.assert_array_equal(chunk.deg, deg)
    return chunk


class TestSampling:
    def test_edge_count_mean(self):
        """n=100, pi=0.02: mean edge count is C(100,2) * 0.02 = 99."""
        cfg = dg.ErdosRenyiConfig(100, 0.02, (1,))
        m = 4000
        chunk = dg._GraphChunk(StreamConfig(3).stream(0), m, cfg)
        counts = np.diff(chunk.starts)
        se = np.sqrt(4950 * 0.02 * 0.98 / m)
        assert abs(np.mean(counts) - 99.0) <= 4.0 * se

    def test_graph_internally_consistent(self):
        cfg = dg.ErdosRenyiConfig(40, 0.12, (1, 2))
        chunk = dg._GraphChunk(StreamConfig(5).stream(1), 20, cfg)
        assert chunk.starts[0] == 0 and chunk.starts[-1] == chunk.u.size
        assert np.all(np.diff(chunk.starts) >= 0)
        for g in _chunk_graphs(chunk):
            g.validate()

    def test_duplicate_edge_rejected(self):
        # degrees agree with the edge list, so only the duplicate is wrong
        g = oracles.GraphSample(3, np.array([[0, 1], [0, 1]]),
                                np.array([2, 2, 0]))
        with pytest.raises(InvariantViolation, match="duplicate edge"):
            g.validate()

    def test_decode_roundtrip(self):
        """Every code for small n; at n = 65536 and 10**6 the codes next to
        each row's first (off - 1, off, off + 1), where the closed-form
        root is closest to an integer; at n = 3 * 10**8, past float64's
        exact range, those of the first and last 2000 rows."""
        cases = [(n, np.arange(n * (n - 1) // 2)) for n in (2, 3, 7, 50, 1000)]
        big = 3 * 10**8
        for n, rows in ((65536, np.arange(65535)), (10**6, np.arange(10**6 - 1)),
                        (big, np.r_[0:2000, big - 2001:big - 1])):
            rows = rows.astype(np.int64)
            off = rows * (2 * n - rows - 1) // 2
            codes = np.unique(np.concatenate([off - 1, off, off + 1]))
            cases.append((n, codes[(codes >= 0) & (codes < n * (n - 1) // 2)]))
        for n, codes in cases:
            u, v = dg._decode_pair_codes(codes, n)
            assert np.all(u < v) and np.all(v < n)
            recoded = u * (2 * n - u - 1) // 2 + (v - u - 1)
            np.testing.assert_array_equal(recoded, codes)

    @pytest.mark.parametrize("room", ["default", "none"])
    def test_bernoulli_positions_match_oracle(self, monkeypatch, room):
        """The positions, and the stream value after them, equal those from
        numpy's own geometric draws, on both sides of pi = 1/3 and at 1/3,
        over runs of one, two and three rounds. So do those a chunk of
        ``total`` graphs at n = 2 stores, one trial per graph; with no room
        left after a round, the chunk's edge arrays grow for each later
        round."""
        if room == "none":
            monkeypatch.setattr(dg, "isqrt", lambda k: -4)
        calls = []
        geometric = dg._geometric
        monkeypatch.setattr(dg, "_geometric", lambda *a: calls.append(1)
                            or geometric(*a))
        blocks = set()
        for pi in (0.01, 0.2, 1.0 / 3.0, 0.6):
            cfg = dg.ErdosRenyiConfig(2, pi, (0,))
            for total in (1, 2, 50, 1000):
                for seed in range(12):
                    ref_rng = StreamConfig(seed).stream(0)
                    want = oracles.bernoulli_positions(ref_rng, total, pi)
                    after = ref_rng.random()
                    rng = StreamConfig(seed).stream(0)
                    calls.clear()
                    got = [pos.copy() for pos in
                           dg._bernoulli_positions(rng, total, pi)]
                    blocks.add(len(calls))
                    assert all(pos.size for pos in got)
                    np.testing.assert_array_equal(
                        np.concatenate([np.empty(0, dtype=np.int64), *got]),
                        want)
                    assert rng.random() == after
                    rng = StreamConfig(seed).stream(0)
                    chunk = dg._GraphChunk(rng, total, cfg)
                    np.testing.assert_array_equal(
                        np.flatnonzero(np.diff(chunk.starts)), want)
                    assert rng.random() == after
        assert {1, 2, 3} <= blocks

    def test_pieces_cover_long_rounds(self, monkeypatch):
        """Rounds of many draw pieces give the same positions and leave the
        stream where whole rounds would, also when the run passes ``total``
        before a round's last piece, whose gaps are then drawn and
        dropped."""
        pi, total = 0.3, 3000
        monkeypatch.setattr(dg, "_DRAW_BLOCK", 4)
        drawn = []
        geometric = dg._geometric

        def counted(*args):
            for piece in geometric(*args):
                drawn.append(piece.size)
                yield piece

        monkeypatch.setattr(dg, "_geometric", counted)
        dropped = 0
        for seed in range(10):
            ref_rng = StreamConfig(seed).stream(0)
            want = oracles.bernoulli_positions(ref_rng, total, pi)
            rng = StreamConfig(seed).stream(0)
            drawn.clear()
            got = [pos.copy() for pos in
                   dg._bernoulli_positions(rng, total, pi)]
            assert max(drawn) == 4 and max(pos.size for pos in got) <= 4
            dropped += len(drawn) > len(got)
            np.testing.assert_array_equal(np.concatenate(got), want)
            assert rng.random() == ref_rng.random()
        assert dropped

    def test_geometric_cap(self):
        """Draws past INT64_MAX are INT64_MAX, as numpy makes them."""
        pi = 1e-300
        out, = dg._geometric(StreamConfig(2).stream(0), pi, 5)
        want = StreamConfig(2).stream(0).geometric(pi, size=5)
        np.testing.assert_array_equal(out, want)
        assert np.all(out == np.iinfo(np.int64).max)

    @pytest.mark.parametrize("n,pi,size,seed,blocks", [
        (30, 0.3, 40, 0, 2),
        (30, 1.0 / 3.0, 40, 1, 3),
        (30, 0.5, 40, 2, 2),
        (2, 0.3, 64, 3, 1),
        (3, 0.7, 64, 4, 1),
        (7, 0.01, 30, 5, 2),
        (200, 2.0 / 199, 512, 6, 1),
        (40000, 2.0 / 39999, 3, 7, 4),
    ], ids=["inversion", "third", "search", "n2", "n3", "no-edges",
            "many-per-group", "one-per-group"])
    def test_chunk_matches_oracle(self, monkeypatch, n, pi, size, seed,
                                  blocks):
        """A chunk's edges, degrees, W and conditional means equal those of
        the reference sampler and decoder exactly, and the stream is left
        where the reference leaves it, for pi below, at and above 1/3, n = 2
        and 3, graphs with no edges, Bernoulli runs of one to four blocks,
        many graphs per group and one graph (n > _GROUP_VERTICES) per
        group."""
        cfg = dg.ErdosRenyiConfig(n, pi, (0, 1) if n <= 3 else (1, 2))
        calls = []
        geometric = dg._geometric
        monkeypatch.setattr(dg, "_geometric", lambda *a: calls.append(1)
                            or geometric(*a))
        rng = StreamConfig(seed).stream(0)
        ref_rng = StreamConfig(seed).stream(0)
        chunk = dg._GraphChunk(rng, size, cfg)
        assert len(calls) == blocks
        gid, u, v, deg = oracles.graph_chunk_arrays(ref_rng, size, cfg)
        ref = _chunk_from_arrays(cfg, size, gid, u, v, deg)
        np.testing.assert_array_equal(_chunk_gid(chunk), gid)
        for name in ("u", "v", "deg", "starts", "count", "edges_to"):
            np.testing.assert_array_equal(getattr(chunk, name),
                                          getattr(ref, name))
        np.testing.assert_array_equal(
            chunk.degree_count_matrix(),
            np.stack([(deg == d).sum(axis=1) for d in cfg.degrees], axis=1))
        np.testing.assert_array_equal(chunk.cond_exp(), ref.cond_exp())
        assert rng.random() == ref_rng.random()
        if n == 7:
            assert np.any(np.diff(chunk.starts) == 0)

    @pytest.mark.parametrize("n,pi,degrees,size,seed", [
        (14, 0.2, (1, 3), 64, 8),
        (30, 2.0 / 29, (0, 1, 2), 64, 9),
        (12, 0.5, (0, 11), 64, 10),
        (9, 0.5, (3, 5, 8), 64, 11),
        (7, 0.01, (0, 1), 30, 5),
    ], ids=["sparse", "c2-from-zero", "extremes", "dense", "no-edges"])
    def test_tables_match_scalar_oracle(self, n, pi, degrees, size, seed):
        """Every graph's degree histogram and degree-pair table equal those
        counted vertex by vertex and edge by edge, exactly, also for target
        degrees 0 and n - 1 and for graphs with no edges."""
        cfg = dg.ErdosRenyiConfig(n, pi, degrees)
        chunk = dg._GraphChunk(StreamConfig(seed).stream(0), size, cfg)
        top = chunk.count.shape[1]
        assert top == max(int(chunk.deg.max()), max(degrees)) + 2
        for b, graph in enumerate(_chunk_graphs(chunk)):
            count, edges_to = oracles.degree_tables(graph, top, degrees)
            np.testing.assert_array_equal(chunk.count[b], count)
            np.testing.assert_array_equal(chunk.edges_to[b], edges_to)
        if n == 7:
            assert np.any(np.diff(chunk.starts) == 0)


class TestCoupling:
    def test_already_at_target_is_identity(self):
        cfg = dg.ErdosRenyiConfig(4, 0.5, (2,))
        # the 4-cycle is 2-regular
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
        g = oracles.GraphSample(4, edges, np.full(4, 2))
        draw = oracles.couple_degree(g, cfg, 0, StreamConfig(0).stream(0))
        np.testing.assert_array_equal(draw.w, draw.wi)
        assert draw.modified.edges.shape == edges.shape

    def test_empty_graph_gets_one_edge(self):
        cfg = dg.ErdosRenyiConfig(5, 0.3, (1,))
        g = oracles.GraphSample(5, np.empty((0, 2), dtype=int),
                                np.zeros(5, dtype=int))
        draw = oracles.couple_degree(g, cfg, 0, StreamConfig(1).stream(0))
        assert draw.modified.edges.shape[0] == 1
        assert draw.modified.degrees[draw.vertex] == 1

    def test_complete_triangle_removal_uniform(self):
        """K_3 forced to degree 1: either incident edge goes, w.p. 1/2."""
        cfg = dg.ErdosRenyiConfig(3, 0.5, (1,))
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        g = oracles.GraphSample(3, edges, np.full(3, 2))
        rng = StreamConfig(2).stream(0)
        m = 20000
        kept = []
        for _ in range(m):
            draw = oracles.couple_degree(g, cfg, 0, rng)
            assert draw.modified.edges.shape[0] == 2
            assert draw.modified.degrees[draw.vertex] == 1
            kept.append(draw.modified.degrees.sum())
        # every outcome keeps two edges: conservation of the fixed structure
        assert set(kept) == {4}

    def test_per_draw_invariants(self):
        """Forced degree holds and count moves stay within their cap."""
        cfg = dg.ErdosRenyiConfig(18, 0.15, (1, 3))
        rng = StreamConfig(7).stream(0)
        for _ in range(150):
            g = oracles.sample_graph(cfg, rng)
            i = int(rng.integers(2))
            draw = oracles.couple_degree(g, cfg, i, rng)
            draw.modified.validate()
            assert draw.modified.degrees[draw.vertex] == cfg.degrees[i]
            cap = abs(int(g.degrees[draw.vertex]) - cfg.degrees[i]) + 1
            assert np.all(np.abs(draw.wi - draw.w) <= cap)

    @pytest.mark.parametrize("n,pi,degrees,i", [
        (16, 2.0 / 15, (1, 2), 0),   # deletions, insertions by rejection
        (10, 0.5, (2, 8), 1),        # insertions by enumeration
    ], ids=["sparse", "dense"])
    def test_kernel_and_scalar_oracle_same_law(self, n, pi, degrees, i):
        """The batch kernel's (W, W^i) agrees with the scalar reference."""
        cfg = dg.ErdosRenyiConfig(n, pi, degrees)
        m_kernel, m_oracle = 60_000, 6_000
        w_k, wi_k = oracles.draw_batch(dg.DegreeCountCoupler(cfg), i,
                                       m_kernel, StreamConfig(11).stream(0))
        rng = StreamConfig(12).stream(0)
        draws = [oracles.couple_degree(oracles.sample_graph(cfg, rng), cfg,
                                       i, rng) for _ in range(m_oracle)]
        w_o = np.array([d.w for d in draws])
        wi_o = np.array([d.wi for d in draws])
        for a, b in ((w_k, w_o), (wi_k, wi_o)):
            se = np.sqrt(a.var(axis=0) / m_kernel + b.var(axis=0) / m_oracle)
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se)

    @pytest.mark.parametrize("degrees,i", [
        ((1,), 0),    # deletions, and insertions by rejection
        ((3,), 0),    # d_i = n - 1: insertions by enumeration
        ((0, 2), 1),  # deletions, and enumerated insertions
    ])
    def test_kernel_law_matches_construction_oracle(self, degrees, i):
        """Empirical law of W^i at n = 4 against the exact enumeration."""
        cfg = dg.ErdosRenyiConfig(4, 0.5, degrees)
        law = oracles.degree_construction_law(4, 0.5, degrees, i)
        m = 100_000
        _, wi = oracles.draw_batch(dg.DegreeCountCoupler(cfg), i, m,
                                   StreamConfig(37).stream(0))
        values, counts = np.unique(wi, axis=0, return_counts=True)
        seen = {tuple(map(float, v)): int(c) for v, c in zip(values, counts)}
        assert set(seen) <= set(law)
        for value, prob in law.items():
            z = (seen.get(value, 0) - m * prob) / np.sqrt(m * prob * (1 - prob))
            assert abs(z) <= 4.5, (value, z)

    def test_batch_memory_linear(self):
        """A batch at n = 400 needs memory linear in its edges and vertices;
        a float32 pair-by-vertex table alone would take 127 MB."""
        cfg = dg.ErdosRenyiConfig.from_c(400, 2, (1, 2))
        tracemalloc.start()
        try:
            oracles.draw_batch(dg.DegreeCountCoupler(cfg), 0, 1024,
                               StreamConfig(41).stream(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSubBatches:
    """A chunk's graphs run in sub-batches of at most 4 vertex-plus-edge
    slots per value of the harness's ``SUB_BATCH_VALUES``."""

    def test_default_budget(self):
        """The benchmark sizes, n = 200 and n = 5000 at the CLI's 512-graph
        chunks, stay one sub-batch, so their bytes match the unsplit
        kernel; n = 10**6 runs 4 graphs at a time."""
        for n, chunk, parts in [(200, 512, [512]), (5000, 512, [512]),
                                (10**6, 512, [4] * 128),
                                (10**6, 10, [4, 4, 2])]:
            model = dg.DegreeCountCoupler(dg.ErdosRenyiConfig.from_c(
                n, 2.0, (1, 2)))
            assert harness.sub_batch_sizes(chunk, model.row_values) == parts

    CFG = dg.ErdosRenyiConfig.from_c(200, 2.0, (1, 2))
    SPLIT = 750  # 3000 slots: 7 graphs of 400 slots each

    def test_split_run_same_bytes_at_any_thread_count(self, monkeypatch):
        monkeypatch.setattr(harness, "SUB_BATCH_VALUES", self.SPLIT)
        row_values = dg.DegreeCountCoupler(self.CFG).row_values
        assert harness.sub_batch_sizes(512, row_values)[:2] == [7, 7]
        h = SmoothTestFunction("cosine", p=2, a=(0.5, 0.5))
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("STEIN_LAB_THREADS", threads)
            reports.append(run_experiment(
                dg.DegreeCountCoupler(self.CFG), h, samples=2000, seed=4,
                chunk_size=512).to_json())
        assert reports[0] == reports[1]

    def test_split_statistics_agree_with_unsplit(self, monkeypatch):
        model = dg.DegreeCountCoupler(self.CFG)
        whole, _ = dg.estimate_coupling_stats(model, 4000, seed=6,
                                              score=_first)
        monkeypatch.setattr(harness, "SUB_BATCH_VALUES", self.SPLIT)
        split, _ = dg.estimate_coupling_stats(model, 4000, seed=6,
                                              score=_first)
        assert not np.array_equal(split.var_cond, whole.var_cond)
        for a, b, se_a, se_b in [
                (split.var_cond, whole.var_cond,
                 split.var_cond_sem, whole.var_cond_sem),
                (split.abs_cross, whole.abs_cross,
                 split.abs_cross_sem, whole.abs_cross_sem)]:
            assert np.all(np.abs(a - b) <= 3 * np.hypot(se_a, se_b) + 1e-12)

    def test_chunk_memory_per_slot(self):
        """Building a 512-graph chunk at n = 5000, its conditional means and
        a coupling draw each peak under 4.5 traced bytes per
        edge-plus-vertex slot, and under 20 MiB. The chunk stores 3 (int16
        u, v and degrees); with int32 it stored 6 and peaked at 6.8."""
        cfg = dg.ErdosRenyiConfig.from_c(5000, 2, (1, 2))
        rng = StreamConfig(43).stream(0)
        peaks = {}
        tracemalloc.start()
        try:
            chunk = dg._GraphChunk(rng, 512, cfg)
            peaks["build"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            chunk.cond_exp()
            peaks["cond_exp"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            chunk.couple(rng, 0)
            peaks["couple"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slots = chunk.u.size + chunk.deg.size
        per_slot = {step: peak / slots for step, peak in peaks.items()}
        assert max(per_slot.values()) < 4.5, per_slot
        assert max(peaks.values()) < 20 * 2**20, peaks

    @pytest.mark.parametrize("n,c,size,bound", [(300, 200, 16, 5.5),
                                                (2000, 1000, 2, 13.5)])
    def test_dense_tabulation_memory_per_slot(self, n, c, size, bound):
        """On dense graphs, whose degree-pair histograms have (max degree)^2
        bins per graph, one tabulation peaks under ``bound`` traced bytes
        per edge-plus-vertex slot: measured 4.8 at n = 300, two graphs per
        group, and 12.0 at n = 2000, one graph per group. Counting each
        edge in both directions, with each group's edge keys kept until the
        next group's were made, it peaked at 6.4 and 16.1."""
        cfg = dg.ErdosRenyiConfig.from_c(n, c, (c, c + 1))
        chunk = dg._GraphChunk(StreamConfig(45).stream(0), size, cfg)
        tracemalloc.start()
        try:
            chunk._tabulate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (chunk.u.size + chunk.deg.size) < bound

    def test_chunk_keeps_no_int64_edges_or_graph_ids(self):
        """The per-edge and per-vertex arrays have the vertex type, int16 at
        n = 300, the only int64 array is ``starts`` with one entry per
        graph boundary, the degree tables hold a few floats per graph, and
        no array holds each edge's graph."""
        cfg = dg.ErdosRenyiConfig.from_c(300, 2, (1, 2))
        chunk = dg._GraphChunk(StreamConfig(44).stream(0), 64, cfg)
        arrays = {name: getattr(chunk, name)
                  for name in dg._GraphChunk.__slots__
                  if isinstance(getattr(chunk, name), np.ndarray)}
        assert set(arrays) == {"u", "v", "deg", "starts", "count",
                               "edges_to"}
        assert arrays.pop("starts").shape == (chunk.size + 1,)
        top = int(chunk.deg.max()) + 2
        assert arrays.pop("count").shape == (chunk.size, top)
        assert arrays.pop("edges_to").shape == (
            chunk.size, top, len(dg._pair_columns(cfg.degrees)))
        gid = _chunk_gid(chunk)
        for name, values in arrays.items():
            assert values.dtype == dg._vertex_dtype(cfg.n) == np.int16, name
            assert not np.array_equal(values, gid), name

    @pytest.mark.parametrize("n,size", [(200, 512), (40000, 3), (7, 30),
                                        (3000, 1)])
    def test_groups_cover_every_graph_once(self, n, size):
        """The groups are nonempty runs of whole graphs, in order, with
        their own edges, covering the chunk once: many graphs per group,
        one graph past the group size (repeated cuts), graphs with no
        edges, and a one-graph chunk."""
        cfg = dg.ErdosRenyiConfig.from_c(n, 0.1 if n == 7 else 2, (1, 2))
        chunk = dg._GraphChunk(StreamConfig(45).stream(n), size, cfg)
        groups = list(chunk._groups())
        assert all(rows.stop > rows.start for rows, _ in groups)
        rows = np.concatenate([np.arange(r.start, r.stop) for r, _ in groups])
        np.testing.assert_array_equal(rows, np.arange(size))
        for r, edges in groups:
            assert (edges.start, edges.stop) == (chunk.starts[r.start],
                                                 chunk.starts[r.stop])
        if n == 40000:
            assert len(groups) == size


class TestVertexDtype:
    """Endpoints and degrees are int16 up to n = 2**15 and int32 above."""

    @pytest.mark.parametrize("n,dtype", [(2**15, np.int16),
                                         (2**15 + 1, np.int32)])
    def test_two_graph_chunk_at_the_boundary(self, n, dtype):
        cfg = dg.ErdosRenyiConfig.from_c(n, 2, (1, 2))
        chunk = dg._GraphChunk(StreamConfig(46).stream(0), 2, cfg)
        assert chunk.u.dtype == chunk.v.dtype == chunk.deg.dtype == dtype
        assert chunk.u.size > 0
        assert np.all(chunk.u < chunk.v) and np.all(chunk.v < n)
        assert np.all(np.diff(chunk.starts) >= 0)
        for b, (lo, hi) in enumerate(zip(chunk.starts[:-1],
                                         chunk.starts[1:])):
            ends = np.concatenate([chunk.u[lo:hi], chunk.v[lo:hi]])
            np.testing.assert_array_equal(
                chunk.deg[b], np.bincount(ends.astype(np.intp), minlength=n))
        np.testing.assert_array_equal(
            chunk.degree_count_matrix(),
            np.stack([(chunk.deg == d).sum(axis=1) for d in (1, 2)], axis=1))

    @pytest.mark.parametrize("n,target,labels", [
        (2**15, 2**14 - 1, True), (2**15, 2**14, False),
        (2**15 + 1, 2**14, True), (2**15 + 1, 2**14 + 1, False)],
        ids=["int16-labels", "int16-enumeration", "int32-labels",
             "int32-enumeration"])
    def test_coupling_to_half_the_vertices(self, monkeypatch, n, target,
                                           labels):
        """Forcing a vertex of a sparse graph to degree about (n - 1) / 2
        draws the most new neighbours either path of
        :func:`~steinlab.degrees._non_neighbours` draws: the label path up
        to 2 d <= n - 1, the enumeration above. The vertex reaches the
        target, which no other vertex is near, and the change in the count
        of degree 1 lies within six standard deviations (at most 60 each)
        of its exact conditional mean."""
        calls = []
        labels_of = dg.distinct_labels
        monkeypatch.setattr(dg, "distinct_labels",
                            lambda *a, **k: calls.append(1)
                            or labels_of(*a, **k))
        cfg = dg.ErdosRenyiConfig.from_c(n, 2, (1, target))
        rng = StreamConfig(47).stream(0)
        chunk = dg._GraphChunk(rng, 2, cfg)
        d_w = chunk.couple(rng, 1)
        assert bool(calls) == labels
        cond = chunk.cond_exp()
        np.testing.assert_array_equal(d_w[:, 1], 1.0)
        np.testing.assert_allclose(cond[:, 1, 1], 1.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(d_w[:, 0] - cond[:, 1, 0]) <= 360)


class TestConditionalExpectation:
    def test_all_at_target_gives_zero(self):
        cfg = dg.ErdosRenyiConfig(4, 0.5, (2,))
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
        g = oracles.GraphSample(4, edges, np.full(4, 2))
        assert oracles.cond_exp_given_graph(g, cfg, 0, 0) == 0.0

    def test_empty_graph_worked_case(self):
        """Empty triangle, force degree 1, count degree 0: always -2."""
        cfg = dg.ErdosRenyiConfig(3, 0.5, (1, 0))
        g = oracles.GraphSample(3, np.empty((0, 2), dtype=int),
                                np.zeros(3, dtype=int))
        assert oracles.cond_exp_given_graph(g, cfg, 0, 1) == -2.0

    def test_empty_graph_zero_case(self):
        cfg = dg.ErdosRenyiConfig(3, 0.5, (0,))
        g = oracles.GraphSample(3, np.empty((0, 2), dtype=int),
                                np.zeros(3, dtype=int))
        assert oracles.cond_exp_given_graph(g, cfg, 0, 0) == 0.0

    def test_formula_equals_coupling_enumeration(self):
        """The closed-form conditional mean equals a brute-force average
        over every vertex choice and every edge-subset choice."""
        cfg = dg.ErdosRenyiConfig(5, 0.4, (1, 2))
        rng = StreamConfig(13).stream(0)
        for _ in range(12):
            g = oracles.sample_graph(cfg, rng)
            for i in range(2):
                exact = _enumerate_cond_exp(g, cfg, i)
                for j in range(2):
                    formula = oracles.cond_exp_given_graph(g, cfg, i, j)
                    np.testing.assert_allclose(formula, exact[j], atol=1e-12)

    def test_chunk_kernel_matches_reference(self):
        """Degree-histogram form against the scalar per-vertex sum,
        including degree 0, d = n - 1 and pi = 1/2."""
        for n, pi, degrees in [(14, 0.2, (1, 3)), (30, 2.0 / 29, (0, 1, 2)),
                               (12, 0.5, (0, 11)), (9, 0.5, (3, 5, 8))]:
            cfg = dg.ErdosRenyiConfig(n, pi, degrees)
            chunk = dg._GraphChunk(StreamConfig(17).stream(n), 40, cfg)
            cond = chunk.cond_exp()
            for b, g in enumerate(_chunk_graphs(chunk)):
                for i, j in itertools.product(range(len(degrees)), repeat=2):
                    ref = oracles.cond_exp_given_graph(g, cfg, i, j)
                    np.testing.assert_allclose(cond[b, i, j], ref, atol=1e-12)


def _enumerate_cond_exp(g: oracles.GraphSample, cfg, i):
    """Average count change over every (vertex, edge-subset) choice."""
    n = cfg.n
    d_i = cfg.degrees[i]
    total = np.zeros(len(cfg.degrees))
    edges = [tuple(e) for e in g.edges.tolist()]
    for v in range(n):
        dv = int(g.degrees[v])
        if dv == d_i:
            variants = [(1.0, edges)]
        elif dv > d_i:
            incident = [e for e in edges if v in e]
            others = [e for e in edges if v not in e]
            subs = list(itertools.combinations(incident, dv - d_i))
            variants = [(1.0 / len(subs),
                         others + [e for e in incident if e not in drop])
                        for drop in subs]
        else:
            nbrs = {u for e in edges if v in e for u in e if u != v}
            cands = [u for u in range(n) if u != v and u not in nbrs]
            subs = list(itertools.combinations(cands, d_i - dv))
            variants = [(1.0 / len(subs),
                         edges + [(min(v, u), max(v, u)) for u in add])
                        for add in subs]
        for weight, new_edges in variants:
            deg = [0] * n
            for a, b in new_edges:
                deg[a] += 1
                deg[b] += 1
            w_new = np.array([sum(1 for u in range(n) if deg[u] == d)
                              for d in cfg.degrees], dtype=float)
            w_old = np.array([(g.degrees == d).sum() for d in cfg.degrees],
                             dtype=float)
            total += weight * (w_new - w_old) / n
    return total


class TestConstructionLawOracle:
    """The exact law of W^i from the construction equals x_i dF / lambda_i."""

    @pytest.mark.parametrize("pi", [0.3, 0.6])
    @pytest.mark.parametrize("degrees,i", [((1, 0), 0), ((1, 0), 1),
                                           ((2, 1), 0)])
    def test_tiny_graph_constructions(self, pi, degrees, i):
        law = oracles.degree_construction_law(3, pi, degrees, i)
        target = oracles.degree_biased_w_law(3, pi, degrees, i)
        assert oracles.laws_close(law, target)

    def test_four_vertices_single_degree(self):
        law = oracles.degree_construction_law(4, 0.5, (1,), 0)
        target = oracles.degree_biased_w_law(4, 0.5, (1,), 0)
        assert oracles.laws_close(law, target)


class TestEstimatedStatistics:
    def test_deterministic_given_seed(self):
        cfg = dg.ErdosRenyiConfig.from_c(20, 2.0, (1, 2))
        model = dg.DegreeCountCoupler(cfg)
        a, a_scores = dg.estimate_coupling_stats(model, 2000, seed=5,
                                                 score=_first)
        b, b_scores = dg.estimate_coupling_stats(model, 2000, seed=5,
                                                 score=_first)
        np.testing.assert_array_equal(a.var_cond, b.var_cond)
        np.testing.assert_array_equal(a.abs_cross, b.abs_cross)
        np.testing.assert_array_equal(a_scores.sums, b_scores.sums)

    def test_cond_mean_matches_draw_mean(self):
        """Averaged exact conditional means agree with raw draw means."""
        cfg = dg.ErdosRenyiConfig.from_c(20, 2.0, (1, 2))
        coupler = dg.DegreeCountCoupler(cfg)
        m = 60_000
        rng = StreamConfig(19).stream(0)
        chunk = dg._GraphChunk(rng, 4000, cfg)
        cond = chunk.cond_exp().mean(axis=0)
        for i in range(2):
            w, wi = oracles.draw_batch(coupler, i, m,
                                       StreamConfig(23 + i).stream(0))
            diff = wi - w
            se = diff.std(axis=0) / np.sqrt(m) + 1e-12
            se_cond = 4000**-0.5 * chunk.cond_exp().std(axis=0)[i]
            assert np.all(np.abs(diff.mean(axis=0) - cond[i])
                          <= 4 * (se + se_cond))

    def test_bound_matches_exact_enumeration(self):
        """At n = 5 every input of the bound is a finite sum over the 2^10
        graphs and the coupling's outcomes. At c = 2, degrees 1, 2 and unit
        norms the exact bound is 23.055 (terms 6.916 and 16.139); the
        estimated bound and each of its terms lie within 4 standard errors
        of their exact values."""
        cfg = dg.ErdosRenyiConfig.from_c(5, 2.0, (1, 2))
        model = dg.DegreeCountCoupler(cfg)
        var_cond, abs_cross = oracles.degree_coupling_stats(cfg)
        exact = bound_multivariate_size_bias(
            CouplingStats(model.lam, model.sigma, var_cond, abs_cross),
            model.isqrt, 1.0, 1.0)
        stats, _ = dg.estimate_coupling_stats(model, 50_000, seed=0,
                                              score=_first)
        estimate = bound_multivariate_size_bias(stats, model.isqrt, 1.0, 1.0)
        assert abs(estimate.total - exact.total) <= 4 * estimate.stderr
        for term, exact_term in zip(estimate.terms, exact.terms):
            assert abs(term.value - exact_term.value) <= 4 * term.stderr

    def test_covariance_identity(self):
        cfg = dg.ErdosRenyiConfig.from_c(30, 2.0, (1, 2))
        coupler = dg.DegreeCountCoupler(cfg)
        z = oracles.covariance_identity_z(coupler, coupler.sigma, 40_000,
                                          np.random.default_rng(29))
        assert np.abs(z).max() <= 4.0

    def test_characterization_quick(self):
        cfg = dg.ErdosRenyiConfig.from_c(20, 2.0, (1, 2))
        res = verify_characterization(dg.DegreeCountCoupler(cfg),
                                      samples=100_000, seed=31)
        assert res.max_abs_z <= 4.0

    def test_characterization_draws_each_state_once(self, monkeypatch):
        """Validation couples both coordinates on the same states: beside
        the 4096-draw pilot it draws exactly ``samples`` graphs. One worker
        runs every chunk, so every draw is counted here."""
        monkeypatch.setenv("STEIN_LAB_THREADS", "1")
        coupler = dg.DegreeCountCoupler(
            dg.ErdosRenyiConfig.from_c(20, 2.0, (1, 2)))
        rows = []
        draw = coupler.draw
        coupler.draw = lambda rng, size: rows.append(size) or draw(rng, size)
        verify_characterization(coupler, samples=3000, seed=5, chunk_size=512)
        assert sum(rows) == 4096 + 3000


class TestExperiment:
    def test_constant_h_gives_zero_bound_and_gap(self):
        cfg = dg.ErdosRenyiConfig.from_c(12, 2.0, (1, 2))
        h = SmoothTestFunction("cosine", p=2, a=(0.0, 0.0))
        rep = run_experiment(dg.DegreeCountCoupler(cfg), h, samples=500,
                             seed=1, chunk_size=512)
        assert rep.bound.total == 0.0
        assert rep.gap <= 1e-12
        assert rep.passed

    def test_small_run_passes(self):
        cfg = dg.ErdosRenyiConfig.from_c(30, 2.0, (1, 2))
        h = SmoothTestFunction("cosine", p=2, a=(0.5, 0.5))
        rep = run_experiment(dg.DegreeCountCoupler(cfg), h, samples=4000,
                             seed=3, chunk_size=512)
        assert rep.passed
        assert rep.bound.total > 0
        payload = rep.to_jsonable()
        assert payload["pass"] and "bound" in payload

    def test_isqrt_norm_bound_flag(self):
        cfg = dg.ErdosRenyiConfig.from_c(30, 2.0, (1, 2))
        model = dg.DegreeCountCoupler(cfg)
        check = isqrt_norm_bound_check(model.isqrt, model.b_const, cfg.n)
        _, sigma, b_const = dg.theoretical_moments(cfg)
        assert check["holds"] and check["B"] == b_const
        assert max_abs_norm(inverse_sqrt(sigma)) <= check["cap"]
