"""Deterministic seeded streams, mergeable accumulators, parallel driver."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinlab.harness import (Accumulator, StreamConfig, estimate_gap,
                              parallel_mc)
from steinlab.testfuncs import SmoothTestFunction, phi_h


def _toy_task(rng, size):
    return Accumulator().add(rng.random(size))


class TestStreams:
    def test_same_key_same_draws(self):
        cfg = StreamConfig(seed=123, chunk_size=100)
        a = cfg.stream(5).random(8)
        b = cfg.stream(5).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_chunks_differ(self):
        cfg = StreamConfig(seed=123, chunk_size=100)
        assert not np.array_equal(cfg.stream(0).random(8),
                                  cfg.stream(1).random(8))

    def test_offset_shifts_chunks(self):
        cfg = StreamConfig(seed=9, chunk_size=10)
        np.testing.assert_array_equal(cfg.offset(7).stream(0).random(4),
                                      cfg.stream(7).random(4))

    def test_chunk_sizes_cover_samples(self):
        cfg = StreamConfig(seed=0, chunk_size=1000)
        assert cfg.chunks(2500) == [1000, 1000, 500]
        assert cfg.chunks(0) == []


class TestAccumulator:
    def test_mean_variance_match_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        acc = Accumulator().add(x[:400]).add(x[400:])
        np.testing.assert_allclose(acc.mean, x.mean(), rtol=1e-12)
        np.testing.assert_allclose(acc.variance, x.var(ddof=1), rtol=1e-10)
        np.testing.assert_allclose(acc.sem, x.std(ddof=1) / np.sqrt(1000),
                                   rtol=1e-10)

    def test_array_shape(self):
        rng = np.random.default_rng(1)
        x = rng.random((50, 2, 3))
        acc = Accumulator(shape=(2, 3)).add(x)
        np.testing.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-12)

    def test_variance_sem_tracks_fourth_moment(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100_000)
        acc = Accumulator(max_power=4).add(x)
        # Var(s^2) for a normal is ~ 2 sigma^4 / n
        np.testing.assert_allclose(acc.variance_sem, np.sqrt(2.0 / 100_000),
                                   rtol=0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000))
    def test_merge_commutative_exact(self, seed):
        rng = np.random.default_rng(seed)
        a = Accumulator().add(rng.random(10))
        b = Accumulator().add(rng.random(15))
        ab, ba = a.merge(b), b.merge(a)
        assert ab.count == ba.count
        np.testing.assert_array_equal(ab.sums[0], ba.sums[0])
        np.testing.assert_array_equal(ab.sums[1], ba.sums[1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000))
    def test_merge_associative_to_rounding(self, seed):
        rng = np.random.default_rng(seed)
        accs = [Accumulator().add(rng.random(7)) for _ in range(3)]
        left = accs[0].merge(accs[1]).merge(accs[2])
        right = accs[0].merge(accs[1].merge(accs[2]))
        assert left.count == right.count
        np.testing.assert_allclose(left.sums[0], right.sums[0], rtol=1e-12)
        np.testing.assert_allclose(left.sums[1], right.sums[1], rtol=1e-12)


class TestParallelMC:
    def test_worker_count_never_changes_results(self, monkeypatch):
        cfg = StreamConfig(seed=77, chunk_size=128)
        monkeypatch.setenv("STEIN_LAB_THREADS", "1")
        one = parallel_mc(_toy_task, cfg, 1000)
        monkeypatch.setenv("STEIN_LAB_THREADS", "8")
        eight = parallel_mc(_toy_task, cfg, 1000)
        assert one.count == eight.count
        np.testing.assert_array_equal(one.sums[0], eight.sums[0])
        np.testing.assert_array_equal(one.sums[1], eight.sums[1])

    def test_split_runs_merge_to_whole(self):
        """Two 10-chunk halves merged equal one 20-chunk run (to rounding)."""
        cfg = StreamConfig(seed=5, chunk_size=50)
        whole = parallel_mc(_toy_task, cfg, 1000)
        first = parallel_mc(_toy_task, cfg, 500)
        second = parallel_mc(_toy_task, cfg.offset(10), 500)
        merged = first.merge(second)
        assert merged.count == whole.count
        np.testing.assert_allclose(merged.sums[0], whole.sums[0], rtol=1e-12)

    def test_empty_task_list(self):
        cfg = StreamConfig(seed=5, chunk_size=50)
        empty = Accumulator()
        out = parallel_mc(_toy_task, cfg, 0, empty=empty)
        assert out is empty and out.count == 0


class TestEstimateGap:
    def test_degenerate_w_at_mean(self):
        """W identically lambda: gap = |h(0) - E h(Z)| = 1 - e^{-1/2}."""
        h = SmoothTestFunction("cosine", p=1, a=(1.0,))
        lam = np.array([3.0])

        def sample_w(rng, size):
            return np.full((size, 1), 3.0)

        gap, sem = estimate_gap(sample_w, lam, np.eye(1), h.evaluate,
                                phi_h(h), 5000,
                                StreamConfig(seed=1, chunk_size=1000))
        np.testing.assert_allclose(gap, 1.0 - np.exp(-0.5), atol=1e-12)
        assert sem == 0.0

    def test_constant_h_zero_gap(self):
        h = SmoothTestFunction("cosine", p=1, a=(0.0,), b=0.0)

        def sample_w(rng, size):
            return rng.standard_normal((size, 1))

        gap, _ = estimate_gap(sample_w, np.zeros(1), np.eye(1), h.evaluate,
                              1.0, 4000, StreamConfig(seed=2, chunk_size=512))
        assert gap == 0.0

    def test_null_case_within_noise(self):
        """W exactly normal: the gap is pure Monte Carlo noise."""
        h = SmoothTestFunction("cosine", p=2, a=(1.0, 0.5))

        def sample_w(rng, size):
            return rng.standard_normal((size, 2))

        gap, sem = estimate_gap(sample_w, np.zeros(2), np.eye(2), h.evaluate,
                                phi_h(h), 200_000,
                                StreamConfig(seed=3))
        assert gap <= 4.0 * sem
