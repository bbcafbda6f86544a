"""Deterministic seeded streams, mergeable accumulators, parallel driver."""

import os
import select
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinlab import harness
from steinlab.harness import Accumulator, StreamConfig, parallel_mc


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
        """A pass over no chunks is refused, naming the sample count."""
        cfg = StreamConfig(seed=5, chunk_size=50)
        for samples in (0, -3):
            with pytest.raises(ValueError, match=f"got {samples}$"):
                parallel_mc(_toy_task, cfg, samples)


class TestWorkerCount:
    @pytest.mark.parametrize("raw,cpus,expected", [
        ("", 1, 1), ("", 2, 2), ("", 64, 4), ("junk", 64, 4), ("0", 3, 3),
        ("1", 64, 1), ("3", 64, 3), ("1000", 8, 8), ("1000", 1, 2),
        ("8", 1, 2),
    ])
    def test_capped_at_usable_cpus_but_not_below_two(self, monkeypatch, raw,
                                                     cpus, expected):
        monkeypatch.setenv("STEIN_LAB_THREADS", raw)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1000)
        assert harness.worker_count() == expected

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("STEIN_LAB_THREADS", "1000")
        assert harness.worker_count() == 3
        monkeypatch.delenv("STEIN_LAB_THREADS")
        assert harness.worker_count() == 3


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not harness.FORKS, reason="chunks run in-process here")
class TestWorkerProcesses:
    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        monkeypatch.setenv("STEIN_LAB_THREADS", "2")

    def test_error_in_a_child_chunk_reraised(self):
        caller = os.getpid()
        taken, release = os.pipe()

        def task(rng, size):
            if os.getpid() != caller:
                os.write(release, b"x")
                raise ValueError("chunk failed in a child")
            # Hold chunk 0 until the child has taken chunk 1.
            select.select([taken], [], [], 10.0)
            return _toy_task(rng, size)

        try:
            with pytest.raises(ValueError) as info:
                parallel_mc(task, StreamConfig(0, 10), 20)
        finally:
            os.close(taken)
            os.close(release)
        assert info.type is ValueError
        assert str(info.value) == "chunk failed in a child"
        _assert_no_child_left()

    def test_error_in_the_callers_chunk_reraised(self):
        caller = os.getpid()

        def task(rng, size):
            if os.getpid() == caller:
                raise ValueError("chunk failed in the caller")
            return _toy_task(rng, size)

        with pytest.raises(ValueError) as info:
            parallel_mc(task, StreamConfig(0, 10), 40)
        assert info.type is ValueError
        assert str(info.value) == "chunk failed in the caller"
        _assert_no_child_left()

    def test_more_chunks_than_a_pipe_holds(self, monkeypatch):
        """20,000 one-draw chunks: the child's pickled results are far
        larger than a 64 KiB pipe buffer."""
        cfg = StreamConfig(0, 1)
        two = parallel_mc(_toy_task, cfg, 20_000)
        monkeypatch.setenv("STEIN_LAB_THREADS", "1")
        one = parallel_mc(_toy_task, cfg, 20_000)
        assert two.count == one.count == 20_000
        np.testing.assert_array_equal(two.sums, one.sums)
        _assert_no_child_left()

    def test_child_killed_mid_chunk(self):
        caller = os.getpid()

        def task(rng, size):
            if os.getpid() != caller:
                rng.random(size)
                os.kill(os.getpid(), signal.SIGKILL)
            return _toy_task(rng, size)

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="sent no results"):
            parallel_mc(task, StreamConfig(0, 10), 40)
        assert time.monotonic() - started < 5.0
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fixed_round_robin_schedule(self, monkeypatch, workers):
        """Each chunk runs once, chunk k in worker k % workers, and worker 0
        is the calling process."""
        monkeypatch.setattr(harness, "worker_count", lambda: workers)
        chunks = 11

        def task(rng, size):
            k = int(rng.bit_generator.state["state"]["key"][1])
            ran = np.zeros((1, 2, chunks))
            ran[0, :, k] = 1, os.getpid()
            return Accumulator(shape=(2, chunks)).add(ran)

        out = parallel_mc(task, StreamConfig(0, 10), 10 * chunks)
        runs, pids = out.sums[0]
        np.testing.assert_array_equal(runs, 1)
        caller = os.getpid()
        assert ([pid == caller for pid in pids]
                == [k % workers == 0 for k in range(chunks)])
        assert all(pids[k] == pids[k % workers] for k in range(chunks))
        assert len(set(pids[:workers])) == workers
        _assert_no_child_left()
