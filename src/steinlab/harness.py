"""Seeded, mergeable Monte Carlo estimation.

Every experiment draws randomness from counter-based Philox streams keyed by
``(master seed, chunk index)``, so a run is reproducible bit-for-bit no matter
how many workers execute the chunks. The chunks run on a fixed schedule:
with N workers, worker j runs chunks j, j + N, j + 2N, ..., and the calling
process is worker 0. On Linux :func:`parallel_mc` forks the other N - 1, N
being :func:`worker_count` or the number of chunks if that is smaller;
elsewhere N is 1 and every chunk runs in the calling process.
Chunk results are merged in chunk order (never completion order) to keep
floating-point summation canonical. Every sampling pass is one
:func:`state_pass`: an experiment's draws of W feed both the bound's
statistics and the gap's score, each in an :class:`Accumulator`.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

# Seeds are the first word of a 64-bit Philox key.
SEED_LIMIT = 1 << 64
# Auxiliary streams (pilot draws etc.) live far away from chunk indices.
AUX_STREAM_BASE = 1 << 62
# Fewest draws an experiment accepts; the pass rule needs usable stderrs.
MIN_SAMPLES = 100
# Stored values (rows x a model's row_values) in one sub-batch of a chunk:
# 16 MB for each float64 table of that size a state or its statistics keep.
SUB_BATCH_VALUES = 1 << 21

ENV_THREADS = "STEIN_LAB_THREADS"
# Worker processes are forked on Linux only; elsewhere a pass runs in-process.
FORKS = sys.platform.startswith("linux") and hasattr(os, "fork")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def worker_count() -> int:
    """Worker processes per pass; affects speed only, never results.

    ``STEIN_LAB_THREADS`` sets the count, capped at the CPUs this process
    may use but never below 2; unset or invalid, it is ``min(4, CPUs)``.
    """
    cpus = _usable_cpus()
    try:
        n = int(os.environ.get(ENV_THREADS, ""))
    except ValueError:
        n = 0
    if n < 1:
        return min(4, cpus)
    return min(n, max(2, cpus))


@dataclass(frozen=True)
class StreamConfig:
    """Master seed plus the chunking rule that derives per-chunk streams."""

    seed: int
    chunk_size: int = 16384

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed {self.seed} does not lie in [0, 2**64)")
        if self.chunk_size < 1:
            raise ValueError("chunk size must be positive")

    def stream(self, chunk_index: int) -> np.random.Generator:
        key = np.array([self.seed, chunk_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def aux_stream(self, tag: int) -> np.random.Generator:
        """Stream disjoint from all chunk streams, for pilot estimates."""
        return self.stream(AUX_STREAM_BASE + tag)

    def chunks(self, samples: int) -> list[int]:
        """Chunk sizes covering ``samples`` draws, all full except the last."""
        if samples <= 0:
            return []
        full, rest = divmod(samples, self.chunk_size)
        return [self.chunk_size] * full + ([rest] if rest else [])


class Accumulator:
    """Streaming power sums with an associative, commutative merge.

    Tracks ``count`` and ``sum(x**k)`` for ``k = 1..max_power`` over
    batches of statistics of a fixed shape.
    Merging adds the sums; commutativity is exact, associativity holds up to
    float rounding, which is why callers fold merges in canonical chunk order.
    """

    def __init__(self, shape=(), max_power: int = 2):
        self.shape = tuple(shape)
        self.max_power = int(max_power)
        self.count = 0
        self.sums = [np.zeros(self.shape) for _ in range(self.max_power)]

    def add(self, x) -> "Accumulator":
        x = np.asarray(x, dtype=float)
        if x.shape[1:] != self.shape:
            raise ValueError(f"batch shape {x.shape} does not extend {self.shape}")
        self.count += x.shape[0]
        acc = x
        for k in range(self.max_power):
            if k > 0:
                acc = acc * x
            self.sums[k] += acc.sum(axis=0)
        return self

    def merge(self, other: "Accumulator") -> "Accumulator":
        if (other.shape, other.max_power) != (self.shape, self.max_power):
            raise ValueError("cannot merge accumulators with different layouts")
        out = Accumulator(self.shape, self.max_power)
        out.count = self.count + other.count
        out.sums = [a + b for a, b in zip(self.sums, other.sums)]
        return out

    # Derived statistics -------------------------------------------------

    @property
    def mean(self):
        return self.sums[0] / self.count

    @property
    def variance(self):
        """Unbiased sample variance ``(sum(x^2) - sum(x)^2/n) / (n - 1)``."""
        n = self.count
        v = (self.sums[1] - self.sums[0] ** 2 / n) / (n - 1)
        return np.maximum(v, 0.0)

    @property
    def sem(self):
        return np.sqrt(self.variance / self.count)

    def central_moment(self, k: int):
        if k > self.max_power:
            raise ValueError(f"accumulator only tracks powers up to {self.max_power}")
        n = self.count
        m = self.mean
        out = np.zeros(self.shape)
        from math import comb

        for j in range(k + 1):
            term = comb(k, j) * (-m) ** (k - j)
            out = out + term * (self.sums[j - 1] / n if j > 0 else 1.0)
        return out

    @property
    def variance_sem(self):
        """Standard error of the sample variance, ``sqrt((m4 - s^4)/n)``.

        Requires ``max_power >= 4``.
        """
        m4 = self.central_moment(4)
        s2 = self.variance
        return np.sqrt(np.maximum(m4 - s2**2, 0.0) / self.count)


def require_samples(samples: int) -> None:
    """Reject a sample count below :data:`MIN_SAMPLES`."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")


def sub_batch_sizes(size: int, row_values: float) -> list[int]:
    """Rows per sub-batch of ``size`` rows of ``row_values`` values each:
    as many as :data:`SUB_BATCH_VALUES` holds (at least one), all full but
    the last, whatever the worker count."""
    per = max(1, int(SUB_BATCH_VALUES // row_values))
    full, rest = divmod(size, per)
    return [per] * full + ([rest] if rest else [])


def state_pass(model, per_state, cfg: StreamConfig, samples: int,
               powers) -> list:
    """Accumulators of ``per_state(state, rng)``'s batches, one per
    ``max_power`` in ``powers``, over ``samples`` draws of ``model``.

    A chunk's rows run in :func:`sub_batch_sizes` sub-batches; each is one
    state ``model.draw(rng, rows)``, released before the next is drawn.
    """
    def task(rng, size):
        accs = None
        for rows in sub_batch_sizes(size, model.row_values):
            state = model.draw(rng, rows)
            batches = per_state(state, rng)
            del state
            if accs is None:
                accs = [Accumulator(np.shape(b)[1:], power)
                        for b, power in zip(batches, powers)]
            for acc, batch in zip(accs, batches):
                acc.add(batch)
        return accs

    return parallel_mc(task, cfg, samples)


def merge_results(a, b):
    """Merge two chunk results: accumulators, or tuples/lists of them."""
    if isinstance(a, Accumulator):
        return a.merge(b)
    if isinstance(a, (tuple, list)):
        return type(a)(merge_results(x, y) for x, y in zip(a, b))
    raise TypeError(f"cannot merge chunk results of type {type(a)!r}")


def parallel_mc(task, cfg: StreamConfig, samples: int):
    """Run ``task(rng, size)`` over seeded chunks and fold results in order.

    ``task`` must be a pure function of its stream; chunk ``k`` always receives
    ``cfg.stream(k)``, so the merged result is identical for a fixed
    ``(seed, chunk_size, samples)`` regardless of worker count.
    With more than one worker, chunk results must pickle.
    """
    sizes = cfg.chunks(samples)
    if not sizes:
        raise ValueError(f"a Monte Carlo pass needs at least one sample, "
                         f"got {samples}")
    workers = min(worker_count(), len(sizes)) if FORKS else 1
    return reduce(merge_results, _scheduled(task, cfg, sizes, workers))


def _work(task, cfg, sizes, j, workers, first) -> dict:
    """Worker ``j``'s chunks ``j, j + workers, j + 2 * workers, ...`` as
    ``{index: result}``; ``first`` is chunk ``j``'s stream."""
    done = {j: task(first, sizes[j])}
    for k in range(j + workers, len(sizes), workers):
        done[k] = task(cfg.stream(k), sizes[k])
    return done


def _child(task, cfg, sizes, j, workers, out_fd) -> None:
    """Worker process body: run worker ``j``'s chunks, send
    ``{index: result}`` or the exception raised, pickled, and leave without
    unwinding the parent's stack."""
    try:
        try:
            outcome = _work(task, cfg, sizes, j, workers, cfg.stream(j))
        except BaseException as exc:
            outcome = exc
        try:
            payload = pickle.dumps(outcome)
        except Exception:
            payload = pickle.dumps(RuntimeError(
                f"worker process failed: {outcome!r}"))
        with os.fdopen(out_fd, "wb") as out:
            out.write(payload)
    finally:
        os._exit(0)


def _read_to_end(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


def _reap(pid: int, fd: int) -> int:
    os.close(fd)
    return os.waitpid(pid, 0)[1]


def _outcome(pid: int, status: int, payload: bytes) -> dict:
    if not payload:
        raise RuntimeError(f"worker process {pid} ended with status "
                           f"{os.waitstatus_to_exitcode(status)} and sent "
                           "no results")
    outcome = pickle.loads(payload)
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _scheduled(task, cfg: StreamConfig, sizes: list, workers: int) -> list:
    """Chunk results in chunk order, on a fixed schedule: worker ``j`` runs
    chunks ``j, j + workers, j + 2 * workers, ...``. This process is
    worker 0, and workers 1 to ``workers - 1`` are forked children, so one
    worker forks nothing.

    Every child is reaped before this returns or raises; when this process
    fails, the children are killed first. A failing child sends its
    exception, which is raised once this process's own chunks are done. The
    workers are forked, not spawned: a task is a closure over its model,
    which could not be sent to a spawned worker, and a forked one does not
    import numpy again.
    """
    # Making chunk 0's stream before any fork also loads numpy.random here,
    # once, rather than in every child.
    first = cfg.stream(0)
    children = []
    try:
        for j in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(task, cfg, sizes, j, workers, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        done = _work(task, cfg, sizes, 0, workers, first)
        payloads = [_read_to_end(fd) for _, fd in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [_reap(pid, fd) for pid, fd in children]
    for (pid, _), status, payload in zip(children, statuses, payloads):
        done.update(_outcome(pid, status, payload))
    return [done[k] for k in range(len(sizes))]
