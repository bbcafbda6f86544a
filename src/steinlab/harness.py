"""Seeded, mergeable Monte Carlo estimation.

Every experiment draws randomness from counter-based Philox streams keyed by
``(master seed, chunk index)``, so a run is reproducible bit-for-bit no matter
how many worker threads execute the chunks. Chunk results are merged in chunk
order (never completion order) to keep floating-point summation canonical.
An experiment makes one such pass: each chunk's draws of W feed both the
bound's statistics and the gap's score, each in an :class:`Accumulator`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

_MASK64 = (1 << 64) - 1
# Auxiliary streams (pilot draws etc.) live far away from chunk indices.
AUX_STREAM_BASE = 1 << 62
# Fewest draws an experiment accepts; the pass rule needs usable stderrs.
MIN_SAMPLES = 100

ENV_THREADS = "STEIN_LAB_THREADS"


def thread_count() -> int:
    """Worker cap from the environment; affects speed only, never results."""
    raw = os.environ.get(ENV_THREADS, "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        n = min(4, os.cpu_count() or 1)
    return n


@dataclass(frozen=True)
class StreamConfig:
    """Master seed plus the chunking rule that derives per-chunk streams."""

    seed: int
    chunk_size: int = 16384
    base: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.chunk_size < 1:
            raise ValueError("chunk size must be positive")

    def stream(self, chunk_index: int) -> np.random.Generator:
        key = np.array(
            [self.seed & _MASK64, (self.base + chunk_index) & _MASK64],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def offset(self, delta: int) -> "StreamConfig":
        """A config whose chunk streams are shifted by ``delta`` indices.

        Used to give independent stream ranges to independent estimation
        passes under one master seed.
        """
        return StreamConfig(self.seed, self.chunk_size, self.base + delta)

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


def merge_results(a, b):
    """Merge two chunk results: accumulators, or tuples/lists of them."""
    if isinstance(a, Accumulator):
        return a.merge(b)
    if isinstance(a, (tuple, list)):
        return type(a)(merge_results(x, y) for x, y in zip(a, b))
    raise TypeError(f"cannot merge chunk results of type {type(a)!r}")


def parallel_mc(task, cfg: StreamConfig, samples: int, empty=None):
    """Run ``task(rng, size)`` over seeded chunks and fold results in order.

    ``task`` must be a pure function of its stream; chunk ``k`` always receives
    ``cfg.stream(k)``, so the merged result is identical for a fixed
    ``(seed, chunk_size, samples)`` regardless of worker count or scheduling.
    """
    sizes = cfg.chunks(samples)
    if not sizes:
        return empty
    workers = min(thread_count(), len(sizes))
    if workers == 1:
        results = [task(cfg.stream(k), size) for k, size in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(task, cfg.stream(k), size)
                for k, size in enumerate(sizes)
            ]
            results = [f.result() for f in futures]
    return reduce(merge_results, results)
