"""One experiment driver shared by the degree-count, coloring and
nonlinear-sum models."""

from __future__ import annotations

from .harness import (GAP_STREAM_STRIDE, StreamConfig, estimate_gap,
                      require_samples)
from .linalg import inverse_sqrt, max_abs_norm, spectral_max_abs
from .report import ExperimentReport
from .testfuncs import phi_h


def run_experiment(model, h, samples: int, seed: int = 0,
                   chunk_size: int = 4096) -> ExperimentReport:
    """Estimate the model's bound and its gap to normality, and judge it.

    ``model`` is a size-bias model (a
    :class:`~steinlab.sizebias.CoupledPairSampler`) or the coloring model,
    which has the same interface: ``name`` (the report's ``experiment``);
    ``p``, ``lam`` and ``sigma`` (dimension, mean vector, covariance);
    ``bound(norms, samples, seed, chunk_size)``, which estimates the model's
    statistics and returns ``(BoundReport, stats)``; ``sample_w(rng, size)``,
    a ``(size, p)`` batch of fresh draws of W; and ``config`` and
    ``extras(stats)``, its fields of the report. A size-bias model's
    ``bound`` runs the one statistics pass,
    :meth:`~steinlab.sizebias.CoupledPairSampler.coupling_stats`, and reads
    the univariate or the multivariate theorem from it.

    The gap is ``|mean h(Sigma^{-1/2}(W - lam)) - E h(Z)|`` over fresh
    draws on streams disjoint from the statistics pass. The run passes when
    gap <= bound + 3 * (standard error of that mean).
    """
    require_samples(samples)
    if h.p != model.p:
        raise ValueError(f"test function has p={h.p}, model has p={model.p}")
    isqrt = inverse_sqrt(model.sigma)
    norms = h.derivative_norms()
    phi = phi_h(h)
    bound, stats = model.bound(norms, samples, seed, chunk_size)
    bound.seed = seed
    gap_cfg = StreamConfig(seed, chunk_size).offset(GAP_STREAM_STRIDE)
    gap, gap_sem = estimate_gap(model.sample_w, model.lam, isqrt, h.evaluate,
                                phi, samples, gap_cfg)
    return ExperimentReport(
        experiment=model.name,
        config={**model.config, "h": h.spec_string()},
        lam=model.lam, sigma=model.sigma,
        sigma_isqrt_max_norm=max_abs_norm(isqrt),
        sigma_isqrt_spectral_norm=spectral_max_abs(isqrt),
        bound=bound, gap=gap, gap_stderr=gap_sem,
        passed=gap <= bound.total + 3.0 * gap_sem,
        seed=seed, samples=samples, chunk_size=chunk_size,
        extras={"phi_h": phi, **model.extras(stats)},
    )
