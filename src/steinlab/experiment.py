"""One experiment driver shared by the degree-count, coloring and
nonlinear-sum models."""

from __future__ import annotations

from .harness import require_samples
from .linalg import max_abs_norm, spectral_max_abs, whiten
from .report import ExperimentReport
from .testfuncs import phi_h


def run_experiment(model, h, samples: int, seed: int = 0,
                   chunk_size: int = 4096) -> ExperimentReport:
    """Estimate the model's bound and its gap to normality, and judge it.

    ``model`` is a size-bias model (a
    :class:`~steinlab.sizebias.CoupledPairSampler`) or the coloring model,
    which has the same interface: ``name`` (the report's ``experiment``);
    ``p``, ``lam``, ``sigma`` and ``isqrt`` (dimension, mean vector,
    covariance, and ``Sigma^{-1/2}``, made once by the model);
    ``draw(rng, rows)``, ``w(state)`` and ``row_values``, with which a
    :func:`~steinlab.harness.state_pass` draws its states; ``bound(norms,
    samples, seed, chunk_size, score)``, which runs the model's one such
    pass and returns ``(BoundReport, stats, scores)``, with ``scores`` the
    :class:`~steinlab.harness.Accumulator` of ``score(w)`` over every state;
    and ``config`` and ``extras(stats)``, its fields of the report. A
    size-bias model's pass is
    :meth:`~steinlab.sizebias.CoupledPairSampler.coupling_stats`, and it
    reads the univariate or the multivariate theorem from it.

    The gap is ``|mean h(Sigma^{-1/2}(W - lam)) - E h(Z)|`` over the same
    draws of W as the bound, both being expectations under W's law. The run
    passes when gap <= bound + 3 * (standard error of that mean).
    """
    require_samples(samples)
    if h.p != model.p:
        raise ValueError(f"test function has p={h.p}, model has p={model.p}")
    norms = h.derivative_norms()
    phi = phi_h(h)

    def score(w):
        return h.evaluate(whiten(w, model.lam, model.isqrt))

    bound, stats, scores = model.bound(norms, samples, seed, chunk_size, score)
    bound.seed = seed
    gap, gap_sem = abs(float(scores.mean) - phi), float(scores.sem)
    return ExperimentReport(
        experiment=model.name,
        config={**model.config, "h": h.spec_string()},
        lam=model.lam, sigma=model.sigma,
        sigma_isqrt_max_norm=max_abs_norm(model.isqrt),
        sigma_isqrt_spectral_norm=spectral_max_abs(model.isqrt),
        bound=bound, gap=gap, gap_stderr=gap_sem,
        passed=gap <= bound.total + 3.0 * gap_sem,
        seed=seed, samples=samples, chunk_size=chunk_size,
        extras={"phi_h": phi, **model.extras(stats)},
    )
