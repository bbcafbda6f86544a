"""Canonical coupler registry used by ``validate-couplings`` and the
acceptance suite.

Every shipped coupled-pair construction appears here with a small, fixed
configuration so the characterizing identity can be re-checked end to end
with one command.
"""

from __future__ import annotations

import numpy as np

from . import nonlinear
from .degrees import DegreeCountCoupler, ErdosRenyiConfig
from .sizebias import (CoupledPairSampler, DiscreteDistribution,
                       FunctionSumCoupler, IndependentSumCoupler,
                       IndicatorCollectionCoupler, independent_adjuster,
                       verify_characterization)


def exchangeable_pair_coupler(p_marginal: float, q_both: float,
                              split_coordinates: bool = False
                              ) -> IndicatorCollectionCoupler:
    """Two exchangeable indicators with ``P(X1 = X2 = 1) = q_both``.

    With ``split_coordinates`` each indicator is its own coordinate
    (a p = 2 sampler); otherwise their sum is a single coordinate.
    """
    p, q = p_marginal, q_both
    if not 0 < q <= p < 1 or 1 - 2 * p + q < 0:
        raise ValueError("inconsistent exchangeable-pair probabilities")
    probs = np.array([1 - 2 * p + q, p - q, p - q, q])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    patterns = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)

    def joint(rng, size):
        return patterns[np.searchsorted(cum, rng.random(size), side="right")]

    def given_one(beta, rng, size):
        out = np.zeros((size, 2))
        out[:, beta] = 1.0
        out[:, 1 - beta] = (rng.random(size) < q / p).astype(float)
        return out

    sets = [[0], [1]] if split_coordinates else [[0, 1]]
    return IndicatorCollectionCoupler(joint, given_one, sets, [p, p])


def discrete_function_sum_coupler(components: list[DiscreteDistribution]
                                  ) -> FunctionSumCoupler:
    """Identity-psi function sum over independent finite arguments."""
    def u_sampler(rng, size):
        return np.stack([c.sample(rng, size) for c in components], axis=1)

    psis = [lambda u: u] * len(components)
    tilted = [nonlinear.TiltedSampler(lambda u: u, c) for c in components]
    return FunctionSumCoupler(u_sampler, psis, tilted, independent_adjuster)


def build_registry() -> dict:
    """Name -> zero-argument builder for every shipped coupler."""
    return {
        "bernoulli-sum": lambda: IndependentSumCoupler(
            [DiscreteDistribution.bernoulli(0.3) for _ in range(10)]
        ),
        "mixed-discrete-sum": lambda: IndependentSumCoupler([
            DiscreteDistribution([1.0, 3.0], [0.5, 0.5]),
            DiscreteDistribution.binomial(3, 0.4),
            DiscreteDistribution.bernoulli(0.7),
        ]),
        "exchangeable-pair": lambda: exchangeable_pair_coupler(0.4, 0.25),
        "exchangeable-split": lambda: exchangeable_pair_coupler(
            0.4, 0.25, split_coordinates=True
        ),
        "function-sum-discrete": lambda: discrete_function_sum_coupler([
            DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.5, 0.3]),
            DiscreteDistribution([1.0, 4.0], [0.6, 0.4]),
        ]),
        "degree-count": lambda: DegreeCountCoupler(
            ErdosRenyiConfig.from_c(20, 2.0, (1, 2))
        ),
        "gauss-square": lambda: nonlinear.GaussianSumCoupler(
            nonlinear.GaussianSumConfig(8, nonlinear.parse_psi("square"), rho=0.2)
        ),
        "gauss-exp": lambda: nonlinear.GaussianSumCoupler(
            nonlinear.GaussianSumConfig(8, nonlinear.parse_psi("exp"), rho=0.15)
        ),
        "gauss-indicator": lambda: nonlinear.GaussianSumCoupler(
            nonlinear.GaussianSumConfig(8, nonlinear.parse_psi("indicator"),
                                        rho=0.2)
        ),
        "multinomial-square": lambda: nonlinear.MultinomialSumCoupler(
            nonlinear.MultinomialSumConfig(
                6, 2, nonlinear.parse_psi("square", normalize=False))
        ),
        "multinomial-exp": lambda: nonlinear.MultinomialSumCoupler(
            nonlinear.MultinomialSumConfig(
                6, 2, nonlinear.parse_psi("exp", normalize=False))
        ),
    }


def validate_couplers(names=None, samples: int = 1_000_000, seed: int = 0,
                      threshold: float = 4.0) -> dict:
    """Run the characterization check over the registry.

    Returns a JSON-ready summary keyed by coupler name.
    """
    registry = build_registry()
    if names is None:
        names = sorted(registry)
    results = {}
    for pos, name in enumerate(names):
        if name not in registry:
            raise KeyError(f"unknown coupler {name!r}")
        sampler = registry[name]()
        res = verify_characterization(sampler, samples=samples,
                                      seed=seed + pos)
        results[name] = {
            "labels": res.labels,
            "zscores": res.zscores,
            "max_abs_z": res.max_abs_z,
            "pass": res.passed(threshold),
            "samples": samples,
        }
    return results
