"""The registry behind ``validate-couplings``.

Each size-bias model (degree counts, Gaussian sums with three psi, and
multinomial sums with two) appears here, as the same class the experiments
run, at a small, fixed configuration, so the characterizing identity can
be re-checked end to end with one command. Entry ``k`` of the sorted
registry draws from ``seed + k``, so a subset selected with ``--which``
reproduces the full run's entries.
"""

from __future__ import annotations

from . import nonlinear
from .degrees import DegreeCountCoupler, ErdosRenyiConfig
from .sizebias import verify_characterization


def build_registry() -> dict:
    """Name -> zero-argument builder for every model coupler."""
    return {
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
            nonlinear.MultinomialSumConfig(6, 2, nonlinear.parse_psi("square"))
        ),
        "multinomial-exp": lambda: nonlinear.MultinomialSumCoupler(
            nonlinear.MultinomialSumConfig(6, 2, nonlinear.parse_psi("exp"))
        ),
    }


def validate_couplers(names=None, samples: int = 1_000_000, seed: int = 0,
                      threshold: float = 4.0, chunk_size: int = 16384) -> dict:
    """Run the characterization check over the registry, ``chunk_size``
    draws per seeded stream.

    Returns a JSON-ready summary keyed by coupler name.
    """
    registry = build_registry()
    order = sorted(registry)
    results = {}
    for name in order if names is None else names:
        if name not in registry:
            raise KeyError(f"unknown coupler {name!r}")
        sampler = registry[name]()
        res = verify_characterization(sampler, samples=samples,
                                      seed=seed + order.index(name),
                                      chunk_size=chunk_size)
        results[name] = {
            "labels": res.labels,
            "zscores": res.zscores,
            "max_abs_z": res.max_abs_z,
            "pass": res.passed(threshold),
            "samples": samples,
        }
    return results
