"""Normal-approximation bounds from size-bias couplings.

A library and CLI that builds the size-bias couplings of three models
(degree counts in a random graph, sums of functions of Gaussian variables
and of multinomial cell counts) and the dependency neighborhoods of
monochromatic edge counts, Monte Carlo-estimates every term of four
coupling-based bound theorems, certifies the resulting bound against the
empirical distance to normality, and validates the closed-form moment
formulas with exact enumeration oracles.
"""

from .bounds import (BoundReport, CouplingStats, LocalDepStats,
                     bound_multivariate_local,
                     bound_multivariate_size_bias, bound_univariate_local,
                     bound_univariate_size_bias)
from .harness import Accumulator, StreamConfig, parallel_mc
from .linalg import inverse_sqrt, max_abs_norm, whiten
from .report import ExperimentReport
from .sizebias import (CoupledPairSampler, DiscreteDistribution,
                       verify_characterization)
from .stein import SteinSolution
from .testfuncs import SmoothTestFunction, parse_test_function, phi_h

__version__ = "0.1.0"

__all__ = [
    "Accumulator", "BoundReport", "CoupledPairSampler", "CouplingStats",
    "DiscreteDistribution", "ExperimentReport", "LocalDepStats",
    "SmoothTestFunction", "SteinSolution", "StreamConfig",
    "bound_multivariate_local", "bound_multivariate_size_bias",
    "bound_univariate_local", "bound_univariate_size_bias", "inverse_sqrt",
    "max_abs_norm", "parallel_mc", "parse_test_function", "phi_h",
    "verify_characterization", "whiten",
]
