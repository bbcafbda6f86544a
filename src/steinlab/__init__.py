"""Normal-approximation bounds from size-bias couplings.

A library and CLI that builds the size-bias couplings of three models
(degree counts in a random graph, sums of functions of Gaussian variables
and of multinomial cell counts) and the dependency neighborhoods of
monochromatic edge counts, Monte Carlo-estimates every term of the
coupling-based bound theorem each model uses, and certifies the resulting
bound against the empirical distance to normality. Three of the paper's
four theorems run through a model: the multivariate size-bias bound
(degree counts), the univariate one (the sums) and the multivariate
local-dependence bound (colorings). The univariate local-dependence bound,
:func:`bound_univariate_local`, is evaluated from given inputs only; no
model feeds it yet. The closed-form means and covariances the bounds rest
on are exact; the test suite checks them against enumeration of small
instances.
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
