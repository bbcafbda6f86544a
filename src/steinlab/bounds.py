"""Evaluators for the four normal-approximation bound theorems.

Two theorems consume size-bias coupling statistics (univariate and
multivariate) and two consume local-dependence statistics. All matrix norms
are max-absolute-entry, the convention the formulas are stated in. The
multivariate bounds take the whitening matrix ``S = Sigma^{-1/2}`` from their
caller, which is made once per model; ``run_experiment`` logs its spectral
norm beside the max norm for diagnostics.

Standard errors of estimated inputs are propagated to each term by a
first-order delta method and reported, but never added to the bound itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonfiniteNorm
from .linalg import max_abs_norm

SQRT_HALF_PI = float(np.sqrt(np.pi / 2.0))


# ---------------------------------------------------------------------------
# Statistics containers
# ---------------------------------------------------------------------------

@dataclass
class CouplingStats:
    """Inputs to both size-bias bounds, for a vector of dimension p.

    ``var_cond[i, j]`` estimates ``Var E[W^i_j - W_j | .]`` and
    ``abs_cross[i, j, k]`` estimates ``E |(W^i_j - W_j)(W^i_k - W_k)|``;
    the conditioning sigma-field is the model's choice and only enlarges
    the bound when finer than W. At p = 1 these are the univariate
    theorem's ``Var E[W* - W | .]`` and ``E (W* - W)^2``.
    """

    lam: np.ndarray
    sigma: np.ndarray
    var_cond: np.ndarray
    abs_cross: np.ndarray
    var_cond_sem: np.ndarray = None
    abs_cross_sem: np.ndarray = None
    sigma_field: str = "W"

    def __post_init__(self):
        if self.var_cond_sem is None:
            self.var_cond_sem = np.zeros((self.p, self.p))
        if self.abs_cross_sem is None:
            self.abs_cross_sem = np.zeros((self.p, self.p, self.p))

    @property
    def p(self) -> int:
        return len(self.lam)


@dataclass
class LocalDepStats:
    """Inputs to the local-dependence bounds.

    ``t1[i, j]`` is the root of the expected squared centered quadratic form
    over neighborhood pairs, ``t2`` the total absolute conditional mean given
    the outside of each neighborhood (zero under true local independence),
    and ``t3[i, j, k]`` the absolute triple-product moments.
    """

    p: int
    t1: np.ndarray
    t2: float
    t3: np.ndarray
    t1_sem: np.ndarray = None
    t3_sem: np.ndarray = None

    def __post_init__(self):
        if self.t1_sem is None:
            self.t1_sem = np.zeros((self.p, self.p))
        if self.t3_sem is None:
            self.t3_sem = np.zeros((self.p, self.p, self.p))


@dataclass
class BoundTerm:
    name: str
    value: float
    stderr: float = 0.0


@dataclass
class BoundReport:
    """A certified bound with its per-term breakdown."""

    theorem: str
    terms: list
    total: float
    stderr: float
    inputs: dict = field(default_factory=dict)
    seed: int | None = None

    def to_jsonable(self) -> dict:
        return {
            "theorem": self.theorem,
            "terms": [
                {"name": t.name, "value": t.value, "stderr": t.stderr}
                for t in self.terms
            ],
            "total": self.total,
            "stderr": self.stderr,
            "inputs": self.inputs,
            "seed": self.seed,
        }


def _require_finite(**norms):
    for name, value in norms.items():
        if not np.isfinite(value):
            raise NonfiniteNorm(f"{name} must be finite, got {value}")


def sqrt_with_sem(v, sem):
    """Delta-method propagation through sqrt; at v = 0 use sqrt(sem)."""
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    sem = np.asarray(sem, dtype=float)
    root = np.sqrt(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(root > 0, sem / np.where(root > 0, 2.0 * root, 1.0),
                       np.sqrt(sem))
    return root, out


def _finish(theorem, terms, inputs, seed=None):
    total = float(sum(t.value for t in terms))
    stderr = float(np.sqrt(sum(t.stderr**2 for t in terms)))
    return BoundReport(theorem, terms, total, stderr, inputs, seed)


# ---------------------------------------------------------------------------
# Theorem evaluators
# ---------------------------------------------------------------------------

def bound_univariate_size_bias(stats: CouplingStats,
                               h_norm: float, dh_norm: float) -> BoundReport:
    """Univariate size-bias bound, from the p = 1 entries of ``stats``:

    ``2 ||h|| (lam / sigma^2) sqrt(Var E[W* - W | .])
      + ||h'|| (lam / sigma^3) E (W* - W)^2``.
    """
    _require_finite(h_norm=h_norm, dh_norm=dh_norm)
    if stats.p != 1:
        raise ValueError(f"the univariate bound needs p = 1, "
                         f"got p = {stats.p}")
    lam = float(stats.lam[0])
    sigma_sq = float(stats.sigma[0, 0])
    var_cond = float(stats.var_cond[0, 0])
    mean_sq_diff = float(stats.abs_cross[0, 0, 0])
    if sigma_sq <= 0:
        raise ValueError("sigma^2 must be positive")
    sigma = np.sqrt(sigma_sq)
    root, root_sem = sqrt_with_sem(var_cond, stats.var_cond_sem[0, 0])
    c1 = 2.0 * h_norm * lam / sigma_sq
    c2 = dh_norm * lam / sigma**3
    terms = [
        BoundTerm("conditional-variance", float(c1 * root), float(c1 * root_sem)),
        BoundTerm("mean-square-difference", float(c2 * mean_sq_diff),
                  float(c2 * stats.abs_cross_sem[0, 0, 0])),
    ]
    inputs = {
        "lambda": lam, "sigma_sq": sigma_sq,
        "var_cond": var_cond, "mean_sq_diff": mean_sq_diff,
        "h_norm": h_norm, "dh_norm": dh_norm,
        "sigma_field": stats.sigma_field,
    }
    return _finish("univariate-size-bias", terms, inputs)


def floor_mean_sq_diff(stats: CouplingStats) -> CouplingStats:
    """``stats`` with its p = 1 ``E (W* - W)^2`` raised to the exact floor
    ``(E[W* - W])^2 = (sigma^2 / lam)^2``, with standard error 0 where the
    floor binds; ``stats`` itself when it does not.

    Any size-bias coupling has ``E W* = E W^2 / lam``, so the floor holds
    whenever ``lam`` and ``sigma`` are W's exact mean and variance. A
    heavy right tail of ``(W* - W)^2`` can leave a finite-sample estimate
    below it, and a bound built on that estimate falls short.
    """
    floor = (float(stats.sigma[0, 0]) / float(stats.lam[0])) ** 2
    if not stats.abs_cross[0, 0, 0] < floor:
        return stats
    return replace(stats, abs_cross=np.full((1, 1, 1), floor),
                   abs_cross_sem=np.zeros((1, 1, 1)))


def bound_multivariate_size_bias(stats: CouplingStats, isqrt: np.ndarray,
                                 d2h_norm: float, d3h_norm: float) -> BoundReport:
    """Multivariate size-bias bound:

    ``(p^2/2) ||S||^2 ||D2h|| sum_ij lam_i sqrt(var_cond[i,j])
      + (p^3/6) ||S||^3 ||D3h|| sum_ijk lam_i abs_cross[i,j,k]``,
    with ``S = isqrt`` the inverse square root of ``stats.sigma`` and
    ``||.||`` the max-absolute-entry norm.
    """
    _require_finite(d2h_norm=d2h_norm, d3h_norm=d3h_norm)
    p = stats.p
    snorm = max_abs_norm(isqrt)
    lam = np.asarray(stats.lam, dtype=float)
    root, root_sem = sqrt_with_sem(stats.var_cond, stats.var_cond_sem)
    c1 = 0.5 * p**2 * snorm**2 * d2h_norm
    t1 = c1 * float(lam @ root.sum(axis=1))
    t1_sem = c1 * float(np.sqrt(np.sum((lam[:, None] * root_sem) ** 2)))
    c2 = (p**3 / 6.0) * snorm**3 * d3h_norm
    t2 = c2 * float(np.sum(lam[:, None, None] * stats.abs_cross))
    t2_sem = c2 * float(
        np.sqrt(np.sum((lam[:, None, None] * stats.abs_cross_sem) ** 2))
    )
    terms = [
        BoundTerm("conditional-variance", t1, t1_sem),
        BoundTerm("absolute-cross-moment", t2, t2_sem),
    ]
    inputs = {
        "p": p, "d2h_norm": d2h_norm, "d3h_norm": d3h_norm,
        "sigma_field": stats.sigma_field,
    }
    return _finish("multivariate-size-bias", terms, inputs)


def bound_univariate_local(sigma_sq: float, t1: float, t2: float, t3: float,
                           h_norm: float, dh_norm: float,
                           sems=(0.0, 0.0, 0.0)) -> BoundReport:
    """Univariate local-dependence bound:

    ``(2 ||h|| / sigma^2) t1 + sqrt(pi/2) (||h|| / sigma) t2
      + (||h'|| / sigma^3) t3``

    where t1 is the root mean square of the centered pair sum, t2 the total
    absolute conditional mean outside the neighborhoods, and t3 the absolute
    triple moment sum.
    """
    _require_finite(h_norm=h_norm, dh_norm=dh_norm)
    if sigma_sq <= 0:
        raise ValueError("sigma^2 must be positive")
    sigma = np.sqrt(sigma_sq)
    c = (2.0 * h_norm / sigma_sq, SQRT_HALF_PI * h_norm / sigma,
         dh_norm / sigma**3)
    terms = [
        BoundTerm("pair-fluctuation", c[0] * t1, c[0] * sems[0]),
        BoundTerm("outside-neighborhood-mean", c[1] * t2, c[1] * sems[1]),
        BoundTerm("triple-moment", c[2] * t3, c[2] * sems[2]),
    ]
    inputs = {"sigma_sq": sigma_sq, "t1": t1, "t2": t2, "t3": t3,
              "h_norm": h_norm, "dh_norm": dh_norm}
    return _finish("univariate-local-dependence", terms, inputs)


def bound_multivariate_local(stats: LocalDepStats, isqrt: np.ndarray,
                             dh_norm: float, d2h_norm: float,
                             d3h_norm: float) -> BoundReport:
    """Multivariate local-dependence bound:

    ``(p^2/2) ||S||^2 ||D2h|| sum_ij t1[i,j] + p ||S|| ||Dh|| t2
      + (p^3/6) ||S||^3 ||D3h|| sum_ijk t3[i,j,k]``,
    with ``S = isqrt`` the inverse square root of the covariance Sigma.
    """
    _require_finite(dh_norm=dh_norm, d2h_norm=d2h_norm, d3h_norm=d3h_norm)
    p = stats.p
    snorm = max_abs_norm(isqrt)
    c1 = 0.5 * p**2 * snorm**2 * d2h_norm
    c2 = p * snorm * dh_norm
    c3 = (p**3 / 6.0) * snorm**3 * d3h_norm
    terms = [
        BoundTerm("pair-fluctuation", c1 * float(np.sum(stats.t1)),
                  c1 * float(np.sqrt(np.sum(stats.t1_sem**2)))),
        BoundTerm("outside-neighborhood-mean", c2 * stats.t2, 0.0),
        BoundTerm("triple-moment", c3 * float(np.sum(stats.t3)),
                  c3 * float(np.sqrt(np.sum(stats.t3_sem**2)))),
    ]
    inputs = {"p": p, "dh_norm": dh_norm, "d2h_norm": d2h_norm,
              "d3h_norm": d3h_norm}
    return _finish("multivariate-local-dependence", terms, inputs)


def isqrt_norm_bound_check(isqrt: np.ndarray, b_const: float,
                           count: int) -> dict:
    """Numerical check of the whitening-norm cap
    ``||Sigma^{-1/2}|| <= (B / count)^{1/2}`` (max-absolute-entry norm),
    given a model's ``Sigma^{-1/2}``, its constant B and the number of
    summands ``count`` (vertices for degree counts, edges for colourings).

    A violation is flagged, not raised: the inequality is verified rather
    than relied upon.
    """
    cap = float(np.sqrt(b_const / count))
    return {"B": b_const, "cap": cap,
            "holds": bool(max_abs_norm(isqrt) <= cap * (1.0 + 1e-12))}
