"""Smooth test functions with certified derivative sup-norms.

Three built-in families are provided, all with finite sup norm so they are
usable by every bound evaluator:

* ``cosine``: ``h(w) = cos(a . w + b)``. All derivative sup-norms are
  available in closed form.
* ``gauss-radial``: ``h(w) = exp(-|w|^2 / (2 s^2))``.
* ``product-logistic``: ``h(w) = prod_i sigmoid(a_i w_i)``.

The latter two are separable products, so a mixed-partial sup factors into
per-axis one-dimensional sups, which are certified in closed form.

:meth:`SmoothTestFunction.smoothed_mean` is the one place that computes the
Gaussian smoothing ``E h(c + sigma Z)``, which gives both ``phi_h = E h(Z)``
and the Stein solution's integrand. For cosine and gauss-radial it is a
closed form; for product-logistic it is a product of one-dimensional
Gauss-Hermite sums. So every family works in any dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import exp, sqrt

import numpy as np

from .errors import BadSpec, DimensionMismatch
from .specs import read_spec

# Gauss-Hermite nodes per axis for standard-normal expectations.
GH_NODES = 40


@lru_cache(maxsize=16)
def _tensor_rule_cached(nodes: int, p: int):
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    grids = np.meshgrid(*([x] * p), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.ones(1)
    for _ in range(p):
        weights = np.outer(weights, w).reshape(-1)
    return points, weights


def gauss_hermite_tensor(nodes: int, p: int):
    """Probabilists' Gauss-Hermite product rule over ``R^p``:
    ``E f(Z) ~= sum_i w_i f(z_i)`` with points ``z`` of shape
    ``(nodes^p, p)``.

    Rules of up to 200k points are cached; larger ones are rebuilt per call.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes per axis")
    if nodes**p <= 200_000:
        return _tensor_rule_cached(nodes, p)
    return _tensor_rule_cached.__wrapped__(nodes, p)


# ---------------------------------------------------------------------------
# Built-in smooth test functions
# ---------------------------------------------------------------------------

KINDS = ("cosine", "gauss-radial", "product-logistic")


def _sigmoid(x):
    # overflow-free: exp(-|x|) <= 1 always; branchless for speed
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


@dataclass(frozen=True)
class DerivativeNorms:
    """Certified sup-norms ``(||h||, ||Dh||, ||D2h||, ||D3h||)``."""

    h: float
    d1: float
    d2: float
    d3: float

    def order(self, k: int) -> float:
        return (self.h, self.d1, self.d2, self.d3)[k]


@dataclass(frozen=True)
class SmoothTestFunction:
    """A test function ``h: R^p -> R`` from one of the built-in families."""

    kind: str
    p: int
    a: tuple = ()
    b: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.p < 1:
            raise DimensionMismatch(f"{self.kind} needs p >= 1, got p={self.p}")
        if self.kind in ("cosine", "product-logistic") and len(self.a) != self.p:
            raise DimensionMismatch(
                f"{self.kind} needs len(a) == p; got {len(self.a)} vs {self.p}"
            )
        if not np.all(np.isfinite([*self.a, self.b, self.scale])):
            raise ValueError(f"{self.kind} parameters must be finite")
        if self.kind == "gauss-radial" and self.scale <= 0:
            raise ValueError("gauss-radial scale must be positive")

    # Evaluation ---------------------------------------------------------

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.p:
            raise DimensionMismatch(
                f"points have dimension {points.shape[1]}, expected {self.p}"
            )
        if self.kind == "cosine":
            return np.cos(points @ np.asarray(self.a) + self.b)
        if self.kind == "gauss-radial":
            return np.exp(-np.sum(points**2, axis=1) / (2.0 * self.scale**2))
        sig = _sigmoid(points * np.asarray(self.a))
        return np.prod(sig, axis=1)

    __call__ = evaluate

    # Certified norms ------------------------------------------------------

    def _axis_sups(self):
        """Exact per-axis sups of the factor and its first three derivatives.

        gauss-radial, ``f(x) = exp(-x^2 / (2 s^2))`` with ``t = x / s``:
        ``f`` and ``|f''| = |t^2 - 1| f / s^2`` peak at t = 0, ``|f'| =
        |t| f / s`` at t = 1, and ``|f'''| = |3 t - t^3| f / s^3`` at
        ``t^2 = 3 - sqrt 6``, a root of ``t^4 - 6 t^2 + 3``.

        product-logistic, ``f(x) = g(a x)`` with g the sigmoid and
        ``u = g - 1/2``: ``g' = 1/4 - u^2`` peaks at u = 0, ``|g''| =
        2 |u| (1/4 - u^2)`` at ``u^2 = 1/12``, and ``|g'''| =
        |6 u^2 - 1/2| (1/4 - u^2)`` at u = 0; g itself approaches 1. A zero
        ``a`` leaves the constant 1/2.
        """
        if self.kind == "gauss-radial":
            s = self.scale
            r = 3.0 - sqrt(6.0)
            return [[1.0, exp(-0.5) / s, 1.0 / s**2,
                     sqrt(6.0 * r) * exp(-r / 2.0) / s**3]] * self.p
        return [[1.0, abs(a) / 4.0, sqrt(3.0) * a * a / 18.0,
                 abs(a) ** 3 / 8.0] if a != 0.0 else [0.5, 0.0, 0.0, 0.0]
                for a in self.a]

    def derivative_norms(self) -> DerivativeNorms:
        """Certified ``||h||`` and ``||D^k h||`` for ``k = 1, 2, 3``.

        For the cosine family these are exact: the mixed partial over axes
        ``i_1..i_k`` has sup ``|a_{i_1} ... a_{i_k}|`` (when ``a`` is nonzero
        the phase sweeps all of R), so ``||D^k h|| = (max_i |a_i|)^k``.
        """
        if self.kind == "cosine":
            a = np.asarray(self.a, dtype=float)
            amax = float(np.max(np.abs(a))) if a.size else 0.0
            h_sup = 1.0 if amax > 0 else abs(float(np.cos(self.b)))
            return DerivativeNorms(h_sup, amax, amax**2, amax**3)
        sups = self._axis_sups()
        norms = [0.0, 0.0, 0.0]
        for k in (1, 2, 3):
            best = 0.0
            for axes in itertools.combinations_with_replacement(range(self.p), k):
                mult = [0] * self.p
                for ax in axes:
                    mult[ax] += 1
                prod = 1.0
                for i in range(self.p):
                    prod *= sups[i][mult[i]]
                best = max(best, prod)
            norms[k - 1] = best
        h_sup = 1.0
        for i in range(self.p):
            h_sup *= sups[i][0]
        return DerivativeNorms(h_sup, *norms)

    # Gaussian smoothing ---------------------------------------------------

    def smoothed_mean(self, centers, sigma: float, nodes: int) -> np.ndarray:
        """``E h(c + sigma Z)`` for each row ``c`` of ``centers``.

        cosine and gauss-radial are closed forms. product-logistic factors
        into one ``nodes``-point Gauss-Hermite sum per axis: the tensor
        rule's value without its ``nodes^p`` points. Each axis sum is taken
        once per distinct coordinate value, since grids repeat them.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.shape[1] != self.p:
            raise DimensionMismatch(
                f"points have dimension {centers.shape[1]}, expected {self.p}"
            )
        a = np.asarray(self.a, dtype=float)
        if self.kind == "cosine":
            return (np.cos(centers @ a + self.b)
                    * np.exp(-0.5 * sigma**2 * float(a @ a)))
        if self.kind == "gauss-radial":
            var = self.scale**2 + sigma**2
            return ((self.scale**2 / var) ** (self.p / 2)
                    * np.exp(-np.sum(centers**2, axis=1) / (2.0 * var)))
        z, w = gauss_hermite_tensor(nodes, 1)
        x = z[:, 0]
        axis_means = np.empty_like(centers)
        for j in range(self.p):
            values, inverse = np.unique(centers[:, j], return_inverse=True)
            mean = np.zeros_like(values)
            for xk, wk in zip(x, w):
                mean += wk * _sigmoid(a[j] * (values + sigma * xk))
            axis_means[:, j] = mean[inverse]
        return np.prod(axis_means, axis=1)

    def spec_string(self) -> str:
        if self.kind == "cosine":
            return "cosine:a=%s:b=%r" % (",".join(repr(x) for x in self.a), self.b)
        if self.kind == "gauss-radial":
            return "gauss-radial:scale=%r:p=%d" % (self.scale, self.p)
        return "product-logistic:a=%s" % ",".join(repr(x) for x in self.a)


def phi_h(h: SmoothTestFunction, nodes: int = GH_NODES) -> float:
    """``E h(Z)`` with Z standard ``h.p``-variate normal."""
    return float(h.smoothed_mean(np.zeros((1, h.p)), 1.0, nodes)[0])


# ---------------------------------------------------------------------------
# CLI spec parsing: e.g. "cosine:a=1,0.5:b=0"
# ---------------------------------------------------------------------------

def float_list(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(","))


# Keys each test-function kind takes, with their types; ``a`` is a comma list.
_SPEC_FIELDS = {
    "cosine": {"a": float_list, "b": float},
    "gauss-radial": {"p": int, "scale": float},
    "product-logistic": {"a": float_list},
}
_SPEC_ALIASES = {"gaussradial": "gauss-radial", "logistic": "product-logistic"}


def parse_test_function(spec: str) -> SmoothTestFunction:
    """The test function named by ``kind:key=value:...``, for example
    ``cosine:a=1,0.5:b=0``. An unknown kind or key, or a value that is not
    a number, raises :class:`BadSpec` naming the spec and the key."""
    spec = spec.strip()
    kind = spec.partition(":")[0].strip().lower()
    kind = _SPEC_ALIASES.get(kind, kind)
    if kind not in _SPEC_FIELDS:
        raise BadSpec(f"unknown test function {spec!r}")
    fields = _SPEC_FIELDS[kind]
    kv = read_spec(spec, fields, ("a",) if "a" in fields else (), sep=":")
    p = len(kv["a"]) if "a" in kv else kv.pop("p", 1)
    return SmoothTestFunction(kind, p=p, **kv)
