"""Smooth test functions with certified derivative sup-norms.

Three built-in families are provided, all with finite sup norm so they are
usable by every bound evaluator:

* ``cosine``: ``h(w) = cos(a . w + b)``. All derivative sup-norms are
  available in closed form.
* ``gauss-radial``: ``h(w) = exp(-|w|^2 / (2 s^2))``.
* ``product-probit``: ``h(w) = prod_i Phi(a_i w_i)``, with Phi the standard
  normal distribution function.

The latter two are separable products, so a mixed-partial sup factors into
per-axis one-dimensional sups, which are certified in closed form.

:meth:`SmoothTestFunction.smoothed_mean` is the one place that computes the
Gaussian smoothing ``E h(c + sigma Z)``, which gives both ``phi_h = E h(Z)``
and the Stein solution's integrand. It is a closed form for every family,
so every family works in any dimension. Phi is numpy only: Hart's rational
normal tail, which the nonlinear sums' indicator kernel shares.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from functools import lru_cache
from math import exp, inf, pi, prod, sqrt

import numpy as np

from .errors import BadSpec, DimensionMismatch
from .specs import list_of, read_spec


def tensor_grid(axis: np.ndarray, p: int) -> np.ndarray:
    """Every ``p``-tuple of ``axis`` values, one per row, in the order of
    ``np.meshgrid(..., indexing="ij")``, which stops at 32 axes."""
    n = len(axis)
    return axis[np.arange(n**p)[:, None] // n ** np.arange(p - 1, -1, -1) % n]


@lru_cache(maxsize=16)
def _tensor_rule_cached(nodes: int, p: int):
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return tensor_grid(x, p), tensor_grid(w / np.sqrt(2.0 * np.pi), p).prod(1)


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


# Hart's rational for the normal tail (Computer Approximations, 1968,
# algorithm 5666, as given in West, "Better approximations to cumulative
# normal functions", 2005): P(Z > x) = exp(-x^2 / 2) P(x) / Q(x) for x >= 0,
# coefficients from x^0 up.
_HART_P = (220.206867912376, 221.213596169931, 112.079291497871,
           33.912866078383, 6.37396220353165, 0.700383064443688,
           0.0352624965998911)
_HART_Q = (440.413735824752, 793.826512519948, 637.333633378831,
           296.564248779674, 86.7807322029461, 16.064177579207,
           1.75566716318264, 0.0883883476483184)


def _horner(coefs, x):
    """``sum coefs[k] x^k`` in a fresh array, updated in place."""
    out = x * coefs[-1]
    out += coefs[-2]
    for coef in coefs[-3::-1]:
        out *= x
        out += coef
    return out


def _upper_tail(x):
    """``P(Z > x)`` for a fresh 1-d array of x >= 0, which it overwrites:
    Hart's rational :data:`_HART_P` / :data:`_HART_Q` times
    ``exp(-x^2 / 2)``, one formula for every x. Its absolute error is below
    2e-16 on [0, 7.07] and below 1e-20 beyond; it is exactly 1/2 at x = 0,
    and from x = 38.5 on it underflows to 0."""
    tail = _horner(_HART_P, x)
    tail /= _horner(_HART_Q, x)
    x *= x
    x *= -0.5
    tail *= np.exp(x, out=x)
    return tail


def _normal_sf(t):
    """Standard-normal survival ``P(Z > t)`` in a fresh array, numpy only,
    with absolute error below 2e-16: :func:`_upper_tail` at ``|t|``, and
    ``1 -`` that tail, taken in place, where t < 0. ``Phi(x)`` is
    ``_normal_sf(-x)``."""
    t = np.asarray(t, dtype=float)
    tail = _upper_tail(np.abs(t.ravel())).reshape(t.shape)
    below = t < 0
    if below.any():
        np.subtract(1.0, tail, out=tail, where=below)
    return tail


# ---------------------------------------------------------------------------
# Built-in smooth test functions
# ---------------------------------------------------------------------------

KINDS = ("cosine", "gauss-radial", "product-probit")

# the standard normal density at 0 and at 1
_PDF_0 = 1.0 / sqrt(2.0 * pi)
_PDF_1 = _PDF_0 * exp(-0.5)


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
        if self.kind in ("cosine", "product-probit") and len(self.a) != self.p:
            raise DimensionMismatch(
                f"{self.kind} needs len(a) == p; got {len(self.a)} vs {self.p}"
            )
        if not np.all(np.isfinite([*self.a, self.b, self.scale])):
            raise ValueError(f"{self.kind} parameters must be finite")
        if self.kind == "gauss-radial" and self.scale <= 0:
            raise ValueError("gauss-radial scale must be positive")
        try:
            finite = np.all(np.isfinite(astuple(self.derivative_norms())))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(f"{self.kind} derivative sup-norms overflow a "
                             f"float")

    @property
    def length_scale(self) -> float:
        """``scale`` for gauss-radial, else ``1 / max |a_i|`` (inf at 0)."""
        if self.kind == "gauss-radial":
            return self.scale
        return 1.0 / max(map(abs, self.a)) if any(self.a) else inf

    # Evaluation ---------------------------------------------------------

    def _rows(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.p:
            raise DimensionMismatch(
                f"points have dimension {points.shape[1]}, expected {self.p}")
        return points

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = self._rows(points)
        if self.kind == "cosine":
            return np.cos(points @ np.asarray(self.a) + self.b)
        if self.kind == "gauss-radial":
            return np.exp(-np.sum(points**2, axis=1) / (2.0 * self.scale**2))
        return np.prod(_normal_sf(points * -np.asarray(self.a)), axis=1)

    __call__ = evaluate

    # Certified norms ------------------------------------------------------

    def _axis_sups(self):
        """Exact per-axis sups of the factor and its first three derivatives.

        gauss-radial, ``f(x) = exp(-x^2 / (2 s^2))`` with ``t = x / s``:
        ``f`` and ``|f''| = |t^2 - 1| f / s^2`` peak at t = 0, ``|f'| =
        |t| f / s`` at t = 1, and ``|f'''| = |3 t - t^3| f / s^3`` at
        ``t^2 = 3 - sqrt 6``, a root of ``t^4 - 6 t^2 + 3``.

        product-probit, ``f(x) = Phi(a x)`` with ``t = a x`` and phi the
        normal density: ``|f'| = |a| phi(t)`` peaks at t = 0, ``|f''| =
        a^2 |t| phi(t)`` at t = 1, and ``|f'''| = |a|^3 |t^2 - 1| phi(t)``
        at t = 0; f itself approaches 1. A zero ``a`` leaves the constant
        1/2.
        """
        if self.kind == "gauss-radial":
            s = self.scale
            r = 3.0 - sqrt(6.0)
            return [[1.0, exp(-0.5) / s, 1.0 / s**2,
                     sqrt(6.0 * r) * exp(-r / 2.0) / s**3]] * self.p
        return [[1.0, abs(a) * _PDF_0, a * a * _PDF_1, abs(a) ** 3 * _PDF_0]
                if a != 0.0 else [0.5, 0.0, 0.0, 0.0] for a in self.a]

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
        # a mixed partial takes axis i's sup of the order it occurs in axes
        sups = self._axis_sups()
        norms = [max(prod(sups[i][axes.count(i)] for i in range(self.p))
                     for axes in itertools.combinations_with_replacement(
                         range(self.p), k)) for k in (1, 2, 3)]
        return DerivativeNorms(prod(s[0] for s in sups), *norms)

    # Gaussian smoothing ---------------------------------------------------

    def smoothed_mean(self, centers, sigma: float) -> np.ndarray:
        """``E h(c + sigma Z)`` for each row ``c`` of ``centers``, in closed
        form. A product-probit factor smooths to another probit factor:
        ``E Phi(a (c + sigma Z)) = Phi(a c / sqrt(1 + a^2 sigma^2))``."""
        centers = self._rows(centers)
        a = np.asarray(self.a, dtype=float)
        if self.kind == "cosine":
            return (np.cos(centers @ a + self.b)
                    * np.exp(-0.5 * sigma**2 * float(a @ a)))
        if self.kind == "gauss-radial":
            var = self.scale**2 + sigma**2
            return ((self.scale**2 / var) ** (self.p / 2)
                    * np.exp(-np.sum(centers**2, axis=1) / (2.0 * var)))
        slope = a / np.sqrt(1.0 + (a * sigma) ** 2)
        return np.prod(_normal_sf(centers * -slope), axis=1)

    def spec_string(self) -> str:
        if self.kind == "cosine":
            return "cosine:a=%s:b=%r" % (",".join(repr(x) for x in self.a), self.b)
        if self.kind == "gauss-radial":
            return "gauss-radial:scale=%r:p=%d" % (self.scale, self.p)
        return "product-probit:a=%s" % ",".join(repr(x) for x in self.a)


def phi_h(h: SmoothTestFunction) -> float:
    """``E h(Z)`` with Z standard ``h.p``-variate normal."""
    return float(h.smoothed_mean(np.zeros((1, h.p)), 1.0)[0])


# ---------------------------------------------------------------------------
# CLI spec parsing: e.g. "cosine:a=1,0.5:b=0"
# ---------------------------------------------------------------------------

# Keys each test-function kind takes, with their types; ``a`` is a comma list.
_SPEC_FIELDS = {
    "cosine": {"a": list_of(float, ","), "b": float},
    "gauss-radial": {"p": int, "scale": float},
    "product-probit": {"a": list_of(float, ",")},
}
_SPEC_ALIASES = {"gaussradial": "gauss-radial", "probit": "product-probit"}


def parse_test_function(spec: str) -> SmoothTestFunction:
    """The test function named by ``kind:key=value:...``, for example
    ``cosine:a=1,0.5:b=0``. An unknown kind or key, or a value that is not
    a number, raises :class:`BadSpec` naming the spec and the key."""
    spec = spec.strip()
    kind = spec.partition(":")[0].strip().lower()
    if kind in ("logistic", "product-logistic"):  # gave way to probit
        raise BadSpec(f"test function {spec!r}: {kind} is no longer built "
                      f"in; use probit:a=..., h(w) = prod Phi(a_i w_i)")
    kind = _SPEC_ALIASES.get(kind, kind)
    if kind not in _SPEC_FIELDS:
        raise BadSpec(f"unknown test function {spec!r}")
    fields = _SPEC_FIELDS[kind]
    kv = read_spec(spec, fields, ("a",) if "a" in fields else (), sep=":")
    p = len(kv["a"]) if "a" in kv else kv.pop("p", 1)
    return SmoothTestFunction(kind, p=p, **kv)
