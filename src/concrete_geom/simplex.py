"""Simplex point types, Aitchison operations and quadrature over the simplex.

The open probability simplex carries a vector space structure given by the
perturbation (componentwise product plus closure) and powering
(componentwise power plus closure) operators.  The additive log-ratio (ALR)
chart ``y_a = log(x_a / x_K)`` maps the open simplex onto Euclidean space
and is the coordinate system used for deterministic quadrature.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryPoint,
    DomainError,
    DimMismatch,
    NonFiniteIntegrand,
    NonPositiveEntry,
)

UNIT_SUM_TOL = 1e-12

_TINY = 1e-300

NODES_PER_PANEL = 24


def _softmax(v: np.ndarray) -> np.ndarray:
    v = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(v)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly interior point of the probability simplex S_K, K >= 2.

    Components within ``UNIT_SUM_TOL`` of unit sum are renormalized on
    construction; anything further off is rejected.
    """

    components: np.ndarray

    def __post_init__(self):
        c = np.array(self.components, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise DomainError("a simplex point needs at least 2 components")
        if np.any(~np.isfinite(c)) or np.any(c < 0.0):
            raise NonPositiveEntry("components must be positive and finite")
        if np.any(c < _TINY):
            raise BoundaryPoint("component numerically on the simplex boundary")
        s = float(np.sum(c))
        if abs(s - 1.0) > UNIT_SUM_TOL:
            raise DomainError(f"components sum to {s!r}, not 1")
        # Renormalize, then nudge components (largest first) until the float
        # sum is exactly 1; this is what makes closure idempotent.  Nudging a
        # single fixed component can oscillate between the two representable
        # sums bracketing 1, so fall through to the next component if needed.
        if s != 1.0:
            c = c / s
        for idx in np.argsort(c)[::-1]:
            converged = False
            for _ in range(4):
                s = float(np.sum(c))
                if s == 1.0:
                    converged = True
                    break
                c[idx] += 1.0 - s
            if converged:
                break
        c.setflags(write=False)
        object.__setattr__(self, "components", c)

    @property
    def dim(self) -> int:
        return self.components.size

    @classmethod
    def uniform(cls, k: int) -> "SimplexPoint":
        if k < 2:
            raise DomainError("k must be at least 2")
        return cls(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class PositiveWeights:
    """Unnormalized positive weight vector; the scale gauge is left free."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DomainError("a weight vector needs at least 2 components")
        if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
            raise NonPositiveEntry("weights must be strictly positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def log(self) -> np.ndarray:
        return np.log(self.weights)


@dataclass(frozen=True)
class LogRatioPoint:
    """ALR coordinates of a simplex point: y_a = log(x_a / x_K), a < K."""

    coords: np.ndarray

    def __post_init__(self):
        y = np.array(self.coords, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise DomainError("ALR coordinates need at least 1 component")
        if np.any(~np.isfinite(y)):
            raise DomainError("ALR coordinates must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "coords", y)

    @property
    def dim(self) -> int:
        return self.coords.size


def closure(v) -> SimplexPoint:
    """Normalize a positive vector onto the simplex, preserving ratios.

    The vector is rescaled by a power of two (an exact operation) before
    summing, so inputs near the underflow threshold survive.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DomainError("closure needs a vector of at least 2 entries")
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise NonPositiveEntry("closure requires strictly positive finite entries")
    scale = 2.0 ** -math.frexp(float(np.max(v)))[1]
    w = v * scale
    return SimplexPoint(w / np.sum(w))


def perturb(x: SimplexPoint, y: SimplexPoint) -> SimplexPoint:
    """Aitchison addition: closure of the componentwise product."""
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")
    return SimplexPoint(_softmax(np.log(x.components) + np.log(y.components)))


def power(a: float, x: SimplexPoint) -> SimplexPoint:
    """Aitchison scalar multiplication: closure of componentwise a-th powers."""
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("exponent must be finite")
    return SimplexPoint(_softmax(a * np.log(x.components)))


def alr_forward(x: SimplexPoint) -> LogRatioPoint:
    """Additive log-ratio chart y_a = log(x_a / x_K)."""
    c = x.components
    return LogRatioPoint(np.log(c[:-1]) - math.log(c[-1]))


def alr_inverse(y: LogRatioPoint) -> SimplexPoint:
    """Inverse ALR chart: softmax of (y, 0)."""
    v = np.append(y.coords, 0.0)
    return SimplexPoint(_softmax(v))


@dataclass(frozen=True)
class QuadratureConfig:
    """Budget for simplex integration.

    Deterministic mode uses a composite Gauss-Legendre rule per ALR axis:
    the box [-y_max, y_max] is split into panels of width ``panel_width``,
    each carrying ``NODES_PER_PANEL`` nodes.  K > 3 uses Monte Carlo with
    ``mc_samples`` uniform draws.
    """

    y_max: float = 40.0
    panel_width: float = 8.0
    mc_samples: int = 200_000
    mc_seed: int = 0


def _composite_gauss_legendre(cfg: QuadratureConfig):
    n_panels = max(1, int(math.ceil(2.0 * cfg.y_max / cfg.panel_width)))
    base_x, base_w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    edges = np.linspace(-cfg.y_max, cfg.y_max, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def integrate_simplex(f, k: int, config: QuadratureConfig | None = None,
                      vectorized: bool = False) -> float:
    """Integrate ``f`` over the (k-1)-dimensional simplex.

    k alone picks the rule: k = 2, 3 integrate deterministically in ALR
    coordinates with the change-of-variables factor prod_i x_i; higher k
    falls back to a Monte Carlo estimate against the uniform law.

    ``f`` receives a :class:`SimplexPoint`; with ``vectorized=True`` it
    instead receives an (n, k) array of interior points and must return n
    values.
    """
    if k < 2:
        raise DomainError("k must be at least 2")
    cfg = config or QuadratureConfig()
    if k > 3:
        return _integrate_mc(f, k, cfg, vectorized)

    nodes, weights = _composite_gauss_legendre(cfg)
    if k == 2:
        y = nodes[:, None]
        w = weights
    else:
        ya, yb = np.meshgrid(nodes, nodes, indexing="ij")
        y = np.column_stack([ya.ravel(), yb.ravel()])
        w = np.outer(weights, weights).ravel()
    z = np.concatenate([y, np.zeros((y.shape[0], 1))], axis=1)
    x = _softmax(z)
    jac = np.prod(x, axis=1)
    vals = _eval_integrand(f, x, vectorized)
    return float(np.sum(w * jac * vals))


def _eval_integrand(f, x: np.ndarray, vectorized: bool) -> np.ndarray:
    if vectorized:
        vals = np.asarray(f(x), dtype=float)
    else:
        vals = np.fromiter(
            (f(SimplexPoint(row)) for row in x), dtype=float, count=x.shape[0]
        )
    if np.any(~np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return vals


def _integrate_mc(f, k: int, cfg: QuadratureConfig, vectorized: bool) -> float:
    rng = np.random.Generator(np.random.PCG64(cfg.mc_seed))
    e = rng.standard_exponential((cfg.mc_samples, k))
    x = e / np.sum(e, axis=1, keepdims=True)
    x = np.clip(x, _TINY, None)
    x /= np.sum(x, axis=1, keepdims=True)
    vals = _eval_integrand(f, x, vectorized)
    volume = 1.0 / math.factorial(k - 1)
    return float(np.mean(vals) * volume)
