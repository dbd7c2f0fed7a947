"""Concrete and inverse Schlomilch distributions on the simplex.

Densities are always evaluated in log space; the weighted power sum
``k(x) = sum_j beta_j / x_j^tau`` enters only through its logarithm,
computed with log-sum-exp.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    DomainError,
    NonPositiveTemperature,
)
from .simplex import PositiveWeights, SimplexPoint, _softmax
from .special import log_gamma


def _as_weights(w) -> PositiveWeights:
    return w if isinstance(w, PositiveWeights) else PositiveWeights(np.asarray(w, float))


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {tau!r}")
    return tau


def _check_scale(x: float, what: str) -> float:
    """``x`` unchanged, if closed forms may divide by x**2 without overflow.

    Outside [1e-150, 1e150], x**2 or 1 / x**2 leaves the float range, so a
    moment or Fisher entry would come out as inf, 0 or NaN.
    """
    if not 1e-150 <= x <= 1e150:
        raise DomainError(f"{what} {x!r} is outside [1e-150, 1e150]")
    return x


class RngState:
    """Deterministic pseudo-random stream, reproducible from its seed.

    A single state must not be shared between threads; derive independent
    streams with :meth:`child`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RngState":
        derived = np.random.SeedSequence([self.seed, int(index)])
        return RngState(int(derived.generate_state(1, dtype=np.uint64)[0]))

    def __repr__(self):
        return f"RngState(seed={self.seed})"


@dataclass(frozen=True)
class ConcreteParams:
    """Parameters (beta, tau) of the Concrete distribution.

    ``beta`` is stored unnormalized; the density is invariant under
    rescaling it.
    """

    beta: PositiveWeights
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_weights(self.beta))
        object.__setattr__(self, "tau", _check_tau(self.tau))

    @property
    def dim(self) -> int:
        return self.beta.dim

    def normalized_beta(self) -> np.ndarray:
        """beta in the canonical gauge sum(beta) = 1."""
        w = self.beta.weights
        return w / np.sum(w)

    def canonical(self) -> "ConcreteParams":
        """The same distribution with beta in the canonical gauge."""
        return ConcreteParams(beta=self.normalized_beta(), tau=self.tau)

    def to_inverse_schlomilch(self) -> "InverseSchlomilchParams":
        return InverseSchlomilchParams(
            alpha=PositiveWeights(np.ones(self.dim)), beta=self.beta, tau=self.tau
        )


@dataclass(frozen=True)
class InverseSchlomilchParams:
    """Parameters (alpha, beta, tau) of the inverse Schlomilch distribution.

    At alpha = (1, ..., 1) the family reduces to the Concrete distribution.
    """

    alpha: PositiveWeights
    beta: PositiveWeights
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_weights(self.alpha))
        object.__setattr__(self, "beta", _as_weights(self.beta))
        object.__setattr__(self, "tau", _check_tau(self.tau))
        if self.alpha.dim != self.beta.dim:
            raise DimMismatch("alpha and beta must have the same dimension")

    @property
    def dim(self) -> int:
        return self.beta.dim

    @property
    def alpha_plus(self) -> float:
        return float(np.sum(self.alpha.weights))


def _point_array(x, k: int) -> np.ndarray:
    """One validated interior point as a (1, k) array."""
    if not isinstance(x, SimplexPoint):
        x = SimplexPoint(x)
    if x.dim != k:
        raise DimMismatch(f"point dimension {x.dim} != parameter dimension {k}")
    return x.components[None, :]


def _log_k(log_beta: np.ndarray, tau: float, log_x: np.ndarray) -> np.ndarray:
    """log k(x) = LSE_j(log beta_j - tau log x_j), rowwise."""
    t = log_beta[None, :] - tau * log_x
    m = np.max(t, axis=1)
    return m + np.log(np.sum(np.exp(t - m[:, None]), axis=1))


def _concrete_log_density_arr(p: ConcreteParams, x: np.ndarray) -> np.ndarray:
    k = p.dim
    log_beta = p.beta.log
    log_x = np.log(x)
    log_kx = _log_k(log_beta, p.tau, log_x)
    return (
        math.lgamma(k)
        + (k - 1) * math.log(p.tau)
        + np.sum(log_beta)
        - (p.tau + 1.0) * np.sum(log_x, axis=1)
        - k * log_kx
    )


def concrete_log_density(p: ConcreteParams, x) -> float:
    """Log density of the Concrete distribution at an interior point."""
    arr = _point_array(x, p.dim)
    return float(_concrete_log_density_arr(p, arr)[0])


def _is_log_density_arr(p: InverseSchlomilchParams, x: np.ndarray) -> np.ndarray:
    k = p.dim
    alpha = p.alpha.weights
    log_beta = p.beta.log
    log_x = np.log(x)
    log_kx = _log_k(log_beta, p.tau, log_x)
    const = (
        (k - 1) * math.log(p.tau)
        + log_gamma(p.alpha_plus)
        + float(np.dot(alpha, log_beta))
        - sum(log_gamma(a) for a in alpha)
    )
    return const - p.alpha_plus * log_kx - np.sum((p.tau * alpha + 1.0) * log_x, axis=1)


def is_log_density(p: InverseSchlomilchParams, x) -> float:
    """Log density of the inverse Schlomilch distribution at an interior point."""
    arr = _point_array(x, p.dim)
    return float(_is_log_density_arr(p, arr)[0])


def log_norm_const(p: InverseSchlomilchParams) -> float:
    """log J(alpha): the normalization constant of the unnormalized kernel."""
    alpha = p.alpha.weights
    log_beta = p.beta.log
    return (
        -(p.dim - 1) * math.log(p.tau)
        - log_gamma(p.alpha_plus)
        + sum(log_gamma(a) for a in alpha)
        - float(np.dot(alpha, log_beta))
    )


def sample_standard_gumbel(rng: RngState, size=None):
    """Draw from Gumbel(0, 1) via -log(-log U), U clamped inside (0, 1)."""
    u = rng.generator.random(size)
    lo = np.nextafter(0.0, 1.0)
    hi = np.nextafter(1.0, 0.0)
    u = np.clip(u, lo, hi)
    g = -np.log(-np.log(u))
    return float(g) if size is None else g


def softmax_relaxation(gumbels: np.ndarray, p: ConcreteParams) -> np.ndarray:
    """Map Gumbel noise to Concrete samples: softmax((W + log beta) / tau)."""
    z = (np.atleast_2d(gumbels) + p.beta.log[None, :]) / p.tau
    return _softmax(z)


def sample_concrete(p: ConcreteParams, rng: RngState, n: int) -> np.ndarray:
    """Draw n samples, returned as an (n, K) array of simplex rows."""
    n = int(n)
    if n < 1:
        raise DomainError("n must be at least 1")
    w = sample_standard_gumbel(rng, size=(n, p.dim))
    return softmax_relaxation(w, p)


TO_UNIFORM = "to_uniform"
FROM_UNIFORM = "from_uniform"


def uniform_transform(p: ConcreteParams, x, direction: str) -> SimplexPoint:
    """Simplex transformation linking the Concrete and uniform distributions.

    ``to_uniform`` sends X ~ C(beta, tau) to the uniform law via
    Y_i proportional to beta_i / X_i^tau; ``from_uniform`` inverts it.
    """
    arr = _point_array(x, p.dim)[0]
    log_x = np.log(arr)
    if direction == TO_UNIFORM:
        return SimplexPoint(_softmax(p.beta.log - p.tau * log_x))
    if direction == FROM_UNIFORM:
        return SimplexPoint(_softmax((p.beta.log - log_x) / p.tau))
    raise DomainError(f"unknown direction {direction!r}")


def _to_uniform_arr(p: ConcreteParams, x: np.ndarray) -> np.ndarray:
    return _softmax(p.beta.log[None, :] - p.tau * np.log(x))


def escort_transform(p: ConcreteParams, x, sign: int) -> SimplexPoint:
    """Escort map: closure of beta_i * x_i^(sign * tau), sign in {+1, -1}."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    arr = _point_array(x, p.dim)[0]
    return SimplexPoint(_softmax(p.beta.log + sign * p.tau * np.log(arr)))


def rounding_probabilities(beta) -> np.ndarray:
    """Vertex probabilities p_i = beta_i / sum(beta) of the argmax rounding."""
    w = _as_weights(beta).weights
    return w / np.sum(w)


def round_to_vertex(x) -> int:
    """Index of the largest component; ties resolve to the lowest index."""
    arr = x.components if isinstance(x, SimplexPoint) else np.asarray(x, float)
    return int(np.argmax(arr))


def sufficient_statistic(p: ConcreteParams, x) -> np.ndarray:
    """Exponential-family sufficient statistic T_i = -tau log x_i - log k(x)."""
    arr = _point_array(x, p.dim)
    log_x = np.log(arr)
    log_kx = _log_k(p.beta.log, p.tau, log_x)
    return (-p.tau * log_x - log_kx[:, None])[0]
