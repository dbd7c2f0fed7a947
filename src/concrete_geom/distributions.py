"""Concrete and inverse Schlomilch distributions on the simplex.

The inverse Schlomilch density is stated once, with its normalizer log J(alpha)
from :func:`log_norm_const`; the Concrete density is that density at
alpha = (1, ..., 1).  Densities are always evaluated in log space; the
weighted power sum ``k(x) = sum_j beta_j / x_j^tau`` enters only through its
logarithm, computed with log-sum-exp.  Likewise one sampler draws the whole
family, in log space; the Concrete sampler is its alpha = 1 case.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimMismatch,
    DomainError,
    NonPositiveTemperature,
)
from .simplex import (
    ROW_BLOCK, PositiveWeights, SimplexPoint, _log_sum_exp, _row_argmax, _softmax, _unit_sum,
)
from .special import digamma, log_gamma, trigamma


def _as_weights(w) -> PositiveWeights:
    return w if isinstance(w, PositiveWeights) else PositiveWeights(np.asarray(w, float))


def _read_only(values: list) -> np.ndarray:
    a = np.array(values)
    a.setflags(write=False)
    return a


_SCALE_WINDOW = "[1e-150, 1e150]"
_SCALE_LO, _SCALE_HI = map(float, _SCALE_WINDOW.strip("[]").split(","))


def _check_scale(x: float, what: str) -> float:
    """``x`` unchanged, if closed forms may divide by x**2 without overflow.

    Outside _SCALE_WINDOW, x**2 or 1 / x**2 leaves the float range, so a
    moment or Fisher entry would come out as inf, 0 or NaN.
    """
    if not _SCALE_LO <= x <= _SCALE_HI:
        raise DomainError(f"{what} {x!r} is outside {_SCALE_WINDOW}")
    return x


def _check_tau(tau: float) -> float:
    """tau as a float, if positive, finite and inside _SCALE_WINDOW."""
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive and finite, got {tau!r}")
    return _check_scale(tau, "tau")


class RngState:
    """Deterministic pseudo-random stream, reproducible from its seed.

    A single state must not be shared between threads; derive independent
    streams with :meth:`child`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise DomainError(f"the seed must be non-negative, got {self.seed}")
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
        return _unit_sum(self.beta.weights)

    def _canonical_beta(self) -> np.ndarray:
        """normalized_beta, or DomainError where a component of it underflows to 0."""
        beta = self.normalized_beta()
        if not beta.all():
            raise DomainError("the canonical beta underflows to 0: beta ratios are too extreme")
        return beta

    def canonical(self) -> "ConcreteParams":
        """The same distribution with beta in the canonical gauge.

        Raises DomainError where a canonical beta component underflows to 0.
        """
        return ConcreteParams(beta=self._canonical_beta(), tau=self.tau)

    def to_inverse_schlomilch(self) -> "InverseSchlomilchParams":
        return self._inverse_schlomilch

    @cached_property
    def _inverse_schlomilch(self) -> "InverseSchlomilchParams":
        return InverseSchlomilchParams(
            alpha=PositiveWeights(np.ones(self.dim)), beta=self.beta, tau=self.tau
        )


@dataclass(frozen=True)
class InverseSchlomilchParams:
    """Parameters (alpha, beta, tau) of the inverse Schlomilch distribution.

    At alpha = (1, ..., 1) the family reduces to the Concrete distribution.
    Every alpha entry must lie in the scale window of tau: outside it
    trigamma(alpha_i), about 1 / alpha_i**2, or the sampler's
    log(U) / alpha_i leave the float range.
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
        a = self.alpha.weights
        outside = (a < _SCALE_LO) | (a > _SCALE_HI)
        if outside.any():
            raise DomainError(f"alpha entry {float(a[outside][0])!r} is outside {_SCALE_WINDOW}")

    @property
    def dim(self) -> int:
        return self.beta.dim

    @cached_property
    def alpha_plus(self) -> float:
        return float(np.sum(self.alpha.weights))

    @cached_property
    def _digamma_alpha(self) -> np.ndarray:
        """Read-only psi(alpha_j) for every j."""
        return _read_only([digamma(a) for a in self.alpha.weights.tolist()])

    @cached_property
    def _trigamma_alpha(self) -> np.ndarray:
        """Read-only psi'(alpha_j) for every j."""
        return _read_only([trigamma(a) for a in self.alpha.weights.tolist()])


def _point_array(x, k: int) -> np.ndarray:
    """One validated interior point as a (1, k) array."""
    if not isinstance(x, SimplexPoint):
        x = SimplexPoint(x)
    if x.dim != k:
        raise DimMismatch(f"point dimension {x.dim} != parameter dimension {k}")
    return x.components[None, :]


def _log_k(log_beta: np.ndarray, tau: float, log_x: np.ndarray) -> np.ndarray:
    """log k(x) = LSE_j(log beta_j - tau log x_j), rowwise."""
    t = tau * log_x
    return _log_sum_exp(np.subtract(log_beta, t, out=t))


def log_norm_const(p: InverseSchlomilchParams) -> float:
    """log J(alpha): the normalization constant of the unnormalized kernel."""
    alpha = p.alpha.weights
    log_beta = p.beta.log
    # Each alpha entry lies in the scale window, where math.lgamma is finite.
    return (
        -(p.dim - 1) * math.log(p.tau)
        - log_gamma(p.alpha_plus)
        + sum(map(math.lgamma, alpha.tolist()))
        - float(np.dot(alpha, log_beta))
    )


def _is_log_density_log(p: InverseSchlomilchParams, log_x: np.ndarray, dot=np.matmul) -> np.ndarray:
    """Log density at the points whose componentwise logs are the rows of ``log_x``.

    ``dot(log_x, v)`` gives the row sums of ``log_x * v``; the density
    quadrature passes an einsum, which wakes no BLAS thread on its nodes.
    """
    log_kx = _log_k(p.beta.log, p.tau, log_x)
    return -log_norm_const(p) - p.alpha_plus * log_kx - dot(log_x, p.tau * p.alpha.weights + 1.0)


def _is_log_density_arr(p: InverseSchlomilchParams, x: np.ndarray) -> np.ndarray:
    return _is_log_density_log(p, np.log(x))


def is_log_density(p: InverseSchlomilchParams, x) -> float:
    """Log density of the inverse Schlomilch distribution at an interior point."""
    arr = _point_array(x, p.dim)
    return float(_is_log_density_arr(p, arr)[0])


def _concrete_log_density_arr(p: ConcreteParams, x: np.ndarray) -> np.ndarray:
    return _is_log_density_arr(p.to_inverse_schlomilch(), x)


def concrete_log_density(p: ConcreteParams, x) -> float:
    """Log density of the Concrete distribution at an interior point."""
    arr = _point_array(x, p.dim)
    return float(_concrete_log_density_arr(p, arr)[0])


_U_LO = np.nextafter(0.0, 1.0)
_U_HI = np.nextafter(1.0, 0.0)


def _minus_log(a: np.ndarray) -> np.ndarray:
    """-log(a), computed in place."""
    return np.negative(np.log(a, out=a), out=a)


def sample_standard_gumbel(rng: RngState, size=None):
    """Draw from Gumbel(0, 1) via -log(-log U), U clamped inside (0, 1)."""
    shape = (1,) if size is None else tuple(np.atleast_1d(size))
    u = rng.generator.random(shape[::-1]).T  # F order, no copy: stream rule in simplex
    np.clip(u, _U_LO, _U_HI, out=u)
    g = _minus_log(_minus_log(u))
    return float(g[0]) if size is None else g


def _minus_log_gamma(alpha: np.ndarray, rng: RngState, n: int) -> np.ndarray:
    """(n, K) draws of W_i = -log G_i with G_i ~ Gamma(alpha_i), independent.

    At alpha = 1 everywhere W is the standard Gumbel stream.  Where
    alpha_i < 1, log G_i = log Gamma(alpha_i + 1) + log(U) / alpha_i, so a
    tiny alpha_i gives a large W_i instead of -log 0.
    """
    size = (n, alpha.size)
    if np.all(alpha == 1.0):
        return sample_standard_gumbel(rng, size=size)
    small = alpha < 1.0
    shape = np.where(small, alpha + 1.0, alpha)
    w = _minus_log(rng.generator.standard_gamma(shape[:, None], size[::-1]).T)
    if small.any():
        u = 1.0 - rng.generator.random((int(small.sum()), n)).T  # in (0, 1]
        w[:, small] -= np.log(u) / alpha[small]
    return w


def _sample_logits(p: InverseSchlomilchParams, rng: RngState, n: int) -> np.ndarray:
    """(n, K) logits z_i = (log beta_i - log G_i) / tau; X = softmax(z) ~ IS(p)."""
    n = int(n)
    if n < 1:
        raise DomainError("n must be at least 1")
    z = _minus_log_gamma(p.alpha.weights, rng, n)
    z += p.beta.log
    z /= p.tau
    return z


def sample_is_log(p: InverseSchlomilchParams, rng: RngState, n: int) -> np.ndarray:
    """Draw n samples of IS(p) in log space, as an (n, K) array of log x rows.

    log X = z - LSE(z) is exact for the whole family, because IS(alpha, beta,
    tau) is the image of Dirichlet(alpha) under the map from the uniform law
    to C(beta, tau); it stays finite where X itself would underflow.
    """
    z = _sample_logits(p, rng, n)
    for start in range(0, z.shape[0], ROW_BLOCK):  # exp(z) one row block at a time
        zb = z[start : start + ROW_BLOCK]
        zb -= np.max(zb, axis=1, keepdims=True)
        zb -= np.log(np.sum(np.exp(zb), axis=1, keepdims=True))
    return z


def sample_concrete(p: ConcreteParams, rng: RngState, n: int) -> np.ndarray:
    """Draw n samples, returned as an (n, K) array of simplex rows."""
    z = _sample_logits(p.to_inverse_schlomilch(), rng, n)
    return _softmax(z, out=z)


TO_UNIFORM = "to_uniform"
FROM_UNIFORM = "from_uniform"


def _to_uniform_log(p: ConcreteParams, log_x: np.ndarray) -> np.ndarray:
    return _softmax(p.beta.log - p.tau * log_x)  # logits log beta_j - tau log x_j


def _to_uniform_arr(p: ConcreteParams, x: np.ndarray) -> np.ndarray:
    return _to_uniform_log(p, np.log(x))


def uniform_transform(p: ConcreteParams, x, direction: str) -> SimplexPoint:
    """Simplex transformation linking the Concrete and uniform distributions.

    ``to_uniform`` sends X ~ C(beta, tau) to the uniform law via
    Y_i proportional to beta_i / X_i^tau; ``from_uniform`` inverts it.
    """
    arr = _point_array(x, p.dim)
    if direction == TO_UNIFORM:
        return SimplexPoint(_to_uniform_arr(p, arr)[0])
    if direction == FROM_UNIFORM:
        return SimplexPoint(_softmax((p.beta.log - np.log(arr[0])) / p.tau))
    raise DomainError(f"unknown direction {direction!r}")


def escort_transform(p: ConcreteParams, x, sign: int) -> SimplexPoint:
    """Escort map: closure of beta_i * x_i^(sign * tau), sign in {+1, -1}."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    arr = _point_array(x, p.dim)[0]
    return SimplexPoint(_softmax(p.beta.log + sign * p.tau * np.log(arr)))


def rounding_probabilities(beta) -> np.ndarray:
    """Vertex probabilities p_i = beta_i / sum(beta) of the argmax rounding."""
    return _unit_sum(_as_weights(beta).weights)


def _rounding_frequencies(p: ConcreteParams, rng: RngState, n: int) -> np.ndarray:
    """Frequency of each vertex among the argmax roundings of n draws of C(p).

    softmax is monotone, so a draw's vertex is the argmax of its logits.
    """
    hits = _row_argmax(_sample_logits(p.to_inverse_schlomilch(), rng, n))
    return np.bincount(hits, minlength=p.dim) / n


def round_to_vertex(x) -> int:
    """Index of the largest component; ties resolve to the lowest index."""
    if not isinstance(x, SimplexPoint):
        x = SimplexPoint(x)
    return int(np.argmax(x.components))


def sufficient_statistic(p: ConcreteParams, x) -> np.ndarray:
    """Exponential-family sufficient statistic T_i = -tau log x_i - log k(x)."""
    arr = _point_array(x, p.dim)
    log_x = np.log(arr)
    log_kx = _log_k(p.beta.log, p.tau, log_x)
    return (-p.tau * log_x - log_kx[:, None])[0]
