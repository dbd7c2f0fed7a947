"""Fisher information, hyperbolic structure and Fisher-Rao distances.

The information metric of the Concrete family is hyperbolic space of
curvature -1/ell^2; the parameter map to Poincare half-space coordinates
(eta_1, ..., eta_{K-1}, eta_K = 1/tau) makes the metric conformal to
Euclidean space, which is what the finite-difference pullback oracle
verifies.

The public closed forms are whole-array numpy, with no loop over entries;
apart from building the Fisher matrices they return, they use O(K) memory.
The paper's double sum over i, j of (a_i - a_j)^2 is :func:`_pair_spread`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ConcreteParams, _check_scale, _check_tau
from .errors import (
    DimMismatch,
    DomainError,
    NotNormalized,
)
from .simplex import _softmax
from .special import PI_SQ_OVER_6


def curvature_length(k: int) -> float:
    """Curvature length ell(K) = sqrt((K-1)(K pi^2/6 + 1)/(K+1))."""
    k = int(k)
    if k < 2:
        raise DomainError("k must be at least 2")
    return math.sqrt((k - 1) * (k * PI_SQ_OVER_6 + 1.0) / (k + 1))


@dataclass(frozen=True)
class FisherFull:
    """Degenerate (K+1)x(K+1) information matrix over (beta_1..beta_K, tau).

    The scale-gauge direction (beta, 0) lies in the null space.
    """

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FisherReduced:
    """Positive-definite KxK information matrix over (beta_1..beta_{K-1}, tau).

    beta is taken in the canonical gauge sum(beta) = 1 with fill-up beta_K.
    """

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PoincarePoint:
    """Half-space coordinates (eta_1..eta_{K-1}, eta_K = 1/tau)."""

    eta: np.ndarray
    eta_k: float

    def __post_init__(self):
        eta = np.array(self.eta, dtype=float)
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)
        if not math.isfinite(self.eta_k) or self.eta_k <= 0.0:
            raise DomainError("eta_K must be positive and finite")
        if not np.all(np.isfinite(eta)):
            raise DomainError("eta must be finite")

    @property
    def ambient_dim(self) -> int:
        return self.eta.size + 1

    @property
    def ell(self) -> float:
        """Curvature length of the half-space, fixed by K."""
        return curvature_length(self.ambient_dim)

    def as_vector(self) -> np.ndarray:
        return np.append(self.eta, self.eta_k)


@dataclass(frozen=True)
class DistanceResult:
    """Fisher-Rao distance together with the Delta vector entering the formula."""

    value: float
    delta: np.ndarray


def _finite(mat: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(mat)):
        raise DomainError(f"{what} has non-finite entries; beta ratios are too extreme")
    return mat


def _pair_spread(v: np.ndarray) -> float:
    """sum_{i<j} (v_i - v_j)^2 = K sum_i (c_i - mean(c))^2, c = v - v_0, in O(K) memory.

    The shift by v_0 keeps clustered v far from 0 accurate, where v - mean(v)
    loses digits (Chan, Golub & LeVeque, Amer. Statist. 37, 1983)."""
    c = v - v[0]
    c -= c.sum() / c.size
    return v.size * float((c * c).sum())


def fisher_full(p: ConcreteParams) -> FisherFull:
    """Closed-form information matrix in the redundant (beta, tau) coordinates."""
    k = p.dim
    beta = p.beta.weights
    lb = p.beta.log
    mat = np.empty((k + 1, k + 1))

    mat[k, k] = ((k - 1) * (k * PI_SQ_OVER_6 + 1.0) + _pair_spread(lb)) / ((k + 1) * p.tau**2)

    sum_lb = float(np.sum(lb))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mat[:k, k] = mat[k, :k] = (sum_lb - k * lb) / ((k + 1) * p.tau * beta)
        # (k delta_ij - 1) / ((k + 1) beta_i beta_j), with the exact
        # numerators -1 off the diagonal and k - 1 on it; the beta block's
        # diagonal is every (k + 2)-th entry of the flat matrix.
        denom = (k + 1) * np.outer(beta, beta)
        np.divide(-1.0, denom, out=mat[:k, :k])
        mat.ravel()[: k * (k + 2) : k + 2] = (k - 1) / denom.diagonal()
    return FisherFull(_finite(mat, "fisher_full"))


def _gauge_contraction(k: int) -> np.ndarray:
    """Jacobian T (k x (k+1)) of (beta_1..beta_K, tau) along the canonical gauge.

    Rows are the coordinates (beta_1..beta_{K-1}, tau); the fill-up
    beta_K = 1 - sum(beta_a) contributes d(beta_K) = -sum d(beta_a).
    """
    t = np.zeros((k, k + 1))
    t[: k - 1, : k - 1] = np.eye(k - 1)
    t[: k - 1, k - 1] = -1.0
    t[k - 1, k] = 1.0
    return t


def fisher_reduced(p: ConcreteParams) -> FisherReduced:
    """KxK information matrix in canonical gauge with fill-up beta_K.

    The restriction T I T^T of :func:`fisher_full` at the canonical beta,
    with T = :func:`_gauge_contraction`.  Row a < K of T is e_a - e_K and
    row K picks tau, so row a of T I is row a of I less row K, and row K is
    the tau row; (T I) T^T does the same to the columns.  Each entry is the
    one rounded difference that the matrix product gives.
    """
    k = p.dim
    full = fisher_full(p.canonical()).entries
    tf = np.empty((k, k + 1))
    reduced = np.empty((k, k))
    with np.errstate(over="ignore"):
        np.subtract(full[: k - 1], full[k - 1], out=tf[: k - 1])
        tf[k - 1] = full[k]
        np.subtract(tf[:, : k - 1], tf[:, k - 1 : k], out=reduced[:, : k - 1])
        reduced[:, k - 1] = tf[:, k]
    return FisherReduced(_finite(reduced, "fisher_reduced"))


def _xi_from_eta(eta: np.ndarray, k: int) -> np.ndarray:
    rk = math.sqrt(k)
    rk1 = math.sqrt(k + 1)
    return rk1 * eta / rk + rk1 * float(np.sum(eta)) / (rk * (rk + 1.0))


def _eta_from_xi(xi: np.ndarray, k: int) -> np.ndarray:
    rk = math.sqrt(k)
    rk1 = math.sqrt(k + 1)
    return rk * xi / rk1 - float(np.sum(xi)) / (rk1 * (rk + 1.0))


def to_poincare(p: ConcreteParams) -> PoincarePoint:
    """Map (beta, tau) to Poincare half-space coordinates."""
    k = p.dim
    ell = curvature_length(k)
    lb = p.beta.log
    xi = (lb[:-1] - lb[-1]) / (ell * p.tau)
    return PoincarePoint(eta=_eta_from_xi(xi, k), eta_k=1.0 / p.tau)


def from_poincare(q: PoincarePoint) -> ConcreteParams:
    """Invert :func:`to_poincare`; beta is returned in canonical gauge."""
    k = q.ambient_dim
    ell = curvature_length(k)
    tau = _check_tau(1.0 / q.eta_k)
    xi = _xi_from_eta(np.asarray(q.eta, float), k)
    log_ratios = np.append(ell * tau * xi, 0.0)
    return ConcreteParams(beta=_softmax(log_ratios), tau=tau)


def half_space_distance(q1: PoincarePoint, q2: PoincarePoint) -> float:
    """Geodesic distance ell * d_H between two half-space points."""
    if q1.ambient_dim != q2.ambient_dim:
        raise DimMismatch("Poincare points have different ambient dimensions")
    diff = q1.as_vector() - q2.as_vector()
    arg = float(np.linalg.norm(diff)) / (2.0 * math.sqrt(q1.eta_k * q2.eta_k))
    return q1.ell * 2.0 * math.asinh(arg)


def fr_distance(p: ConcreteParams, q: ConcreteParams) -> DistanceResult:
    """Fisher-Rao geodesic distance between two Concrete distributions.

    Raises DomainError where a canonical beta component underflows to 0.
    """
    if p.dim != q.dim:
        raise DimMismatch("distributions have different dimensions")
    k = p.dim
    ell = curvature_length(k)
    lb, lb2 = np.log(p._canonical_beta()), np.log(q._canonical_beta())
    r = math.sqrt(_check_scale(q.tau / p.tau, "temperature ratio"))
    delta = r * lb - lb2 / r
    inner = (r - 1.0 / r) ** 2 + _pair_spread(delta) / ((k + 1) * ell**2)
    inner = max(inner, 0.0)
    value = 2.0 * ell * math.asinh(0.5 * math.sqrt(inner))
    return DistanceResult(value=value, delta=delta)


def categorical_fr_distance(b, b2) -> float:
    """Fisher-Rao distance 2 arccos(sum sqrt(b_i b'_i)) between categoricals."""
    b = np.asarray(b, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b.shape != b2.shape:
        raise DimMismatch("probability vectors have different shapes")
    if not (np.all(b >= 0.0) and np.all(b2 >= 0.0)):
        raise NotNormalized("probability vectors must be nonnegative and finite")
    for v in (b, b2):
        if abs(float(np.sum(v)) - 1.0) > 1e-9:
            raise NotNormalized(f"vector sums to {float(np.sum(v))!r}, not 1")
    arg = float(np.sum(np.sqrt(b * b2)))
    arg = min(1.0, max(-1.0, arg))
    return 2.0 * math.acos(arg)
