"""Closed-form log-ratio moments of the inverse Schlomilch family.

Indices are 0-based.  The Kronecker-delta expressions for the special
Dirichlet vector (1, ..., 1) + e_m + e_n are implemented literally, with
multi-index deltas that are 1 only when all listed indices coincide.
"""

import numpy as np

from .distributions import InverseSchlomilchParams, _as_weights, _check_scale
from .errors import IndexOutOfRange
from .special import PI_SQ_OVER_6, digamma, trigamma


def _check_indices(k: int, *indices: int):
    for i in indices:
        if not 0 <= i < k:
            raise IndexOutOfRange(f"index {i} outside [0, {k})")


def _d(*indices: int) -> float:
    return 1.0 if all(i == indices[0] for i in indices) else 0.0


def lr_mean(p: InverseSchlomilchParams, i: int, k: int) -> float:
    """E[log(X_i / X_k)] = (1/tau)[-psi(a_i) + psi(a_k) + log(b_i / b_k)]."""
    _check_indices(p.dim, i, k)
    if i == k:
        return 0.0
    a = p.alpha.weights
    lb = p.beta.log
    return (-digamma(a[i]) + digamma(a[k]) + lb[i] - lb[k]) / p.tau


def lr_cov(p: InverseSchlomilchParams, i: int, k: int, j: int, l: int) -> float:
    """Cov[log(X_i/X_k), log(X_j/X_l)] in terms of trigamma values."""
    _check_indices(p.dim, i, k, j, l)
    a = p.alpha.weights
    val = (_d(i, j) - _d(i, l)) * trigamma(a[i]) - (_d(k, j) - _d(k, l)) * trigamma(a[k])
    return val / _check_scale(p.tau, "tau")**2


def lr_var(p: InverseSchlomilchParams, i: int, k: int) -> float:
    """Var[log(X_i / X_k)] = (1 - delta_ik)[psi'(a_i) + psi'(a_k)] / tau^2."""
    return lr_cov(p, i, k, i, k)


def special_params(beta, tau: float, m: int, n: int) -> InverseSchlomilchParams:
    """Inverse Schlomilch parameters with Dirichlet vector 1 + e_m + e_n."""
    beta = _as_weights(beta)
    _check_indices(beta.dim, m, n)
    alpha = np.ones(beta.dim)
    alpha[m] += 1.0
    alpha[n] += 1.0
    return InverseSchlomilchParams(alpha=alpha, beta=beta, tau=float(tau))


def lr_mean_special(beta, tau: float, m: int, n: int, i: int, k: int) -> float:
    """E[log(X_i / X_k)] under the Dirichlet vector 1 + e_m + e_n.

    Closed delta form; agrees with :func:`lr_mean` at the shifted alpha.
    """
    beta = _as_weights(beta)
    _check_indices(beta.dim, m, n, i, k)
    lb = beta.log
    val = (
        -_d(i, m) - _d(i, n) + _d(k, m) + _d(k, n)
        + 0.5 * _d(i, m, n) - 0.5 * _d(k, m, n)
        + lb[i] - lb[k]
    )
    return val / float(tau)


def raw_second_moment_special(beta, tau: float, m: int, n: int,
                              i: int, k: int, l: int) -> float:
    """Raw moment E[log(X_i/X_k) log(X_i/X_l)] at Dirichlet vector 1 + e_m + e_n.

    Literal evaluation of the closed Kronecker-delta expression; no
    algebraic simplification is applied.
    """
    beta = _as_weights(beta)
    _check_indices(beta.dim, m, n, i, k, l)
    lb = beta.log
    tau = _check_scale(float(tau), "tau")
    val = (
        _d(i, m, n) + _d(i, l, m, n) + _d(i, k, m, n) - _d(k, l, m, n)
        - _d(i, m) * _d(k, n) - _d(i, m) * _d(l, n)
        - _d(i, n) * _d(k, m) - _d(i, n) * _d(l, m)
        + _d(k, m) * _d(l, n) + _d(k, n) * _d(l, m)
        - (
            2 * _d(i, m) + 2 * _d(i, n) - _d(k, m) - _d(k, n) - _d(l, m) - _d(l, n)
            - _d(i, m, n) + 0.5 * _d(k, m, n) + 0.5 * _d(l, m, n)
        ) * lb[i]
        + (
            _d(i, m) + _d(i, n) - _d(k, m) - _d(k, n)
            - 0.5 * _d(i, m, n) + 0.5 * _d(k, m, n)
        ) * lb[l]
        + (
            _d(i, m) + _d(i, n) - _d(l, m) - _d(l, n)
            - 0.5 * _d(i, m, n) + 0.5 * _d(l, m, n)
        ) * lb[k]
        + (lb[i] - lb[k]) * (lb[i] - lb[l])
        + (1.0 - _d(i, k) - _d(i, l) + _d(k, l)) * PI_SQ_OVER_6
    )
    return val / tau**2
