"""Closed-form log-ratio moments of the inverse Schlomilch family.

Indices are 0-based.  The mean at the special Dirichlet vector
(1, ..., 1) + e_m + e_n is :func:`lr_mean` at :func:`special_params`.  The
raw second moment there is a Kronecker-delta expression, implemented
literally: every term is kept, in the order written, and no term is
simplified away.  Each pairwise delta (delta_im, delta_kl, ...) is named
once per call, and a multi-index delta, 1 only when all its indices
coincide, is the product of pairwise ones (delta_imn = delta_im delta_in,
delta_ilmn = delta_il delta_imn).  The deltas are exact 0.0 / 1.0 values, so
their products are exact.  That expression, :func:`lr_mean` and
:func:`lr_cov` also accept integer index arrays and broadcast over them,
e.g. over the grids of ``np.ix_``.
"""

import math

import numpy as np

from .distributions import InverseSchlomilchParams, _as_weights, _check_tau
from .errors import DomainError, IndexOutOfRange
from .special import PI_SQ_OVER_6, digamma, trigamma


def _check_indices(k: int, *indices):
    """Every index, an int or an integer array, lies in [0, k)."""
    for i in indices:
        inside = 0 <= i < k if isinstance(i, int) else np.all((0 <= i) & (i < k))
        if not inside:
            raise IndexOutOfRange(f"index {i} outside [0, {k})")


def _d(a, b):
    """Kronecker delta: 1.0 where ``a`` equals ``b``, else 0.0."""
    return 1.0 * (a == b)


def _at(f, a: np.ndarray, i):
    """f(a_i): one call for an int index; for an index array, f at every a_j, gathered."""
    if isinstance(i, int):
        return f(a[i])
    return np.array([f(v) for v in a.tolist()])[i]


def lr_mean(p: InverseSchlomilchParams, i: int, k: int) -> float:
    """E[log(X_i / X_k)] = (1/tau)[-psi(a_i) + psi(a_k) + log(b_i / b_k)]."""
    _check_indices(p.dim, i, k)
    if isinstance(i, int) and isinstance(k, int) and i == k:
        return 0.0
    a = p.alpha.weights
    lb = p.beta.log
    return (-_at(digamma, a, i) + _at(digamma, a, k) + lb[i] - lb[k]) / p.tau


def lr_cov(p: InverseSchlomilchParams, i: int, k: int, j: int, l: int) -> float:
    """Cov[log(X_i/X_k), log(X_j/X_l)] in terms of trigamma values."""
    _check_indices(p.dim, i, k, j, l)
    a = p.alpha.weights
    val = ((_d(i, j) - _d(i, l)) * _at(trigamma, a, i)
           - (_d(k, j) - _d(k, l)) * _at(trigamma, a, k))
    if isinstance(val, float):  # int indices: a float division, which never warns
        val /= p.tau**2
        finite = math.isfinite(val)
    else:
        with np.errstate(over="ignore"):
            val = val / p.tau**2
        finite = bool(np.isfinite(val).all())
    if not finite:
        raise DomainError(f"lr_cov is not finite at tau = {p.tau!r}: trigamma / tau^2 overflows")
    return val


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


def raw_second_moment_special(beta, tau: float, m: int, n: int,
                              i: int, k: int, l: int) -> float:
    """Raw moment E[log(X_i/X_k) log(X_i/X_l)] at Dirichlet vector 1 + e_m + e_n.

    Literal evaluation of the closed Kronecker-delta expression; no
    algebraic simplification is applied.
    """
    beta = _as_weights(beta)
    _check_indices(beta.dim, m, n, i, k, l)
    lb = beta.log
    # Each log beta entry is read once: a Python float for an int index,
    # gathered for an index array.
    lb_i, lb_k, lb_l = (lb.item(j) if isinstance(j, int) else lb[j] for j in (i, k, l))
    tau = _check_tau(tau)
    d_im, d_in, d_km, d_kn = _d(i, m), _d(i, n), _d(k, m), _d(k, n)
    d_lm, d_ln, d_ik, d_il, d_kl = _d(l, m), _d(l, n), _d(i, k), _d(i, l), _d(k, l)
    d_imn, d_kmn, d_lmn = d_im * d_in, d_km * d_kn, d_lm * d_ln
    d_ilmn, d_ikmn, d_klmn = d_il * d_imn, d_ik * d_imn, d_kl * d_kmn
    val = (
        d_imn + d_ilmn + d_ikmn - d_klmn
        - d_im * d_kn - d_im * d_ln
        - d_in * d_km - d_in * d_lm
        + d_km * d_ln + d_kn * d_lm
        - (
            2 * d_im + 2 * d_in - d_km - d_kn - d_lm - d_ln
            - d_imn + 0.5 * d_kmn + 0.5 * d_lmn
        ) * lb_i
        + (
            d_im + d_in - d_km - d_kn
            - 0.5 * d_imn + 0.5 * d_kmn
        ) * lb_l
        + (
            d_im + d_in - d_lm - d_ln
            - 0.5 * d_imn + 0.5 * d_lmn
        ) * lb_k
        + (lb_i - lb_k) * (lb_i - lb_l)
        + (1.0 - d_ik - d_il + d_kl) * PI_SQ_OVER_6
    )
    return val / tau**2
