"""Closed-form log-ratio moments of the inverse Schlomilch family.

Indices are 0-based.  An index is an int (a Python int or a numpy integer
scalar) or an integer array; anything else, a bool or a bool array
included, raises IndexOutOfRange.  The mean at the special Dirichlet vector
(1, ..., 1) + e_m + e_n is :func:`lr_mean` at :func:`special_params`.  The
raw second moment there is a Kronecker-delta expression, implemented
literally: every term is kept, in the order written, and no term is
simplified away.  Each pairwise delta (delta_im, delta_kl, ...) is written
inline once per call, as ``1.0 * (a == b)``, and a multi-index delta, 1
only when all its indices coincide, is the product of pairwise ones
(delta_imn = delta_im delta_in, delta_ilmn = delta_il delta_imn).  The
deltas are exact 0.0 / 1.0 values, so their products are exact.  That
expression, :func:`lr_mean` and :func:`lr_cov` also accept integer index
arrays and broadcast over them, e.g. over the grids of ``np.ix_``.

Scalar calls do plain float arithmetic.  On a plain beta,
:func:`raw_second_moment_special` makes the one weight check of
:class:`PositiveWeights` and takes the log of the checked array, without
building a weight object.  :func:`lr_mean` and :func:`lr_cov` read psi(alpha)
and psi'(alpha), which each :class:`InverseSchlomilchParams` computes once.
"""

import math

import numpy as np

from .distributions import InverseSchlomilchParams, _as_weights, _check_tau
from .errors import DomainError, IndexOutOfRange
from .simplex import PositiveWeights, _check_weights
from .special import PI_SQ_OVER_6
from .special import digamma, trigamma  # noqa: F401  (names perfbench/tracing.py rebinds)


def _check_indices(k: int, *indices) -> bool:
    """Raise unless every index, an integer or an integer array, lies in [0, k).

    Returns whether every index is a scalar.
    """
    scalar = True
    for i in indices:
        t = type(i)
        if t is int or (issubclass(t, (int, np.integer)) and t is not bool):
            inside = 0 <= i < k
        elif isinstance(i, np.ndarray) and i.dtype.kind in "iu":
            inside = bool(np.all((0 <= i) & (i < k)))
            scalar = False
        else:
            raise IndexOutOfRange(f"index {i!r} is not an integer or an integer array")
        if not inside:
            raise IndexOutOfRange(f"index {i} outside [0, {k})")
    return scalar


def lr_mean(p: InverseSchlomilchParams, i: int, k: int) -> float:
    """E[log(X_i / X_k)] = (1/tau)[-psi(a_i) + psi(a_k) + log(b_i / b_k)]."""
    scalar = _check_indices(p.dim, i, k)
    if scalar and i == k:
        return 0.0
    psi = p._digamma_alpha
    lb = p.beta.log
    return (-psi[i] + psi[k] + lb[i] - lb[k]) / p.tau


def lr_cov(p: InverseSchlomilchParams, i: int, k: int, j: int, l: int) -> float:
    """Cov[log(X_i/X_k), log(X_j/X_l)] in terms of trigamma values."""
    scalar = _check_indices(p.dim, i, k, j, l)
    psi1 = p._trigamma_alpha
    val = ((1.0 * (i == j) - 1.0 * (i == l)) * psi1[i]
           - (1.0 * (k == j) - 1.0 * (k == l)) * psi1[k])
    if scalar:  # a float division, which never warns
        val = float(val) / p.tau**2
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
    if isinstance(beta, PositiveWeights):
        lb = beta.log
    else:
        lb = np.log(_check_weights(np.asarray(beta, dtype=float)))
    if _check_indices(lb.size, m, n, i, k, l):
        lb = lb.tolist()  # Python floats for int indices
    lb_i, lb_k, lb_l = lb[i], lb[k], lb[l]
    tau = _check_tau(tau)
    d_im, d_in, d_km, d_kn = 1.0 * (i == m), 1.0 * (i == n), 1.0 * (k == m), 1.0 * (k == n)
    d_lm, d_ln, d_ik = 1.0 * (l == m), 1.0 * (l == n), 1.0 * (i == k)
    d_il, d_kl = 1.0 * (i == l), 1.0 * (k == l)
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
