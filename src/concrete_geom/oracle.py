"""Independent numerical oracles for the closed forms in this package.

Monte Carlo estimators use exact iid draws from the samplers of
:mod:`concrete_geom.distributions`: inverse Schlomilch moments are
estimated from samples of the target law itself, so no draw is
reweighted.  Every Monte Carlo estimate, Gumbel and rounding included, is
the mean of one per-sample feature, with the plain iid standard error
sqrt(var / n) (n - 1 degrees of freedom, so n >= 2) and the two-sided
normal p-value of its z-score.  The features are formed one block of
ROW_BLOCK draws at a time, and the means and per-feature sums of squares
are merged over those row blocks (:func:`_iid_moments`), so no (n, p)
feature matrix and no p x p matrix is built; with one block the estimates
and SEs are those of the two-pass formula bit for bit.  A rounding
frequency is an exact count over n; its SE is taken under the null,
sqrt(p (1 - p) / n), so a vertex with no draws has a positive SE.  One
decision rule judges them all: Holm's step-down (:func:`holm`) at
family-wise level FAMILYWISE_LEVEL over every Monte Carlo check of the
reported family, so a group called on its own judges its own checks and
:func:`run_suite` judges their union.  Holm's bound holds under any
dependence between the checks.

The simplex is a vector space whose coordinates are the K - 1 log-ratios
s_a = log(X_0 / X_a) to the first component (Aitchison 1982); every other
log-ratio is a difference s_k - s_i.  So Monte Carlo estimates only this
basis: the means and covariances of s (:func:`mc_log_ratio_moments`) and
the raw products E[s_k s_l] at two Dirichlet vectors
(:func:`mc_special_moments`), O(K^2) checks.  Every other log-ratio mean,
covariance and raw2 cell is a fixed linear function of the basis ones, and
one deterministic check per group or pair (``lr_exact``,
``raw2_exact[m=..,n=..]``, :func:`_worst_check`) holds each closed form to
that identity applied to the closed basis, at tolerance EXACT_RTOL of the
summed absolute terms.  The raw2 pairs that Monte Carlo does not estimate
are held to Cov + E E of their log-ratios instead.

Quadrature, exact and finite-difference checks compare against fixed
tolerances.  Both quadratures, :func:`quad_normalization` and
:func:`quad_fisher`, take K <= 3 and evaluate the density at one node set,
in log space where components that underflow in x (small tau, extreme beta)
stay finite; quad_fisher is E[s s^T] of the closed-form scores there.  The
density oracle :func:`density_1d` evaluates the log density at exact draws
as a deterministic 1-D integral over one Gumbel coordinate, without
log J(alpha) or log k(x); a ``density_1d`` check is the largest absolute
log-density error over DENSITY_DRAWS draws, with tolerance DENSITY_TOL
(1e-9).  It checks the Concrete density from K = 4, where
simplex quadrature stops, and the inverse Schlomilch density at every K.
The score group (:func:`mc_score_fisher`) takes its scores in closed form
from the sampler's own Gumbel draws W, in units of tau times the logits:
with u = softmax(-W) and t = log beta + W, they involve no x and no 1/tau,
so they stay finite at every tau in the window.  Its one deterministic
``score_fd`` check compares those closed forms with finite differences of
the log density at DENSITY_DRAWS log-space draws, so the density's
derivatives are still tested.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .distributions import (
    _SCALE_HI,
    _SCALE_LO,
    ConcreteParams,
    InverseSchlomilchParams,
    RngState,
    _as_weights,
    _check_tau,
    _is_log_density_log,
    _log_k,
    _rounding_frequencies,
    _sample_logits,
    _to_uniform_arr,
    log_norm_const,
    rounding_probabilities,
    sample_concrete,
    sample_is_log,
    sample_standard_gumbel,
)
from .errors import DomainError, NonFiniteIntegrand, UnsupportedDim
from .forks import available_cpus, ordered
from .geometry import (
    _gauge_contraction,
    curvature_length,
    fisher_reduced,
    fr_distance,
    from_poincare,
    half_space_distance,
    to_poincare,
)
from .moments import lr_cov, lr_mean, raw_second_moment_special, special_params
from .simplex import ROW_BLOCK, _alr_nodes, _gauss_legendre, _log_sum_exp, _softmax
from .special import EULER_GAMMA, PI_SQ_OVER_6, digamma
# Not called here: perfbench/tracing.py rebinds these names of the oracle.
from .distributions import _concrete_log_density_arr, _is_log_density_arr  # noqa: F401
from .simplex import integrate_simplex  # noqa: F401

QUAD_TAU_RANGE = (1e-6, 1e6)  # the tau for which the density quadrature is accurate
QUAD_TOL = 1e-9  # absolute tolerance of the normalization and quad_fisher checks
PULLBACK_H = 1e-5  # relative central-difference step of pullback_metric_check
MC_SAMPLES = 100_000  # default Monte Carlo sample count of run_suite, verify and round
DISTANCE_PAIRS = 20  # random parameter pairs in the distance_halfspace checks
FAMILYWISE_LEVEL = 1e-3  # Holm family-wise error level of the Monte Carlo checks
EXACT_RTOL = 1e-12  # tolerance of lr_exact and raw2_exact, relative to the summed |terms|
DENSITY_NODES = 96  # Gauss-Legendre nodes per row of density_1d
DENSITY_DRAWS = 2000  # exact draws per density_1d check
DENSITY_TOL = 1e-9  # absolute log-density tolerance of a density_1d check
SCORE_FD_H = 1e-4  # step of the score_fd finite differences
SCORE_FD_TOL = 1e-6  # floor of the score_fd tolerance, relative to 1 + |scaled score|
# The (m, n) pairs whose raw2 basis cells Monte Carlo estimates, at every K.  A
# raw2 cell's closed form depends on (m, n, i, k, l) only through which of the
# five indices coincide, and on log beta at i, k and l.  Every pair is a
# relabelling of (0, 0) or of (0, 1), so their cells (i not in {k, l}, k and l
# in either order) hold every coincidence pattern, and mc_special_moments' exact
# identity ties each of those cells to the basis.  (0, 0) also puts the
# delta_imn term on the basis cells.
RAW2_MC_PAIRS = ((0, 0), (0, 1))
# The largest K at which verify was run and passed at seeds 0-9; the exact
# raw2 cells grow as K^5 (K^3 per pair), the checks as K^2.
MAX_SUITE_K = 16

# Row sums of a @ v by einsum, not a BLAS gemv: the sum is the same at every
# BLAS thread count, and it wakes no BLAS thread even on the density
# quadrature's 57,600 nodes at K = 3, where a gemv does.
_row_dot = partial(np.einsum, "ij,j->i")


@dataclass(frozen=True)
class CheckResult:
    """One oracle comparison: closed-form target vs numerical estimate.

    ``p_value`` is the two-sided normal p-value of a Monte Carlo check,
    which :func:`holm` judges; it is None for a tolerance check.
    """

    name: str
    target: float
    estimate: float
    se_or_tol: float
    passed: bool
    p_value: float | None = None


def _columns(names, *arrays):
    """Each array as floats, broadcast to one entry per name."""
    return (np.broadcast_to(np.asarray(a, float), len(names)) for a in arrays)


def _checks(names, target, estimate, tol) -> list[CheckResult]:
    """One tolerance check per name; it passes where |estimate - target| <= tol.

    ``target``, ``estimate`` and ``tol`` broadcast against ``names``.
    """
    t, e, s = _columns(names, target, estimate, tol)
    passed = np.abs(e - t) <= s
    return list(map(CheckResult, names, t.tolist(), e.tolist(), s.tolist(), passed.tolist()))


def _worst_check(name: str, closed, reference, tol) -> list[CheckResult]:
    """One check of many cells: the largest |closed - reference| / tol, at most 1.

    Target 0, se_or_tol 1.  A cell with no error counts 0, also at tol = 0,
    and one that is off at tol = 0 counts inf; a NaN cell fails the check.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(closed - reference)
        worst = np.max(np.where(err == 0.0, 0.0, err / tol))
    return _checks([name], 0.0, worst, 1.0)


def _mc_checks(names, target, estimate, se) -> list[CheckResult]:
    """One Monte Carlo check per name, with the p-value P(|N(0, 1)| >= |z|).

    z = (estimate - target) / se; an exact hit has p = 1 (also at se = 0),
    and a non-finite z has p = 0.  The checks pass until :func:`holm`
    judges their family.
    """
    t, e, s = _columns(names, target, estimate, se)
    err = np.abs(e - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(err == 0.0, 0.0, err / s)
    z[np.isnan(z)] = math.inf  # a NaN estimate or SE
    p = [math.erfc(v / math.sqrt(2.0)) for v in z.tolist()]
    return list(map(CheckResult, names, t.tolist(), e.tolist(), s.tolist(), [True] * len(p), p))


def holm(checks: list[CheckResult]) -> list[CheckResult]:
    """Judge the Monte Carlo checks of ``checks`` as one family, by Holm's step-down.

    With the m p-values sorted, p_(1) <= ... <= p_(m), the check with p_(j)
    fails while p_(1..j) are each at most FAMILYWISE_LEVEL / (m - j + 1),
    which bounds the chance of any false failure by FAMILYWISE_LEVEL under
    any dependence (Holm 1979).  Tolerance checks (p_value None) keep their
    verdicts.
    """
    mc = sorted((c.p_value, j) for j, c in enumerate(checks) if c.p_value is not None)
    failed = set()
    for rank, (p, j) in enumerate(mc):
        if p > FAMILYWISE_LEVEL / (len(mc) - rank):
            break
        failed.add(j)
    return [
        c if c.p_value is None else replace(c, passed=j not in failed)
        for j, c in enumerate(checks)
    ]


def familywise(checks: list[CheckResult]) -> dict:
    """The family-wise rule behind :func:`holm`'s verdicts, for a report.

    The smallest Holm-adjusted p-value is min(1, m * min p); a Monte Carlo
    check fails exactly when that value is at most FAMILYWISE_LEVEL.
    """
    p = [c.p_value for c in checks if c.p_value is not None]
    return {
        "level": FAMILYWISE_LEVEL,
        "mc_checks": len(p),
        "min_adjusted_p": min(1.0, len(p) * min(p)) if p else 1.0,
    }


def _log_density_nodes(p: ConcreteParams):
    """log x rows at the density's ALR nodes, weights w, f = log density + sum log x.

    The nodes are simplex's fixed ALR rule mapped by beta and tau, 240 per
    axis at every tau.  Raises UnsupportedDim for K > 3, where the 240^(K-1)
    nodes outgrow memory, and DomainError for tau outside QUAD_TAU_RANGE,
    where the quadrature is not accurate (see :func:`quad_normalization`).
    """
    if p.dim > 3:
        raise UnsupportedDim(f"the density quadrature supports K <= 3, got K = {p.dim}")
    lo, hi = QUAD_TAU_RANGE
    if not lo <= p.tau <= hi:
        raise DomainError(f"the density quadrature needs tau in [{lo:g}, {hi:g}], got {p.tau!r}")
    # In ALR coordinates tau y_a - log(beta_a / beta_K) = G_a - G_K, a
    # difference of standard Gumbels, so the fixed rule is scaled by 1 / tau
    # and centred at log(beta_a / beta_K) / tau.
    v, w = _alr_nodes(p.dim)
    v /= p.tau
    w /= p.tau ** (p.dim - 1)
    lb = p.beta.log
    v[:, :-1] += (lb[:-1] - lb[-1]) / p.tau
    v -= _log_sum_exp(np.copy(v))[:, None]  # log x
    f = _is_log_density_log(p.to_inverse_schlomilch(), v, _row_dot)
    f += np.sum(v, axis=1)
    return v, w, f


def quad_normalization(p: ConcreteParams) -> float:
    """Quadrature of the Concrete density; the target value is 1.

    The mass is accurate to about 1e-7 for tau in QUAD_TAU_RANGE,
    [1e-6, 1e6], and other tau raise DomainError: below, tau alpha is lost
    against 1 in log x @ (tau alpha + 1) (|mass - 1| is 6e-2 at
    tau = 1e-12); above, the ALR nodes collapse onto one x.
    """
    _, w, f = _log_density_nodes(p)
    total = float(np.einsum("i,i->", w, np.exp(f, out=f)))
    if not math.isfinite(total):
        raise NonFiniteIntegrand("the density quadrature is not finite")
    return total


def density_1d(p: InverseSchlomilchParams, log_x: np.ndarray) -> np.ndarray:
    """Log density at the rows of ``log_x``, as a 1-D integral over one Gumbel.

    With W_j = -log G_j, G_j ~ Gamma(alpha_j), the ALR coordinates
    s_j = tau (log x_j - log x_K) - (log beta_j - log beta_K) are W_j - W_K
    (s_K = 0).  Conditioning on W_K = g gives

        log f = (K-1) log tau - sum log Gamma(alpha_j) - sum log x_j
                + log int exp(sum_j [-alpha_j (g + s_j) - e^-(g + s_j)]) dg.

    The integrand is log-concave in g with its mode at
    g* = LSE(-s) - log alpha_+; each row integrates it with DENSITY_NODES
    Gauss-Legendre nodes on [g* - log1p(45 / alpha_+) - 1, g* + 45 / alpha_+ + 2].
    Neither log J(alpha) nor log k(x) is called, so the closed form is
    checked as written.
    """
    alpha, a_plus = p.alpha.weights, p.alpha_plus
    log_beta = p.beta.log
    s = log_x - log_x[:, -1:]
    s *= p.tau
    s -= log_beta - log_beta[-1]
    mode = _log_sum_exp(-s) - math.log(a_plus)
    # Nodes u = g - g*, shared by every row; the integrand is
    # exp(c - alpha_+ u - sum_j e^-(g* + s_j + u)) with c = -(alpha_+ g* + s . alpha).
    lo, hi = -math.log1p(45.0 / a_plus) - 1.0, 45.0 / a_plus + 2.0
    t, w = _gauss_legendre(DENSITY_NODES)
    half = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo) + half * t
    c = -(a_plus * mode + _row_dot(s, alpha))
    s += mode[:, None]  # g* + s_j
    acc = np.tile(-a_plus * u, (log_x.shape[0], 1))
    tmp = np.empty_like(acc)
    for j in range(p.dim):
        np.subtract(-s[:, j : j + 1], u, out=tmp)
        acc -= np.exp(tmp, out=tmp)
    top = np.max(acc, axis=1)
    acc -= top[:, None]
    log_int = c + top + np.log(_row_dot(np.exp(acc, out=acc), half * w))
    return (
        (p.dim - 1) * math.log(p.tau)
        - sum(map(math.lgamma, alpha.tolist()))
        - np.sum(log_x, axis=1)
        + log_int
    )


def _density_1d_check(name: str, p: InverseSchlomilchParams, rng: RngState) -> list[CheckResult]:
    """Max |log f| difference between the closed form and density_1d at exact draws."""
    log_x = sample_is_log(p, rng, DENSITY_DRAWS)
    err = np.max(np.abs(density_1d(p, log_x) - _is_log_density_log(p, log_x)))
    return _checks([name], 0.0, err, DENSITY_TOL)


def _check_samples(n: int) -> None:
    if n < 2:
        raise DomainError(f"iid standard errors need at least 2 samples, got {n}")


def _block_moments(v: np.ndarray):
    """Rows, mean and per-feature centred sum of squares of ``v``, which is centred in place.

    A function of its own so that each feature block is freed before
    :func:`_iid_moments` forms the next.
    """
    mean = np.mean(v, axis=0)
    np.subtract(v, mean, out=v)
    return v.shape[0], mean, np.einsum("ij,ij->j", v, v)


def _iid_moments(n: int, features):
    """Feature means mean(v) and their iid SEs sqrt(var(v) / n).

    ``v`` holds one feature vector per sample, shape (n, p), and is never
    formed whole: ``features(rows)`` returns v[rows] for a slice of at most
    ROW_BLOCK rows, as a fresh array that is consumed (centred in place).
    Block means and centred sums of squares are merged pairwise (Chan, Golub
    & LeVeque, "Algorithms for computing the sample variance", Amer. Statist.
    37, 1983), which is as stable as the two-pass formula.  With one block
    (n <= ROW_BLOCK) the result is that formula, mean(v) and
    sum((v - mean)^2) / (n - 1), with no merge.
    """
    _check_samples(n)
    seen = 0
    for start in range(0, n, ROW_BLOCK):
        rows, block_mean, block_m2 = _block_moments(features(slice(start, start + ROW_BLOCK)))
        if seen == 0:
            mean, m2 = block_mean, block_m2
        else:
            total = seen + rows
            delta = block_mean - mean
            mean = mean + delta * (rows / total)
            m2 += block_m2
            m2 += delta * delta * (seen * rows / total)
        seen += rows
    return mean, np.sqrt(m2 / (n - 1) / n)


def _pair_products(v: np.ndarray) -> np.ndarray:
    """Distinct products v_a v_b, a <= b, of each row of ``v`` (n, p), in triu order.

    The (n, p(p+1)/2) result is F order and filled one column at a time.
    """
    n, p = v.shape
    out = np.empty((n, p * (p + 1) // 2), order="F")
    for j, (a, b) in enumerate(zip(*np.triu_indices(p))):
        np.multiply(v[:, a], v[:, b], out=out[:, j])
    return out


def _basis_matrix(k: int, s: np.ndarray) -> np.ndarray:
    """The symmetric k x k matrix of second moments of s_a = log(X_0 / X_a).

    ``s`` holds entries (a, b), 1 <= a <= b, in triu order; row and column 0
    are 0, as s_0 = 0.
    """
    a, b = np.triu_indices(k - 1)
    mat = np.zeros((k, k))
    mat[a + 1, b + 1] = s
    mat[b + 1, a + 1] = s
    return mat


def _difference_moments(mat: np.ndarray, i, k, j, l):
    """(mat_kl - mat_kj) - (mat_il - mat_ij), and its summed absolute terms.

    With ``mat`` the second moments of s_a = log(X_0 / X_a) (from
    :func:`_basis_matrix`), this is the same moment of log(X_i / X_k) =
    s_k - s_i and log(X_j / X_l) = s_l - s_j.  Grouped this way it is an
    exact 0 where i = k or j = l, as that moment is.
    """
    terms = (mat[k, l], mat[k, j], mat[i, l], mat[i, j])
    return (terms[0] - terms[1]) - (terms[2] - terms[3]), sum(map(np.abs, terms))


def _tau_log_ratios(p: InverseSchlomilchParams, rng: RngState, n: int) -> np.ndarray:
    """(n, K - 1) draws of tau s_a = tau log(X_0 / X_a), a >= 1, for X ~ IS(p).

    tau s_a = tau (logit_0 - logit_a): the LSE cancels, and tau times the
    log-ratios stays finite over the tau window.  A view of the logits.
    """
    z = _sample_logits(p, rng, n)
    z *= p.tau
    ratio = z[:, 1:]
    np.subtract(z[:, :1], ratio, out=ratio)  # in place
    return ratio


def mc_log_ratio_moments(p, n: int, rng: RngState) -> list[CheckResult]:
    """Check the log-ratio means and covariances against closed forms.

    Monte Carlo checks the basis: the means of s_a = log(X_0 / X_a),
    ``lr_mean[0,a]`` with a >= 1, and their covariances ``lr_cov[0,a,0,b]``
    with a <= b.  The features are tau s_a (:func:`_tau_log_ratios`);
    estimates and SEs are scaled back by 1/tau and 1/tau^2.  Every other
    log-ratio is a difference log(X_i / X_k) = s_k - s_i (s_0 = 0), so its
    mean is mu_k - mu_i, mu_a = E[s_a], and its covariances are fixed
    linear functions of the basis ones (Aitchison 1982):

        Cov(log X_i/X_k, log X_j/X_l) = C_kl - C_kj - C_il + C_ij,  C_ab = Cov(s_a, s_b).

    One deterministic ``lr_exact`` check (:func:`_worst_check`) holds the
    closed lr_mean at every i < k and the closed lr_cov at every pair of
    those pairs in order to these identities applied to the closed basis,
    with tolerance EXACT_RTOL of the summed absolute basis terms.
    """
    if isinstance(p, ConcreteParams):
        p = p.to_inverse_schlomilch()
    k = p.dim
    ratio = _tau_log_ratios(p, rng, n)
    mean_est, mean_se = _iid_moments(n, lambda rows: ratio[rows].copy("F"))
    ratio -= mean_est
    cov_est, cov_se = _iid_moments(n, lambda rows: _pair_products(ratio[rows]))
    others = np.arange(1, k)
    a, b = np.triu_indices(k - 1)
    mu = np.append(0.0, lr_mean(p, 0, others))
    cov = _basis_matrix(k, lr_cov(p, 0, a + 1, 0, b + 1))
    i, kk = np.triu_indices(k, 1)  # every distinct log(X_i / X_kk)
    r, s = np.triu_indices(i.size)
    quad = i[r], kk[r], i[s], kk[s]
    cov_identity, cov_scale = _difference_moments(cov, *quad)
    closed = np.concatenate([lr_mean(p, i, kk), lr_cov(p, *quad)])
    identity = np.concatenate([mu[kk] - mu[i], cov_identity])
    scale = np.concatenate([np.abs(mu[kk]) + np.abs(mu[i]), cov_scale])
    return holm(_mc_checks(
        [f"lr_mean[0,{e}]" for e in others.tolist()],
        mu[1:], mean_est / p.tau, mean_se / p.tau,
    ) + _mc_checks(
        [f"lr_cov[0,{e},0,{f}]" for e, f in zip((a + 1).tolist(), (b + 1).tolist())],
        cov[a + 1, b + 1], cov_est / p.tau**2, cov_se / p.tau**2,
    )) + _worst_check("lr_exact", closed, identity, EXACT_RTOL * scale)


def mc_special_moments(beta, tau: float, n: int, rng: RngState) -> list[CheckResult]:
    """Check the raw second moments at Dirichlet vector 1 + e_m + e_n.

    They are symmetric in (m, n) and (k, l).  Monte Carlo checks the basis
    cells i = 0, 1 <= k <= l of the pairs RAW2_MC_PAIRS:
    M_kl = E[s_k s_l] with s_a = log(X_0 / X_a), s_0 = 0, from the
    features tau s_a (:func:`_tau_log_ratios`) of exact draws at
    :func:`special_params`.  The pairs are drawn in order from ``rng``, so
    their checks are independent.

    Every pair m <= n has one exact check ``raw2_exact[m=..,n=..]``
    (:func:`_worst_check`) over all its K^3 cells.  In a Monte Carlo pair
    each cell is held to
    E[log(X_i/X_k) log(X_i/X_l)] = E[(s_k - s_i)(s_l - s_i)]
    = (M_kl - M_ki) - (M_il - M_ii), applied to the closed basis cells.  In
    every other pair it is held to Cov + E E of its two log-ratios,
    lr_cov(i, k, i, l) + lr_mean(i, k) lr_mean(i, l) at the same Dirichlet
    vector.  The tolerance is EXACT_RTOL of the summed absolute terms.
    Where i is in {k, l} both references are exact zeros and the tolerance
    is 0, so the closed form must be an exact 0.
    """
    beta = _as_weights(beta)
    tau = _check_tau(tau)
    k = beta.dim
    _check_samples(n)
    cols = np.arange(k)
    a, b = np.triu_indices(k - 1)
    basis = (0, a + 1, b + 1)
    i, kk, l = np.indices((k, k, k)).reshape(3, -1)
    zero = (i == kk) | (i == l)
    grid = np.ix_(cols, cols, cols)
    checks = []
    for m in range(k):
        for nn in range(m, k):
            target = raw_second_moment_special(beta, tau, m, nn, *grid)
            p = special_params(beta, tau, m, nn)
            if (m, nn) in RAW2_MC_PAIRS:
                ratio = _tau_log_ratios(p, rng, n)
                est, se = _iid_moments(n, lambda rows: _pair_products(ratio[rows]))
                del ratio  # free this pair's draws before the next pair's
                names = [f"raw2[m={m},n={nn},i=0,k={e},l={f}]" for e, f in zip(*basis[1:])]
                checks += _mc_checks(names, target[basis], est / tau**2, se / tau**2)
                reference, scale = _difference_moments(_basis_matrix(k, target[basis]), i, kk, i, l)
                scale[zero] = 0.0
            else:
                cov = lr_cov(p, i, kk, i, l)
                prod = lr_mean(p, i, kk) * lr_mean(p, i, l)
                reference, scale = cov + prod, np.abs(cov) + np.abs(prod)
            checks += _worst_check(
                f"raw2_exact[m={m},n={nn}]", target.ravel(), reference, EXACT_RTOL * scale
            )
    return holm(checks)


# (multiple m of the step, weight w) pairs: f'(theta) ~ sum_j w_j f(theta + m_j step) / step.
_CENTRAL = ((1.0, 0.5), (-1.0, -0.5))
_FORWARD = ((0.0, -1.5), (1.0, 2.0), (2.0, -0.5))  # one-sided, also O(step^2)
_BACKWARD = tuple((-m, -w) for m, w in _FORWARD)


def _reduced_scores(p: ConcreteParams, log_x: np.ndarray, h: float):
    """Finite-difference scores in (beta_1..beta_{K-1}, tau), canonical gauge, and their gains.

    Coordinate a steps theta = (beta, tau) along row a of the gauge
    contraction.  A beta row steps by h min(beta_a, beta_K), so both stay
    positive, with a central difference.  tau steps by h tau, centrally
    where both points stay inside the tau window, else one-sided away from
    its edge.  gain[a] = sum_j |w_j| / step_a is the factor by which column
    a can amplify a rounding error of one log density.
    """
    k = p.dim
    beta = p.normalized_beta()
    theta = np.append(beta, p.tau)
    steps = h * np.append(np.minimum(beta[:-1], beta[-1]), p.tau)

    def inside(stencil) -> bool:
        taus = [p.tau + steps[-1] * m for m, _ in stencil]
        return all(_SCALE_LO <= t <= _SCALE_HI for t in taus)

    tau_stencil = next(st for st in (_CENTRAL, _FORWARD, _BACKWARD) if inside(st))

    def log_f(t: np.ndarray) -> np.ndarray:
        params = ConcreteParams(beta=t[:k], tau=t[k]).to_inverse_schlomilch()
        return _is_log_density_log(params, log_x)

    scores = np.zeros((log_x.shape[0], k), order="F")
    gain = np.empty(k)
    for a, row in enumerate(_gauge_contraction(k)):
        stencil = tau_stencil if a == k - 1 else _CENTRAL
        col = scores[:, a]
        for m, w in stencil:
            col += w * log_f(theta + m * steps[a] * row)
        col /= steps[a]
        gain[a] = sum(abs(w) for _, w in stencil) / steps[a]
    return scores, gain


def _scaled_scores(p: ConcreteParams, w: np.ndarray) -> np.ndarray:
    """Scores times D = diag(beta_1..beta_{K-1}, tau) of Concrete draws, from their Gumbels.

    ``p`` is in the canonical gauge and row i of ``w`` (F order) holds the
    Gumbels W = -log G of a draw x = softmax((log beta + W) / tau), up to a
    row constant; ``w`` is consumed.  With u = softmax(-W), the uniform
    image of x, and t = log beta + W, which is tau log x plus a row constant:

        beta_i d log f / d beta_i = 1 - K u_i, taken along the gauge rows,
            so the beta_a column is (1 - K u_a) - (beta_a / beta_K)(1 - K u_K);
        tau d log f / d tau = (K - 1) - sum_i t_i + K sum_i u_i t_i,

    which no row constant of t changes.  Neither column involves x or
    1 / tau, so the columns have one law at every tau.  The result is u's
    (n, K) block, reused; beside ``w`` and u it allocates one vector of
    length n at a time.
    """
    k = p.dim
    ratio = p.beta.weights[:-1] / p.beta.weights[-1]
    u = np.negative(w)
    _softmax(u, out=u)
    w += p.beta.log  # t
    tau_col = np.sum(w, axis=1)
    np.subtract(k - 1, tau_col, out=tau_col)
    w *= u
    acc = w[:, 0]  # sum_i u_i t_i, with the adds of np.sum(w, axis=1) in order
    for j in range(1, k):
        acc += w[:, j]
    acc *= k
    tau_col += acc
    u *= -k
    u += 1.0
    for a in range(k - 1):  # acc, a column of w, is free scratch from here
        u[:, a] -= np.multiply(ratio[a], u[:, -1], out=acc)
    u[:, -1] = tau_col
    return u


def _score_fd_check(p: ConcreteParams, rng: RngState) -> list[CheckResult]:
    """Closed-form scaled scores against finite differences of the log density.

    At DENSITY_DRAWS exact log-space draws of canonical ``p``, compares
    :func:`_scaled_scores` with D times the differences D(h) of
    :func:`_reduced_scores` at h = SCORE_FD_H.  Each entry's tolerance is
    the sum of
    - D |D(2h) - D(h)|, three times the leading O(h^2) truncation of D(h);
    - D times 4 eps times the gain of its column times the absolute
      log-density terms of its row, |log J| + alpha_+ |log k(x)| +
      |log x| . (tau alpha + 1), which bounds the rounding of the
      differenced log densities;
    - SCORE_FD_TOL (1 + |closed form|), a floor for higher-order terms.
    The estimate is the largest difference in units of its tolerance
    (:func:`_worst_check`).
    """
    ip = p.to_inverse_schlomilch()
    log_x = sample_is_log(ip, rng, DENSITY_DRAWS)
    d = np.append(p.beta.weights[:-1], p.tau)
    fd, gain = _reduced_scores(p, log_x, SCORE_FD_H)
    trunc = np.abs(_reduced_scores(p, log_x, 2.0 * SCORE_FD_H)[0] - fd)
    closed = _scaled_scores(p, p.tau * log_x - p.beta.log)  # W up to a row constant
    terms = (
        abs(log_norm_const(ip))
        + ip.alpha_plus * np.abs(_log_k(p.beta.log, p.tau, log_x))
        + _row_dot(np.abs(log_x), p.tau * ip.alpha.weights + 1.0)
    )
    tol = SCORE_FD_TOL * (1.0 + np.abs(closed))
    tol += d * (trunc + (4.0 * np.finfo(float).eps) * np.outer(terms, gain))
    return _worst_check("score_fd", d * fd, closed, tol)


def mc_score_fisher(p: ConcreteParams, n: int, rng: RngState) -> list[CheckResult]:
    """Check the reduced Fisher matrix as the mean outer product of closed-form scores.

    :func:`fisher_reduced` is evaluated first, so beta ratios it cannot
    represent raise DomainError before any draw.  The n scores come from
    :func:`_scaled_scores` of the sampler's own Gumbel draws, scaled by
    D = diag(beta_1..beta_{K-1}, tau): E[D s s^T D] and E[D s] are estimated
    and reported divided by D, against fisher_reduced and 0.  One
    deterministic ``score_fd`` check (:func:`_score_fd_check`, step SCORE_FD_H)
    ties the closed-form scores to the density's finite differences.
    """
    k = p.dim
    canonical = p.canonical()
    fisher = fisher_reduced(canonical).entries
    fd = _score_fd_check(canonical, rng)
    d = np.append(canonical.beta.weights[:-1], canonical.tau)
    s = _scaled_scores(canonical, sample_standard_gumbel(rng, size=(n, k)))
    a, b = np.triu_indices(k)  # the matrix is symmetric
    # The triu products are the entries themselves.
    est, se = _iid_moments(n, lambda rows: _pair_products(s[rows]))
    mean_score, score_se = _iid_moments(n, lambda rows: s[rows].copy("F"))
    names = [f"fisher[{i},{j}]" for i, j in zip(a, b)]
    return holm(_mc_checks(
        names, fisher[a, b], est / d[a] / d[b], se / d[a] / d[b]
    ) + _mc_checks(
        [f"score_mean[{i}]" for i in range(k)], 0.0, mean_score / d, score_se / d
    )) + fd


def quad_fisher(p: ConcreteParams) -> np.ndarray:
    """Reduced Fisher matrix as E[s s^T] of the closed-form scores, by density quadrature.

    At the nodes of :func:`quad_normalization` (so K <= 3, and tau in
    QUAD_TAU_RANGE), the scaled scores D s of :func:`_scaled_scores`, with
    D = diag(beta_1..beta_{K-1}, tau) in the canonical gauge, are weighted
    by the density and summed, then divided by D on both sides.  Beta
    ratios whose matrix is not finite raise NonFiniteIntegrand.
    """
    canonical = p.canonical()
    log_x, w, f = _log_density_nodes(canonical)
    d = np.append(canonical.beta.weights[:-1], canonical.tau)
    with np.errstate(all="ignore"):  # a non-finite matrix raises below
        s = _scaled_scores(canonical, canonical.tau * log_x - canonical.beta.log)
        s *= np.sqrt(w * np.exp(f))[:, None]  # so the sum is symmetric bit for bit
        fisher = np.einsum("ij,ik->jk", s, s) / np.outer(d, d)
    if not np.all(np.isfinite(fisher)):
        raise NonFiniteIntegrand("the Fisher quadrature is not finite")
    return fisher


def pullback_metric_check(p: ConcreteParams) -> float:
    """Max deviation of J^T I J from (ell^2/eta_K^2) Identity.

    J is the central-difference Jacobian of the half-space-to-parameter map
    at the image of ``p``; zero deviation is the statement that the
    information metric is hyperbolic in these coordinates.
    """
    k = p.dim
    q = to_poincare(p)
    eta = q.as_vector()
    mat = fisher_reduced(p).entries
    ell = curvature_length(k)

    def params_at(eta_vec: np.ndarray) -> np.ndarray:
        pt = from_poincare(type(q)(eta=eta_vec[:-1], eta_k=float(eta_vec[-1])))
        return np.append(pt.normalized_beta()[:-1], pt.tau)

    jac = np.empty((k, k))
    for b in range(k):
        step = PULLBACK_H * max(1.0, abs(eta[b]))
        ep = eta.copy()
        ep[b] += step
        em = eta.copy()
        em[b] -= step
        jac[:, b] = (params_at(ep) - params_at(em)) / (2.0 * step)

    pulled = jac.T @ mat @ jac
    target = (ell**2 / eta[-1] ** 2) * np.eye(k)
    return float(np.max(np.abs(pulled - target)))


def _gumbel_checks(rng: RngState, n: int) -> list[CheckResult]:
    g = sample_standard_gumbel(rng, size=n)
    g_mean = np.mean(g)
    est, se = _iid_moments(
        n, lambda rows: np.column_stack([g[rows], (g[rows] - g_mean) ** 2])
    )
    return holm(_mc_checks(["gumbel_mean", "gumbel_var"], [EULER_GAMMA, PI_SQ_OVER_6], est, se))


def _rounding_checks(beta, tau: float, rng: RngState, n: int) -> list[CheckResult]:
    """Vertex frequencies against the rounding law.

    A frequency's SE is its vertex indicator's under the null, sqrt(p (1 - p) / n)
    at the closed-form p, so it stays positive where a vertex gets no draws.
    """
    _check_samples(n)
    p = ConcreteParams(beta=np.asarray(beta, float), tau=tau)
    est = _rounding_frequencies(p, rng, n)
    target = rounding_probabilities(p.beta)
    se = np.sqrt(target * (1.0 - target) / n)
    return holm(_mc_checks([f"rounding_p[{i}]" for i in range(p.dim)], target, est, se))


def _transform_checks(beta, tau: float, rng: RngState, n: int) -> list[CheckResult]:
    p = ConcreteParams(beta=np.asarray(beta, float), tau=tau)
    k = p.dim
    x = sample_concrete(p, rng, n)

    def image(rows):
        """The uniform image Y and log Y, one F-order block."""
        y = _to_uniform_arr(p, x[rows])
        out = np.empty((y.shape[0], 2 * k), order="F")
        out[:, :k] = y
        np.log(y, out=out[:, k:])
        return out

    # The image is Dirichlet(1, ..., 1): E[Y_i] = 1/K and E[log Y_i] = psi(1) - psi(K).
    est, se = _iid_moments(n, image)
    names = [f"uniform_mean[{i}]" for i in range(k)] + [f"uniform_log_mean[{i}]" for i in range(k)]
    target = np.repeat([1.0 / k, digamma(1.0) - digamma(k)], k)
    return holm(_mc_checks(names, target, est, se))


def _distance_halfspace_checks(k: int, rng: RngState) -> list[CheckResult]:
    gen = rng.generator
    d_half, d_closed = [], []
    for _ in range(DISTANCE_PAIRS):
        b1 = np.exp(gen.uniform(-1.0, 1.0, size=k))
        b2 = np.exp(gen.uniform(-1.0, 1.0, size=k))
        t1 = float(gen.uniform(0.4, 3.0))
        t2 = float(gen.uniform(0.4, 3.0))
        p = ConcreteParams(beta=b1, tau=t1)
        q = ConcreteParams(beta=b2, tau=t2)
        d_closed.append(fr_distance(p, q).value)
        d_half.append(half_space_distance(to_poincare(p), to_poincare(q)))
    names = [f"distance_halfspace[{i}]" for i in range(DISTANCE_PAIRS)]
    return _checks(names, d_half, d_closed, 1e-10)


def _density_checks(beta: np.ndarray, rng: RngState) -> list[CheckResult]:
    """The Concrete density at four tau: simplex quadrature up to K = 3, density_1d from K = 4."""
    taus = (0.5, 1.0, 2.0, 5.0)
    if beta.size <= 3:
        return _checks(
            [f"normalization[tau={tau}]" for tau in taus], 1.0,
            [quad_normalization(ConcreteParams(beta=beta, tau=tau)) for tau in taus], QUAD_TOL,
        )
    checks = []
    for tau in taus:
        p = ConcreteParams(beta=beta, tau=tau).to_inverse_schlomilch()
        checks += _density_1d_check(f"density_1d[tau={tau}]", p, rng)
    return checks


def _quad_fisher_checks(p: ConcreteParams) -> list[CheckResult]:
    """quad_fisher against fisher_reduced at K <= 3, as the density quadrature; none from K = 4."""
    if p.dim > 3:
        return []
    a, b = np.triu_indices(p.dim)
    return _checks(
        [f"quad_fisher[{i},{j}]" for i, j in zip(a, b)],
        fisher_reduced(p).entries[a, b], quad_fisher(p)[a, b], QUAD_TOL,
    )


def _pullback_checks(k: int, rng: RngState) -> list[CheckResult]:
    """The worst pullback_metric_check deviation over five random parameters."""
    gen = rng.generator
    worst = 0.0
    for _ in range(5):
        b = np.exp(gen.uniform(-1.0, 1.0, size=k))
        tau = float(gen.uniform(0.4, 3.0))
        worst = max(worst, pullback_metric_check(ConcreteParams(beta=b, tau=tau)))
    return _checks(["pullback_max_dev"], 0.0, worst, 1e-4)


def _group_processes(groups: int) -> int:
    """Processes that run ``groups`` check groups: one per available CPU, at
    most one per group; 1 where fork is missing."""
    return min(available_cpus(), groups)


def run_suite(k: int, seed: int, n: int = MC_SAMPLES) -> list[CheckResult]:
    """Default verification suite for dimension k with a fixed seed.

    A table of check groups in report order, each drawing only from its own
    ``rng.child(i)``, so the checks do not depend on the number of
    processes: :func:`forks.ordered` runs the groups on every available CPU
    and gives back their checks in table order.  :func:`holm` judges the
    union of their Monte Carlo checks as one family.  Where more than one
    CPU is available the call forks worker processes and reaps them before
    it returns.
    """
    if k < 2:
        raise DomainError(f"the suite needs k >= 2, got k = {k}")
    if k > MAX_SUITE_K:
        raise UnsupportedDim(f"the suite supports k <= {MAX_SUITE_K}, got k = {k}")
    _check_samples(n)
    rng = RngState(seed)
    beta = np.arange(1.0, k + 1.0)
    alpha = np.linspace(2.0, 1.0, k)
    is_params = InverseSchlomilchParams(alpha=alpha, beta=beta, tau=1.0)
    concrete = ConcreteParams(beta=beta, tau=1.0)
    groups = (
        lambda: _density_checks(beta, rng.child(10)),
        lambda: _density_1d_check(f"is_density_1d[tau={is_params.tau}]", is_params, rng.child(11)),
        lambda: _gumbel_checks(rng.child(1), n),
        lambda: _rounding_checks(beta, 0.7, rng.child(2), n),
        lambda: _transform_checks(beta, 1.5, rng.child(3), n),
        lambda: mc_log_ratio_moments(concrete, n, rng.child(4)),
        lambda: [
            replace(c, name="is_" + c.name)
            for c in mc_log_ratio_moments(is_params, n, rng.child(5))
        ],
        lambda: mc_special_moments(beta, 1.0, n, rng.child(6)),
        lambda: mc_score_fisher(concrete, n, rng.child(7)),
        lambda: _quad_fisher_checks(concrete),
        lambda: _pullback_checks(k, rng.child(8)),
        lambda: _distance_halfspace_checks(k, rng.child(9)),
    )
    with ordered(groups, _group_processes(len(groups))) as values:
        return holm([c for checks in values for c in checks])
