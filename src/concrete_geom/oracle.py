"""Independent numerical oracles for the closed forms in this package.

Monte Carlo estimators use self-normalized importance sampling with the
Concrete sampler as the proposal; standard errors come from the means of
20 contiguous batches, and every comparison uses a 4-standard-error
acceptance band.  All moment estimates of one sample are contractions of
one weighted mean vector and one second-moment matrix of its log
components, per batch and for the whole sample.  Quadrature and
finite-difference oracles use fixed absolute tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ConcreteParams,
    InverseSchlomilchParams,
    RngState,
    _concrete_log_density_arr,
    _is_log_density_arr,
    _to_uniform_arr,
    rounding_probabilities,
    sample_concrete,
)
from .errors import DegenerateWeights, DomainError, UnsupportedDim
from .geometry import (
    _gauge_contraction,
    curvature_length,
    fisher_reduced,
    from_poincare,
    to_poincare,
)
from .moments import lr_cov, lr_mean, raw_second_moment_special, special_params
from .simplex import QuadratureConfig, integrate_simplex
from .special import EULER_GAMMA, PI_SQ_OVER_6

BATCHES = 20


@dataclass(frozen=True)
class CheckResult:
    """One oracle comparison: closed-form target vs numerical estimate."""

    name: str
    target: float
    estimate: float
    se_or_tol: float
    passed: bool


def _se_check(name: str, target: float, estimate: float, se: float) -> CheckResult:
    band = 4.0 * se
    return CheckResult(name, target, estimate, se, abs(estimate - target) <= band)


def _tol_check(name: str, target: float, estimate: float, tol: float) -> CheckResult:
    return CheckResult(name, target, estimate, tol, abs(estimate - target) <= tol)


def density_quad_config(p, extra: float = 40.0) -> QuadratureConfig:
    """ALR box sized so density-weighted tails are negligible.

    Large temperatures concentrate the density on a scale 1/tau, so the
    panel width shrinks accordingly.
    """
    lb = p.beta.log
    spread = float(np.max(lb) - np.min(lb))
    return QuadratureConfig(
        y_max=(extra + spread) / min(p.tau, 1.0),
        panel_width=8.0 / max(1.0, p.tau),
    )


def quad_normalization(p: ConcreteParams, config: QuadratureConfig | None = None) -> float:
    """Quadrature of the Concrete density; the target value is 1."""
    cfg = config or density_quad_config(p)
    return integrate_simplex(
        lambda x: np.exp(_concrete_log_density_arr(p, x)), p.dim, cfg, vectorized=True
    )


def _normalized_weights(log_w: np.ndarray, n: int) -> np.ndarray:
    w = np.exp(log_w - np.max(log_w))
    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    if ess < n / 100.0:
        raise DegenerateWeights(f"effective sample size {ess:.1f} below {n / 100:.1f}")
    return w / np.sum(w)


def _batch_moments(d: np.ndarray, w: np.ndarray, central: bool):
    """Self-normalized weighted moments of the columns of ``d``, per block.

    Block 0 is the whole sample and blocks 1..BATCHES are its contiguous
    ``np.array_split`` batches.  Returns the mean vectors, shape
    (1 + BATCHES, p), and the second-moment matrices, shape
    (1 + BATCHES, p, p), centred on each block's own mean when ``central``
    and raw otherwise.
    """
    n = d.shape[0]
    if n < BATCHES:
        raise DomainError(f"batch-means SEs need at least {BATCHES} samples, got {n}")
    blocks = [(d, w)] + list(zip(np.array_split(d, BATCHES), np.array_split(w, BATCHES)))
    means, seconds = [], []
    for d_b, w_b in blocks:
        w_b = w_b / np.sum(w_b)
        mu = w_b @ d_b
        c = d_b - mu if central else d_b
        means.append(mu)
        seconds.append((c * w_b[:, None]).T @ c)
    return np.array(means), np.array(seconds)


def _est_se(blocks: np.ndarray):
    """Whole-sample estimate and batch-means SE from per-block values (axis 0)."""
    return blocks[0], np.std(blocks[1:], axis=0, ddof=1) / math.sqrt(BATCHES)


def _is_samples(p: InverseSchlomilchParams, n: int, rng: RngState):
    """Concrete-proposal draws and self-normalized weights targeting IS(p)."""
    proposal = ConcreteParams(beta=p.beta, tau=p.tau)
    x = sample_concrete(proposal, rng, n)
    log_w = _is_log_density_arr(p, x) - _concrete_log_density_arr(proposal, x)
    w = _normalized_weights(log_w, n)
    return np.log(x), w


def mc_log_ratio_moments(p, n: int, rng: RngState) -> list[CheckResult]:
    """Check all pairwise log-ratio means and covariances against closed forms."""
    if isinstance(p, ConcreteParams):
        p = p.to_inverse_schlomilch()
    log_x, w = _is_samples(p, n, rng)
    k = p.dim
    pairs = [(i, kk) for i in range(k) for kk in range(k) if i != kk]
    eye = np.eye(k)
    d = np.array([eye[i] - eye[kk] for i, kk in pairs])  # log X -> log(X_i / X_kk)
    mu, cov = _batch_moments(log_x, w, central=True)
    mean_est, mean_se = _est_se(mu @ d.T)
    cov_est, cov_se = _est_se(d @ cov @ d.T)
    checks = [
        _se_check(f"lr_mean[{i},{kk}]", lr_mean(p, i, kk), mean_est[r], mean_se[r])
        for r, (i, kk) in enumerate(pairs)
    ]
    for r, (i, kk) in enumerate(pairs):
        for s, (j, l) in enumerate(pairs):
            checks.append(_se_check(
                f"lr_cov[{i},{kk},{j},{l}]", lr_cov(p, i, kk, j, l), cov_est[r, s], cov_se[r, s]
            ))
    return checks


def mc_special_moments(beta, tau: float, n: int, rng: RngState) -> list[CheckResult]:
    """Check the raw second moments at Dirichlet vector 1 + e_m + e_n, all tuples."""
    k = special_params(beta, tau, 0, 0).dim
    # diff[i, kk] = e_i - e_kk, so raw2[i, kk, l] = diff[i, kk] M diff[i, l].
    eye = np.eye(k)
    diff = eye[:, None, :] - eye[None, :, :]
    checks = []
    for m in range(k):
        for nn in range(k):
            p = special_params(beta, tau, m, nn)
            log_x, w = _is_samples(p, n, rng.child(m * k + nn))
            # Log-ratios to the last component keep the raw moments well scaled.
            _, raw = _batch_moments(log_x - log_x[:, -1:], w, central=False)
            est, se = _est_se(np.einsum("ika,bac,ilc->bikl", diff, raw, diff))
            se = np.maximum(se, 1e-15)
            for i, kk, l in np.ndindex(k, k, k):
                target = raw_second_moment_special(beta, tau, m, nn, i, kk, l)
                checks.append(_se_check(
                    f"raw2[m={m},n={nn},i={i},k={kk},l={l}]", target, est[i, kk, l], se[i, kk, l]
                ))
    return checks


def _reduced_scores(p: ConcreteParams, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference scores in (beta_1..beta_{K-1}, tau), canonical gauge."""
    k = p.dim
    beta = p.normalized_beta()
    n = x.shape[0]
    scores = np.empty((n, k))
    for a in range(k - 1):
        step = h * beta[a]
        bp = beta.copy()
        bp[a] += step
        bp[k - 1] -= step
        bm = beta.copy()
        bm[a] -= step
        bm[k - 1] += step
        lp = _concrete_log_density_arr(ConcreteParams(beta=bp, tau=p.tau), x)
        lm = _concrete_log_density_arr(ConcreteParams(beta=bm, tau=p.tau), x)
        scores[:, a] = (lp - lm) / (2.0 * step)
    step = h * p.tau
    lp = _concrete_log_density_arr(ConcreteParams(beta=beta, tau=p.tau + step), x)
    lm = _concrete_log_density_arr(ConcreteParams(beta=beta, tau=p.tau - step), x)
    scores[:, k - 1] = (lp - lm) / (2.0 * step)
    return scores


@dataclass(frozen=True)
class ScoreFisherResult:
    estimate: np.ndarray
    se: np.ndarray
    checks: list


def mc_score_fisher(p: ConcreteParams, n: int, h: float, rng: RngState) -> ScoreFisherResult:
    """Estimate the reduced Fisher matrix as the mean score outer product."""
    k = p.dim
    canonical = p.canonical()
    x = sample_concrete(canonical, rng, n)
    s = _reduced_scores(canonical, x, h)
    outer = s[:, :, None] * s[:, None, :]
    est = np.mean(outer, axis=0)
    se = np.std(outer, axis=0, ddof=1) / math.sqrt(n)
    target = fisher_reduced(canonical).entries
    checks = []
    for a in range(k):
        for b in range(a, k):
            checks.append(
                _se_check(f"fisher[{a},{b}]", target[a, b], est[a, b], se[a, b])
            )
    mean_score = np.mean(s, axis=0)
    score_se = np.std(s, axis=0, ddof=1) / math.sqrt(n)
    for a in range(k):
        checks.append(_se_check(f"score_mean[{a}]", 0.0, mean_score[a], score_se[a]))
    return ScoreFisherResult(estimate=est, se=se, checks=checks)


def quad_fisher(p: ConcreteParams, config: QuadratureConfig | None = None) -> np.ndarray:
    """Reduced Fisher matrix for K = 2, assembled from the two quadrature pieces.

    The first piece is the Hessian of log J_0; the second is the density
    quadrature of the Hessian of log h.  The redundant (K+1)-parameter
    matrix is then contracted onto the canonical-gauge coordinates.
    """
    k = p.dim
    if k != 2:
        raise UnsupportedDim("quad_fisher supports only K = 2")
    canonical = p.canonical()
    beta = canonical.beta.weights
    tau = canonical.tau
    cfg = config or density_quad_config(canonical)

    term1 = np.zeros((k + 1, k + 1))
    term1[:k, :k] = np.diag(1.0 / beta**2)
    term1[k, k] = (k - 1) / tau**2

    lb = canonical.beta.log

    def hessian_log_h(x: np.ndarray) -> np.ndarray:
        log_x = np.log(x)
        t = lb[None, :] - tau * log_x
        m = np.max(t, axis=1, keepdims=True)
        e = np.exp(t - m)
        u = e / np.sum(e, axis=1, keepdims=True)
        s1 = np.sum(u * log_x, axis=1)
        s2 = np.sum(u * log_x**2, axis=1)
        hess = np.empty((x.shape[0], k + 1, k + 1))
        hess[:, :k, :k] = k * (u[:, :, None] * u[:, None, :]) / np.outer(beta, beta)
        for i in range(k):
            hess[:, i, k] = hess[:, k, i] = k * u[:, i] * (log_x[:, i] - s1) / beta[i]
        hess[:, k, k] = k * (s1**2 - s2)
        return hess

    term2 = np.empty((k + 1, k + 1))
    for a in range(k + 1):
        for b in range(a, k + 1):
            def integrand(x, a=a, b=b):
                dens = np.exp(_concrete_log_density_arr(canonical, x))
                return dens * hessian_log_h(x)[:, a, b]

            term2[a, b] = term2[b, a] = integrate_simplex(
                integrand, k, cfg, vectorized=True
            )

    t = _gauge_contraction(k)
    return t @ (term1 - term2) @ t.T


def pullback_metric_check(p: ConcreteParams, h: float = 1e-5) -> float:
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
        pt = from_poincare(
            type(q)(eta=eta_vec[:-1], eta_k=float(eta_vec[-1]), ell=ell)
        )
        return np.append(pt.normalized_beta()[:-1], pt.tau)

    jac = np.empty((k, k))
    for b in range(k):
        step = h * max(1.0, abs(eta[b]))
        ep = eta.copy()
        ep[b] += step
        em = eta.copy()
        em[b] -= step
        jac[:, b] = (params_at(ep) - params_at(em)) / (2.0 * step)

    pulled = jac.T @ mat @ jac
    target = (ell**2 / eta[-1] ** 2) * np.eye(k)
    return float(np.max(np.abs(pulled - target)))


def _gumbel_checks(rng: RngState, n: int) -> list[CheckResult]:
    from .distributions import sample_standard_gumbel

    g = sample_standard_gumbel(rng, size=n)
    mean_se = math.pi / math.sqrt(6.0) / math.sqrt(n)
    checks = [
        _se_check("gumbel_mean", EULER_GAMMA, float(np.mean(g)), mean_se)
    ]
    var = float(np.var(g, ddof=1))
    var_se = float(np.std((g - np.mean(g)) ** 2, ddof=1)) / math.sqrt(n)
    checks.append(_se_check("gumbel_var", PI_SQ_OVER_6, var, var_se))
    return checks


def _rounding_checks(beta, tau: float, rng: RngState, n: int) -> list[CheckResult]:
    p = ConcreteParams(beta=np.asarray(beta, float), tau=tau)
    x = sample_concrete(p, rng, n)
    target = rounding_probabilities(p.beta)
    hits = np.argmax(x, axis=1)
    checks = []
    for i in range(p.dim):
        freq = float(np.mean(hits == i))
        se = math.sqrt(target[i] * (1.0 - target[i]) / n)
        checks.append(_se_check(f"rounding_p[{i}]", float(target[i]), freq, se))
    # Affine volume-ratio route: det of the identity with column i set to p.
    for i in range(p.dim):
        m = np.eye(p.dim)
        m[:, i] = target
        det = float(np.linalg.det(m))
        checks.append(_tol_check(f"rounding_volume[{i}]", float(target[i]), det, 1e-12))
    return checks


def _transform_checks(beta, tau: float, rng: RngState, n: int) -> list[CheckResult]:
    p = ConcreteParams(beta=np.asarray(beta, float), tau=tau)
    x = sample_concrete(p, rng, n)
    y = _to_uniform_arr(p, x)
    # The image is uniform on the simplex: each component has mean 1/K.
    checks = []
    for i in range(p.dim):
        est = float(np.mean(y[:, i]))
        se = float(np.std(y[:, i], ddof=1)) / math.sqrt(n)
        checks.append(_se_check(f"uniform_mean[{i}]", 1.0 / p.dim, est, se))
    return checks


def _distance_halfspace_checks(k: int, rng: RngState, pairs: int = 20) -> list[CheckResult]:
    from .geometry import fr_distance, half_space_distance

    gen = rng.generator
    checks = []
    for idx in range(pairs):
        b1 = np.exp(gen.uniform(-1.0, 1.0, size=k))
        b2 = np.exp(gen.uniform(-1.0, 1.0, size=k))
        t1 = float(gen.uniform(0.4, 3.0))
        t2 = float(gen.uniform(0.4, 3.0))
        p = ConcreteParams(beta=b1, tau=t1)
        q = ConcreteParams(beta=b2, tau=t2)
        d_closed = fr_distance(p, q).value
        d_half = half_space_distance(to_poincare(p), to_poincare(q))
        checks.append(_tol_check(f"distance_halfspace[{idx}]", d_half, d_closed, 1e-10))
    return checks


def run_suite(k: int, seed: int, n: int = 100_000) -> list[CheckResult]:
    """Default verification suite for dimension k with a fixed seed."""
    rng = RngState(seed)
    beta = np.arange(1.0, k + 1.0)
    checks = []

    for idx, tau in enumerate((0.5, 1.0, 2.0, 5.0)):
        p = ConcreteParams(beta=beta, tau=tau)
        tol = 1e-6 if k == 2 else 1e-4
        checks.append(
            _tol_check(f"normalization[tau={tau}]", 1.0, quad_normalization(p), tol)
        )

    checks.extend(_gumbel_checks(rng.child(1), n))
    checks.extend(_rounding_checks(beta, 0.7, rng.child(2), n))
    checks.extend(_transform_checks(beta, 1.5, rng.child(3), n))

    concrete = ConcreteParams(beta=beta, tau=1.0)
    checks.extend(mc_log_ratio_moments(concrete, n, rng.child(4)))

    alpha = np.linspace(2.0, 1.0, k)
    is_params = InverseSchlomilchParams(alpha=alpha, beta=beta, tau=1.0)
    checks.extend(mc_log_ratio_moments(is_params, n, rng.child(5)))

    checks.extend(mc_special_moments(beta, 1.0, n, rng.child(6)))

    sf = mc_score_fisher(concrete, n, 1e-4, rng.child(7))
    checks.extend(sf.checks)

    if k == 2:
        target = fisher_reduced(concrete).entries
        est = quad_fisher(concrete)
        for a in range(k):
            for b in range(a, k):
                checks.append(
                    _tol_check(
                        f"quad_fisher[{a},{b}]", target[a, b], est[a, b], 1e-6
                    )
                )

    gen = rng.child(8).generator
    worst = 0.0
    for _ in range(5):
        b = np.exp(gen.uniform(-1.0, 1.0, size=k))
        tau = float(gen.uniform(0.4, 3.0))
        worst = max(worst, pullback_metric_check(ConcreteParams(beta=b, tau=tau)))
    checks.append(_tol_check("pullback_max_dev", 0.0, worst, 1e-4))

    checks.extend(_distance_halfspace_checks(k, rng.child(9)))
    return checks
