"""Acceptance suite: eight end-to-end checks, one summary line each.

Every closed form in the library is validated here against an independent
numerical oracle (deterministic quadrature, importance-sampled Monte Carlo,
or finite differences), with pinned tolerances and runtime budgets.
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from concrete_geom import (
    ConcreteParams,
    InverseSchlomilchParams,
    RngState,
    TO_UNIFORM,
    FROM_UNIFORM,
    SimplexPoint,
    curvature_length,
    fisher_full,
    fr_distance,
    half_space_distance,
    lr_cov,
    lr_mean,
    mc_log_ratio_moments,
    mc_score_fisher,
    mc_special_moments,
    fisher_reduced,
    pullback_metric_check,
    quad_fisher,
    quad_normalization,
    raw_second_moment_special,
    rounding_probabilities,
    sample_concrete,
    special_params,
    to_poincare,
    uniform_transform,
)


def cparams(beta, tau):
    return ConcreteParams(beta=np.asarray(beta, float), tau=float(tau))


def report(num, label, passed):
    print(f"criterion {num} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


def test_criterion_1_normalization():
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for beta in ((1.0, 1.0), (1.0, 2.0), (1.0, 2.0, 3.0)):
        for tau in (0.5, 1.0, 2.0, 5.0):
            p = cparams(beta, tau)
            tol = 1e-6 if p.dim == 2 else 1e-4
            err = abs(quad_normalization(p) - 1.0)
            worst = max(worst, err / tol)
            ok &= err < tol
    elapsed = time.monotonic() - t0
    report(1, f"density normalization, worst {worst:.2e} of budget, {elapsed:.1f}s",
           ok and elapsed < 30.0)


def test_criterion_2_rounding_law():
    t0 = time.monotonic()
    beta = np.array([1.0, 2.0, 3.0])
    target = rounding_probabilities(beta)
    np.testing.assert_allclose(target, [1 / 6, 1 / 3, 1 / 2], atol=1e-14)
    n = 100_000
    ok = True
    for j, tau in enumerate((0.3, 0.7, 2.0)):
        x = sample_concrete(cparams(beta, tau), RngState(100 + j), n)
        hits = np.argmax(x, axis=1)
        for i in range(3):
            se = math.sqrt(target[i] * (1 - target[i]) / n)
            ok &= abs(np.mean(hits == i) - target[i]) < 4 * se
    elapsed = time.monotonic() - t0
    report(2, f"temperature-independent rounding law, {elapsed:.1f}s",
           ok and elapsed < 10.0)


def test_criterion_3_log_ratio_moments():
    t0 = time.monotonic()
    checks = []
    for j, (alpha, tau) in enumerate(
        itertools.product(
            ((1.0, 1.0), (2.0, 1.0), (1.5, 2.5), (0.8, 3.0)), (0.7, 1.0, 2.0)
        )
    ):
        p = InverseSchlomilchParams(
            alpha=np.asarray(alpha), beta=np.array([1.0, 2.0]), tau=tau
        )
        checks += mc_log_ratio_moments(p, 100_000, RngState(200 + j))
    # Concrete corollary at alpha = 1: covariances are multiples of pi^2/6.
    p1 = InverseSchlomilchParams(
        alpha=np.ones(3), beta=np.array([1.0, 2.0, 3.0]), tau=1.0
    )
    assert lr_cov(p1, 0, 1, 0, 2) == pytest.approx(math.pi**2 / 6, abs=1e-13)
    checks += mc_log_ratio_moments(p1, 100_000, RngState(250))
    failing = [c.name for c in checks if not c.passed]
    elapsed = time.monotonic() - t0
    report(3, f"log-ratio moments, {len(checks)} MC checks, {elapsed:.1f}s",
           not failing and elapsed < 60.0)


def test_criterion_4_special_moments():
    checks = mc_special_moments(np.array([1.0, 2.0]), 1.0, 100_000, RngState(300))
    checks += mc_special_moments(np.array([1.0, 2.0, 3.0]), 1.0, 100_000, RngState(301))
    failing = [c.name for c in checks if not c.passed]

    # Internal identity: raw = cov + mean * mean at the shifted Dirichlet vector.
    identity_ok = True
    beta = np.array([1.0, 2.0, 3.0])
    for m, n, i, k, l in itertools.product(range(3), repeat=5):
        p = special_params(beta, 1.0, m, n)
        expected = lr_cov(p, i, k, i, l) + lr_mean(p, i, k) * lr_mean(p, i, l)
        got = raw_second_moment_special(beta, 1.0, m, n, i, k, l)
        identity_ok &= abs(got - expected) < 1e-12
    report(4, f"special raw moments, {len(checks)} MC checks + exact identity",
           not failing and identity_ok)


def test_criterion_5_fisher_information():
    quad_ok = True
    for beta, tau in (
        ((1.0, 1.0), 1.0),
        ((1.0, 2.0), 1.0),
        ((1.0, 2.0), 0.5),
        ((0.3, 0.7), 2.0),
        ((1.0, 4.0), 5.0),
    ):
        p = cparams(beta, tau)
        quad_ok &= np.max(np.abs(quad_fisher(p) - fisher_reduced(p).entries)) < 1e-6

    score_ok = True
    for j, p in enumerate((cparams([1.0, 2.0], 1.2), cparams([1.0, 2.0, 3.0], 0.8))):
        checks = mc_score_fisher(p, 100_000, 1e-5, RngState(400 + j))
        score_ok &= all(c.passed for c in checks)

    null_ok = True
    rng = np.random.default_rng(401)
    for k in (2, 3, 4):
        for _ in range(10):
            p = cparams(rng.uniform(0.2, 5.0, k), rng.uniform(0.3, 4.0))
            m = fisher_full(p).entries
            v = np.append(p.beta.weights, 0.0)
            null_ok &= np.max(np.abs(m @ v)) < 1e-10 * max(1.0, np.max(np.abs(m)))
    report(5, "Fisher information: quadrature, score MC, null vector",
           quad_ok and score_ok and null_ok)


def test_criterion_6_hyperbolicity():
    assert abs(curvature_length(2) - 1.1958077) < 1e-6
    assert abs(curvature_length(3) - 1.7226144) < 1e-6
    rng = np.random.default_rng(500)
    worst = 0.0
    for k in (2, 3):
        for _ in range(20):
            p = cparams(rng.uniform(0.3, 3.0, k), rng.uniform(0.4, 3.0))
            worst = max(worst, pullback_metric_check(p))
    report(6, f"hyperbolic pullback metric, worst deviation {worst:.2e}",
           worst < 1e-4)


def test_criterion_7_geodesic_distance():
    rng = np.random.default_rng(600)
    pair_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p = cparams(rng.uniform(0.2, 5.0, k), rng.uniform(0.3, 4.0))
        q = cparams(rng.uniform(0.2, 5.0, k), rng.uniform(0.3, 4.0))
        d1 = fr_distance(p, q).value
        d2 = half_space_distance(to_poincare(p), to_poincare(q))
        pair_ok &= abs(d1 - d2) < 1e-10

    # Equal temperatures: the formula collapses to the pure weight term.
    eq_ok = True
    for _ in range(20):
        k = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.3, 4.0))
        p = cparams(rng.uniform(0.2, 5.0, k), tau)
        q = cparams(rng.uniform(0.2, 5.0, k), tau)
        ell = curvature_length(k)
        lb = np.log(p.normalized_beta())
        lb2 = np.log(q.normalized_beta())
        diff = (lb - lb2)[:, None] - (lb - lb2)[None, :]
        inner = float(np.sum(diff**2)) / (2.0 * (k + 1) * ell**2)
        expected = 2.0 * ell * math.asinh(0.5 * math.sqrt(inner))
        eq_ok &= abs(fr_distance(p, q).value - expected) < 1e-12

    axiom_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p, q, r = (
            cparams(rng.uniform(0.2, 5.0, k), rng.uniform(0.3, 4.0)) for _ in range(3)
        )
        dpq = fr_distance(p, q).value
        axiom_ok &= dpq >= 0.0
        axiom_ok &= abs(dpq - fr_distance(q, p).value) < 1e-12
        axiom_ok &= fr_distance(p, p).value < 1e-12
        axiom_ok &= dpq <= fr_distance(p, r).value + fr_distance(r, q).value + 1e-12

    # Quadrupling the temperature at flat weights covers distance 2 ell log 2.
    d = fr_distance(cparams([1.0, 1.0], 1.0), cparams([1.0, 1.0], 4.0)).value
    worked_ok = abs(d - 2.0 * curvature_length(2) * math.log(2.0)) < 1e-9
    report(7, "geodesic distance: half-space match, reduction, axioms, worked value",
           pair_ok and eq_ok and axiom_ok and worked_ok)


def test_criterion_8_transform_laws():
    p = cparams([1.5, 1.0], 1.3)
    rng = np.random.default_rng(700)
    rt_ok = True
    for k in (2, 3, 4):
        pk = cparams(rng.uniform(0.3, 3.0, k), rng.uniform(0.4, 3.0))
        for _ in range(50):
            x = SimplexPoint(rng.dirichlet(np.ones(k)))
            y = uniform_transform(pk, x, TO_UNIFORM)
            back = uniform_transform(pk, y, FROM_UNIFORM)
            rt_ok &= np.max(np.abs(back.components - x.components)) < 1e-10

    n = 100_000
    samples = sample_concrete(p, RngState(701), n)
    from concrete_geom.distributions import _to_uniform_arr

    y = np.sort(_to_uniform_arr(p, samples)[:, 0])
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - y), np.max(y - (i - 1) / n))
    ks_ok = ks < 1.628 / math.sqrt(n)  # 1% critical value
    report(8, f"uniform transform round trip + KS statistic {ks:.4f}",
           rt_ok and ks_ok)
