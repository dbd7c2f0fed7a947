import itertools
import math
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from concrete_geom import (
    CheckResult,
    ConcreteGeomError,
    ConcreteParams,
    DomainError,
    EULER_GAMMA,
    InverseSchlomilchParams,
    PI_SQ_OVER_6,
    RngState,
    UnsupportedDim,
    distributions,
    fisher_reduced,
    forks,
    lr_cov,
    lr_mean,
    mc_log_ratio_moments,
    mc_score_fisher,
    mc_special_moments,
    oracle,
    pullback_metric_check,
    quad_fisher,
    quad_normalization,
    raw_second_moment_special,
    run_suite,
    sample_concrete,
    sample_is_log,
    simplex,
    special_params,
)
from concrete_geom.distributions import _is_log_density_arr, _is_log_density_log


def cparams(beta, tau):
    return ConcreteParams(beta=np.asarray(beta, float), tau=float(tau))


IS_PARAMS = InverseSchlomilchParams(
    alpha=np.array([1.5, 2.5, 0.8]), beta=np.array([1.0, 2.0, 3.0]), tau=1.3
)


def iid_mean(values):
    """Sample mean and its iid standard error, written out per check."""
    return float(np.mean(values)), float(np.std(values, ddof=1)) / math.sqrt(values.size)


class TestQuadNormalization:
    def test_unit_mass(self):
        for beta, tol in (((1.0, 2.0), 1e-8), ((1.0, 2.0, 3.0), 1e-6)):
            for tau in (0.5, 1.0, 2.0, 5.0):
                val = quad_normalization(cparams(beta, tau))
                assert val == pytest.approx(1.0, abs=tol)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.5, 20.0])
    def test_unit_mass_in_gumbel_units(self, k, tau):
        # Small and large temperatures, log-beta spreads up to 28.
        for spread in (0.0, 1.0, 7.0, 14.0, 28.0):
            beta = np.exp(np.linspace(spread, 0.0, k))
            assert abs(quad_normalization(cparams(beta, tau)) - 1.0) <= 1e-12, spread

    @pytest.mark.parametrize("beta", [
        (1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 1e100), (1e100, 1.0),
        (1e-50, 1.0, 1e50), (1e100, 1.0, 1.0),
    ])
    @pytest.mark.parametrize("tau", [1e-3, 0.05, 0.1])
    def test_unit_mass_small_tau_extreme_beta(self, beta, tau):
        # x underflows to 0 here: no log 0, 0 * inf or overflow may follow.
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            assert abs(quad_normalization(cparams(beta, tau)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("beta", [(1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 1e100, 1e-100)])
    @pytest.mark.parametrize("tau", [1e-6, 1e6])
    def test_unit_mass_at_ends_of_accurate_range(self, beta, tau):
        # The documented range: beyond it tau * alpha is lost against 1
        # (small tau) or the ALR nodes collapse onto one x (large tau).
        assert abs(quad_normalization(cparams(beta, tau)) - 1.0) <= 1e-6

    @pytest.mark.parametrize("tau", [1e-7, 1e7, 1e-150, 1e150])
    @pytest.mark.parametrize("quad", [quad_normalization, quad_fisher])
    def test_outside_accurate_range_rejected(self, quad, tau):
        # Inside the tau window but outside QUAD_TAU_RANGE the masses were
        # 8e101 or 2e-149 and the Fisher entries 7.5e300, with no error.
        with pytest.raises(DomainError):
            quad(cparams([1.0, 2.0], tau))

    def test_nodes_per_axis_independent_of_tau(self):
        # The box is centred at log(beta_a / beta_K) / tau: the log-beta
        # spread moves it and never widens it.
        for beta in ([1.0, 2.0, 3.0], [1.0, 1e100, 1e-100], [1e-50, 1.0, 1e50]):
            for tau in (1e-3, 0.5, 1.0, 2.0, 5.0):
                cfg = oracle.density_quad_config(cparams(beta, tau))
                nodes, weights = simplex._composite_gauss_legendre(cfg)
                assert nodes.size == weights.size == 240, (beta, tau)
                lb = np.log(beta)
                assert cfg.centre == pytest.approx((lb[:-1] - lb[-1]) / tau)

    @pytest.mark.parametrize("k", [2, 3])
    def test_planted_mass_error_fails(self, monkeypatch, k):
        # log J 1e-8 too small puts every mass 1e-8 above 1, past QUAD_TOL.
        closed = distributions.log_norm_const
        monkeypatch.setattr(distributions, "log_norm_const", lambda p: closed(p) - 1e-8)
        checks = oracle._density_checks(np.arange(1.0, k + 1.0), RngState(0))
        assert len(checks) == 4
        for c in checks:
            assert c.estimate == pytest.approx(1.0 + 1e-8, abs=1e-12)
            assert not c.passed, c


class TestDensity1d:
    """The Gumbel-integral oracle against the closed-form log density."""

    n = 2000

    def max_error(self, p, seed):
        log_x = sample_is_log(p, RngState(seed), self.n)
        return np.max(np.abs(oracle.density_1d(p, log_x) - _is_log_density_log(p, log_x)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 1.0, 2.0, 5.0])
    def test_matches_closed_form(self, k, tau):
        alphas = (np.ones(k), np.linspace(2.0, 1.0, k), np.linspace(0.3, 3.0, k))
        for a, alpha in enumerate(alphas):
            p = InverseSchlomilchParams(alpha=alpha, beta=np.arange(1.0, k + 1.0), tau=tau)
            assert self.max_error(p, 60 + a) <= 1e-9, alpha

    def test_planted_shift_fails(self, monkeypatch):
        closed = distributions.log_norm_const
        monkeypatch.setattr(distributions, "log_norm_const", lambda p: closed(p) - 1e-8)
        [check] = oracle._density_1d_check("is_density_1d", IS_PARAMS, RngState(62))
        assert check.estimate == pytest.approx(1e-8, rel=1e-3)
        assert not check.passed

    def test_closed_form_never_called(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("density_1d reached the closed form")

        log_x = sample_is_log(IS_PARAMS, RngState(63), 100)
        monkeypatch.setattr(distributions, "log_norm_const", forbidden)
        monkeypatch.setattr(distributions, "_log_k", forbidden)
        assert np.all(np.isfinite(oracle.density_1d(IS_PARAMS, log_x)))


class TestQuadFisher:
    def test_matches_closed_form(self):
        for beta, tau in (
            ((1.0, 1.0), 1.0),
            ((1.0, 2.0), 1.0),
            ((1.0, 2.0), 0.5),
            ((0.3, 0.7), 2.0),
            ((1.0, 4.0), 5.0),
            # Small tau: x underflows at the outer nodes; log x does not.
            ((1.0, 2.0), 0.05),
            ((1.0, 2.0), 0.01),
            ((1.0, 2.0), 1e-3),
        ):
            p = cparams(beta, tau)
            est = quad_fisher(p)
            target = fisher_reduced(p).entries
            assert np.max(np.abs(est - target)) < 1e-6
        for beta, tau in (((1.0, 2.0, 3.0), 1.0), ((0.2, 1.0, 4.0), 0.7), ((1.0, 1.0, 1.0), 3.0)):
            p = cparams(beta, tau)
            est = quad_fisher(p)
            target = fisher_reduced(p).entries
            assert np.max(np.abs(est - target)) <= 1e-11 * np.max(np.abs(target)), (beta, tau)

    def test_high_k_rejected(self):
        # 240 nodes per axis: K = 4 would take 13,824,000 rows of log x.
        for k in (4, 5):
            for quad in (quad_normalization, quad_fisher):
                with pytest.raises(UnsupportedDim):
                    quad(cparams(np.ones(k), 1.0))

    @pytest.mark.parametrize("beta", [(1e-300, 1.0), (1e-160, 1.0), (1e-150, 1e150)])
    def test_extreme_beta_typed_error_without_warning(self, beta):
        # D s s^T D / (d d^T) leaves the float range: a typed error, no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConcreteGeomError):
                quad_fisher(cparams(beta, 1.0))

    def test_planted_fisher_error_fails(self, monkeypatch):
        # fisher_reduced off by a relative 1e-8 misses the quadrature by
        # more than QUAD_TOL in every entry.
        closed = oracle.fisher_reduced
        monkeypatch.setattr(
            oracle, "fisher_reduced", lambda p: type(closed(p))((1.0 + 1e-8) * closed(p).entries)
        )
        checks = oracle._quad_fisher_checks(cparams([1.0, 2.0], 1.0))
        assert len(checks) == 3
        assert not any(c.passed for c in checks), checks


class TestMcLogRatioMoments:
    def test_all_checks_pass(self):
        checks = mc_log_ratio_moments(IS_PARAMS, 100_000, RngState(40))
        assert checks and all(c.passed for c in checks)

    def test_concrete_params_accepted(self):
        checks = mc_log_ratio_moments(cparams([1.0, 2.0], 0.7), 50_000, RngState(41))
        assert checks and all(c.passed for c in checks)

    def assert_all_pass(self, p, n, seed):
        checks = mc_log_ratio_moments(p, n, RngState(seed))
        assert all(math.isfinite(c.estimate) and math.isfinite(c.se_or_tol) for c in checks)
        failing = [c.name for c in checks if not c.passed]
        assert checks and not failing, failing

    def test_small_tau(self):
        # Some components underflow to 0 in x; log x stays finite.
        self.assert_all_pass(cparams([1.0, 2.0, 3.0], 0.01), 100_000, 42)

    @pytest.mark.parametrize("tau", [1e-150, 1e-100, 1e100, 1e150])
    def test_tau_window_ends(self, tau):
        # The features are tau times the log-ratios: no overflow at small
        # tau (Cov ~ 1/tau^4 in log-ratio units), no underflow at large tau.
        self.assert_all_pass(cparams([1.0, 2.0, 3.0], tau), 1000, 42)

    def test_small_alpha(self):
        p = InverseSchlomilchParams(
            alpha=np.array([0.05, 0.5, 3.0]), beta=np.array([1.0, 2.0, 3.0]), tau=0.7
        )
        self.assert_all_pass(p, 100_000, 42)

    def test_far_dirichlet_vector(self):
        # Far from alpha = 1, where reweighted Concrete draws used to collapse.
        p = InverseSchlomilchParams(
            alpha=np.array([60.0, 0.01]), beta=np.array([1.0, 1.0]), tau=1.0
        )
        self.assert_all_pass(p, 100_000, 42)


class TestImportanceWeights:
    """Density-ratio weights f_q / f_p at exact IS(p) draws average to 1.

    q is p with alpha + 1, so the weight is a constant times the product of
    the uniform-image components: bounded, with a plain iid SE.
    """

    n = 20_000

    @pytest.mark.parametrize("p", [IS_PARAMS] + [
        special_params([1.0, 2.0, 3.0], 1.0, m, nn) for m in range(3) for nn in range(3)
    ])
    def test_match_density_ratio(self, p):
        q = InverseSchlomilchParams(alpha=p.alpha.weights + 1.0, beta=p.beta, tau=p.tau)
        x = np.exp(sample_is_log(p, RngState(48), self.n))
        w = np.exp(_is_log_density_arr(q, x) - _is_log_density_arr(p, x))
        est, se = iid_mean(w)
        assert abs(est - 1.0) <= 4.0 * se


class TestIidMoments:
    """The streamed estimator against per-check iid means, n = 2003."""

    n = 2003

    def assert_matches(self, checks, reference):
        assert [c.name for c in checks] == [name for name, _, _ in reference]
        for c, (name, est, se) in zip(checks, reference):
            assert abs(c.estimate - est) <= 1e-12, name
            assert abs(c.se_or_tol - se) <= 1e-12, name

    def test_log_ratio_moments(self):
        checks = mc_log_ratio_moments(IS_PARAMS, self.n, RngState(40))
        log_x = sample_is_log(IS_PARAMS, RngState(40), self.n)
        # Monte Carlo checks the basis s_a = log(X_0 / X_a): means, then
        # covariances a <= b.
        s = {a: log_x[:, 0] - log_x[:, a] for a in (1, 2)}
        centred = {a: v - np.mean(v) for a, v in s.items()}
        reference = [(f"lr_mean[0,{a}]", *iid_mean(s[a])) for a in (1, 2)]
        reference += [
            (f"lr_cov[0,{a},0,{b}]", *iid_mean(centred[a] * centred[b]))
            for a, b in ((1, 1), (1, 2), (2, 2))
        ]
        # lr_exact: every closed mean and covariance of distinct log-ratios
        # against the basis identities, log(X_i / X_k) = s_k - s_i.
        mu = [0.0] + [lr_mean(IS_PARAMS, 0, a) for a in (1, 2)]

        def c(a, b):
            return lr_cov(IS_PARAMS, 0, a, 0, b) if a and b else 0.0

        pairs = [(0, 1), (0, 2), (1, 2)]
        worst = 0.0
        for i, k in pairs:
            err = abs(lr_mean(IS_PARAMS, i, k) - (mu[k] - mu[i]))
            worst = max(worst, err / (oracle.EXACT_RTOL * (abs(mu[k]) + abs(mu[i]))))
        for r, (i, k) in enumerate(pairs):
            for j, l in pairs[r:]:
                terms = (c(k, l), c(k, j), c(i, l), c(i, j))
                want = (terms[0] - terms[1]) - (terms[2] - terms[3])
                err = abs(lr_cov(IS_PARAMS, i, k, j, l) - want)
                if err:
                    worst = max(worst, err / (oracle.EXACT_RTOL * sum(map(abs, terms))))
        reference.append(("lr_exact", worst, 1.0))
        assert len(reference) == 6
        self.assert_matches(checks, reference)
        assert checks[-1].p_value is None and checks[-1].passed

    def test_special_moments(self):
        beta, tau = np.array([1.0, 2.0, 3.0]), 1.0
        checks = mc_special_moments(beta, tau, self.n, RngState(43))
        # The Monte Carlo pairs (0, 0) and (0, 1) draw exact IS samples at
        # their Dirichlet vectors, in that order, from the group's one stream.
        rng = RngState(43)
        # Pairs m <= n.  The Monte Carlo pairs estimate the basis cells i = 0,
        # 1 <= k <= l; one raw2_exact check per pair reports the worst of its
        # cells against its exact rule at a relative tolerance.
        reference = []
        for m in range(3):
            for n in range(m, 3):
                p = special_params(beta, tau, m, n)
                closed = {c: raw_second_moment_special(beta, tau, m, n, *c)
                          for c in itertools.product(range(3), repeat=3)}
                mc = (m, n) in ((0, 0), (0, 1))
                if mc:
                    log_x = sample_is_log(p, rng, self.n)
                    for k, l in ((1, 1), (1, 2), (2, 2)):
                        prod = (log_x[:, 0] - log_x[:, k]) * (log_x[:, 0] - log_x[:, l])
                        reference.append((f"raw2[m={m},n={n},i=0,k={k},l={l}]", *iid_mean(prod)))
                worst = 0.0
                for i, k, l in closed:
                    if mc:
                        # E[(s_k - s_i)(s_l - s_i)], s_a = log(X_0 / X_a), from the closed basis.
                        def big_m(a, b):
                            return closed[0, min(a, b), max(a, b)] if a and b else 0.0

                        terms = (big_m(k, l), big_m(k, i), big_m(i, l), big_m(i, i))
                        want = (terms[0] - terms[1]) - (terms[2] - terms[3])
                        scale = sum(map(abs, terms))
                    else:
                        cov = lr_cov(p, i, k, i, l)
                        prod = lr_mean(p, i, k) * lr_mean(p, i, l)
                        want, scale = cov + prod, abs(cov) + abs(prod)
                    err = abs(closed[i, k, l] - want)
                    if i in (k, l):
                        assert want == err == 0.0
                    else:
                        worst = max(worst, err / (oracle.EXACT_RTOL * scale))
                reference.append((f"raw2_exact[m={m},n={n}]", worst, 1.0))
        assert len(reference) == 2 * 3 + 6
        self.assert_matches(checks, reference)
        for c in checks:
            exact = c.name.startswith("raw2_exact[")
            assert (c.p_value is None) == exact, c.name
            if exact:
                assert c.target == 0.0 and c.se_or_tol == 1.0 and c.passed, c

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_rounding(self, k):
        # A frequency is the mean of its vertex indicator; its SE is the
        # indicator's under the null, sqrt(p (1 - p) / n) at p = beta_i / sum(beta).
        beta = np.arange(1.0, k + 1.0)
        checks = oracle._rounding_checks(beta, 0.7, RngState(53), self.n)
        x = sample_concrete(cparams(beta, 0.7), RngState(53), self.n)
        hits = np.argmax(x, axis=1)
        assert [c.name for c in checks] == [f"rounding_p[{i}]" for i in range(k)]
        for i, c in enumerate(checks):
            est, _ = iid_mean((hits == i).astype(float))
            p = beta[i] / np.sum(beta)
            assert c.estimate == pytest.approx(est, rel=1e-15, abs=0.0), c.name
            assert c.se_or_tol == pytest.approx(
                math.sqrt(p * (1.0 - p) / self.n), rel=1e-15, abs=0.0), c.name
        with pytest.raises(DomainError):
            oracle._rounding_checks(beta, 0.7, RngState(53), 1)

    def test_too_few_samples(self):
        assert mc_log_ratio_moments(IS_PARAMS, 2, RngState(40))
        assert mc_special_moments(np.array([1.0, 2.0]), 1.0, 2, RngState(43))
        with pytest.raises(DomainError):
            mc_log_ratio_moments(IS_PARAMS, 1, RngState(40))
        with pytest.raises(DomainError):
            mc_special_moments(np.array([1.0, 2.0]), 1.0, 1, RngState(43))


class TestInPlaceKernels:
    """The in-place feature kernels equal their plain formulas bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_pair_products(self, p):
        v = np.asfortranarray(np.random.default_rng(70 + p).normal(size=(2000, p)))
        a, b = np.triu_indices(p)
        got = oracle._pair_products(v)
        assert got.flags.f_contiguous
        assert np.array_equal(got, v[:, a] * v[:, b])

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_iid_moments(self, p):
        v = np.asfortranarray(np.random.default_rng(80 + p).normal(size=(2001, p)))
        n = v.shape[0]
        mean = np.mean(v, axis=0)
        dv = v - mean
        mean_got, se = oracle._iid_moments(n, lambda rows: v[rows])
        assert np.array_equal(mean_got, mean)
        assert np.array_equal(se, np.sqrt(np.einsum("ij,ij->j", dv, dv) / (n - 1) / n))
        assert np.array_equal(v, dv)  # one block, a view of v, consumed: centred in place


class TestStreamedMoments:
    """_iid_moments merges row blocks; one block is the two-pass formula bit for bit."""

    @staticmethod
    def draws(n, p):
        # Pair products of shifted normals: features with a mean far from 0.
        z = np.asfortranarray(np.random.default_rng(n).normal(1.5, 1.0, size=(n, p)))
        return oracle._pair_products(z)

    @staticmethod
    def two_pass(v):
        n = v.shape[0]
        mean = np.mean(v, axis=0)
        dv = v - mean
        return mean, np.sqrt(np.einsum("ij,ij->j", dv, dv) / (n - 1) / n)

    def streamed(self, v):
        slices = []

        def features(rows):
            slices.append(rows)
            return v[rows].copy("F")

        mean, se = oracle._iid_moments(v.shape[0], features)
        covered = [i for rows in slices for i in range(v.shape[0])[rows]]
        assert covered == list(range(v.shape[0]))  # each row once, in order
        assert all(rows.stop - rows.start <= simplex.ROW_BLOCK for rows in slices)
        return mean, se

    @pytest.mark.parametrize("n", [2, 17, simplex.ROW_BLOCK])
    def test_one_block_is_two_pass(self, n):
        v = self.draws(n, 3)
        for got, want in zip(self.streamed(v), self.two_pass(v)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [simplex.ROW_BLOCK + 1, 2 * simplex.ROW_BLOCK + 17])
    def test_blocks_match_two_pass(self, n):
        v = self.draws(n, 3)
        for got, want in zip(self.streamed(v), self.two_pass(v)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [17, simplex.ROW_BLOCK, 2 * simplex.ROW_BLOCK + 17])
    def test_identity_contraction(self, n):
        # Each estimate is a feature mean, and its SE is the square root of
        # the matching diagonal entry of the features' covariance matrix / n.
        v = self.draws(n, 3)
        mean, se = self.streamed(v)
        dv = v - np.mean(v, axis=0)
        cov = dv.T @ dv / (n - 1)
        np.testing.assert_allclose(mean, np.mean(v, axis=0), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(se, np.sqrt(np.diag(cov) / n), rtol=1e-13, atol=0.0)


class TestPeakMemory:
    """Peak bytes allocated by one check group, in units of one (n, K) block.

    tracemalloc sees numpy's allocations, so the peaks are deterministic.
    The features are streamed by row block, so the peak does not grow with
    the K(K+1)/2 pair products.  Measured at K = 4 / 8: log-ratio 1.72 /
    1.58, special 1.26 / 1.59, score 2.25 / 2.13, rounding 1.53 / 1.27,
    transform 1.54 / 1.51 blocks.  Whole-array features read 3.51, 5.53,
    3.51, 1.53 and 4.25 at K = 4 and up to 7.76 at K = 8.
    """

    n = 50_000
    groups = pytest.mark.parametrize("group", [
        lambda b, n: mc_log_ratio_moments(cparams(b, 1.0), n, RngState(1)),
        lambda b, n: mc_special_moments(b, 1.0, n, RngState(2)),
        lambda b, n: mc_score_fisher(cparams(b, 1.0), n, 1e-4, RngState(3)),
        lambda b, n: oracle._rounding_checks(b, 0.7, RngState(4), n),
        lambda b, n: oracle._transform_checks(b, 1.5, RngState(5), n),
    ], ids=["log_ratio", "special", "score_fisher", "rounding", "transform"])

    def peak_blocks(self, group, k):
        tracemalloc.start()
        try:
            group(np.arange(1.0, k + 1.0), self.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (self.n * k * 8)

    @groups
    def test_peak(self, group):
        assert self.peak_blocks(group, 4) <= 2.5

    @groups
    def test_peak_k8(self, group):
        assert self.peak_blocks(group, 8) <= 3.0


class TestRoundingLogits:
    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("tau", [0.01, 0.7, 5.0])
    def test_argmax_of_logits_is_argmax_of_sample(self, k, tau):
        # _rounding_checks takes the vertex from the logits, without the softmax.
        p = cparams(np.arange(1.0, k + 1.0), tau)
        logits = distributions._sample_logits(p.to_inverse_schlomilch(), RngState(55), 20_000)
        x = sample_concrete(p, RngState(55), 20_000)
        assert np.array_equal(simplex._row_argmax(logits), simplex._row_argmax(x))


class TestRoundingRareVertex:
    @pytest.mark.parametrize("beta, tau", [((1.0, 1e-9, 1.0), 1.0), ((1e-6, 1.0, 1.0, 1.0), 2.0)])
    def test_vertex_without_draws_passes(self, beta, tau):
        # The rare vertex gets no draws.  Its SE under the null stays positive,
        # where the SE of the estimate, sqrt(0 (1 - 0) / (n - 1)), made z infinite.
        checks = oracle._rounding_checks(beta, tau, RngState(0), 100_000)
        rare = checks[int(np.argmin(beta))]
        assert rare.estimate == 0.0 and rare.se_or_tol > 0.0
        assert all(c.passed for c in checks), checks


def raw2_dropped_delta(closed):
    """raw_second_moment_special without its leading delta_{imn} term."""
    def planted(beta, tau, m, n, i, k, l):
        return closed(beta, tau, m, n, i, k, l) - (i == m) * (i == n) / tau**2

    return planted


def raw2_sign_flip(closed):
    """raw_second_moment_special with log beta_k flipped in (lb_i - lb_k)(lb_i - lb_l)."""
    def planted(beta, tau, m, n, i, k, l):
        lb = distributions._as_weights(beta).log
        return closed(beta, tau, m, n, i, k, l) + 2.0 * lb[k] * (lb[i] - lb[l]) / tau**2

    return planted


def raw2_scaled(closed):
    return lambda *args: 1.05 * closed(*args)


class TestPlantedErrors:
    """A wrong closed form must fail at least one check of its family under Holm."""

    @pytest.mark.parametrize("name", ["lr_mean", "lr_cov"])
    def test_log_ratio_moments(self, monkeypatch, name):
        closed = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: 1.05 * closed(*args))
        checks = mc_log_ratio_moments(IS_PARAMS, 100_000, RngState(40))
        assert any(not c.passed for c in checks if c.name.startswith(name + "["))
        for k in range(2, 9):
            p = InverseSchlomilchParams(
                alpha=np.linspace(2.0, 1.0, k), beta=np.arange(1.0, k + 1.0), tau=1.0
            )
            checks = mc_log_ratio_moments(p, 100_000, RngState(40))
            assert any(not c.passed for c in checks if c.name.startswith(name + "[")), k
            # The exact raw2 cells are judged against lr_cov + lr_mean lr_mean.
            checks = mc_special_moments(np.arange(1.0, k + 1.0), 1.0, 2, RngState(43))
            assert any(not c.passed for c in checks if c.p_value is None), k

    def test_special_moments(self, monkeypatch):
        # Both halves of the group catch each plant on their own, at every
        # K: the Monte Carlo pairs and the exact cells.
        closed = oracle.raw_second_moment_special
        for plant in (raw2_scaled, raw2_dropped_delta, raw2_sign_flip):
            monkeypatch.setattr(oracle, "raw_second_moment_special", plant(closed))
            for k in range(2, 9):
                checks = mc_special_moments(np.arange(1.0, k + 1.0), 1.0, 20_000, RngState(43))
                failed = [c for c in checks if not c.passed]
                assert any(c.p_value is not None for c in failed), (plant.__name__, k)
                assert any(c.p_value is None for c in failed), (plant.__name__, k)

    def test_rounding(self, monkeypatch):
        closed = oracle.rounding_probabilities
        monkeypatch.setattr(oracle, "rounding_probabilities", lambda *args: 1.05 * closed(*args))
        checks = oracle._rounding_checks([1.0, 2.0, 3.0], 0.7, RngState(53), 100_000)
        assert any(not c.passed for c in checks)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_fisher(self, monkeypatch, k):
        closed = oracle.fisher_reduced
        monkeypatch.setattr(
            oracle, "fisher_reduced", lambda p: type(closed(p))(1.05 * closed(p).entries)
        )
        checks = mc_score_fisher(cparams(np.arange(1.0, k + 1.0), 1.0), 100_000, 1e-4,
                                 RngState(44))
        assert any(not c.passed for c in checks if c.name.startswith("fisher[")), k

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_score_tau_constant(self, monkeypatch, k):
        # (K - 1) -> K in the closed-form tau score: score_fd catches it.
        closed = oracle._scaled_scores

        def planted(p, w):
            s = closed(p, w)
            s[:, -1] += 1.0
            return s

        monkeypatch.setattr(oracle, "_scaled_scores", planted)
        checks = mc_score_fisher(cparams(np.arange(1.0, k + 1.0), 1.0), 2000, 1e-4,
                                 RngState(44))
        assert not next(c for c in checks if c.name == "score_fd").passed

    @pytest.mark.parametrize("name, check", [
        ("EULER_GAMMA", "gumbel_mean"), ("PI_SQ_OVER_6", "gumbel_var"),
    ])
    def test_gumbel(self, monkeypatch, name, check):
        monkeypatch.setattr(oracle, name, 1.05 * getattr(oracle, name))
        checks = oracle._gumbel_checks(RngState(54), 100_000)
        assert not next(c for c in checks if c.name == check).passed

    @pytest.mark.parametrize("plant", ["lost_sign", "power"])
    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_uniform_transform(self, monkeypatch, plant, k):
        # The image of a lost reflection sign, Y ~ X^tau / beta, or of a
        # power, Y ~ (beta / X^tau)^1.3, is exchangeable, so every
        # uniform_mean[i] still has mean 1/K; uniform_log_mean catches both.
        # At K = 2 no check can see the lost sign: X^tau / beta closes to
        # (Y_1, Y_0), the uniform image reversed, which is uniform too.
        closed = oracle._to_uniform_arr

        def planted(p, x):
            if plant == "power":
                y = closed(p, x) ** 1.3
            else:
                y = np.exp(p.tau * np.log(x) - p.beta.log)
            return y / np.sum(y, axis=1, keepdims=True)

        monkeypatch.setattr(oracle, "_to_uniform_arr", planted)
        checks = oracle._transform_checks(np.arange(1.0, k + 1.0), 1.5, RngState(57), 100_000)
        failed = [c.name for c in checks if not c.passed]
        assert failed and all(name.startswith("uniform_log_mean[") for name in failed), failed


def coincidence_pattern(indices):
    """Which of the indices coincide: each replaced by the rank of its first occurrence."""
    first = {}
    return tuple(first.setdefault(v, len(first)) for v in indices)


def raw2_cells(k, m, n):
    """The cells of pair (m, n) with i not in {k, l}, k and l in either order."""
    return [(m, n, i, a, b) for i in range(k) for a in range(k) for b in range(k)
            if i not in (a, b)]


class TestMcSpecialMoments:
    def test_all_tuples_pass(self):
        checks = mc_special_moments(np.array([1.0, 2.0]), 1.0, 100_000, RngState(43))
        # Pairs m <= n: one Monte Carlo basis cell each for (0, 0) and (0, 1),
        # then one raw2_exact check per pair.
        assert len(checks) == 2 + 3
        assert all(c.passed for c in checks)
        mc = {c.name for c in checks if c.p_value is not None}
        assert mc == {"raw2[m=0,n=0,i=0,k=1,l=1]", "raw2[m=0,n=1,i=0,k=1,l=1]"}
        assert [c.name for c in checks if c.p_value is None] == [
            "raw2_exact[m=0,n=0]", "raw2_exact[m=0,n=1]", "raw2_exact[m=1,n=1]"
        ]

    @pytest.mark.parametrize("tau", [1e-150, 1e150])
    def test_tau_window_ends(self, tau):
        # The features are tau times the log-ratios, as in the log-ratio group.
        checks = mc_special_moments(np.array([1.0, 2.0, 3.0]), tau, 1000, RngState(42))
        assert all(math.isfinite(c.estimate) and math.isfinite(c.se_or_tol) for c in checks)
        failing = [c.name for c in checks if not c.passed]
        assert checks and not failing, failing

    @pytest.mark.parametrize("k", range(2, 9))
    def test_mc_pairs_cover_every_pattern(self, k):
        # The cells of the Monte Carlo pairs, which raw2_exact ties to their
        # basis cells, hold every coincidence pattern of every pair's cells.
        pairs = [(m, n) for m in range(k) for n in range(m, k)]
        patterns = {pair: {coincidence_pattern(c) for c in raw2_cells(k, *pair)}
                    for pair in pairs}
        mc_pairs = oracle.RAW2_MC_PAIRS
        assert set().union(*(patterns[pair] for pair in mc_pairs)) == set().union(
            *patterns.values()
        )
        # The group estimates exactly the basis cells i = 0, k <= l of those pairs.
        checks = mc_special_moments(np.arange(1.0, k + 1.0), 1.0, 2, RngState(43))
        mc = {c.name for c in checks if c.p_value is not None}
        assert mc == {"raw2[m={},n={},i={},k={},l={}]".format(*c)
                      for pair in mc_pairs for c in raw2_cells(k, *pair)
                      if c[2] == 0 and c[3] <= c[4]}

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_no_smaller_cover(self, k):
        pairs = [(m, n) for m in range(k) for n in range(m, k)]
        patterns = [{coincidence_pattern(c) for c in raw2_cells(k, *pair)} for pair in pairs]
        every = set().union(*patterns)
        size = len(oracle.RAW2_MC_PAIRS)
        for sub in itertools.combinations(patterns, size - 1):
            assert set().union(*sub) != every


def raw2_one_cell(closed, pair, cell, value):
    """raw_second_moment_special with ``value`` added at one (m, n, i, k, l) cell."""
    def planted(beta, tau, m, n, i, k, l):
        closed_value = closed(beta, tau, m, n, i, k, l)
        if (m, n) != pair:
            return closed_value
        return np.where((i == cell[0]) & (k == cell[1]) & (l == cell[2]),
                        closed_value + value, closed_value)

    return planted


class TestRaw2Exact:
    """One raw2_exact check per pair judges every cell Monte Carlo does not estimate."""

    def planted_checks(self, monkeypatch, k, pair, cell, value):
        beta = np.arange(1.0, k + 1.0)
        clean = mc_special_moments(beta, 1.0, 2000, RngState(43))
        closed = oracle.raw_second_moment_special
        monkeypatch.setattr(oracle, "raw_second_moment_special",
                            raw2_one_cell(closed, pair, cell, value))
        checks = mc_special_moments(beta, 1.0, 2000, RngState(43))
        name = "raw2_exact[m={},n={}]".format(*pair)
        # The pair's raw2_exact fails, and every other check is unchanged.
        assert [c for c in checks if c.name != name] == [c for c in clean if c.name != name]
        [check] = [c for c in checks if c.name == name]
        assert not check.passed
        return check

    @pytest.mark.parametrize("k", range(2, 9))
    def test_one_wrong_cell_of_an_exact_pair(self, monkeypatch, k):
        # (1, 1) is never a Monte Carlo pair; the cell is off by 1e-9 of its
        # value, far above EXACT_RTOL, and fails the Cov + E E rule.
        assert (1, 1) not in oracle.RAW2_MC_PAIRS
        cell = (k - 1, 0, k - 2)
        value = raw_second_moment_special(np.arange(1.0, k + 1.0), 1.0, 1, 1, *cell)
        check = self.planted_checks(monkeypatch, k, (1, 1), cell, 1e-9 * value)
        assert check.estimate > 100.0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_one_wrong_cell_of_a_monte_carlo_pair(self, monkeypatch, k):
        # (0, 0) is always a Monte Carlo pair.  Cell (i, 0, l), off by 1e-9
        # of its basis terms M_il and M_ii (M_0l = M_0i = 0), fails the
        # identity (M_0l - M_0i) - (M_il - M_ii); the Monte Carlo checks of
        # the basis cells i = 0 are unchanged.
        assert (0, 0) in oracle.RAW2_MC_PAIRS
        beta, i, l = np.arange(1.0, k + 1.0), k - 1, k - 2
        scale = sum(abs(raw_second_moment_special(beta, 1.0, 0, 0, 0, *sorted(c)))
                    for c in ((i, l), (i, i)) if 0 not in c)
        check = self.planted_checks(monkeypatch, k, (0, 0), (i, 0, l), 1e-9 * scale)
        assert check.estimate > 100.0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_nonzero_zero_cell_of_a_monte_carlo_pair(self, monkeypatch, k):
        # i = k: identically 0, so the tolerance is 0 and any error is inf.
        pair = oracle.RAW2_MC_PAIRS[-1]
        check = self.planted_checks(monkeypatch, k, pair, (1, 1, 0), 1e-300)
        assert check.estimate == math.inf

    def test_nan_cell(self, monkeypatch):
        check = self.planted_checks(monkeypatch, 3, (0, 2), (1, 0, 2), math.nan)
        assert math.isnan(check.estimate)

    def test_worst_check(self):
        # An error of 0 counts 0, also at tol 0, and 1e-3 at tol 1e-2 counts
        # 0.1; 1e-300 at tol 0 counts inf, and a NaN fails.
        [ok] = oracle._worst_check("x", np.array([1.0, 2.001, 0.0]), [1.0, 2.0, 0.0],
                                   np.array([0.0, 1e-2, 0.0]))
        assert (ok.target, ok.se_or_tol, ok.passed) == (0.0, 1.0, True)
        assert ok.estimate == pytest.approx(0.1)
        [off] = oracle._worst_check("x", np.array([1e-300, 0.0]), 0.0, np.zeros(2))
        assert (off.estimate, off.passed) == (math.inf, False)
        [nan] = oracle._worst_check("x", np.array([math.nan, 0.0]), 0.0, np.ones(2))
        assert math.isnan(nan.estimate) and not nan.passed


class TestFamilywise:
    """Holm's step-down over the Monte Carlo checks, at FAMILYWISE_LEVEL."""

    @staticmethod
    def family(p_values, tolerance_checks=()):
        mc = [CheckResult(f"mc{j}", 0.0, 0.0, 1.0, True, p) for j, p in enumerate(p_values)]
        return mc + [CheckResult(f"tol{j}", 0.0, 0.0, 0.0, ok)
                     for j, ok in enumerate(tolerance_checks)]

    def test_step_down(self):
        # m = 3: 1e-4 <= 1e-3 / 3 fails; 6e-4 > 1e-3 / 2 stops the descent,
        # so 7e-4 passes although it is below the level.
        checks = oracle.holm(self.family([6e-4, 1e-4, 7e-4], [True, False]))
        assert [c.passed for c in checks] == [True, False, True, True, False]

    def test_every_rank_rejected(self):
        checks = oracle.holm(self.family([1e-5, 3e-4, 4e-4, 0.5]))
        assert [c.passed for c in checks] == [False, False, False, True]

    def test_union_is_stricter(self):
        # Alone, 2e-4 <= 1e-3 / 2 fails; among 10 checks it needs 1e-4.
        alone = oracle.holm(self.family([2e-4, 0.3]))
        union = oracle.holm(alone + self.family([0.3] * 8))
        assert not alone[0].passed and union[0].passed

    def test_p_values(self):
        checks = oracle._mc_checks(
            ["two_se", "hit", "exact", "off", "nan"],
            1.0, [3.0, 1.0, 1.0, 2.0, math.nan], [1.0, 0.5, 0.0, 0.0, 1.0],
        )
        assert checks[0].p_value == pytest.approx(math.erfc(2.0 / math.sqrt(2.0)))
        assert [c.p_value for c in checks[1:]] == [1.0, 1.0, 0.0, 0.0]
        assert [c.passed for c in oracle.holm(checks)] == [True, True, True, False, False]

    def test_summary(self):
        checks = self.family([2e-4, 0.3, 0.9], [True])
        summary = oracle.familywise(checks)
        assert summary == {"level": 1e-3, "mc_checks": 3, "min_adjusted_p": 3 * 2e-4}
        assert oracle.familywise(self.family([], [True]))["min_adjusted_p"] == 1.0

    def test_false_failure_rate(self):
        # K = 2..8 x seeds 0-4: Holm at 1e-3 expects at most 0.035 failing runs.
        failing = []
        for k in range(2, 9):
            for seed in range(5):
                checks = run_suite(k, seed, n=20_000)
                failing += [(k, seed, c.name) for c in checks if not c.passed]
        assert len({(k, seed) for k, seed, _ in failing}) <= 1, failing


class TestMcScoreFisher:
    def test_matches_closed_form(self):
        checks = mc_score_fisher(cparams([1.0, 2.0], 1.2), 100_000, 1e-5, RngState(44))
        assert all(c.passed for c in checks)

    def test_k3(self):
        checks = mc_score_fisher(cparams([1.0, 2.0, 3.0], 0.8), 100_000, 1e-5, RngState(45))
        assert all(c.passed for c in checks)

    def test_underflowing_canonical_beta_rejected_before_any_draw(self):
        rng = RngState(44)
        for group in (lambda p: mc_score_fisher(p, 2000, 1e-4, rng), quad_fisher):
            with pytest.raises(DomainError, match="beta ratios are too extreme"):
                group(cparams([1e-200, 1e200], 1.0))
        assert rng.generator.random() == RngState(44).generator.random()

    def test_scores_match_per_coordinate_differences(self):
        # Central differences written out per coordinate: beta_a moves
        # against the fill-up beta_K, by h beta_a (here beta_a < beta_K),
        # then tau moves alone.  Each density here takes its own np.log(x);
        # _reduced_scores takes the log x rows.
        def reference(p, x, h):
            k = p.dim
            beta = p.normalized_beta()
            scores = np.empty((x.shape[0], k))
            for a in range(k - 1):
                step = h * beta[a]
                bp = beta.copy()
                bp[a] += step
                bp[k - 1] -= step
                bm = beta.copy()
                bm[a] -= step
                bm[k - 1] += step
                lp = oracle._concrete_log_density_arr(cparams(bp, p.tau), x)
                lm = oracle._concrete_log_density_arr(cparams(bm, p.tau), x)
                scores[:, a] = (lp - lm) / (2.0 * step)
            step = h * p.tau
            lp = oracle._concrete_log_density_arr(cparams(beta, p.tau + step), x)
            lm = oracle._concrete_log_density_arr(cparams(beta, p.tau - step), x)
            scores[:, k - 1] = (lp - lm) / (2.0 * step)
            return scores

        for k in (2, 3, 4):
            p = cparams(np.arange(1.0, k + 1.0), 0.9).canonical()
            x = sample_concrete(p, RngState(47 + k), 500)
            for h in (1e-4, 1e-5):
                scores, _ = oracle._reduced_scores(p, np.log(x), h)
                assert np.array_equal(scores, reference(p, x, h))


class TestScoreCorners:
    """The score group at in-window tau and beta corners, K = 3.

    Under the suite's error::RuntimeWarning filter a numpy warning fails a
    case; so do a non-finite estimate or SE and a failed check.  A
    ConcreteGeomError (fisher_reduced cannot represent these beta ratios)
    passes.
    """

    @pytest.mark.parametrize("beta", [(1.0, 2.0, 3.0), (1e-100, 1.0, 1e100), (1e-300, 1.0, 1.0)])
    @pytest.mark.parametrize("tau", [1e-150, 1e-8, 1.0, 1e8, 1e150])
    def test_finite_or_typed_error(self, tau, beta):
        try:
            checks = mc_score_fisher(cparams(beta, tau), 2000, 1e-4, RngState(56))
        except ConcreteGeomError:
            return
        for c in checks:
            assert math.isfinite(c.estimate) and math.isfinite(c.se_or_tol), c
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


class TestPullback:
    def test_metric_agreement(self):
        rng = np.random.default_rng(46)
        for k in (2, 3):
            for _ in range(10):
                p = cparams(rng.uniform(0.3, 3.0, k), rng.uniform(0.4, 3.0))
                assert pullback_metric_check(p) < 1e-4


class TestRunSuite:
    def test_deterministic(self):
        a = run_suite(2, seed=7, n=20_000)
        b = run_suite(2, seed=7, n=20_000)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.name == cb.name
            assert ca.estimate == cb.estimate  # bit-identical replay
            assert ca.passed == cb.passed

    def test_seed_changes_estimates(self):
        a = run_suite(2, seed=7, n=20_000)
        b = run_suite(2, seed=8, n=20_000)
        assert any(ca.estimate != cb.estimate for ca, cb in zip(a, b))

    def test_all_pass_k2(self):
        checks = run_suite(2, seed=0, n=100_000)
        failing = [c.name for c in checks if not c.passed]
        assert not failing, failing

    def test_all_pass_k3(self):
        checks = run_suite(3, seed=0, n=100_000)
        failing = [c.name for c in checks if not c.passed]
        assert not failing, failing

    @pytest.mark.parametrize("k", [4, 5])
    def test_all_pass_density_1d(self, k):
        # From K = 4 the density is checked by density_1d, not by quadrature.
        checks = run_suite(k, seed=0, n=100_000)
        assert sum(c.name.startswith("density_1d[") for c in checks) == 4
        failing = [c.name for c in checks if not c.passed]
        assert not failing, failing

    @pytest.mark.parametrize("k, count", [(2, 54), (3, 77), (4, 97)])
    def test_names_unique(self, k, count):
        # The IS log-ratio group is prefixed, so a name points at one family.
        names = [c.name for c in run_suite(k, 0, n=2000)]
        assert len(names) == len(set(names)) == count
        assert "lr_mean[0,1]" in names and "is_lr_mean[0,1]" in names

    def test_check_result_fields(self):
        c = run_suite(2, seed=1, n=20_000)[0]
        assert isinstance(c, CheckResult)
        for attr in ("name", "target", "estimate", "se_or_tol", "passed"):
            assert hasattr(c, attr)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestGroupRunner:
    """run_suite runs the even places of its table of check groups in the
    parent and the odd ones in forked workers; its checks must not depend
    on the number of processes."""

    @staticmethod
    def suite(monkeypatch, processes, *args, **kwargs):
        monkeypatch.setattr(oracle, "_group_processes", lambda groups: processes)
        checks = run_suite(*args, **kwargs)
        assert_no_child_left()
        return checks

    @pytest.mark.parametrize("k", range(2, 9))
    def test_processes_do_not_change_checks(self, monkeypatch, k):
        for seed in range(3):
            serial = self.suite(monkeypatch, 1, k, seed, n=2000)
            for processes in (2, 3, 5):
                assert self.suite(monkeypatch, processes, k, seed, n=2000) == serial, \
                    (k, seed, processes)

    def test_failed_worker_groups_rerun_by_parent(self, monkeypatch):
        # With two processes the worker runs the odd groups: rounding (3)
        # fails there, so the parent reruns rounding and raw2 (7).
        serial = self.suite(monkeypatch, 1, 3, 0, n=2000)
        parent = os.getpid()
        rounding, special = oracle._rounding_checks, oracle.mc_special_moments
        in_parent = []

        def fails_in_worker(*args):
            if os.getpid() != parent:
                raise RuntimeError("group failed")
            in_parent.append("rounding")
            return rounding(*args)

        def counted(*args):
            if os.getpid() == parent:
                in_parent.append("raw2")
            return special(*args)

        monkeypatch.setattr(oracle, "_rounding_checks", fails_in_worker)
        monkeypatch.setattr(oracle, "mc_special_moments", counted)
        assert self.suite(monkeypatch, 2, 3, 0, n=2000) == serial
        assert in_parent == ["rounding", "raw2"]

    @pytest.mark.parametrize("group", ["_rounding_checks", "_gumbel_checks"])
    def test_exception_in_a_group_is_raised(self, monkeypatch, group):
        # rounding runs in the worker, then in the parent; gumbel in the parent.
        def fails(*args):
            raise DomainError("planted")

        monkeypatch.setattr(oracle, group, fails)
        with pytest.raises(DomainError, match="planted"):
            self.suite(monkeypatch, 2, 4, 0, n=2000)
        assert_no_child_left()

    def test_planted_error_in_a_worker_fails(self, monkeypatch):
        # lr (group 5) runs in the worker, which inherits the planted lr_mean.
        closed = oracle.lr_mean
        monkeypatch.setattr(oracle, "lr_mean", lambda *args: 1.05 * closed(*args))
        checks = self.suite(monkeypatch, 2, 3, 0)
        failed = [c.name for c in checks if not c.passed]
        assert any(name.startswith("lr_mean[") for name in failed), failed

    @pytest.mark.parametrize("processes", [3, 4, 5])
    def test_even_places_run_in_the_parent(self, monkeypatch, tmp_path, processes):
        # The transform (4) and pullback (10) groups stay in the parent at
        # every process count, so a tracer in the parent sees their spans.
        log = tmp_path / "pids"
        transform, pullback = oracle._transform_checks, oracle.pullback_metric_check

        def logged(name, fn):
            def call(*args):
                with open(log, "a") as f:
                    f.write(f"{name} {os.getpid()}\n")
                return fn(*args)
            return call

        monkeypatch.setattr(oracle, "_transform_checks", logged("transform", transform))
        monkeypatch.setattr(oracle, "pullback_metric_check", logged("pullback", pullback))
        self.suite(monkeypatch, processes, 4, 0, n=2000)
        runs = [line.split() for line in log.read_text().splitlines()]
        assert sorted({name for name, _ in runs}) == ["pullback", "transform"]
        assert {int(pid) for _, pid in runs} == {os.getpid()}

    @pytest.mark.parametrize("processes", [1, 2, 3, 4, 7])
    def test_shares_cover_the_table_once(self, processes):
        shares = oracle._shares(12, processes)
        assert len(shares) == processes
        assert sorted(i for share in shares for i in share) == list(range(12))
        if processes > 1:
            assert list(shares[0]) == list(range(0, 12, 2))
            assert all(len(share) > 0 for share in shares)

    def test_first_exception_in_table_order_is_raised(self, monkeypatch):
        # rounding (3) fails in the worker and gumbel (2) in the parent; a
        # serial run raises gumbel's, as does transform (4) after rounding.
        def fails(label):
            def call(*args):
                raise DomainError(label)
            return call

        monkeypatch.setattr(oracle, "_rounding_checks", fails("rounding"))
        monkeypatch.setattr(oracle, "_transform_checks", fails("transform"))
        with pytest.raises(DomainError, match="rounding"):
            self.suite(monkeypatch, 2, 4, 0, n=2000)
        monkeypatch.setattr(oracle, "_gumbel_checks", fails("gumbel"))
        with pytest.raises(DomainError, match="gumbel"):
            self.suite(monkeypatch, 2, 4, 0, n=2000)
        assert_no_child_left()

    def test_processes_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [oracle._group_processes(g) for g in (1, 2, 3, 4, 12)] == [1, 2, 2, 3, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert oracle._group_processes(12) == 7
        monkeypatch.delattr(os, "fork", raising=False)
        assert oracle._group_processes(12) == 1


def _other_threads_cpu_s() -> float:
    """CPU seconds of this process outside the calling thread."""
    import resource

    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime - time.thread_time()


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or forks.available_cpus() < 2,
    reason="needs Linux and two CPUs to see a BLAS worker thread",
)
def test_suite_wakes_no_blas_thread(monkeypatch):
    # A threaded OpenBLAS call leaves its worker thread spinning for about
    # 130 ms of CPU; the suite must make none, so other threads stay idle.
    monkeypatch.setattr(oracle, "_group_processes", lambda groups: 1)
    time.sleep(0.2)  # let a spin left by an earlier test end
    before = _other_threads_cpu_s()
    for k in range(2, oracle.MAX_SUITE_K + 1):
        run_suite(k, 0, n=20_000)
    for _ in range(20):  # quad_fisher at K = 3, as run_suite also checks it
        quad_fisher(cparams([1.0, 2.0, 3.0], 1.0))
    time.sleep(0.2)  # a spin after the last call would show here
    assert _other_threads_cpu_s() - before < 0.020
