import math
import tracemalloc
import warnings

import numpy as np
import pytest

from concrete_geom import (
    BoundaryPoint,
    ConcreteGeomError,
    ConcreteParams,
    DimMismatch,
    DomainError,
    InverseSchlomilchParams,
    NonPositiveTemperature,
    PoincarePoint,
    RngState,
    SimplexPoint,
    TO_UNIFORM,
    FROM_UNIFORM,
    concrete_log_density,
    escort_transform,
    from_poincare,
    is_log_density,
    log_norm_const,
    lr_mean,
    mc_special_moments,
    power,
    raw_second_moment_special,
    round_to_vertex,
    rounding_probabilities,
    sample_concrete,
    sample_is_log,
    sample_standard_gumbel,
    special_params,
    sufficient_statistic,
    uniform_transform,
)
from concrete_geom.distributions import (
    _is_log_density_arr,
    _is_log_density_log,
    _log_k,
    _sample_logits,
    _to_uniform_arr,
)
from concrete_geom.oracle import density_quad_config, quad_normalization
from concrete_geom.simplex import integrate_simplex
from concrete_geom.special import EULER_GAMMA, digamma


def cparams(beta, tau):
    return ConcreteParams(beta=np.asarray(beta, float), tau=float(tau))


def isparams(alpha, beta, tau):
    return InverseSchlomilchParams(
        alpha=np.asarray(alpha, float), beta=np.asarray(beta, float), tau=float(tau)
    )


class TestParams:
    def test_tau_validation(self):
        with pytest.raises(NonPositiveTemperature):
            cparams([1, 1], 0.0)
        with pytest.raises(NonPositiveTemperature):
            cparams([1, 1], -2.0)
        with pytest.raises(NonPositiveTemperature):
            cparams([1, 1], math.inf)

    def test_alpha_beta_dims(self):
        with pytest.raises(DimMismatch):
            isparams([1, 1, 1], [1, 1], 1.0)

    # Every public entry point that takes tau, directly or through its params.
    TAU_CALLS = {
        "sample_concrete": lambda t: sample_concrete(cparams([1, 2], t), RngState(0), 4),
        "sample_is_log": lambda t: sample_is_log(isparams([2, 1], [1, 2], t), RngState(0), 4),
        "concrete_log_density": lambda t: concrete_log_density(cparams([1, 2], t), [0.5, 0.5]),
        "is_log_density": lambda t: is_log_density(isparams([2, 1], [1, 2], t), [0.5, 0.5]),
        "lr_mean": lambda t: lr_mean(isparams([2, 1], [1, 2], t), 0, 1),
        "raw_second_moment_special":
            lambda t: raw_second_moment_special([1, 2], t, 0, 1, 0, 1, 1),
        "special_params": lambda t: special_params([1, 2], t, 0, 1),
        "uniform_transform":
            lambda t: uniform_transform(cparams([1, 2], t), [0.5, 0.5], TO_UNIFORM),
        "escort_transform": lambda t: escort_transform(cparams([1, 2], t), [0.5, 0.5], 1),
        "sufficient_statistic": lambda t: sufficient_statistic(cparams([1, 2], t), [0.5, 0.5]),
        "quad_normalization": lambda t: quad_normalization(cparams([1, 2], t)),
        "mc_special_moments": lambda t: mc_special_moments([1, 2], t, 16, RngState(0)),
        "from_poincare":
            lambda t: from_poincare(PoincarePoint(eta=[0.0], eta_k=1.0 / t, ell=1.0)),
    }

    # Entry points accurate on a narrower tau range: at the window's ends they
    # raise their own DomainError instead of returning a wrong value.
    NARROWER = {"quad_normalization": r"needs tau in \[1e-06, 1e\+06\]"}

    @pytest.mark.parametrize("name", sorted(TAU_CALLS))
    def test_tau_window_everywhere(self, name):
        call = self.TAU_CALLS[name]
        for tau in (1e-151, 1e151):
            with pytest.raises(DomainError, match=r"tau .* is outside \[1e-150, 1e150\]"):
                call(tau)
        for tau in (1e-150, 1e150):
            if name in self.NARROWER:
                with pytest.raises(DomainError, match=self.NARROWER[name]):
                    call(tau)
            else:
                call(tau)


class TestConcreteDensity:
    def test_flat_case(self):
        # K=2, tau=1, equal beta: the density is identically 1.
        p = cparams([0.5, 0.5], 1.0)
        for x1 in (0.1, 0.3, 0.5, 0.77):
            assert concrete_log_density(p, np.array([x1, 1 - x1])) == pytest.approx(0.0, abs=1e-14)

    def test_center_value(self):
        p = cparams([0.5, 0.5], 2.0)
        assert concrete_log_density(p, np.array([0.5, 0.5])) == pytest.approx(
            math.log(2.0), abs=1e-14
        )

    def test_scale_gauge(self):
        rng = np.random.default_rng(0)
        for lam in (1e-6, 1.0, 1e6):
            p1 = cparams([1, 2], 1.7)
            p2 = cparams(np.array([1.0, 2.0]) * lam, 1.7)
            for _ in range(20):
                x = rng.dirichlet([1, 1])
                a = concrete_log_density(p1, x)
                b = concrete_log_density(p2, x)
                assert abs(a - b) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        beta = np.array([1.0, 2.0, 3.0])
        perm = np.array([2, 0, 1])
        for _ in range(20):
            x = rng.dirichlet([1, 1, 1])
            a = concrete_log_density(cparams(beta, 0.8), x)
            b = concrete_log_density(cparams(beta[perm], 0.8), x[perm])
            assert a == pytest.approx(b, abs=1e-12)

    def test_normalization_grid(self):
        for beta, k in (((1.0, 1.0), 2), ((1.0, 2.0), 2), ((1.0, 2.0, 3.0), 3)):
            for tau in (0.5, 1.0, 2.0, 5.0):
                p = cparams(beta, tau)
                tol = 1e-6 if k == 2 else 1e-4
                assert quad_normalization(p) == pytest.approx(1.0, abs=tol)

    def test_boundary_rejected(self):
        p = cparams([1, 1], 1.0)
        with pytest.raises(BoundaryPoint):
            concrete_log_density(p, np.array([1e-310, 1.0]))
        # Non-finite, off-simplex and multi-row inputs are not interior points.
        q = InverseSchlomilchParams(alpha=[2.0, 1.0], beta=[1.0, 1.0], tau=1.0)
        calls = (
            lambda x: concrete_log_density(p, x),
            lambda x: is_log_density(q, x),
            lambda x: uniform_transform(p, x, TO_UNIFORM),
            lambda x: escort_transform(p, x, 1),
            lambda x: sufficient_statistic(p, x),
            round_to_vertex,
        )
        for bad in ([math.nan, 0.5], [5.0, 7.0], [[0.3, 0.7], [0.6, 0.4]]):
            for call in calls:
                with pytest.raises(ConcreteGeomError):
                    call(np.array(bad))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            concrete_log_density(cparams([1, 1], 1.0), np.array([0.2, 0.3, 0.5]))


class TestInverseSchlomilchDensity:
    def test_reduces_to_concrete(self):
        # The Concrete density of Maddison, Mnih & Teh (2017), written out:
        # lgamma(K) + (K-1) log tau + sum log beta - (tau+1) sum log x
        #   - K LSE(log beta - tau log x).
        def paper_log_density(beta, tau, x):
            k = len(beta)
            t = np.log(beta) - tau * np.log(x)
            lse = np.max(t) + math.log(np.sum(np.exp(t - np.max(t))))
            return (
                math.lgamma(k) + (k - 1) * math.log(tau) + np.sum(np.log(beta))
                - (tau + 1.0) * np.sum(np.log(x)) - k * lse
            )

        rng = np.random.default_rng(2)
        for beta in ([1.0, 2.0], [1.0, 2.0, 0.5], [0.3, 1.0, 2.0, 0.7, 4.0]):
            for tau in (0.3, 1.3, 4.0):
                p = cparams(beta, tau)
                q = p.to_inverse_schlomilch()
                for _ in range(20):
                    x = rng.dirichlet(np.ones(len(beta)))
                    want = paper_log_density(np.array(beta), tau, x)
                    assert abs(concrete_log_density(p, x) - want) < 1e-12
                    assert abs(is_log_density(q, x) - want) < 1e-12

    def test_hand_value(self):
        q = isparams([2, 1], [1, 1], 1.0)
        assert is_log_density(q, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-14)

    def test_quadrature_normalization(self):
        q = isparams([2, 3], [1, 2], 1.5)
        cfg = density_quad_config(cparams([1, 2], 1.5))

        def f(x):
            return np.exp(_is_log_density_arr(q, x))

        val = integrate_simplex(f, 2, cfg)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestLogNormConst:
    def test_concrete_case(self):
        q = isparams([1, 1], [0.5, 0.5], 1.0)
        assert log_norm_const(q) == pytest.approx(math.log(4.0), abs=1e-13)

    def test_gamma_ratio(self):
        q = isparams([2, 1], [1, 1], 1.0)
        assert log_norm_const(q) == pytest.approx(math.log(0.5), abs=1e-13)

    def test_special_alpha_ratio(self):
        # J(1 + e_m + e_n) / J_0 = (1 + delta_mn) / (K (K+1) beta_m beta_n)
        beta = np.array([1.0, 2.0, 3.0])
        k = 3
        j0 = log_norm_const(isparams([1, 1, 1], beta, 1.0))
        for m in range(k):
            for n in range(k):
                alpha = np.ones(k)
                alpha[m] += 1
                alpha[n] += 1
                lhs = log_norm_const(isparams(alpha, beta, 1.0)) - j0
                rhs = math.log((1 + (m == n)) / (k * (k + 1) * beta[m] * beta[n]))
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGumbelSampling:
    def test_quantile_identity(self):
        # U = 1/e maps to -log(-log(1/e)) = 0.
        assert -math.log(-math.log(1 / math.e)) == pytest.approx(0.0, abs=1e-15)

    def test_moments(self):
        rng = RngState(123)
        g = sample_standard_gumbel(rng, size=1_000_000)
        se_mean = math.pi / math.sqrt(6) / math.sqrt(g.size)
        assert abs(np.mean(g) - EULER_GAMMA) < 4 * se_mean
        var = np.var(g, ddof=1)
        se_var = np.std((g - np.mean(g)) ** 2, ddof=1) / math.sqrt(g.size)
        assert abs(var - math.pi**2 / 6) < 4 * se_var

    def test_reproducible(self):
        a = sample_standard_gumbel(RngState(7), size=100)
        b = sample_standard_gumbel(RngState(7), size=100)
        np.testing.assert_array_equal(a, b)

    def test_child_streams_differ(self):
        rng = RngState(7)
        a = sample_standard_gumbel(rng.child(0), size=10)
        b = sample_standard_gumbel(rng.child(1), size=10)
        assert not np.array_equal(a, b)


class TestConcreteSampling:
    def test_argmax_frequencies(self):
        p = cparams([1, 2, 3], 0.7)
        x = sample_concrete(p, RngState(11), 100_000)
        hits = np.argmax(x, axis=1)
        target = np.array([1 / 6, 1 / 3, 1 / 2])
        for i in range(3):
            se = math.sqrt(target[i] * (1 - target[i]) / x.shape[0])
            assert abs(np.mean(hits == i) - target[i]) < 4 * se

    def test_log_ratio_mean(self):
        p = cparams([2, 1], 2.0)
        x = sample_concrete(p, RngState(12), 100_000)
        lr = np.log(x[:, 0]) - np.log(x[:, 1])
        se = np.std(lr, ddof=1) / math.sqrt(x.shape[0])
        assert abs(np.mean(lr) - math.log(2) / 2) < 4 * se

    def test_ks_against_numeric_cdf(self):
        # Empirical CDF of X1 vs the CDF from integrating the density.
        p = cparams([1.5, 1.0], 1.3)
        n = 100_000
        x = sample_concrete(p, RngState(13), n)[:, 0]

        from concrete_geom.distributions import _concrete_log_density_arr

        grid = np.linspace(1e-6, 1 - 1e-6, 20_001)
        pts = np.column_stack([grid, 1 - grid])
        dens = np.exp(_concrete_log_density_arr(p, pts))
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
        cdf /= cdf[-1]
        f_at_samples = np.interp(x, grid, cdf)
        f_sorted = np.sort(f_at_samples)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - f_sorted), np.max(f_sorted - (i - 1) / n))
        assert ks < 1.628 / math.sqrt(n)  # 1% critical value

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            sample_concrete(cparams([1, 1], 1.0), RngState(0), 0)

    @pytest.mark.parametrize("beta, tau, seed", [
        ([1.0, 2.0, 3.0], 0.7, 0), ([1.0, 2.0], 0.05, 1), ([0.3, 1.0, 4.0, 2.0, 9.0], 3.0, 2),
    ])
    def test_gumbel_softmax_formula(self, beta, tau, seed):
        # softmax((-log(-log clip(U)) + log beta) / tau), bit for bit; U fills
        # the (n, K) block column by column, as random((K, n)).T.
        n = 1000
        u = RngState(seed).generator.random((len(beta), n)).T
        u = np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        z = (-np.log(-np.log(u)) + np.log(np.asarray(beta))) / tau
        e = np.exp(z - np.max(z, axis=1, keepdims=True))
        ref = e / np.sum(e, axis=1, keepdims=True)
        assert np.array_equal(sample_concrete(cparams(beta, tau), RngState(seed), n), ref)


def _c_order_logits(alpha, beta, tau, seed, n):
    """The sampler's logits, combined in C order as a plain formula.

    The stream fills each (n, K) block column by column: random((K, n)).T.
    """
    gen = RngState(seed).generator
    k = len(beta)
    if np.all(alpha == 1.0):
        u = np.ascontiguousarray(gen.random((k, n)).T)
        u = np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        w = -np.log(-np.log(u))
    else:
        small = alpha < 1.0
        shape = np.where(small, alpha + 1.0, alpha)
        w = -np.log(np.ascontiguousarray(gen.standard_gamma(shape[:, None], (k, n)).T))
        u = np.ascontiguousarray(gen.random((int(small.sum()), n)).T)
        w[:, small] -= np.log(1.0 - u) / alpha[small]
    return (w + np.log(beta)) / tau


def _c_order_log_softmax(z):
    z = z - np.max(z, axis=1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


class TestColumnMajorSamples:
    """Samples are F-ordered (n, K) arrays, bit-identical to C-order formulas for K < 8."""

    @staticmethod
    def _draws(k, seed, n=2000):
        beta = np.exp(np.random.default_rng(k).uniform(-2.0, 2.0, k))
        alpha = np.linspace(0.5, 2.0, k)
        tau = 0.7
        x = sample_concrete(cparams(beta, tau), RngState(seed), n)
        log_x = sample_is_log(isparams(alpha, beta, tau), RngState(seed), n)
        z = _c_order_logits(np.ones(k), beta, tau, seed, n)
        e = np.exp(z - np.max(z, axis=1, keepdims=True))
        ref_x = e / np.sum(e, axis=1, keepdims=True)
        ref_log_x = _c_order_log_softmax(_c_order_logits(alpha, beta, tau, seed, n))
        return x, log_x, ref_x, ref_log_x

    @pytest.mark.parametrize("k", range(2, 8))
    def test_bit_identical_below_8(self, k):
        for seed in (0, 1):
            x, log_x, ref_x, ref_log_x = self._draws(k, seed)
            assert x.flags.f_contiguous and log_x.flags.f_contiguous
            assert np.array_equal(x, ref_x)
            assert np.array_equal(log_x, ref_log_x)

    @pytest.mark.parametrize("k", [8, 12, 100])
    def test_last_bits_from_8(self, k):
        # numpy sums a C-order row of K >= 8 terms pairwise (8 accumulators)
        # but reduces F-order columns left to right.  For positive terms each
        # order's relative error is below (K - 1) eps / 2, so the row sums,
        # and the ratios and logs built from them, agree to K eps.
        tol = k * np.finfo(float).eps
        x, log_x, ref_x, ref_log_x = self._draws(k, 0)
        assert x.flags.f_contiguous and log_x.flags.f_contiguous
        np.testing.assert_allclose(x, ref_x, rtol=tol, atol=0.0)
        assert np.all(np.abs(log_x - ref_log_x) <= tol * np.maximum(np.abs(ref_log_x), 1.0))


class TestSamplerMemory:
    """The logits are the one (n, K) block the draw allocates: no C-to-F copy.

    tracemalloc sees numpy's allocations; a warm-up call keeps first-call
    allocations out of the peak.
    """

    k, n = 4, 50_000

    @pytest.mark.parametrize("alpha", [np.ones(4), np.linspace(1.0, 2.0, 4)],
                             ids=["gumbel", "gamma"])
    def test_logits_peak(self, alpha):
        p = isparams(alpha, np.arange(1.0, self.k + 1.0), 0.7)
        _sample_logits(p, RngState(0), 10)
        tracemalloc.start()
        try:
            z = _sample_logits(p, RngState(0), self.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.flags.f_contiguous
        assert peak <= 1.1 * self.n * self.k * 8

    @pytest.mark.parametrize("draw", [
        lambda p, rng, n: sample_is_log(p, rng, n),
        lambda p, rng, n: sample_concrete(cparams(p.beta.weights, p.tau), rng, n),
    ], ids=["sample_is_log", "sample_concrete"])
    def test_normalized_peak(self, draw):
        # The logits are normalized in place: no second (n, K) block.
        p = isparams(np.ones(self.k), np.arange(1.0, self.k + 1.0), 0.7)
        draw(p, RngState(0), 10)
        tracemalloc.start()
        try:
            x = draw(p, RngState(0), self.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.flags.f_contiguous
        assert peak <= 1.4 * self.n * self.k * 8


class TestInPlaceKernels:
    """The in-place array kernels equal their plain formulas bit for bit."""

    @staticmethod
    def _points(k, seed=0, n=3000):
        beta = np.exp(np.random.default_rng(k).uniform(-2.0, 2.0, k))
        return cparams(beta, 0.7), sample_concrete(cparams(beta, 0.7), RngState(seed), n)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_log_k(self, k):
        p, x = self._points(k)
        log_x = np.log(x)
        before = log_x.copy()
        t = p.beta.log[None, :] - p.tau * log_x
        m = np.max(t, axis=1)
        ref = m + np.log(np.sum(np.exp(t - m[:, None]), axis=1))
        assert np.array_equal(_log_k(p.beta.log, p.tau, log_x), ref)
        assert np.array_equal(log_x, before)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_to_uniform(self, k):
        p, x = self._points(k)
        z = p.beta.log[None, :] - p.tau * np.log(x)
        e = np.exp(z - np.max(z, axis=1, keepdims=True))
        ref = e / np.sum(e, axis=1, keepdims=True)
        y = _to_uniform_arr(p, x)
        assert y.flags.f_contiguous
        assert np.array_equal(y, ref)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_log_density_entry_point(self, k):
        p, x = self._points(k)
        q = isparams(np.linspace(0.5, 2.0, k), p.beta.weights, p.tau)
        log_x = np.log(x)
        for params in (p.to_inverse_schlomilch(), q):
            assert np.array_equal(
                _is_log_density_log(params, log_x), _is_log_density_arr(params, x)
            )


class TestInverseSchlomilchSampling:
    def test_alpha_one_is_log_concrete(self):
        p = cparams([1.0, 2.0, 3.0], 0.7)
        log_x = sample_is_log(p.to_inverse_schlomilch(), RngState(21), 10_000)
        # atol covers log of a component rounded next to 1.
        np.testing.assert_allclose(
            log_x, np.log(sample_concrete(p, RngState(21), 10_000)), rtol=1e-12, atol=1e-15
        )

    def test_tiny_alpha_finite(self):
        p = isparams([0.01, 1.0, 3.0], [1.0, 2.0, 3.0], 0.5)
        log_x = sample_is_log(p, RngState(22), 100_000)
        assert np.isfinite(log_x).all()
        assert np.allclose(np.sum(np.exp(log_x), axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_alpha_window(self):
        # Below 1e-150, log(U) / alpha and trigamma(alpha) overflow.
        for alpha in ([1e-310, 1.0], [1.0, 1e-151], [1.0, 1e151]):
            with pytest.raises(DomainError):
                isparams(alpha, [1.0, 1.0], 1.0)
        log_x = sample_is_log(isparams([1e-150, 1.0], [1.0, 1.0], 1.0), RngState(23), 1000)
        assert np.isfinite(log_x).all()


class TestUniformTransform:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        p = cparams([1.0, 2.0, 0.7], 1.9)
        for _ in range(1000):
            x = SimplexPoint(rng.dirichlet([1, 1, 1]))
            y = uniform_transform(p, x, TO_UNIFORM)
            back = uniform_transform(p, y, FROM_UNIFORM)
            np.testing.assert_allclose(back.components, x.components, atol=1e-10)

    def test_hand_example(self):
        p = cparams([0.5, 0.5], 1.0)
        y = uniform_transform(p, np.array([0.3, 0.7]), TO_UNIFORM)
        np.testing.assert_allclose(y.components, [0.7, 0.3], atol=1e-14)

    def test_sends_concrete_to_uniform(self):
        p = cparams([2.0, 1.0], 0.8)
        x = sample_concrete(p, RngState(14), 100_000)
        y = _to_uniform_arr(p, x)[:, 0]
        se = np.std(y, ddof=1) / math.sqrt(y.size)
        assert abs(np.mean(y) - 0.5) < 4 * se
        # KS against Uniform(0,1), the law of Y1 on S_2.
        y_sorted = np.sort(y)
        n = y.size
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - y_sorted), np.max(y_sorted - (i - 1) / n))
        assert ks < 1.628 / math.sqrt(n)

    def test_unknown_direction(self):
        with pytest.raises(DomainError):
            uniform_transform(cparams([1, 1], 1.0), np.array([0.5, 0.5]), "sideways")


class TestEscortTransform:
    def test_matches_to_uniform(self):
        rng = np.random.default_rng(4)
        p = cparams([1.0, 2.0], 1.4)
        for _ in range(50):
            x = SimplexPoint(rng.dirichlet([1, 1]))
            a = escort_transform(p, x, -1)
            b = uniform_transform(p, x, TO_UNIFORM)
            np.testing.assert_array_equal(a.components, b.components)

    def test_identity_case(self):
        p = cparams([1, 1], 1.0)
        x = np.array([0.3, 0.7])
        out = escort_transform(p, x, +1)
        np.testing.assert_allclose(out.components, x, atol=1e-15)

    def test_matches_powering(self):
        p = cparams([1, 1], 2.0)
        x = SimplexPoint(np.array([0.2, 0.8]))
        out = escort_transform(p, x, +1)
        np.testing.assert_allclose(out.components, [1 / 17, 16 / 17], atol=1e-15)
        np.testing.assert_allclose(out.components, power(2.0, x).components, atol=1e-15)

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            escort_transform(cparams([1, 1], 1.0), np.array([0.5, 0.5]), 2)


class TestRounding:
    def test_known_value(self):
        np.testing.assert_allclose(
            rounding_probabilities(np.array([1.0, 2.0, 3.0])), [1 / 6, 1 / 3, 1 / 2],
            atol=1e-15,
        )

    def test_uniform(self):
        np.testing.assert_allclose(
            rounding_probabilities(np.ones(5)), np.full(5, 0.2), atol=1e-15
        )

    def test_min_ratio_of_uniform_draws(self):
        # P[Y_i / beta_i minimal] = beta_i / sum(beta) for uniform Y.
        beta = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(5)
        e = rng.standard_exponential((100_000, 3))
        y = e / e.sum(axis=1, keepdims=True)
        hits = np.argmin(y / beta, axis=1)
        target = rounding_probabilities(beta)
        for i in range(3):
            se = math.sqrt(target[i] * (1 - target[i]) / y.shape[0])
            assert abs(np.mean(hits == i) - target[i]) < 4 * se

    @pytest.mark.parametrize("beta", [(1e308, 1e308), (1e308, 1e308, 1.0), (1.7e308, 1e-300)])
    def test_sum_past_float_range(self, beta):
        # Rescaled by max(beta) first: no overflow, and the ratios survive.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = rounding_probabilities(np.array(beta))
            canonical = cparams(beta, 1.0).normalized_beta()
        assert np.array_equal(probs, canonical)
        assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(probs[:2] / probs[0], np.array(beta[:2]) / beta[0])

    @pytest.mark.parametrize("beta", [(1.0, 2.0, 3.0), (1e-300, 1.0), (1e307, 3e307), (0.1, 0.2)])
    def test_ordinary_weights_keep_their_bits(self, beta):
        w = np.array(beta)
        assert rounding_probabilities(w).tobytes() == (w / np.sum(w)).tobytes()
        assert cparams(beta, 1.0).normalized_beta().tobytes() == (w / np.sum(w)).tobytes()

    def test_round_to_vertex(self):
        assert round_to_vertex(np.array([0.1, 0.7, 0.2])) == 1
        assert round_to_vertex(np.array([0.5, 0.5])) == 0  # tie goes low

    def test_argmax_invariant_under_powering(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = SimplexPoint(rng.dirichlet([1, 1, 1, 1]))
            for a in (0.3, 1.0, 4.0):
                assert round_to_vertex(power(a, x)) == round_to_vertex(x)


class TestSufficientStatistic:
    def test_center_value(self):
        p = cparams([0.5, 0.5], 1.0)
        t = sufficient_statistic(p, np.array([0.5, 0.5]))
        np.testing.assert_allclose(t, [0.0, 0.0], atol=1e-14)

    def test_pairwise_differences(self):
        rng = np.random.default_rng(7)
        p = cparams([1.0, 2.0, 3.0], 1.7)
        for _ in range(50):
            x = rng.dirichlet([1, 1, 1])
            t = sufficient_statistic(p, x)
            for i in range(3):
                for k in range(3):
                    expected = -p.tau * (math.log(x[i]) - math.log(x[k]))
                    assert t[i] - t[k] == pytest.approx(expected, abs=1e-12)

    def test_mean_matches_log_norm_gradient(self):
        # E[T_i] = d log J / d alpha_i at alpha = 1.
        p = cparams([1.0, 2.0], 1.0)
        k = 2
        x = sample_concrete(p, RngState(15), 200_000)
        log_x = np.log(x)
        from concrete_geom.distributions import _log_k

        t = -p.tau * log_x - _log_k(p.beta.log, p.tau, log_x)[:, None]
        for i in range(k):
            target = digamma(1.0) - digamma(float(k)) - p.beta.log[i]
            se = np.std(t[:, i], ddof=1) / math.sqrt(x.shape[0])
            assert abs(np.mean(t[:, i]) - target) < 4 * se


class TestScoreRegularity:
    def test_score_mean_zero(self):
        from concrete_geom.oracle import _reduced_scores

        p = cparams([0.4, 0.6], 1.2)
        log_x = sample_is_log(p.to_inverse_schlomilch(), RngState(16), 100_000)
        s, _ = _reduced_scores(p, log_x, 1e-5)
        for a in range(2):
            se = np.std(s[:, a], ddof=1) / math.sqrt(log_x.shape[0])
            assert abs(np.mean(s[:, a])) < 4 * se
