import itertools
import math

import numpy as np
import pytest

from concrete_geom import (
    DomainError,
    IndexOutOfRange,
    InverseSchlomilchParams,
    PI_SQ_OVER_6,
    lr_cov,
    lr_mean,
    lr_mean_special,
    lr_var,
    raw_second_moment_special,
    special_params,
)


def isparams(alpha, beta, tau):
    return InverseSchlomilchParams(
        alpha=np.asarray(alpha, float), beta=np.asarray(beta, float), tau=float(tau)
    )


class TestLogRatioMean:
    def test_hand_values(self):
        # psi(2) - psi(1) = 1, so E[log(X1/X2)] = -1 with flat weights.
        p = isparams([2, 1], [1, 1], 1.0)
        assert lr_mean(p, 0, 1) == pytest.approx(-1.0, abs=1e-13)
        assert lr_mean(p, 1, 0) == pytest.approx(1.0, abs=1e-13)

    def test_weight_shift(self):
        p = isparams([1, 1], [2, 1], 0.5)
        assert lr_mean(p, 0, 1) == pytest.approx(2.0 * math.log(2.0), abs=1e-13)

    def test_diagonal_is_zero(self):
        p = isparams([1.3, 2.4, 0.7], [1, 2, 3], 1.1)
        for i in range(3):
            assert lr_mean(p, i, i) == 0.0

    def test_antisymmetry_and_cocycle(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = isparams(rng.uniform(0.2, 5, 3), rng.uniform(0.2, 5, 3), rng.uniform(0.3, 4))
            for i, k in itertools.product(range(3), repeat=2):
                assert lr_mean(p, i, k) == pytest.approx(-lr_mean(p, k, i), abs=1e-12)
            for i, j, k in itertools.product(range(3), repeat=3):
                assert lr_mean(p, i, k) == pytest.approx(
                    lr_mean(p, i, j) + lr_mean(p, j, k), abs=1e-12
                )


class TestLogRatioVariance:
    def test_hand_value(self):
        p = isparams([2, 3], [1, 1], 1.0)
        # trigamma(2) + trigamma(3) = pi^2/3 - 9/4
        assert lr_var(p, 0, 1) == pytest.approx(math.pi**2 / 3 - 2.25, abs=1e-13)

    def test_diagonal_is_zero(self):
        p = isparams([1, 1, 1], [1, 2, 3], 1.0)
        assert lr_var(p, 2, 2) == 0.0

    def test_matches_covariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = isparams(rng.uniform(0.2, 5, 4), rng.uniform(0.2, 5, 4), rng.uniform(0.3, 4))
            for i, k in itertools.product(range(4), repeat=2):
                assert lr_var(p, i, k) == pytest.approx(lr_cov(p, i, k, i, k), abs=1e-12)

    def test_tau_scaling(self):
        a, b = [1.5, 2.5], [1, 1]
        v1 = lr_var(isparams(a, b, 1.0), 0, 1)
        v3 = lr_var(isparams(a, b, 3.0), 0, 1)
        assert v3 == pytest.approx(v1 / 9.0, abs=1e-14)


class TestLogRatioCovariance:
    def test_bilinear_antisymmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p = isparams(rng.uniform(0.2, 5, 3), rng.uniform(0.2, 5, 3), rng.uniform(0.3, 4))
            for i, k, j, l in itertools.product(range(3), repeat=4):
                assert lr_cov(p, i, k, j, l) == pytest.approx(
                    -lr_cov(p, k, i, j, l), abs=1e-12
                )
                assert lr_cov(p, i, k, j, l) == pytest.approx(
                    lr_cov(p, j, l, i, k), abs=1e-12
                )

    def test_cocycle_in_first_slot(self):
        p = isparams([1.2, 2.1, 0.6], [1, 2, 3], 1.4)
        for i, j, k, a, b in itertools.product(range(3), repeat=5):
            assert lr_cov(p, i, k, a, b) == pytest.approx(
                lr_cov(p, i, j, a, b) + lr_cov(p, j, k, a, b), abs=1e-12
            )

    def test_polarization_identity(self):
        # cov(i,k;j,l) = (var_il + var_jk - var_ij - var_kl) / 2
        p = isparams([1.3, 0.8, 2.2], [1, 2, 3], 1.6)
        for i, k, j, l in itertools.product(range(3), repeat=4):
            expected = 0.5 * (
                lr_var(p, i, l) + lr_var(p, j, k) - lr_var(p, i, j) - lr_var(p, k, l)
            )
            assert lr_cov(p, i, k, j, l) == pytest.approx(expected, abs=1e-12)

    def test_concrete_case_values(self):
        # alpha = 1: trigamma(1) = pi^2/6 everywhere.
        p = isparams([1, 1, 1], [1, 2, 3], 1.0)
        assert lr_cov(p, 0, 1, 0, 2) == pytest.approx(PI_SQ_OVER_6, abs=1e-13)
        assert lr_cov(p, 0, 1, 2, 1) == pytest.approx(PI_SQ_OVER_6, abs=1e-13)
        assert lr_cov(p, 0, 1, 1, 2) == pytest.approx(-PI_SQ_OVER_6, abs=1e-13)
        assert lr_cov(p, 0, 1, 0, 1) == pytest.approx(2 * PI_SQ_OVER_6, abs=1e-13)
        assert lr_cov(p, 0, 1, 2, 0) == pytest.approx(-PI_SQ_OVER_6, abs=1e-13)


class TestSpecialMoments:
    def test_special_params(self):
        p = special_params([1.0, 2.0, 3.0], 1.5, 0, 2)
        np.testing.assert_array_equal(p.alpha.weights, [2.0, 1.0, 2.0])
        p2 = special_params([1.0, 2.0], 1.0, 1, 1)
        np.testing.assert_array_equal(p2.alpha.weights, [1.0, 3.0])

    def test_mean_special_matches_general(self):
        beta = np.array([1.0, 2.0, 3.0])
        for tau in (0.5, 1.0, 2.0):
            for m, n, i, k in itertools.product(range(3), repeat=4):
                p = special_params(beta, tau, m, n)
                assert lr_mean_special(beta, tau, m, n, i, k) == pytest.approx(
                    lr_mean(p, i, k), abs=1e-12
                )

    def test_raw_moment_hand_value(self):
        # K=2, flat weights, doubly shifted first slot, i=0, k=l=1.
        val = raw_second_moment_special([1.0, 1.0], 1.0, 0, 0, 0, 1, 1)
        assert val == pytest.approx(1.0 + math.pi**2 / 3, abs=1e-13)

    def test_raw_moment_equals_cov_plus_mean_product(self):
        # E[AB] = Cov(A,B) + E[A]E[B] with A = log(Xi/Xk), B = log(Xi/Xl).
        beta = np.array([1.0, 2.0, 3.0])
        for tau in (0.7, 1.0, 2.5):
            for m, n, i, k, l in itertools.product(range(3), repeat=5):
                p = special_params(beta, tau, m, n)
                expected = lr_cov(p, i, k, i, l) + lr_mean(p, i, k) * lr_mean(p, i, l)
                got = raw_second_moment_special(beta, tau, m, n, i, k, l)
                assert got == pytest.approx(expected, abs=1e-12), (m, n, i, k, l, tau)

    def test_raw_moment_gauge_invariance(self):
        rng = np.random.default_rng(23)
        beta = rng.uniform(0.5, 3.0, 3)
        for lam in (1e-3, 7.0, 1e3):
            for m, n, i, k, l in itertools.product(range(3), repeat=5):
                a = raw_second_moment_special(beta, 1.3, m, n, i, k, l)
                b = raw_second_moment_special(beta * lam, 1.3, m, n, i, k, l)
                assert a == pytest.approx(b, abs=1e-11)


class TestIndexValidation:
    def test_out_of_range(self):
        p = isparams([1, 1], [1, 1], 1.0)
        with pytest.raises(IndexOutOfRange):
            lr_mean(p, 0, 2)
        with pytest.raises(IndexOutOfRange):
            lr_var(p, -1, 0)
        with pytest.raises(IndexOutOfRange):
            lr_cov(p, 0, 1, 2, 0)
        with pytest.raises(IndexOutOfRange):
            special_params([1, 1], 1.0, 0, 5)
        with pytest.raises(IndexOutOfRange):
            raw_second_moment_special([1, 1], 1.0, 0, 0, 0, 1, 3)


class TestDomainValidation:
    def test_extreme_tau_rejected(self):
        for tau in (1e200, 1e-170):
            p = isparams([1, 1], [1, 2], tau)
            with pytest.raises(DomainError):
                lr_cov(p, 0, 1, 0, 1)
            with pytest.raises(DomainError):
                lr_var(p, 0, 1)
        with pytest.raises(DomainError):
            raw_second_moment_special([1, 2], 1e-200, 0, 0, 0, 1, 1)
