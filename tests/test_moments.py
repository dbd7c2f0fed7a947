import itertools
import math

import numpy as np
import pytest

from concrete_geom import (
    DomainError,
    IndexOutOfRange,
    InverseSchlomilchParams,
    PI_SQ_OVER_6,
    PositiveWeights,
    lr_cov,
    lr_mean,
    lr_var,
    raw_second_moment_special,
    special_params,
    trigamma,
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
        # verify judges only i < k; antisymmetry gives the rest.
        rng = np.random.default_rng(20)
        for dim, _ in itertools.product((3, 4), range(20)):
            p = isparams(rng.uniform(0.2, 5, dim), rng.uniform(0.2, 5, dim), rng.uniform(0.3, 4))
            for i, k in itertools.product(range(dim), repeat=2):
                assert lr_mean(p, i, k) == pytest.approx(-lr_mean(p, k, i), abs=1e-12)
            for i, j, k in itertools.product(range(dim), repeat=3):
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
        # verify judges only i < k, j < l and (i, k) <= (j, l); these give the rest.
        rng = np.random.default_rng(22)
        for dim, _ in itertools.product((3, 4), range(10)):
            p = isparams(rng.uniform(0.2, 5, dim), rng.uniform(0.2, 5, dim), rng.uniform(0.3, 4))
            for i, k, j, l in itertools.product(range(dim), repeat=4):
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
                got = lr_mean(special_params(beta, tau, m, n), i, k)
                ref = literal_lr_mean_special(beta, tau, m, n, i, k)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_raw_moment_hand_value(self):
        # K=2, flat weights, doubly shifted first slot, i=0, k=l=1.
        val = raw_second_moment_special([1.0, 1.0], 1.0, 0, 0, 0, 1, 1)
        assert val == pytest.approx(1.0 + math.pi**2 / 3, abs=1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_raw_moment_equals_cov_plus_mean_product(self, dim):
        # E[AB] = Cov(A,B) + E[A]E[B] with A = log(Xi/Xk), B = log(Xi/Xl), at
        # every cell, including the mirror images (m > n, k > l) verify skips.
        beta = np.arange(1.0, dim + 1.0)
        for tau in (0.7, 1.0, 2.5):
            for m, n, i, k, l in itertools.product(range(dim), repeat=5):
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


class TestIndexArrays:
    """The delta expressions broadcast over integer index arrays."""

    SETTINGS = (
        (lambda k: np.arange(1.0, k + 1.0), 1.0),
        (lambda k: np.exp(np.linspace(-50.0, 50.0, k)), 0.3),
        (lambda k: np.exp(np.linspace(50.0, -50.0, k)), 2.5),
    )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_raw_moment_grid_equals_scalar_calls(self, k):
        # Raw and wrapped beta, scalar indices and index grids agree bit for bit.
        idx = np.arange(k)
        for make_beta, tau in self.SETTINGS:
            beta = make_beta(k)
            wrapped = PositiveWeights(beta)
            for m, n in itertools.product(range(k), repeat=2):
                grid = raw_second_moment_special(beta, tau, m, n, *np.ix_(idx, idx, idx))
                assert grid.shape == (k, k, k)
                for b in (beta, wrapped):
                    scalar = np.array([
                        raw_second_moment_special(b, tau, m, n, i, kk, l)
                        for i, kk, l in itertools.product(range(k), repeat=3)
                    ])
                    assert grid.ravel().tobytes() == scalar.tobytes(), (k, tau, m, n)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_raw_moment_exactly_zero_where_i_in_k_l(self, k):
        # One factor is log(X_i / X_i) = 0; verify judges these cells by one
        # exact check of their largest absolute value.
        idx = np.arange(k)
        i, kk, l = grid = np.ix_(idx, idx, idx)
        zero = np.broadcast_to((i == kk) | (i == l), (k, k, k))
        for make_beta, _ in self.SETTINGS:
            for tau in (1e-3, 0.3, 1.0, 2.5):
                for m, n in itertools.product(range(k), repeat=2):
                    val = raw_second_moment_special(make_beta(k), tau, m, n, *grid)
                    assert np.all(val[zero] == 0.0), (k, tau, m, n)

    def test_out_of_range_entries(self):
        beta = [1.0, 2.0, 3.0]
        for bad in (np.array([0, 1, 3]), np.array([-1, 0, 1]), np.array([[0], [5]])):
            with pytest.raises(IndexOutOfRange):
                raw_second_moment_special(beta, 1.0, 0, 1, bad, 0, 1)
            with pytest.raises(IndexOutOfRange):
                raw_second_moment_special(beta, 1.0, 0, 1, 0, *np.ix_(bad.ravel(), [0, 1]))
            with pytest.raises(IndexOutOfRange):
                lr_mean(special_params(beta, 1.0, 0, 1), bad, 0)

    def test_cov_and_var_values_unchanged(self):
        # The trigamma forms with the deltas written out as 1.0 / 0.0.
        def delta(a, b):
            return 1.0 if a == b else 0.0

        p = isparams([1.3, 0.7, 2.9, 1.0], [1, 2, 3, 4], 0.8)
        psi1 = [trigamma(a) for a in p.alpha.weights]
        for i, k, j, l in itertools.product(range(4), repeat=4):
            val = (delta(i, j) - delta(i, l)) * psi1[i] - (delta(k, j) - delta(k, l)) * psi1[k]
            assert lr_cov(p, i, k, j, l) == val / p.tau**2
        for i, k in itertools.product(range(4), repeat=2):
            val = (1.0 - delta(i, k)) * psi1[i] - (delta(k, i) - 1.0) * psi1[k]
            assert lr_var(p, i, k) == val / p.tau**2


def _delta(first, *rest):
    """Multi-index Kronecker delta, one factor per listed index."""
    out = 1.0
    for i in rest:
        out = out * (i == first)
    return out


def literal_lr_mean_special(beta, tau, m, n, i, k):
    """E[log(X_i / X_k)] at Dirichlet vector 1 + e_m + e_n: the paper's delta form.

    One _delta call per term, as the formula is written: the digamma form of
    lr_mean with psi(2) - psi(1) = 1 and psi(3) - psi(1) = 3/2 written in.
    """
    lb = np.log(np.asarray(beta, float))
    val = (
        -_delta(i, m) - _delta(i, n) + _delta(k, m) + _delta(k, n)
        + 0.5 * _delta(i, m, n) - 0.5 * _delta(k, m, n)
        + lb[i] - lb[k]
    )
    return val / float(tau)


def literal_raw_second_moment_special(beta, tau, m, n, i, k, l):
    """raw_second_moment_special with one _delta call per term."""
    d = _delta
    lb = np.log(np.asarray(beta, float))
    val = (
        d(i, m, n) + d(i, l, m, n) + d(i, k, m, n) - d(k, l, m, n)
        - d(i, m) * d(k, n) - d(i, m) * d(l, n)
        - d(i, n) * d(k, m) - d(i, n) * d(l, m)
        + d(k, m) * d(l, n) + d(k, n) * d(l, m)
        - (
            2 * d(i, m) + 2 * d(i, n) - d(k, m) - d(k, n) - d(l, m) - d(l, n)
            - d(i, m, n) + 0.5 * d(k, m, n) + 0.5 * d(l, m, n)
        ) * lb[i]
        + (
            d(i, m) + d(i, n) - d(k, m) - d(k, n)
            - 0.5 * d(i, m, n) + 0.5 * d(k, m, n)
        ) * lb[l]
        + (
            d(i, m) + d(i, n) - d(l, m) - d(l, n)
            - 0.5 * d(i, m, n) + 0.5 * d(l, m, n)
        ) * lb[k]
        + (lb[i] - lb[k]) * (lb[i] - lb[l])
        + (1.0 - d(i, k) - d(i, l) + d(k, l)) * PI_SQ_OVER_6
    )
    return val / float(tau) ** 2


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestLiteralDeltaForm:
    """Pairwise deltas named once give the one-delta-per-term values bit for bit.

    The mean at the special Dirichlet vector is lr_mean at special_params,
    whose digamma values agree with the delta form's exact 1 and 3/2 to
    rounding, so it is compared at rtol 1e-13.
    """

    @staticmethod
    def draws(k):
        rng = np.random.default_rng(24 + k)
        yield np.exp(rng.uniform(-1.0, 1.0, k)), float(rng.uniform(0.3, 3.0))
        yield np.exp(rng.uniform(-5.0, 5.0, k)), float(rng.uniform(0.01, 0.1))
        yield np.geomspace(1e-50, 1e50, k), 0.7  # beta ratios up to 1e+-100

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_scalar_indices(self, k):
        for beta, tau in self.draws(k):
            for m, n, i, kk, l in itertools.product(range(k), repeat=5):
                got = raw_second_moment_special(beta, tau, m, n, i, kk, l)
                ref = literal_raw_second_moment_special(beta, tau, m, n, i, kk, l)
                assert same_bits(got, ref), (beta, tau, m, n, i, kk, l)
            for m, n, i, kk in itertools.product(range(k), repeat=4):
                got = lr_mean(special_params(beta, tau, m, n), i, kk)
                ref = literal_lr_mean_special(beta, tau, m, n, i, kk)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0,
                                           err_msg=str((beta, tau, m, n, i, kk)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_index_grids(self, k):
        idx = np.arange(k)
        grid3, grid2 = np.ix_(idx, idx, idx), np.ix_(idx, idx)
        for beta, tau in self.draws(k):
            for m, n in itertools.product(range(k), repeat=2):
                got = raw_second_moment_special(beta, tau, m, n, *grid3)
                ref = literal_raw_second_moment_special(beta, tau, m, n, *grid3)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (tau, m, n)
                got = lr_mean(special_params(beta, tau, m, n), *grid2)
                ref = literal_lr_mean_special(beta, tau, m, n, *grid2)
                assert got.shape == ref.shape, (tau, m, n)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0,
                                           err_msg=str((tau, m, n)))


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
            with pytest.raises(DomainError):
                lr_cov(isparams([1, 1], [1, 2], tau), 0, 1, 0, 1)
            with pytest.raises(DomainError):
                lr_var(isparams([1, 1], [1, 2], tau), 0, 1)
        with pytest.raises(DomainError):
            raw_second_moment_special([1, 2], 1e-200, 0, 0, 0, 1, 1)

    @pytest.mark.parametrize("tau", [1e-150, 1e-8])
    def test_overflowing_covariance_rejected(self, tau):
        # trigamma(1e-150) is about 1e300: divided by tau^2 it leaves the float range.
        p = isparams([1e-150, 1.0], [1.0, 2.0], tau)
        with pytest.raises(DomainError):
            lr_cov(p, 0, 1, 0, 1)
        with pytest.raises(DomainError):
            lr_var(p, 0, 1)
        with pytest.raises(DomainError):
            lr_cov(p, np.arange(2), 1, np.arange(2), 1)
        # Entries that do not involve alpha_0 stay finite, on both paths.
        assert lr_var(p, 1, 1) == 0.0
        assert lr_cov(p, np.array([1]), 0, 1, 1)[0] == 0.0
