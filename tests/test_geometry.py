import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from concrete_geom import (
    ConcreteParams,
    DimMismatch,
    DomainError,
    NotNormalized,
    PoincarePoint,
    categorical_fr_distance,
    curvature_length,
    fisher_full,
    fisher_reduced,
    fr_distance,
    from_poincare,
    half_space_distance,
    to_poincare,
)
from concrete_geom.geometry import _gauge_contraction, _pair_spread

PI_SQ_OVER_6 = math.pi**2 / 6


def cparams(beta, tau):
    return ConcreteParams(beta=np.asarray(beta, float), tau=float(tau))


def random_params(rng, k):
    return cparams(rng.uniform(0.2, 5.0, k), rng.uniform(0.3, 4.0))


class TestCurvatureLength:
    def test_formula_values(self):
        assert curvature_length(2) == pytest.approx(
            math.sqrt((2 * PI_SQ_OVER_6 + 1.0) / 3.0), abs=1e-15
        )
        assert curvature_length(3) == pytest.approx(
            math.sqrt(2.0 * (3 * PI_SQ_OVER_6 + 1.0) / 4.0), abs=1e-15
        )
        assert curvature_length(3) == pytest.approx(1.7226146116506558, abs=1e-12)

    def test_monotone_in_k(self):
        vals = [curvature_length(k) for k in range(2, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_k(self):
        with pytest.raises(DomainError):
            curvature_length(1)


class TestFisherFull:
    def test_flat_k2_entries(self):
        m = fisher_full(cparams([1.0, 1.0], 1.0)).entries
        assert m.shape == (3, 3)
        assert m[2, 2] == pytest.approx((2 * PI_SQ_OVER_6 + 1.0) / 3.0, abs=1e-13)
        assert m[2, 2] == pytest.approx(1.4299560445654844, abs=1e-12)
        assert m[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert m[0, 1] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert m[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_mixed_entries(self):
        beta, tau = np.array([1.0, 2.0]), 2.0
        m = fisher_full(cparams(beta, tau)).entries
        l2 = math.log(2.0)
        assert m[2, 2] == pytest.approx((2 * PI_SQ_OVER_6 + 1.0 + l2**2) / (3 * tau**2), abs=1e-13)
        assert m[0, 2] == pytest.approx((l2 - 0.0) / (3 * tau * 1.0), abs=1e-13)
        assert m[1, 2] == pytest.approx((l2 - 2 * l2) / (3 * tau * 2.0), abs=1e-13)
        assert m[1, 1] == pytest.approx(1.0 / (3 * 4.0), abs=1e-15)

    def test_null_vector(self):
        rng = np.random.default_rng(30)
        for k in (2, 3, 5):
            for _ in range(20):
                p = random_params(rng, k)
                m = fisher_full(p).entries
                v = np.append(p.beta.weights, 0.0)
                resid = m @ v
                assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(m)))

    def test_symmetric(self):
        p = cparams([1.0, 2.0, 3.0], 0.7)
        m = fisher_full(p).entries
        np.testing.assert_array_equal(m, m.T)


class TestFisherReduced:
    def test_flat_k2_value(self):
        m = fisher_reduced(cparams([0.5, 0.5], 1.0)).entries
        # (K delta - 1)/(b1 b1) + 2/(b1 b2) + (K-1)/b2^2, all over K+1: 16/3.
        assert m[0, 0] == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert m[0, 1] == pytest.approx(0.0, abs=1e-13)

    def test_positive_definite_grid(self):
        rng = np.random.default_rng(31)
        for k in (2, 3, 4):
            for _ in range(30):
                p = random_params(rng, k)
                eig = np.linalg.eigvalsh(fisher_reduced(p).entries)
                assert np.all(eig > 0.0)

    def test_gauge_invariant(self):
        p1 = cparams([1.0, 2.0, 3.0], 1.3)
        p2 = cparams([10.0, 20.0, 30.0], 1.3)
        np.testing.assert_allclose(
            fisher_reduced(p1).entries, fisher_reduced(p2).entries, atol=1e-12
        )

    def test_chain_rule_against_full(self):
        # fisher_reduced contracts fisher_full, so the reference is an
        # independent route: the paper's explicit reduced entries.
        rng = np.random.default_rng(32)
        for k in (2, 3, 4, 50):
            for _ in range(10):
                p = random_params(rng, k)
                b = p.normalized_beta()
                lb = np.log(b)
                tau = p.tau
                bk = b[-1]
                expected = np.empty((k, k))
                expected[:-1, :-1] = (
                    (k * np.eye(k - 1) - 1.0) / np.outer(b[:-1], b[:-1])
                    + 1.0 / (b[:-1, None] * bk)
                    + 1.0 / (b[None, :-1] * bk)
                    + (k - 1) / bk**2
                ) / (k + 1)
                s = np.sum(lb)
                expected[:-1, -1] = expected[-1, :-1] = (
                    (s - k * lb[:-1]) / b[:-1] - (s - k * lb[-1]) / bk
                ) / ((k + 1) * tau)
                spread = 0.5 * np.sum((lb[:, None] - lb[None, :]) ** 2)
                expected[-1, -1] = (
                    (k - 1) * (k * PI_SQ_OVER_6 + 1.0) + spread
                ) / ((k + 1) * tau**2)
                got = fisher_reduced(p).entries
                np.testing.assert_allclose(got, expected, atol=1e-12, rtol=1e-10)
                assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_extreme_beta_rejected(self):
        for beta, tau in (
            ([1.0, 1e-200, 1.0], 1.0),
            ([1e-200, 1e200], 1.0),  # the canonical beta underflows to 0
            ([1.0, 2.0], 1e200),
            ([1.0, 2.0], 1e-170),
        ):
            with pytest.raises(DomainError):
                fisher_full(cparams(beta, tau))
            with pytest.raises(DomainError):
                fisher_reduced(cparams(beta, tau))


def fisher_full_per_entry(p):
    """fisher_full with a loop over the tau column and an identity-matrix beta block."""
    k = p.dim
    beta = p.beta.weights
    lb = p.beta.log
    mat = np.empty((k + 1, k + 1))
    spread = 0.5 * float(np.sum((lb[:, None] - lb[None, :]) ** 2))
    mat[k, k] = ((k - 1) * (k * PI_SQ_OVER_6 + 1.0) + spread) / ((k + 1) * p.tau**2)
    sum_lb = float(np.sum(lb))
    for i in range(k):
        mat[i, k] = mat[k, i] = (sum_lb - k * lb[i]) / ((k + 1) * p.tau * beta[i])
    mat[:k, :k] = (k * np.eye(k) - 1.0) / ((k + 1) * np.outer(beta, beta))
    return mat


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestWholeArrayFisher:
    """The whole-array closed forms equal the per-entry and matrix-product forms bit for bit.

    The one exception is fisher_full's [tau, tau] entry, whose pairwise
    spread is summed in O(K) rather than as the double sum of the reference.
    """

    CASES = [
        (k, spread, tau)
        for k in (2, 3, 8, 100)
        for spread in (0.0, 1.0, 10.0, 50.0)
        for tau in (1e-3, 0.7, 1e3)
    ]

    @staticmethod
    def params(k, spread, tau):
        rng = np.random.default_rng([k, int(spread)])
        lb = rng.uniform(-0.5 * spread, 0.5 * spread, k)
        if spread:
            lb[:2] = -0.5 * spread, 0.5 * spread
        return cparams(np.exp(lb), tau)

    @pytest.mark.parametrize("k,spread,tau", CASES)
    def test_full_matches_per_entry(self, k, spread, tau):
        p = self.params(k, spread, tau)
        got, want = fisher_full(p).entries.copy(), fisher_full_per_entry(p)
        assert abs(got[k, k] - want[k, k]) <= 2.0 * np.spacing(want[k, k])
        got[k, k] = want[k, k]
        assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("k,spread,tau", CASES)
    def test_reduced_matches_gauge_matmul(self, k, spread, tau):
        p = self.params(k, spread, tau)
        t = _gauge_contraction(k)
        want = t @ fisher_full(p.canonical()).entries @ t.T
        assert_bitwise_equal(fisher_reduced(p).entries, want)

    def test_overflow_raises_domain_error_without_warning(self):
        # A zero tau-column denominator, and a reduced entry that overflows.
        with pytest.raises(DomainError):
            fisher_full(cparams([1e-200, 1.0, 1.0], 1e-150))
        with pytest.raises(DomainError):
            fisher_reduced(cparams([7e-155, 1.0, 7e-155], 1.0))


class TestPairSpread:
    """_pair_spread(v) is sum_{i<j} (v_i - v_j)^2, in O(K)."""

    EPS = np.finfo(float).eps

    @staticmethod
    def centred(v):
        c = v - np.mean(v)
        return v.size * float(np.sum(c * c))

    @staticmethod
    def worst_error(spread_fn):
        """Largest relative error against exact rational arithmetic.

        Clustered values: K = 2..30, offsets up to 345, cluster widths down
        to 1e-8, where v - mean(v) cancels most of the digits of v.
        """
        rng = np.random.default_rng(0)
        worst = 0.0
        for k in range(2, 31):
            for offset in (0.0, 1.0, 20.0, 345.0, -345.0):
                for width in (1.0, 1e-2, 1e-4, 1e-6, 1e-8):
                    v = offset + width * rng.uniform(-1.0, 1.0, k)
                    f = [Fraction(x) for x in v.tolist()]
                    exact = k * sum(x * x for x in f) - sum(f) ** 2
                    worst = max(worst, float(abs(Fraction(spread_fn(v)) - exact) / exact))
        return worst

    def test_close_to_exact(self):
        # Random clustered inputs put both this form and the double sum it
        # replaced at up to 2.3 eps, so the bound is 3 eps.  The plain
        # centred form, K sum (v_i - mean(v))^2, is off by about 1e6 eps.
        assert self.worst_error(_pair_spread) <= 3.0 * self.EPS
        assert self.worst_error(self.centred) > 3.0 * self.EPS

    def test_fr_distance_memory_is_linear(self):
        # A K x K difference matrix at K = 2000 would take 32 MB.
        rng = np.random.default_rng(1)
        p, q = random_params(rng, 2000), random_params(rng, 2000)
        tracemalloc.start()
        try:
            fr_distance(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPoincareMap:
    def test_flat_point(self):
        q = to_poincare(cparams([1.0, 1.0], 2.0))
        np.testing.assert_allclose(q.eta, [0.0], atol=1e-15)
        assert q.eta_k == pytest.approx(0.5, abs=1e-15)
        assert q.ell == pytest.approx(curvature_length(2), abs=1e-15)

    def test_k2_formula(self):
        p = cparams([2.0, 1.0], 1.0)
        q = to_poincare(p)
        ell = curvature_length(2)
        xi = math.log(2.0) / ell
        # K=2: eta_1 = sqrt(2) xi / sqrt(3) + sqrt(3) ... via the general map.
        expected = math.sqrt(2) * xi / math.sqrt(3) - xi / (math.sqrt(3) * (math.sqrt(2) + 1))
        assert q.eta[0] == pytest.approx(expected, abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(33)
        for k in (2, 3, 5):
            for _ in range(50):
                p = random_params(rng, k)
                back = from_poincare(to_poincare(p))
                np.testing.assert_allclose(
                    back.normalized_beta(), p.normalized_beta(), atol=1e-12
                )
                assert back.tau == pytest.approx(p.tau, rel=1e-14)

    def test_round_trip_from_half_space(self):
        rng = np.random.default_rng(34)
        for k in (2, 4):
            for _ in range(50):
                q = PoincarePoint(
                    eta=rng.normal(0, 1, k - 1),
                    eta_k=float(rng.uniform(0.2, 5.0)),
                )
                q2 = to_poincare(from_poincare(q))
                np.testing.assert_allclose(q2.as_vector(), q.as_vector(), atol=1e-12)

    def test_invalid_eta_k(self):
        with pytest.raises(DomainError):
            PoincarePoint(eta=np.zeros(1), eta_k=0.0)
        with pytest.raises(DomainError):
            PoincarePoint(eta=[np.nan], eta_k=1.0)
        for tau in (1e-300, 1e300):
            with pytest.raises(DomainError):
                to_poincare(cparams([1.0, 2.0], tau))
        # eta_K = 1 / tau is checked before beta: at 1e-200 the beta softmax underflowed
        for eta_k in (1e-200, 1e200):
            with pytest.raises(DomainError):
                from_poincare(PoincarePoint(eta=np.zeros(1), eta_k=eta_k))


class TestFrDistance:
    def test_temperature_quadrupling(self):
        # Flat weights, tau vs 4 tau: 2 ell asinh(3/4) = 2 ell log 2.
        for k, beta in ((2, [1.0, 1.0]), (3, [1.0, 1.0, 1.0])):
            d = fr_distance(cparams(beta, 1.0), cparams(beta, 4.0)).value
            assert d == pytest.approx(2.0 * curvature_length(k) * math.log(2.0), abs=1e-12)
        assert fr_distance(cparams([1, 1], 1.0), cparams([1, 1], 4.0)).value == pytest.approx(
            1.6577414652255484, abs=1e-9
        )

    def test_equal_temperature_reduction(self):
        p = cparams([1.0, 2.0], 1.0)
        q = cparams([1.0, 3.0], 1.0)
        ell = curvature_length(2)
        diff = math.log(2.0) - math.log(3.0)
        inner = 2 * diff**2 / (2 * 3 * ell**2)
        expected = 2 * ell * math.asinh(0.5 * math.sqrt(inner))
        assert fr_distance(p, q).value == pytest.approx(expected, abs=1e-12)

    def test_matches_half_space_distance(self):
        rng = np.random.default_rng(35)
        for k in (2, 3, 4):
            for _ in range(40):
                p, q = random_params(rng, k), random_params(rng, k)
                d1 = fr_distance(p, q).value
                d2 = half_space_distance(to_poincare(p), to_poincare(q))
                assert d1 == pytest.approx(d2, abs=1e-10)

    def test_metric_axioms(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            p, q, r = (random_params(rng, k) for _ in range(3))
            dpq = fr_distance(p, q).value
            dqp = fr_distance(q, p).value
            assert dpq >= 0.0
            assert dpq == pytest.approx(dqp, abs=1e-12)
            assert fr_distance(p, p).value == pytest.approx(0.0, abs=1e-12)
            assert dpq <= fr_distance(p, r).value + fr_distance(r, q).value + 1e-12

    def test_gauge_invariance(self):
        p = cparams([1.0, 2.0, 3.0], 0.8)
        q = cparams([3.0, 1.0, 1.0], 2.2)
        base = fr_distance(p, q).value
        for lam, mu in ((1e-4, 7.0), (50.0, 1e3)):
            d = fr_distance(
                cparams(np.array([1.0, 2.0, 3.0]) * lam, 0.8),
                cparams(np.array([3.0, 1.0, 1.0]) * mu, 2.2),
            ).value
            assert d == pytest.approx(base, abs=1e-12)

    def test_extreme_temperature_ratio_rejected(self):
        with pytest.raises(DomainError):
            fr_distance(cparams([1.0, 2.0], 1e-300), cparams([1.0, 2.0], 1e300))
        with pytest.raises(DomainError):
            fr_distance(cparams([1.0, 2.0], 1e300), cparams([1.0, 2.0], 1e-300))

    @pytest.mark.parametrize("beta_a, beta_b", [
        ([1e-200, 1e200], [1e200, 1e-200]),  # the canonical 1e-400 underflows to 0
        ([1.0, 2.0], [1e-170, 1e170]),
    ])
    def test_underflowing_canonical_beta_rejected(self, beta_a, beta_b):
        # log 0 gave a NaN distance and a delta of -inf / inf.  Suite's
        # error::RuntimeWarning filter: a warning before the error fails it.
        for p, q in ((cparams(beta_a, 1.0), cparams(beta_b, 1.0)),
                     (cparams(beta_b, 1.0), cparams(beta_a, 1.0))):
            with pytest.raises(DomainError, match="beta ratios are too extreme"):
                fr_distance(p, q)

    def test_permutation_invariance(self):
        perm = np.array([2, 0, 1])
        b1, b2 = np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 4.0])
        d1 = fr_distance(cparams(b1, 1.2), cparams(b2, 0.9)).value
        d2 = fr_distance(cparams(b1[perm], 1.2), cparams(b2[perm], 0.9)).value
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_diverges_as_temperature_vanishes(self):
        p = cparams([1.0, 1.0], 1.0)
        vals = [
            fr_distance(p, cparams([1.0, 2.0], 10.0**-e)).value for e in range(1, 7)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 10.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fr_distance(cparams([1, 1], 1.0), cparams([1, 1, 1], 1.0))


class TestHalfSpaceDistance:
    def test_vertical_geodesic(self):
        ell = curvature_length(2)
        q1 = PoincarePoint(eta=np.zeros(1), eta_k=1.0)
        q2 = PoincarePoint(eta=np.zeros(1), eta_k=4.0)
        # Pure scaling along the vertical axis: ell * log 4.
        assert half_space_distance(q1, q2) == pytest.approx(ell * math.log(4.0), abs=1e-12)

    def test_ell_from_k_and_symmetric(self):
        # A point is its coordinates: ell is curvature_length(K), so the
        # distance is symmetric and equals the Fisher-Rao distance.
        rng = np.random.default_rng(35)
        for k in (2, 3, 5):
            for _ in range(20):
                p, q = random_params(rng, k), random_params(rng, k)
                a, b = (PoincarePoint(eta=t.eta, eta_k=t.eta_k) for t in map(to_poincare, (p, q)))
                assert a.ell == b.ell == curvature_length(k)
                d = half_space_distance(a, b)
                assert d == half_space_distance(b, a)
                assert d == pytest.approx(fr_distance(p, q).value, rel=0, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            half_space_distance(
                PoincarePoint(eta=np.zeros(1), eta_k=1.0),
                PoincarePoint(eta=np.zeros(2), eta_k=1.0),
            )


class TestCategoricalDistance:
    def test_orthogonal_vertices(self):
        assert categorical_fr_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(
            math.pi, abs=1e-15
        )

    def test_hand_value(self):
        assert categorical_fr_distance([0.5, 0.5], [0.9, 0.1]) == pytest.approx(
            0.9272952180016123, abs=1e-12
        )

    def test_identity(self):
        assert categorical_fr_distance([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            categorical_fr_distance([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(NotNormalized):
            categorical_fr_distance([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(NotNormalized):
            categorical_fr_distance([np.nan, 1.0], [0.5, 0.5])
