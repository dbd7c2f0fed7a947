import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from concrete_geom import (
    BoundaryPoint,
    ConcreteGeomError,
    DimMismatch,
    DomainError,
    LogRatioPoint,
    NonFiniteIntegrand,
    NonPositiveEntry,
    PositiveWeights,
    QuadratureConfig,
    SimplexPoint,
    alr_forward,
    alr_inverse,
    closure,
    integrate_simplex,
    perturb,
    power,
    raw_second_moment_special,
    rounding_probabilities,
    special_params,
)
from concrete_geom.simplex import _gauss_legendre, _row_argmax, _softmax


def random_point(rng, k):
    return closure(rng.uniform(0.05, 1.0, size=k))


class TestClosure:
    def test_proportionality(self):
        x = closure([2.0, 3.0, 5.0])
        np.testing.assert_allclose(x.components, [0.2, 0.3, 0.5], rtol=1e-15)

    def test_symmetry(self):
        np.testing.assert_array_equal(closure([1.0, 1.0]).components, [0.5, 0.5])

    def test_tiny_entries(self):
        # Ratio-preserving rescale must survive entries near the underflow
        # threshold; the exact answer comes from rational arithmetic.
        x = closure([1e-300, 1e-300])
        exact = [Fraction(1, 2), Fraction(1, 2)]
        assert [Fraction(v) for v in x.components] == exact

        y = closure([3e-300, 1e-300])
        assert abs(y.components[0] - 0.75) < 1e-15

        # Subnormal weights: the same w / sum(w) as rounding_probabilities.
        for w in ([1e-310, 3e-310], [5e-324, 5e-324]):
            np.testing.assert_array_equal(closure(w).components, rounding_probabilities(w))

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = closure(rng.uniform(1e-3, 10.0, size=rng.integers(2, 6)))
            y = closure(x.components)
            np.testing.assert_array_equal(x.components, y.components)

    def test_rejects_bad_input(self):
        with pytest.raises(NonPositiveEntry):
            closure([1.0, 0.0])
        with pytest.raises(NonPositiveEntry):
            closure([1.0, -2.0])
        with pytest.raises(NonPositiveEntry):
            closure([1.0, math.inf])
        with pytest.raises(DomainError):
            closure([1.0])


class TestSimplexPoint:
    def test_unit_sum_tolerance(self):
        SimplexPoint(np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(DomainError):
            SimplexPoint(np.array([0.5, 0.6]))

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryPoint):
            SimplexPoint(np.array([1e-320, 1.0]))

    def test_sum_is_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = closure(rng.uniform(0.01, 1.0, size=4))
            assert float(np.sum(x.components)) == 1.0


# Every public way into the one weight check: each must raise the same typed error.
WEIGHT_CHECKS = (
    PositiveWeights,
    lambda w: raw_second_moment_special(w, 1.0, 0, 1, 0, 1, 1),
    lambda w: special_params(w, 1.0, 0, 1),
)


class TestPositiveWeights:
    def test_keeps_values(self):
        w = PositiveWeights([1.0, 2.5, 1e-300, 1e300])
        np.testing.assert_array_equal(w.weights, [1.0, 2.5, 1e-300, 1e300])
        assert not w.weights.flags.writeable

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324,
    ])
    def test_rejects_non_positive_or_non_finite(self, bad):
        for check in WEIGHT_CHECKS:
            for w in ([bad, 1.0], [1.0, 2.0, bad]):
                with pytest.raises(NonPositiveEntry):
                    check(w)
                with pytest.raises(NonPositiveEntry):
                    check(np.array(w))

    def test_sum_overflow_is_accepted(self):
        w = PositiveWeights([1e308, 1e308])
        assert np.array_equal(w.log, np.log([1e308, 1e308]))

    @pytest.mark.parametrize("k", [2, 5, 100])
    def test_rejects_nan_at_any_position(self, k):
        for check in WEIGHT_CHECKS:
            for pos in (0, k // 2, k - 1):
                w = np.linspace(1.0, 2.0, k)
                w[pos] = math.nan
                with pytest.raises(NonPositiveEntry):
                    check(w)

    @pytest.mark.parametrize("bad", [[1.0], [], [[1.0, 2.0], [3.0, 4.0]], 1.0])
    def test_rejects_shape(self, bad):
        for check in WEIGHT_CHECKS:
            with pytest.raises(DomainError):
                check(bad)

    def test_log_is_read_only_and_exact(self):
        raw = np.array([1.0, 2.5, 1e-300, 1e300, 0.7])
        w = PositiveWeights(raw)
        assert np.array_equal(w.log, np.log(raw))
        assert not w.log.flags.writeable
        with pytest.raises(ValueError):
            w.log[0] = 0.0


class TestAitchisonOperators:
    def test_perturb_identity(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 5):
            x = random_point(rng, k)
            e = SimplexPoint.uniform(k)
            np.testing.assert_allclose(
                perturb(x, e).components, x.components, atol=1e-12
            )

    def test_perturb_inverse_pair(self):
        out = perturb(SimplexPoint(np.array([0.2, 0.8])), SimplexPoint(np.array([0.8, 0.2])))
        np.testing.assert_allclose(out.components, [0.5, 0.5], atol=1e-15)

    def test_perturb_hand_example(self):
        out = perturb(
            SimplexPoint(np.array([0.2, 0.3, 0.5])),
            SimplexPoint(np.array([0.5, 0.3, 0.2])),
        )
        np.testing.assert_allclose(out.components, [10 / 29, 9 / 29, 10 / 29], atol=1e-15)

    def test_perturb_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            perturb(SimplexPoint.uniform(2), SimplexPoint.uniform(3))

    def test_power_examples(self):
        x = SimplexPoint(np.array([0.2, 0.8]))
        np.testing.assert_allclose(power(1.0, x).components, x.components, atol=1e-15)
        np.testing.assert_allclose(power(0.0, x).components, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(power(2.0, x).components, [1 / 17, 16 / 17], atol=1e-15)

    def test_vector_space_laws(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 4):
            for _ in range(50):
                x, y, z = (random_point(rng, k) for _ in range(3))
                a, b = rng.uniform(-3, 3, size=2)

                np.testing.assert_allclose(
                    perturb(x, y).components, perturb(y, x).components, atol=1e-12
                )
                np.testing.assert_allclose(
                    perturb(perturb(x, y), z).components,
                    perturb(x, perturb(y, z)).components,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    perturb(x, power(-1.0, x)).components,
                    SimplexPoint.uniform(k).components,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    power(a, perturb(x, y)).components,
                    perturb(power(a, x), power(a, y)).components,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    power(a + b, x).components,
                    perturb(power(a, x), power(b, x)).components,
                    atol=1e-12,
                )


class TestAlr:
    def test_examples(self):
        np.testing.assert_allclose(
            alr_forward(SimplexPoint(np.array([0.5, 0.5]))).coords, [0.0], atol=1e-15
        )
        e = math.e
        pt = SimplexPoint(np.array([e / (1 + e), 1 / (1 + e)]))
        np.testing.assert_allclose(alr_forward(pt).coords, [1.0], atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            x = random_point(rng, k)
            back = alr_inverse(alr_forward(x))
            np.testing.assert_allclose(back.components, x.components, atol=1e-12)

    def test_inverse_is_softmax(self):
        y = LogRatioPoint(np.array([1.0, -0.5]))
        x = alr_inverse(y)
        z = np.exp([1.0, -0.5, 0.0])
        np.testing.assert_allclose(x.components, z / z.sum(), atol=1e-15)


class TestAitchisonExtremes:
    """Each operation returns a finite point or raises a ConcreteGeomError, with no numpy warning."""

    POINTS = ([0.5, 0.5], [1e-300, 0.5, 0.5], [1.0 - 1e-15, 1e-15],
              [1e-300, 1.0 - 2e-300, 1e-300], [1e-200, 1e-100, 1.0], [0.125] * 8)
    EXPONENTS = (0.0, 1e-308, -1e-308, 1.0, -1.0, 1e150, -1e150, 1e308, -1e308)
    COORDS = (700.0, -700.0, 1e150, -1e150, 1e308, -1e308)

    @staticmethod
    def finite_or_error(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except ConcreteGeomError:
                return None
        assert np.all(np.isfinite(out.components if isinstance(out, SimplexPoint) else out.coords))
        return out

    @pytest.mark.parametrize("c", POINTS)
    def test_point_operations(self, c):
        x = closure(c)
        self.finite_or_error(lambda: alr_forward(x))
        for d in self.POINTS:
            if len(d) == len(c):
                self.finite_or_error(lambda: perturb(x, closure(d)))
        for a in self.EXPONENTS:
            self.finite_or_error(lambda: power(a, x))

    def test_alr_inverse(self):
        for y in self.COORDS:
            for coords in ([y], [y, y], [y, -y], [y, 0.0]):
                self.finite_or_error(lambda: alr_inverse(LogRatioPoint(np.array(coords))))

    def test_limits(self):
        # a * log(1/8) overflows for |a| = 1e308, but every component is
        # equal, so the power is the uniform point.
        for a in (1e308, -1e308):
            out = self.finite_or_error(lambda: power(a, SimplexPoint.uniform(8)))
            np.testing.assert_array_equal(out.components, np.full(8, 0.125))
        # The limits put a component on the boundary.
        with pytest.raises(BoundaryPoint):
            power(1e308, SimplexPoint(np.array([1e-300, 0.5, 0.5])))
        with pytest.raises(BoundaryPoint):
            alr_inverse(LogRatioPoint(np.array([1e308, -1e308])))


class TestIntegrateSimplex:
    def test_constant_k2(self):
        assert abs(integrate_simplex(lambda x: 1.0, 2) - 1.0) < 1e-9

    def test_constant_k3(self):
        assert abs(integrate_simplex(lambda x: 1.0, 3) - 0.5) < 1e-9

    def test_gauss_legendre_rule_is_shared_and_read_only(self):
        # Newton's method on the Legendre recurrence, not LAPACK: the rule
        # must still be a Gauss rule and agree with numpy's eigenvalue rule.
        for n in (1, 2, 5, 24, 96):
            x, w = _gauss_legendre(n)
            assert _gauss_legendre(n)[0] is x  # computed once
            assert x.shape == w.shape == (n,)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
            assert np.all(np.diff(x) > 0.0), n
            assert abs(np.sum(w) - 2.0) <= 1e-14, n
            for j in range(n):  # exact for degree 2j <= 2n - 1
                assert abs(np.sum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-14, (n, j)
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(x - ref_x)) <= 1e-12 * np.max(np.abs(ref_x)), n
            assert np.max(np.abs(w - ref_w)) <= 1e-12 * np.max(ref_w), n
            for a in (x, w):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_change_of_variables_against_fillup(self):
        # K = 2: direct Gauss-Legendre in the fill-up coordinate x1.
        def f(x):
            return x[:, 0] ** 2 + np.sin(x[:, 0])

        nodes, weights = np.polynomial.legendre.leggauss(200)
        t = 0.5 * (nodes + 1.0)
        direct = 0.5 * float(
            np.sum(weights * (t**2 + np.sin(t)))
        )
        alr = integrate_simplex(f, 2)
        assert abs(alr - direct) < 1e-8

    def test_monte_carlo_fallback(self):
        cfg = QuadratureConfig(mc_samples=400_000, mc_seed=5)
        est = integrate_simplex(lambda x: 1.0, 4, cfg)
        assert abs(est - 1.0 / 6.0) < 1e-12  # constant: exact up to volume factor

        est2 = integrate_simplex(lambda x: np.sum(x**2, axis=1), 4, cfg)
        # E[sum X_i^2] under uniform Dirichlet(1,..,1): K * 2/(K(K+1)) = 2/(K+1)
        assert abs(est2 - (2.0 / 5.0) / 6.0) < 1e-3

    @pytest.mark.parametrize("k", [2, 3, 4])  # k = 4 takes the Monte Carlo rule
    def test_non_finite_integrand(self, k):
        cfg = QuadratureConfig(mc_samples=1000)
        with pytest.raises(NonFiniteIntegrand):
            integrate_simplex(lambda x: math.nan, k, cfg)
        with pytest.raises(NonFiniteIntegrand):
            integrate_simplex(lambda x: np.where(x[:, 0] > 0.5, math.inf, 1.0), k, cfg)

    @pytest.mark.parametrize("k", [2.5, 3.0, 4.5, True, np.float64(3.0)])
    def test_k_must_be_an_integer(self, k):
        # 2.5 was integrated over S_3 and 4.5 reached a bare TypeError.
        with pytest.raises(DomainError):
            integrate_simplex(lambda x: 1.0, k, QuadratureConfig(mc_samples=1000))

    def test_numpy_integer_k(self):
        cfg = QuadratureConfig(mc_samples=1000)
        for k in (2, 3, 4):
            want = integrate_simplex(lambda x: x[:, 0], k, cfg)
            assert integrate_simplex(lambda x: x[:, 0], np.int64(k), cfg) == want

    @pytest.mark.parametrize("bad, error", [
        ([0.5, math.nan], NonPositiveEntry),
        ([1.5, -0.5], NonPositiveEntry),
        ([1.0, 1e-320], BoundaryPoint),
        ([0.5, 0.6], DomainError),
    ])
    def test_scalar_points_validated(self, bad, error):
        with pytest.raises(error):
            SimplexPoint(np.array(bad))


class TestColumnMajorNodes:
    """Node matrices are F-ordered; softmax matches the C-order formula bit for bit."""

    @pytest.mark.parametrize("k", range(2, 8))
    def test_softmax_bit_identical(self, k):
        v = np.random.default_rng(k).normal(scale=5.0, size=(3000, k))
        w = v - np.max(v, axis=1, keepdims=True)
        ref = np.exp(w) / np.sum(np.exp(w), axis=1, keepdims=True)
        x = _softmax(np.asfortranarray(v))
        assert x.flags.f_contiguous
        assert np.array_equal(x, ref)
        assert np.array_equal(_softmax(v), ref)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_integrand_points_are_column_major(self, k):
        seen = []

        def f(x):
            seen.append(x)
            return np.ones(x.shape[0])

        integrate_simplex(f, k, QuadratureConfig(mc_samples=1000))
        (x,) = seen
        assert x.shape[1] == k and x.flags.f_contiguous


class TestRowArgmax:
    """The column-wise argmax equals np.argmax(x, axis=1), ties included."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_matches_argmax(self, k):
        gen = np.random.default_rng(60 + k)
        # Few distinct values, so most rows hold exact ties for the max.
        x = gen.integers(0, 3, size=(5000, k)).astype(float)
        x[0] = 1.0  # a row that is one k-way tie
        x[1, :2] = [-0.0, 0.0]  # signed zeros compare equal
        x[1, 2:] = -1.0
        for arr in (np.asfortranarray(x), x, gen.random((5000, k))):
            assert np.array_equal(_row_argmax(arr), np.argmax(arr, axis=1))
