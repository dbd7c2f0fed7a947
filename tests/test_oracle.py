import math

import numpy as np
import pytest

from concrete_geom import (
    CheckResult,
    ConcreteParams,
    DegenerateWeights,
    DomainError,
    InverseSchlomilchParams,
    RngState,
    UnsupportedDim,
    fisher_reduced,
    mc_log_ratio_moments,
    mc_score_fisher,
    mc_special_moments,
    oracle,
    pullback_metric_check,
    quad_fisher,
    quad_normalization,
    run_suite,
    special_params,
)


def cparams(beta, tau):
    return ConcreteParams(beta=np.asarray(beta, float), tau=float(tau))


IS_PARAMS = InverseSchlomilchParams(
    alpha=np.array([1.5, 2.5, 0.8]), beta=np.array([1.0, 2.0, 3.0]), tau=1.3
)


# Per-check batch means, written out one statistic at a time: the reference
# for the contracted estimator in the oracle.
def batched_mean(values, w, batches=20):
    parts = [
        float(np.dot(w_b, v_b) / np.sum(w_b))
        for v_b, w_b in zip(np.array_split(values, batches), np.array_split(w, batches))
    ]
    return float(np.dot(w, values)), float(np.std(parts, ddof=1)) / math.sqrt(batches)


def batched_cov(a, b, w, batches=20):
    def wcov(av, bv, wv):
        wv = wv / np.sum(wv)
        return float(np.dot(wv, (av - np.dot(wv, av)) * (bv - np.dot(wv, bv))))

    parts = [
        wcov(av, bv, wv)
        for av, bv, wv in zip(
            np.array_split(a, batches), np.array_split(b, batches), np.array_split(w, batches)
        )
    ]
    return wcov(a, b, w), float(np.std(parts, ddof=1)) / math.sqrt(batches)


class TestQuadNormalization:
    def test_unit_mass(self):
        for beta, tol in (((1.0, 2.0), 1e-8), ((1.0, 2.0, 3.0), 1e-6)):
            for tau in (0.5, 1.0, 2.0, 5.0):
                val = quad_normalization(cparams(beta, tau))
                assert val == pytest.approx(1.0, abs=tol)


class TestQuadFisher:
    def test_matches_closed_form(self):
        for beta, tau in (
            ((1.0, 1.0), 1.0),
            ((1.0, 2.0), 1.0),
            ((1.0, 2.0), 0.5),
            ((0.3, 0.7), 2.0),
            ((1.0, 4.0), 5.0),
        ):
            p = cparams(beta, tau)
            est = quad_fisher(p)
            target = fisher_reduced(p).entries
            assert np.max(np.abs(est - target)) < 1e-6

    def test_high_k_rejected(self):
        with pytest.raises(UnsupportedDim):
            quad_fisher(cparams([1.0, 1.0, 1.0], 1.0))


class TestMcLogRatioMoments:
    def test_all_checks_pass(self):
        checks = mc_log_ratio_moments(IS_PARAMS, 100_000, RngState(40))
        assert checks and all(c.passed for c in checks)

    def test_concrete_params_accepted(self):
        checks = mc_log_ratio_moments(cparams([1.0, 2.0], 0.7), 50_000, RngState(41))
        assert checks and all(c.passed for c in checks)

    def test_degenerate_weights(self):
        # A far-off Dirichlet vector collapses the importance weights.
        p = InverseSchlomilchParams(
            alpha=np.array([60.0, 0.01]), beta=np.array([1.0, 1.0]), tau=1.0
        )
        with pytest.raises(DegenerateWeights):
            mc_log_ratio_moments(p, 20_000, RngState(42))


class TestBatchMoments:
    """The contracted estimator against per-check batch means, n = 2003 (uneven batches)."""

    n = 2003

    def assert_matches(self, checks, reference):
        assert [c.name for c in checks] == [name for name, _, _ in reference]
        for c, (name, est, se) in zip(checks, reference):
            assert abs(c.estimate - est) <= 1e-12, name
            assert abs(c.se_or_tol - se) <= 1e-12, name

    def test_log_ratio_moments(self):
        checks = mc_log_ratio_moments(IS_PARAMS, self.n, RngState(40))
        log_x, w = oracle._is_samples(IS_PARAMS, self.n, RngState(40))
        pairs = [(i, k) for i in range(3) for k in range(3) if i != k]
        lr = {pair: log_x[:, pair[0]] - log_x[:, pair[1]] for pair in pairs}
        reference = [(f"lr_mean[{i},{k}]", *batched_mean(lr[i, k], w)) for i, k in pairs]
        reference += [
            (f"lr_cov[{i},{k},{j},{l}]", *batched_cov(lr[i, k], lr[j, l], w))
            for i, k in pairs
            for j, l in pairs
        ]
        assert len(reference) == 42
        self.assert_matches(checks, reference)

    def test_special_moments(self):
        beta, tau, rng = np.array([1.0, 2.0, 3.0]), 1.0, RngState(43)
        checks = mc_special_moments(beta, tau, self.n, rng)
        reference = []
        for m in range(3):
            for n in range(3):
                p = special_params(beta, tau, m, n)
                log_x, w = oracle._is_samples(p, self.n, rng.child(m * 3 + n))
                for i in range(3):
                    for k in range(3):
                        for l in range(3):
                            a = log_x[:, i] - log_x[:, k]
                            b = log_x[:, i] - log_x[:, l]
                            est, se = batched_mean(a * b, w)
                            reference.append(
                                (f"raw2[m={m},n={n},i={i},k={k},l={l}]", est, max(se, 1e-15))
                            )
        assert len(reference) == 243
        self.assert_matches(checks, reference)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            mc_log_ratio_moments(IS_PARAMS, 19, RngState(40))
        with pytest.raises(DomainError):
            mc_special_moments(np.array([1.0, 2.0]), 1.0, 19, RngState(43))


class TestPlantedErrors:
    """A closed form that is 5% off must fail at least one check of its family."""

    @pytest.mark.parametrize("name", ["lr_mean", "lr_cov"])
    def test_log_ratio_moments(self, monkeypatch, name):
        closed = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: 1.05 * closed(*args))
        checks = mc_log_ratio_moments(IS_PARAMS, 100_000, RngState(40))
        assert any(not c.passed for c in checks if c.name.startswith(name + "["))

    def test_special_moments(self, monkeypatch):
        closed = oracle.raw_second_moment_special
        monkeypatch.setattr(
            oracle, "raw_second_moment_special", lambda *args: 1.05 * closed(*args)
        )
        checks = mc_special_moments(np.array([1.0, 2.0]), 1.0, 100_000, RngState(43))
        assert any(not c.passed for c in checks)


class TestMcSpecialMoments:
    def test_all_tuples_pass(self):
        checks = mc_special_moments(np.array([1.0, 2.0]), 1.0, 100_000, RngState(43))
        assert len(checks) == 4 * 8
        assert all(c.passed for c in checks)


class TestMcScoreFisher:
    def test_matches_closed_form(self):
        res = mc_score_fisher(cparams([1.0, 2.0], 1.2), 100_000, 1e-5, RngState(44))
        assert all(c.passed for c in res.checks)

    def test_k3(self):
        res = mc_score_fisher(cparams([1.0, 2.0, 3.0], 0.8), 100_000, 1e-5, RngState(45))
        assert all(c.passed for c in res.checks)


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

    def test_check_result_fields(self):
        c = run_suite(2, seed=1, n=20_000)[0]
        assert isinstance(c, CheckResult)
        for attr in ("name", "target", "estimate", "se_or_tol", "passed"):
            assert hasattr(c, attr)
