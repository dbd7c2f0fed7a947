import math

import mpmath
import numpy as np
import pytest

from concrete_geom import (
    DomainError,
    EULER_GAMMA,
    PI_SQ_OVER_6,
    digamma,
    log_gamma,
    trigamma,
)


def test_constants():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
    assert abs(trigamma(1.0) - PI_SQ_OVER_6) < 1e-13


@pytest.mark.parametrize(
    "x,expected",
    [
        (1.0, -0.5772156649015329),
        (2.0, 1.0 - 0.5772156649015329),
        (3.0, 1.5 - 0.5772156649015329),
    ],
)
def test_digamma_integer_values(x, expected):
    assert abs(digamma(x) - expected) < 1e-14


@pytest.mark.parametrize(
    "x,expected",
    [
        (1.0, PI_SQ_OVER_6),
        (2.0, PI_SQ_OVER_6 - 1.0),
        (3.0, PI_SQ_OVER_6 - 1.25),
    ],
)
def test_trigamma_integer_values(x, expected):
    assert abs(trigamma(x) - expected) < 1e-14


def test_log_gamma_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(2.0)) < 1e-14
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_against_mpmath_grid():
    xs = np.concatenate([
        np.geomspace(1e-3, 1.0, 40),
        np.linspace(1.0, 50.0, 60),
        np.geomspace(50.0, 1e6, 40),
    ])
    for x in xs:
        x = float(x)
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-12, rel=1e-12)
        assert trigamma(x) == pytest.approx(float(mpmath.polygamma(1, x)), abs=1e-12, rel=1e-12)
        assert log_gamma(x) == pytest.approx(float(mpmath.loggamma(x)), abs=1e-12, rel=1e-12)


def test_recurrences():
    rng = np.random.default_rng(11)
    xs = rng.uniform(1e-6, 50.0, size=10_000)
    for x in xs:
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-11 * max(1.0, 1.0 / x)
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2) < 1e-11 * max(1.0, 1.0 / x**2)


def test_derivative_relations():
    rng = np.random.default_rng(12)
    h = 1e-5
    for x in rng.uniform(0.5, 20.0, size=100):
        x = float(x)
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
        assert abs(fd - digamma(x)) < 1e-6
        fd2 = (digamma(x + h) - digamma(x - h)) / (2 * h)
        assert abs(fd2 - trigamma(x)) < 1e-6


def test_domain_errors():
    for fn in (digamma, trigamma, log_gamma):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.5)
        with pytest.raises(DomainError):
            fn(math.nan)
    with pytest.raises(DomainError):
        log_gamma(1e308)  # finite argument, overflowing value
