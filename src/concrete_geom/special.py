"""Log-gamma, digamma and trigamma functions.

Log-gamma is the standard library's ``math.lgamma`` behind the package's
domain check.  Digamma and trigamma, which the standard library lacks, lift
the argument above 10 with the recurrences ``psi(x+1) = psi(x) + 1/x`` etc.,
then evaluate the Bernoulli-number asymptotic series.  Accuracy is close to
machine precision for the positive real arguments used by the moment
formulas.
"""

import math

from .errors import DomainError

#: Euler-Mascheroni constant, -digamma(1).
EULER_GAMMA = 0.5772156649015328606

#: trigamma(1) = pi^2 / 6.
PI_SQ_OVER_6 = math.pi**2 / 6

_LIFT = 10.0

# B_{2n} / (2n) for n = 1..6
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

# B_{2n} for n = 1..6
_TRIGAMMA_COEF = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _check_positive(x) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be positive and finite, got {x!r}")
    return x


def digamma(x) -> float:
    """First logarithmic derivative of the gamma function, psi(x)."""
    x = _check_positive(x)
    acc = 0.0
    while x < _LIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    p = inv2
    for c in _DIGAMMA_COEF:
        series += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - series


def trigamma(x) -> float:
    """Second logarithmic derivative of the gamma function, psi'(x)."""
    x = _check_positive(x)
    acc = 0.0
    while x < _LIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv2 * inv
    for c in _TRIGAMMA_COEF:
        series += c * p
        p *= inv2
    return acc + inv + 0.5 * inv2 + series


def log_gamma(x) -> float:
    """Natural logarithm of the gamma function for positive real x."""
    x = _check_positive(x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log-gamma of {x!r} overflows") from None
