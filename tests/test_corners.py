"""Every public entry point at the corners of the parameter window.

Each entry point is called at K = 3 for every combination of an extreme
tau, beta and alpha inside the window the parameter types accept.  A call
passes if it returns finite values or raises a ConcreteGeomError; a numpy
warning (turned into an error here) or a NaN or inf fails it.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from concrete_geom import (
    FROM_UNIFORM,
    TO_UNIFORM,
    ConcreteGeomError,
    ConcreteParams,
    InverseSchlomilchParams,
    RngState,
    closure,
    concrete_log_density,
    escort_transform,
    fisher_full,
    fisher_reduced,
    fr_distance,
    from_poincare,
    is_log_density,
    log_norm_const,
    lr_cov,
    lr_mean,
    quad_fisher,
    quad_normalization,
    raw_second_moment_special,
    rounding_probabilities,
    sample_concrete,
    sample_is_log,
    sufficient_statistic,
    to_poincare,
    uniform_transform,
)

TAUS = (1e-150, 1e-8, 1.0, 1e8, 1e150)
BETAS = ((1.0, 2.0, 3.0), (1e-150, 1.0, 1e150), (1e308, 1e308, 1.0), (1e-300, 1.0, 1.0))
ALPHAS = ((1.0, 1.0, 1.0), (1e-150, 1.0, 2.0), (1e150, 1.0, 2.0))
CORNERS = list(itertools.product(TAUS, BETAS, ALPHAS))

X = (0.2, 0.3, 0.5)  # the simplex point of the density and transform calls
I, K = np.indices((3, 3)).reshape(2, -1)
M5 = np.indices((3,) * 5).reshape(5, -1)  # every (m, n, i, k, l)
REFERENCE = ConcreteParams(beta=np.ones(3), tau=1.0)


# Each entry point as a call on (Concrete params, IS params).
ENTRY_POINTS = {
    "closure": lambda c, s: closure(c.beta.weights),
    "fisher_full": lambda c, s: fisher_full(c),
    "fisher_reduced": lambda c, s: fisher_reduced(c),
    "to_poincare": lambda c, s: to_poincare(c),
    "from_poincare": lambda c, s: from_poincare(to_poincare(c)),
    "fr_distance": lambda c, s: fr_distance(c, REFERENCE),
    "rounding_probabilities": lambda c, s: rounding_probabilities(c.beta),
    "normalized_beta": lambda c, s: c.normalized_beta(),
    "concrete_log_density": lambda c, s: concrete_log_density(c, X),
    "is_log_density": lambda c, s: is_log_density(s, X),
    "log_norm_const": lambda c, s: log_norm_const(s),
    "lr_mean": lambda c, s: lr_mean(s, I, K),
    "lr_cov": lambda c, s: lr_cov(s, I[:, None], K[:, None], I, K),
    "raw_second_moment_special": lambda c, s: raw_second_moment_special(c.beta, c.tau, *M5),
    "sample_is_log": lambda c, s: sample_is_log(s, RngState(0), 100),
    "sample_concrete": lambda c, s: sample_concrete(c, RngState(0), 100),
    "uniform_transform": lambda c, s: [
        uniform_transform(c, X, d) for d in (TO_UNIFORM, FROM_UNIFORM)],
    "sufficient_statistic": lambda c, s: sufficient_statistic(c, X),
    "escort_transform": lambda c, s: [escort_transform(c, X, sign) for sign in (1, -1)],
    "quad_normalization": lambda c, s: quad_normalization(c),
    "quad_fisher": lambda c, s: quad_fisher(c),
}


def _floats(values) -> np.ndarray:
    """Every float in a result: an array, a float, a dataclass or a list of them."""
    if dataclasses.is_dataclass(values):
        values = dataclasses.astuple(values)
    if isinstance(values, (tuple, list)):
        return np.concatenate([_floats(v) for v in values])
    return np.ravel(np.asarray(values, dtype=float))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_finite_or_typed_error_at_every_corner(name):
    call = ENTRY_POINTS[name]
    bad = []
    for tau, beta, alpha in CORNERS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                c = ConcreteParams(beta=np.array(beta), tau=tau)
                s = InverseSchlomilchParams(alpha=np.array(alpha), beta=np.array(beta), tau=tau)
                values = _floats(call(c, s))
            except ConcreteGeomError:
                continue
            except Exception as exc:  # a warning raised as an error, or an untyped error
                bad.append((tau, beta, alpha, repr(exc)))
                continue
        if not np.isfinite(values).all():
            bad.append((tau, beta, alpha, "non-finite"))
    assert not bad, bad
