"""Simplex point types, Aitchison operations and quadrature over the simplex.

The open probability simplex carries a vector space structure given by the
perturbation (componentwise product plus closure) and powering
(componentwise power plus closure) operators.  The additive log-ratio (ALR)
chart ``y_a = log(x_a / x_K)`` maps the open simplex onto Euclidean space
and is the coordinate system used for deterministic quadrature.

Layout rule: every (n, K) array of sample points, logits, quadrature nodes
or per-sample scores is column-major (F order) where it is created: here,
in the samplers of :mod:`concrete_geom.distributions` and in the oracle's
score matrix.  Elementwise numpy operations keep that layout, so per-row
reductions over the short K axis (softmax, log-sum-exp, argmax) run over
K contiguous columns of length n instead of n rows of length K.  Such a
row sum adds its K terms left to right, as numpy does for C-order rows of
K < 8; numpy sums C-order rows of K >= 8 pairwise, so there results can
differ from a C-order evaluation in the last bits.

Stream rule: a sampler fills its (n, K) block as the transpose of a C-order
(K, n) draw, ``random((K, n)).T``, which is F order with no copy.  So the
random stream fills the block column by column: value j * n + i of a draw
lands in cell (i, j).

In-place rule: the array kernels on the sampling and Monte Carlo paths
(:func:`_softmax`, :func:`_log_sum_exp`, ``distributions._to_uniform_arr``,
the samplers, the oracle's scores) allocate at most their output and
update every other (n, K) block in place, with the same operations in the
same order as the plain formula, so results keep their bits.  A kernel
that needs a temporary as wide as a row (``distributions.sample_is_log``'s
log-sum-exp, the oracle's Monte Carlo features) works through the rows in
blocks of ROW_BLOCK, so its temporaries do not grow with n; row-wise
operations give the same bits on a block as on the whole array.
``oracle._iid_moments`` consumes each feature block: it centres it in place
and keeps only each feature's sum of squares, so no p x p matrix is formed.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    BoundaryPoint,
    DomainError,
    DimMismatch,
    NonFiniteIntegrand,
    NonPositiveEntry,
)

UNIT_SUM_TOL = 1e-12

_TINY = 1e-300

ALR_BOX = 40.0  # half-width of each axis of the fixed ALR rule (see _alr_nodes)
ALR_PANELS = 10
NODES_PER_PANEL = 24

ROW_BLOCK = 8192  # rows per block of the row-blocked kernels (in-place rule above)


def _softmax(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, into ``out`` (which may be ``v``) or a new array."""
    e = np.subtract(v, np.max(v, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _log_sum_exp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis, max-shifted; ``v`` is consumed in place."""
    m = np.max(v, axis=-1)
    v -= m[..., None]
    return m + np.log(np.sum(np.exp(v, out=v), axis=-1))


_FLOAT_MAX = float(np.finfo(float).max)


def _unit_sum(w: np.ndarray) -> np.ndarray:
    """w / sum(w) for positive finite ``w``; where the sum could overflow,
    max(w) > finfo.max / K, w is divided by max(w) first.  The one weight
    normalization: closure, normalized_beta and rounding_probabilities."""
    if w.max() > _FLOAT_MAX / w.size:
        w = w / w.max()
    return w / w.sum()


def _row_argmax(x: np.ndarray) -> np.ndarray:
    """np.argmax(x, axis=1) for an (n, K) ``x`` without NaN.

    A running max over the K columns; the index moves only where a later
    column is strictly larger, so ties go to the lowest index.  np.argmax
    first copies an F-order ``x`` to C order; this reads its columns in place.
    """
    best = x[:, 0].copy()
    idx = np.zeros(x.shape[0], dtype=np.intp)
    for j in range(1, x.shape[1]):
        col = x[:, j]
        np.putmask(idx, col > best, j)
        np.maximum(best, col, out=best)
    return idx


def _check_interior(c: np.ndarray) -> None:
    """Raise unless every row of ``c`` is interior and within UNIT_SUM_TOL of unit sum."""
    if not np.isfinite(c).all() or (c < 0.0).any():
        raise NonPositiveEntry("components must be positive and finite")
    if (c < _TINY).any():
        raise BoundaryPoint("component numerically on the simplex boundary")
    s = c.sum(axis=-1)
    dev = np.abs(s - 1.0)
    if dev.max() > UNIT_SUM_TOL:
        raise DomainError(f"components sum to {float(np.ravel(s)[np.argmax(dev)])!r}, not 1")


def _exact_unit_sum(c: np.ndarray) -> np.ndarray:
    """Read-only ``c`` (a fresh array of one row) with float sum exactly 1.

    Renormalize, then nudge components (largest first) until the float sum
    is exactly 1; this is what makes closure idempotent.  Nudging a single
    fixed component can oscillate between the two representable sums
    bracketing 1, so fall through to the next component if needed.
    """
    s = float(c.sum())
    if s != 1.0:
        c = c / s
    for idx in np.argsort(c)[::-1]:
        converged = False
        for _ in range(4):
            s = float(c.sum())
            if s == 1.0:
                converged = True
                break
            c[idx] += 1.0 - s
        if converged:
            break
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly interior point of the probability simplex S_K, K >= 2.

    Components within ``UNIT_SUM_TOL`` of unit sum are renormalized on
    construction; anything further off is rejected.
    """

    components: np.ndarray

    def __post_init__(self):
        c = np.array(self.components, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise DomainError("a simplex point needs at least 2 components")
        _check_interior(c)
        object.__setattr__(self, "components", _exact_unit_sum(c))

    @property
    def dim(self) -> int:
        return self.components.size

    @classmethod
    def uniform(cls, k: int) -> "SimplexPoint":
        if k < 2:
            raise DomainError("k must be at least 2")
        return cls(np.full(k, 1.0 / k))


def _check_weights(w: np.ndarray) -> np.ndarray:
    """``w`` itself, if it is a float vector of at least 2 strictly positive finite entries.

    The one weight check: :class:`PositiveWeights` and :func:`closure` run
    it, and so does ``moments.raw_second_moment_special`` on a plain weight
    array.
    """
    if w.ndim != 1 or w.size < 2:
        raise DomainError("a weight vector needs at least 2 components")
    vals = w.tolist()
    # A NaN entry can slip past min and max but not the sum, and a sum
    # of finite entries that overflows is inf, not NaN.
    if not (0.0 < min(vals) and max(vals) < math.inf) or math.isnan(sum(vals)):
        raise NonPositiveEntry("weights must be strictly positive and finite")
    return w


@dataclass(frozen=True)
class PositiveWeights:
    """Unnormalized positive weight vector; the scale gauge is left free.

    ``log``, computed on first use, is the read-only componentwise logarithm
    of ``weights``.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _check_weights(np.array(self.weights, dtype=float))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    @cached_property
    def log(self) -> np.ndarray:
        log_w = np.log(self.weights)
        log_w.setflags(write=False)
        return log_w


@dataclass(frozen=True)
class LogRatioPoint:
    """ALR coordinates of a simplex point: y_a = log(x_a / x_K), a < K."""

    coords: np.ndarray

    def __post_init__(self):
        y = np.array(self.coords, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise DomainError("ALR coordinates need at least 1 component")
        if np.any(~np.isfinite(y)):
            raise DomainError("ALR coordinates must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "coords", y)

    @property
    def dim(self) -> int:
        return self.coords.size


def closure(v) -> SimplexPoint:
    """Normalize a positive vector onto the simplex, preserving ratios."""
    return SimplexPoint(_unit_sum(_check_weights(np.asarray(v, dtype=float))))


def perturb(x: SimplexPoint, y: SimplexPoint) -> SimplexPoint:
    """Aitchison addition: closure of the componentwise product."""
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")
    return SimplexPoint(_softmax(np.log(x.components) + np.log(y.components)))


def power(a: float, x: SimplexPoint) -> SimplexPoint:
    """Aitchison scalar multiplication: closure of componentwise a-th powers."""
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("exponent must be finite")
    log_c = np.log(x.components)
    # Shift so that the largest a * log c_i is 0: a product that overflows
    # then does so to -inf, the log of a component that is 0 in the limit.
    log_c -= log_c.max() if a > 0 else log_c.min()
    with np.errstate(over="ignore"):
        v = a * log_c
    return SimplexPoint(_softmax(v))


def alr_forward(x: SimplexPoint) -> LogRatioPoint:
    """Additive log-ratio chart y_a = log(x_a / x_K)."""
    c = x.components
    return LogRatioPoint(np.log(c[:-1]) - math.log(c[-1]))


def alr_inverse(y: LogRatioPoint) -> SimplexPoint:
    """Inverse ALR chart: softmax of (y, 0)."""
    v = np.append(y.coords, 0.0)
    with np.errstate(over="ignore"):  # to -inf only, as in power
        v -= v.max()
    return SimplexPoint(_softmax(v))


@dataclass(frozen=True)
class QuadratureConfig:
    """Monte Carlo budget of :func:`integrate_simplex` at k > 3:
    ``mc_samples`` uniform draws seeded by ``mc_seed``."""

    mc_samples: int = 200_000
    mc_seed: int = 0


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x), by the three-term recurrence (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@cache
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], ascending, computed once per process, read-only.

    Newton's method on P_n from the asymptotic guesses cos(pi (i - 1/4) /
    (n + 1/2)) finds the n // 2 + n % 2 roots in [0, 1), largest first; the
    weights are 2 / ((1 - x^2) P_n'(x)^2) and the rule is mirrored about 0.
    Only elementwise numpy runs here: no LAPACK call, so no BLAS thread.
    """
    m = (n + 1) // 2
    x = np.cos(math.pi * (np.arange(1, m + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    if n % 2:
        x[-1] = 0.0  # P_n is odd
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    x = np.concatenate([-x[: n // 2], x[::-1]])
    w = np.concatenate([w[: n // 2], w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _alr_nodes(k: int):
    """The fixed rule for k = 2, 3: rows (y, 0) of ALR nodes (F order) and weights.

    Each axis is the box [-ALR_BOX, ALR_BOX] in ALR_PANELS equal panels of
    NODES_PER_PANEL Gauss-Legendre nodes.
    """
    base_x, base_w = _gauss_legendre(NODES_PER_PANEL)
    half = ALR_BOX / ALR_PANELS
    mid = np.linspace(half - ALR_BOX, ALR_BOX - half, ALR_PANELS)
    nodes = (mid[:, None] + half * base_x).ravel()
    weights = np.tile(half * base_w, ALR_PANELS)
    y = [a.ravel() for a in np.meshgrid(*[nodes] * (k - 1), indexing="ij")]
    w = weights if k == 2 else np.outer(weights, weights).ravel()
    return np.vstack([*y, np.zeros(w.size)]).T, w


def integrate_simplex(f, k: int, config: QuadratureConfig | None = None) -> float:
    """Integrate ``f`` over the (k-1)-dimensional simplex.

    ``f`` receives an F-order (n, k) array whose rows are interior points
    and returns their n values (a scalar broadcasts).  k, a Python or
    numpy integer of at least 2, alone picks the rule: k = 2, 3 integrate
    with the fixed ALR rule and the change-of-variables factor prod_i x_i;
    higher k falls back to a Monte Carlo estimate against the uniform law,
    with ``config``'s budget.
    """
    if type(k) is bool or not isinstance(k, (int, np.integer)) or k < 2:
        raise DomainError(f"k must be an integer of at least 2, got {k!r}")
    if k > 3:
        return _integrate_mc(f, k, config or QuadratureConfig())

    v, w = _alr_nodes(k)
    x = _softmax(v)
    jac = np.prod(x, axis=1)
    vals = _eval_integrand(f, x)
    return float(np.sum(w * jac * vals))


def _eval_integrand(f, x: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(x), dtype=float)
    if np.any(~np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return vals


def _integrate_mc(f, k: int, cfg: QuadratureConfig) -> float:
    rng = np.random.Generator(np.random.PCG64(cfg.mc_seed))
    x = np.asfortranarray(rng.standard_exponential((cfg.mc_samples, k)))
    x /= np.sum(x, axis=1, keepdims=True)
    np.clip(x, _TINY, None, out=x)
    x /= np.sum(x, axis=1, keepdims=True)
    vals = _eval_integrand(f, x)
    volume = 1.0 / math.factorial(k - 1)
    return float(np.mean(vals) * volume)
