"""Exception types shared across the package."""


class ConcreteGeomError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveEntry(ConcreteGeomError):
    """A vector entry was zero, negative, or non-finite where positivity is required."""


class DimMismatch(ConcreteGeomError):
    """Two objects that must share a dimension do not."""


class BoundaryPoint(ConcreteGeomError):
    """A point lies on (or numerically indistinguishable from) the simplex boundary."""


class DomainError(ConcreteGeomError):
    """A scalar argument is outside the domain of the function."""


class UnsupportedDim(ConcreteGeomError):
    """The requested dimension is not supported by this code path."""


class NonFiniteIntegrand(ConcreteGeomError):
    """The integrand returned a non-finite value at a quadrature node."""


class IndexOutOfRange(ConcreteGeomError):
    """A component index is outside [0, K)."""


class NotNormalized(ConcreteGeomError):
    """A probability vector does not sum to one within tolerance."""


class NonPositiveTemperature(ConcreteGeomError):
    """The temperature parameter must be positive and finite."""
