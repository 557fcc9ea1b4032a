"""Exception types shared across the package."""


class SymprodError(Exception):
    """Base class for all library-specific failures."""


class InvalidGeometryError(SymprodError):
    """A contour family parameter or contour arrangement failed validation."""


class BoundaryProximityError(SymprodError):
    """A query point sits too close to the boundary for reliable quadrature."""


class NonconvergentWindingError(SymprodError):
    """A winding-number estimate did not settle near an integer."""


class WrongRegionError(SymprodError):
    """An evaluation point lies outside the region the operator is defined on."""


class KernelProximityError(SymprodError):
    """The kernel polynomial nearly vanishes somewhere on the quadrature grid."""


class CoincidentNodesError(SymprodError):
    """Divided-difference nodes are too close for the triangular recursion."""


class RootFindingError(SymprodError):
    """Polynomial roots could not be found to their residual or round-trip
    target, or the coefficients are not finite."""


class DegenerateTruncationError(SymprodError):
    """Removing quadrature nodes near the singular points left nothing to sum."""


class MissingDerivativeFieldError(SymprodError):
    """A derivative field required for a norm computation was not supplied."""


class SamplingError(SymprodError):
    """Random sampling could not place the requested points in the domain."""


class ConfigError(SymprodError):
    """A CLI flag or config-file entry failed to parse."""
