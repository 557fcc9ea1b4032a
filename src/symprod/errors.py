"""Exception types shared across the package."""


class SymprodError(Exception):
    """Base class for all library-specific failures."""


class InvalidGeometryError(SymprodError):
    """A contour family parameter or contour arrangement failed validation."""


class BoundaryProximityError(SymprodError):
    """A query point sits too close to the boundary for reliable quadrature."""


class NonconvergentWindingError(SymprodError):
    """A winding-number estimate did not settle near an integer."""


class NonFiniteDataError(SymprodError):
    """Boundary data are NaN or infinite at some quadrature node, as where a
    pole of the data lies on the boundary; a query point of the boundary
    oracle is NaN or infinite; or a transform's kernel values or its sum,
    the derivative suite's chain-rule weights, or a quotient metric or
    coefficient distance of ``loja``'s pairs are, as where they leave the
    float range on a very large domain."""


class WrongRegionError(SymprodError):
    """An evaluation point lies outside the region the operator is defined on."""


class KernelProximityError(SymprodError):
    """The kernel polynomial nearly vanishes somewhere on the quadrature grid:
    the kernel floor refuses the whole call.  ``partial`` is None, or the
    values and verdicts per entry of a ``derivative_symmetrized`` call."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CoincidentNodesError(SymprodError):
    """Divided-difference nodes are too close for the triangular recursion."""


class RootFindingError(SymprodError):
    """Polynomial roots could not be found to their residual or round-trip
    target, or the coefficients are not finite."""


class DegenerateTruncationError(SymprodError):
    """A truncation radius is not in (0, diameter/4), as where ``pv``'s fixed
    radii 2^-3..2^-8 reach past a quarter of a small domain's diameter, or
    removing quadrature nodes near the singular points left nothing to sum."""


class SamplingError(SymprodError):
    """Random sampling could not place the requested points in the domain."""


class ConfigError(SymprodError):
    """A CLI flag or config-file entry failed to parse."""
