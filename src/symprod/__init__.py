"""Contour-integral transforms, divided differences, and symmetric-product
maps of planar domains, with empirical Holder-exponent experiments."""

__version__ = "0.1.0"

from .catalog import (
    CatalogFunction,
    blaschke_function,
    conj_phi,
    exp_function,
    monomial_phi,
    parse_function,
    pole_phi,
    weierstrass,
    weierstrass_phi,
)
from .cauchy import (
    BoundarySamples,
    boundary_samples,
    cauchy_transform,
    derivative_symmetrized,
    norlund_transform,
    stack_samples,
    symmetrized_transform,
    truncated_pv,
    truncation_growth_fit,
)
from .divdiff import (
    divdiff_analytic,
    divdiff_gh,
    divdiff_recursive,
)
from .errors import (
    BoundaryProximityError,
    CoincidentNodesError,
    ConfigError,
    DegenerateTruncationError,
    InvalidGeometryError,
    KernelProximityError,
    NonconvergentWindingError,
    NonFiniteDataError,
    RootFindingError,
    SamplingError,
    SymprodError,
    WrongRegionError,
)
from .geometry import (
    BoundaryGrid,
    Contour,
    DomainBoundary,
    annulus,
    bounding_box,
    build_domain,
    classify_points,
    disc,
    distance_to_boundary,
    domain_diameter,
    ellipse,
    interior_mask,
    sample_boundary,
    sample_interior,
    star,
)
from .holder import (
    ExponentFit,
    SampledField,
    calibration_fields,
    estimate_exponent,
)
from .propermap import (
    ProperMapSpec,
    boundary_regularity_experiment,
    evaluate_proper_map,
    route_agreement,
)
from .quadrature import (
    SimplexRule,
    gauss_legendre,
    simplex_integrate,
    simplex_rule,
)
from .symmetric import (
    LojasiewiczReport,
    RootMultiset,
    complete_symmetric,
    desymmetrize,
    lojasiewicz_check,
    lojasiewicz_exponent,
    newton_map,
    power_sum_transform,
    power_sums,
    signature_census,
    symmetric_power_map,
    symmetrize,
)
