"""Contour-integral transforms with polynomial kernels.

Everything here evaluates integrals of the form

    (2*pi*i)^{-1} * integral over Gamma of phi(t) / p(z, t) dt

by the periodic trapezoid rule on an equispaced boundary grid.  Every
transform checks its region with :func:`_require_inside` or, for the kernel
roots of coefficient tuples, :func:`_require_roots_inside`, whose certified
:class:`_Inside` sets it takes unchecked in place of arrays.  It builds its
kernel values p(z, t_j) (and, for the derivative and power-sum variants, a
numerator in place of phi) and hands them to :func:`_kernel_integral`, the
one sum.  The kernel-magnitude floor is one predicate with a verdict per
row, :func:`_kernel_floor`; every public transform refuses the whole call
if it refuses any row.  A :class:`BoundarySamples` may carry a stack of D
data on one grid (:func:`stack_samples`): each transform then forms and
checks its kernel once and sums every datum against it, with a trailing
data axis of length D on its result; each datum's values are bit for bit
those of a call with that datum alone.
Three named kernels matter downstream:

* ``t - z``                       the classical Cauchy transform,
* ``prod_j (t - w_j)``            the multi-node transform on the Cartesian
                                  power of the domain (its value is the
                                  divided difference of the Cauchy transform),
* ``t^n - z_1 t^(n-1) + ...``     the coefficient-form kernel whose
                                  evaluation domain is the symmetric product.

The module also provides the boundary weight used by the derivative
factorization of the symmetrized transform, and the truncated near-singular
integral whose growth rate in the truncation radius is the subject of one of
the experiments; that integral keeps its own masked sum, since the floor
would refuse the deliberately near-singular evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogFunction
from .errors import (
    BoundaryProximityError,
    DegenerateTruncationError,
    KernelProximityError,
    NonFiniteDataError,
    WrongRegionError,
)
from .geometry import BoundaryGrid, DomainBoundary, classify_points, domain_diameter
from .roots import derivative_coefficients, horner, monic_coefficients

# Reject kernel evaluation when min_j |p(z, t_j)| falls below this factor
# times diameter^degree: the trapezoid error grows like exp(-c*N*dist), and
# the identity budgets assume evaluation away from the kernel's zero set.
KERNEL_FLOOR = 1e-4
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class BoundarySamples:
    """Boundary data phi sampled on a quadrature grid: values (M,) for one
    datum, or (D, M) for a stack of D data."""

    grid: BoundaryGrid
    values: np.ndarray
    description: str = ""

    def __post_init__(self):
        if np.ndim(self.values) not in (1, 2) or np.shape(self.values)[-1] != len(self.grid.nodes):
            raise ValueError("value count does not match grid node count")


def stack_samples(data) -> BoundarySamples:
    """One or more single data on one grid as a stack, values (D, M)."""
    data = list(data)
    if not data or any(s.grid is not data[0].grid or np.ndim(s.values) != 1 for s in data):
        raise ValueError("stack_samples takes one or more single data on one grid")
    return BoundarySamples(grid=data[0].grid, values=np.stack([s.values for s in data]),
                           description="; ".join(s.description for s in data))


def boundary_samples(grid: BoundaryGrid, phi: CatalogFunction) -> BoundarySamples:
    """Sample the boundary values of a catalog function on a grid.

    Raises NonFiniteDataError when a sample is NaN or infinite; the
    evaluation's floating-point warnings are silenced, since that check
    reports them.
    """
    with np.errstate(all="ignore"):
        values = np.asarray(phi.boundary(grid.nodes, grid.thetas), dtype=complex)
    samples = BoundarySamples(grid=grid, values=values, description=phi.label)
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonFiniteDataError(
            f"boundary data {phi.label!r} are not finite at {int(bad.sum())} of "
            f"{len(bad)} nodes, such as {grid.nodes[bad][:3]}"
        )
    return samples


# ---------------------------------------------------------------------------
# Kernel evaluation helpers
# ---------------------------------------------------------------------------

def monic_eval(sym_coords, t) -> np.ndarray:
    """Evaluate t^n - z_1 t^(n-1) + z_2 t^(n-2) - ... + (-1)^n z_n.

    ``sym_coords`` has shape (..., n); ``t`` has shape (M,).  Returns
    (..., M).  The coefficients are the signed elementary symmetric values
    of the (implicit) root tuple.
    """
    return horner(monic_coefficients(sym_coords), t)


def monic_derivative_eval(sym_coords, t) -> np.ndarray:
    """d/dt of :func:`monic_eval` with the same broadcasting."""
    return horner(derivative_coefficients(monic_coefficients(sym_coords)), t)


def _sorted_nodes(w: np.ndarray) -> np.ndarray:
    # Canonical coordinate order makes the product kernel bitwise invariant
    # under permutations of the nodes.
    order = np.lexsort((w.imag, w.real), axis=-1)
    return np.take_along_axis(w, order, axis=-1)


def product_eval(nodes, t) -> np.ndarray:
    """prod_j (t - w_j); ``nodes`` (..., n), ``t`` (M,) -> (..., M)."""
    w = _sorted_nodes(np.asarray(nodes, dtype=complex))
    t = np.asarray(t, dtype=complex)
    return np.prod(t - w[..., None], axis=-2)


def _kernel_floor(samples: BoundarySamples, kern: np.ndarray, degree: int):
    """The one kernel floor, ``KERNEL_FLOOR * diameter^degree``, and the rows (...)
    of kernel values ``kern`` (..., M) it refuses: min_j |p(z, t_j)| <= floor.

    The floor is formed from logarithms, so where it leaves the float range
    it reads inf, and every finite kernel value lies below it.  Raises
    :class:`NonFiniteDataError` if a kernel value is NaN or infinite.
    """
    mags = np.abs(kern)
    if not math.isfinite(mags.max(initial=0.0)):
        raise NonFiniteDataError(f"kernel values of degree {degree} are not finite")
    log_floor = math.log(KERNEL_FLOOR) + degree * math.log(domain_diameter(samples.grid.domain))
    floor = math.exp(log_floor) if log_floor < _LOG_FLOAT_MAX else math.inf
    return floor, mags.min(axis=-1) <= floor


def _kernel_integral(samples: BoundarySamples, kern: np.ndarray, degree: int, numerator=None):
    """(2*pi*i)^{-1} * sum_j numerator_j * w_j / p(z, t_j) over the last axis
    of the kernel values ``kern`` (..., M).

    ``numerator`` defaults to the boundary data.  For a stack of data
    (D, M) the kernel is broadcast against a data axis before its last, so
    the result gains a trailing axis (..., D), and a ``numerator`` carries
    that axis as its second to last.  This is the one sum: the whole call
    raises :class:`KernelProximityError` if :func:`_kernel_floor` refuses
    any row, and :class:`NonFiniteDataError` if a kernel value or the sum of
    any datum is NaN or infinite.
    """
    floor, refused = _kernel_floor(samples, kern, degree)
    if refused.any():
        raise KernelProximityError(
            f"kernel minimum {float(np.abs(kern).min()):.3g} below floor {floor:.3g} (degree {degree})"
        )
    values = samples.values if numerator is None else numerator
    if samples.values.ndim == 2:
        kern = kern[..., None, :]
    # Elementwise products and a sum over the last axis, not a matrix product:
    # each datum's sum is then bit for bit that of a single-datum call.
    with np.errstate(over="ignore", invalid="ignore"):
        out = (values * samples.grid.weights / kern).sum(axis=-1) / (2.0j * np.pi)
    if not np.isfinite(out).all():
        raise NonFiniteDataError(f"the kernel sum of degree {degree} is not finite")
    return out


@dataclass(frozen=True, eq=False)
class _Inside:
    """Points inside ``domain``, or coefficient tuples (..., n) whose kernel
    ``roots`` (same shape) are; indexing slices both, and as an array it is points."""

    domain: DomainBoundary
    points: np.ndarray
    roots: np.ndarray | None

    def __getitem__(self, key) -> _Inside:
        roots = None if self.roots is None else self.roots[key]
        return _Inside(self.domain, self.points[key], roots)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)


def _require_inside(domain, points) -> _Inside:
    """``points`` certified inside the domain, or :class:`WrongRegionError`
    (:func:`classify_points` enforces the floor); as given if so already."""
    if isinstance(points, _Inside) and points.domain is domain and points.roots is None:
        return points
    points = np.asarray(points, dtype=complex)
    outside = classify_points(domain, points.reshape(-1)) != 0
    if outside.any():
        raise WrongRegionError(f"points outside the domain: {points.reshape(-1)[outside][:3]}")
    return _Inside(domain, points, None)


def _require_roots_inside(domain, z) -> _Inside:
    """Coefficient tuples ``z`` (..., n) with their kernel roots certified
    inside the domain, or :class:`WrongRegionError`; as given if so already."""
    if isinstance(z, _Inside) and z.domain is domain and z.roots is not None:
        return z
    from .symmetric import desymmetrize_batch  # local import to avoid a cycle

    z = np.asarray(z, dtype=complex)
    roots, _ = desymmetrize_batch(z)
    _require_inside(domain, roots)
    return _Inside(domain, z, roots.reshape(z.shape))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _scalar(out):
    """A 0-d result as a ``complex``; an array as it is."""
    return complex(out) if np.ndim(out) == 0 else out


def cauchy_transform(samples: BoundarySamples, z):
    """Cauchy transform at interior point(s) z.

    For phi the trace of a function holomorphic on a neighbourhood of the
    closed domain this reproduces that function.  Accepts a scalar or an
    array of points; raises if any point is outside the domain or too close
    to the boundary.
    """
    zs = _require_inside(samples.grid.domain, z).points
    out = _kernel_integral(samples, samples.grid.nodes - np.atleast_1d(zs)[..., None], 1)
    return out if zs.ndim else _scalar(out[0])


def norlund_transform(samples: BoundarySamples, w):
    """Multi-node transform with kernel prod_j (t - w_j).

    ``w`` has shape (..., n); every coordinate must lie inside the domain.
    Symmetric in the coordinates by construction (the kernel product is
    computed in canonical coordinate order).  For n = 1 this is the Cauchy
    transform.
    """
    if np.ndim(w) == 0:
        raise ValueError("w must supply at least one coordinate")
    ws = _require_inside(samples.grid.domain, w).points
    return _scalar(_kernel_integral(samples, product_eval(ws, samples.grid.nodes), ws.shape[-1]))


def symmetrized_transform(samples: BoundarySamples, z, check_region: bool = True):
    """Transform with the coefficient-form kernel, restricted to the
    symmetric product.

    ``z`` has shape (..., n) in coefficient space.  Evaluation is refused
    unless every root of the kernel polynomial lies inside the domain;
    ``check_region=False``, which nothing in the package passes, skips that.
    """
    if check_region:
        z = _require_roots_inside(samples.grid.domain, z)
    zs = np.asarray(z, dtype=complex)
    return _scalar(_kernel_integral(samples, monic_eval(zs, samples.grid.nodes), zs.shape[-1]))


# ---------------------------------------------------------------------------
# The derivative factorization
# ---------------------------------------------------------------------------

def derivative_weight_values(gamma, arity: int, t) -> np.ndarray:
    """Numerator of the gamma-derivative of the reciprocal coefficient kernel.

    Differentiating 1/(t^n - z_1 t^(n-1) + ... ) in the coefficients gives
    (-1)^(|g| + sum j*g_j) * |g|! * t^(sum g_j (n-j)) over the kernel raised
    to |g|+1; the factor (-1)^(sum j*g_j) comes from the alternating signs
    in front of the coefficients.
    """
    g = _validated_multiindex(gamma, arity)
    order = int(g.sum())
    expo = int((g * (arity - np.arange(1, arity + 1))).sum())
    coeff = (-1.0) ** order * float(np.prod(np.arange(1, order + 1), initial=1.0))
    sign = (-1.0) ** int((np.arange(1, arity + 1) * g).sum())
    return sign * (coeff * np.asarray(t, dtype=complex) ** expo)


def _validated_multiindex(gamma, arity: int) -> np.ndarray:
    g = np.asarray(gamma, dtype=int)
    if g.ndim != 1 or len(g) != arity:
        raise ValueError(f"multi-index length {g.shape} does not match arity {arity}")
    if (g < 0).any():
        raise ValueError("multi-index entries must be nonnegative")
    return g


def derivative_symmetrized(gamma, samples: BoundarySamples, z):
    """gamma-derivatives of the symmetrized transform at symmetric points.

    Evaluates the factorized form: multiply the boundary data by the
    derivative weight, then apply the multi-node transform with all kernel
    roots repeated |gamma|+1 times.  The contour form stays well defined at
    the coincident nodes.  Order 0 is the symmetrized transform itself.
    Agrees with Taylor coefficients of :func:`symmetrized_transform` on circles.

    ``z`` has shape (..., n); ``gamma`` is one multi-index (n,) or a stack
    (G, n).  The values have shape (...) for one multi-index and (..., G)
    for a stack, and a stack of D data adds a trailing axis (D,); a 1-d
    ``z`` with one multi-index and one datum gives a ``complex``.  If the
    kernel floor refuses any entry, the call raises
    :class:`KernelProximityError`, whose ``partial`` holds the values and
    the floor's verdict per entry, which is the same for every datum and
    has the values' shape without the data axis; refused entries read 0.
    """
    values, accepted = _derivative_entries(gamma, samples, z)
    if not accepted.all():
        raise KernelProximityError(f"kernel floor refused {int((~accepted).sum())} of "
                                   f"{accepted.size} derivative entries", (values, accepted))
    return _scalar(values)


def _derivative_entries(gamma, samples: BoundarySamples, z):
    """:func:`derivative_symmetrized`'s values and the floor's verdict per entry.
    The roots of all rows (``z.roots`` of a certified set) and their product
    are formed once; order k uses its power k+1, of degree n*(k+1), and sums
    only the rows that :func:`_kernel_floor` accepts."""
    inside = _require_roots_inside(samples.grid.domain, z)
    zs = inside.points
    n = zs.shape[-1]
    g = np.asarray(gamma, dtype=int)
    if g.ndim not in (1, 2):
        raise ValueError(f"gamma must be a multi-index (n,) or a stack (G, n), not {g.shape}")
    gammas = [_validated_multiindex(row, n) for row in np.atleast_2d(g)]
    orders = np.array([int(row.sum()) for row in gammas], dtype=int)
    rows = zs.reshape(-1, n)
    roots = inside.roots.reshape(-1, n)
    nodes = samples.grid.nodes
    prod = product_eval(roots, nodes) if orders.any() else None
    data = samples.values.shape[:-1]
    values = np.zeros((len(rows), len(gammas)) + data, dtype=complex)
    accepted = np.zeros((len(rows), len(gammas)), dtype=bool)
    for k in sorted(set(orders.tolist())):
        # A Python int exponent: numpy squares by a different path for np.int64.
        with np.errstate(over="ignore", invalid="ignore"):    # the floor refuses non-finite values
            kern = monic_eval(rows, nodes) if k == 0 else prod ** (k + 1)
        numerator = None
        if k:
            weights = np.stack([derivative_weight_values(row, n, nodes)
                                for row, o in zip(gammas, orders) if o == k])    # (G_k, M)
            numerator = samples.values * (weights[:, None, :] if data else weights)
        ok, cols = ~_kernel_floor(samples, kern, n * (k + 1))[1], orders == k
        accepted[:, cols] = ok[:, None]
        values[np.ix_(ok, cols)] = _kernel_integral(samples, kern[ok, None, :], n * (k + 1), numerator)
    shape = zs.shape[:-1] + ((len(gammas),) if g.ndim == 2 else ())
    return values.reshape(shape + data), accepted.reshape(shape)


# ---------------------------------------------------------------------------
# Truncated principal-value experiment
# ---------------------------------------------------------------------------

def truncated_pv(samples: BoundarySamples, boundary_points, radius: float) -> complex:
    """Kernel integral over the boundary minus balls around singular points.

    ``boundary_points`` is a tuple of points on the boundary (each must sit
    within one node spacing of the sampled curve); nodes inside any ball of
    the given radius around them are dropped, with no partial-arc
    correction.  A radius outside (0, diameter/4) is refused with
    :class:`DegenerateTruncationError`.
    """
    grid = samples.grid
    pts = np.atleast_1d(np.asarray(boundary_points, dtype=complex))
    diam = domain_diameter(grid.domain)
    if not 0 < radius < diam / 4:
        raise DegenerateTruncationError(
            f"radius {radius:g} must lie in (0, diameter/4 = {diam / 4:g})")
    spacing = float(np.abs(np.diff(grid.nodes[: grid.nodes_per_contour])).max())
    dist_to_grid = np.abs(pts[:, None] - grid.nodes).min(axis=1)
    if (dist_to_grid > spacing).any():
        raise BoundaryProximityError("singular points must lie within one node spacing of the grid")
    keep = np.all(np.abs(grid.nodes[None, :] - pts[:, None]) > radius, axis=0)
    if not keep.any():
        raise DegenerateTruncationError("truncation removed every quadrature node")
    kern = product_eval(pts, grid.nodes[keep])
    return complex((samples.values[keep] / kern * grid.weights[keep]).sum(axis=-1) / (2.0j * np.pi))


@dataclass(frozen=True)
class TruncationFit:
    """Least-squares slope of log |truncated integral| against log radius."""

    radii: tuple[float, ...]
    magnitudes: tuple[float, ...]
    slope: float
    coincidence: int     # singular points merged at the base point: the arity


def truncation_growth_fit(samples: BoundarySamples, base_point: complex, arity: int) -> TruncationFit:
    """Fit the growth rate of the truncated integral at an n-fold boundary
    point over the radii 2^-3 .. 2^-8."""
    pts = np.full(arity, complex(base_point))
    radii = [2.0 ** (-k) for k in range(3, 9)]
    mags = [abs(truncated_pv(samples, pts, rho)) for rho in radii]
    slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
    return TruncationFit(tuple(radii), tuple(mags), float(slope), arity)
