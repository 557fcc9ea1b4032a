"""Contour-integral transforms with polynomial kernels.

Everything here evaluates integrals of the form

    (2*pi*i)^{-1} * integral over Gamma of phi(t) / p(z, t) dt

by the periodic trapezoid rule on an equispaced boundary grid.  Every
transform only builds its kernel values p(z, t_j) (and, for the derivative
and power-sum variants, a numerator in place of phi); the one sum and the
one kernel-magnitude floor are :func:`_kernel_integral`.  Three named
kernels matter downstream:

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

from dataclasses import dataclass

import numpy as np

from .catalog import PhiSpec
from .errors import (
    BoundaryProximityError,
    DegenerateTruncationError,
    KernelProximityError,
    WrongRegionError,
)
from .geometry import BoundaryGrid, classify_points, domain_diameter
from .roots import derivative_coefficients, horner, monic_coefficients

# Reject kernel evaluation when min_j |p(z, t_j)| falls below this factor
# times diameter^degree: the trapezoid error grows like exp(-c*N*dist), and
# the identity budgets assume evaluation away from the kernel's zero set.
KERNEL_FLOOR = 1e-4


@dataclass(frozen=True)
class BoundarySamples:
    """Boundary data phi sampled on a quadrature grid."""

    grid: BoundaryGrid
    values: np.ndarray
    description: str = ""

    def __post_init__(self):
        if len(self.values) != len(self.grid.nodes):
            raise ValueError("value count does not match grid node count")


def boundary_samples(grid: BoundaryGrid, phi, description: str = "") -> BoundarySamples:
    """Sample boundary data on a grid.

    ``phi`` is either a :class:`PhiSpec` or a callable ``phi(t, theta)``.
    """
    if isinstance(phi, PhiSpec):
        values = phi.evaluate(grid.nodes, grid.thetas)
        description = description or phi.describe()
    else:
        values = phi(grid.nodes, grid.thetas)
    return BoundarySamples(grid=grid, values=np.asarray(values, dtype=complex), description=description)


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


def _kernel_integral(samples: BoundarySamples, kern: np.ndarray, degree: int, numerator=None):
    """(2*pi*i)^{-1} * sum_j numerator_j * w_j / kern_j over the last axis.

    ``kern`` holds the kernel values p(z, t_j), shape (..., M); ``numerator``
    defaults to the boundary data.  Refuses with :class:`KernelProximityError`
    when min_j |p(z, t_j)| of any row is at most
    ``KERNEL_FLOOR * diameter^degree``.
    """
    floor = KERNEL_FLOOR * domain_diameter(samples.grid.domain) ** degree
    mins = np.abs(kern).min(axis=-1)
    if (mins <= floor).any():
        raise KernelProximityError(
            f"kernel minimum {float(np.min(mins)):.3g} below floor {floor:.3g} (degree {degree})"
        )
    values = samples.values if numerator is None else numerator
    return (values * samples.grid.weights / kern).sum(axis=-1) / (2.0j * np.pi)


def _require_roots_inside(domain, z) -> np.ndarray:
    """Roots (B, n) of the coefficient-form kernels of ``z`` (..., n).

    Raises :class:`WrongRegionError` unless every root lies inside the domain.
    """
    from .symmetric import desymmetrize_batch  # local import to avoid a cycle

    z = np.asarray(z, dtype=complex)
    roots, _ = desymmetrize_batch(z.reshape(-1, z.shape[-1]))
    if (classify_points(domain, roots.reshape(-1)) != 0).any():
        raise WrongRegionError("kernel roots outside the domain")
    return roots


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def cauchy_transform(samples: BoundarySamples, z):
    """Cauchy transform at interior point(s) z.

    For phi the trace of a function holomorphic on a neighbourhood of the
    closed domain this reproduces that function.  Accepts a scalar or an
    array of points; raises if any point is outside the domain or too close
    to the boundary.
    """
    domain = samples.grid.domain
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    labels = classify_points(domain, zs)   # also enforces the distance floor
    if (labels != 0).any():
        raise WrongRegionError(f"points not inside the domain: {zs[labels != 0][:3]}")
    out = _kernel_integral(samples, samples.grid.nodes - zs[..., None], 1)
    return out if np.ndim(z) else complex(out[0])


def norlund_transform(samples: BoundarySamples, w):
    """Multi-node transform with kernel prod_j (t - w_j).

    ``w`` has shape (..., n); every coordinate must lie inside the domain.
    Symmetric in the coordinates by construction (the kernel product is
    computed in canonical coordinate order).  For n = 1 this is the Cauchy
    transform.
    """
    domain = samples.grid.domain
    ws = np.asarray(w, dtype=complex)
    if ws.ndim == 0:
        raise ValueError("w must supply at least one coordinate")
    flat = ws.reshape(-1)
    labels = classify_points(domain, flat)
    if (labels != 0).any():
        raise WrongRegionError(f"node coordinates outside the domain: {flat[labels != 0][:3]}")
    out = _kernel_integral(samples, product_eval(ws, samples.grid.nodes), ws.shape[-1])
    return complex(out) if np.ndim(out) == 0 else out


def symmetrized_transform(samples: BoundarySamples, z, check_region: bool = True):
    """Transform with the coefficient-form kernel, restricted to the
    symmetric product.

    ``z`` has shape (..., n) in coefficient space.  With ``check_region``
    the roots of the kernel polynomial are found and classified; evaluation
    is refused unless all of them lie inside the domain.
    """
    zs = np.asarray(z, dtype=complex)
    if check_region:
        _require_roots_inside(samples.grid.domain, zs)
    out = _kernel_integral(samples, monic_eval(zs, samples.grid.nodes), zs.shape[-1])
    return complex(out) if zs.ndim == 1 else out


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


def derivative_symmetrized(gamma, samples: BoundarySamples, z) -> complex:
    """gamma-derivative of the symmetrized transform at a symmetric point.

    Evaluates the factorized form: multiply the boundary data by the
    derivative weight, then apply the multi-node transform with all kernel
    roots repeated |gamma|+1 times.  The contour form stays well defined at
    the coincident nodes.  Agrees with finite differences of
    :func:`symmetrized_transform`.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    g = _validated_multiindex(gamma, n)
    order = int(g.sum())
    domain = samples.grid.domain
    roots = _require_roots_inside(domain, z)[0]
    if order == 0:
        return symmetrized_transform(samples, z, check_region=False)
    values = samples.values * derivative_weight_values(g, n, samples.grid.nodes)
    kern = product_eval(roots, samples.grid.nodes) ** (order + 1)
    return complex(_kernel_integral(samples, kern, n * (order + 1), numerator=values))


# ---------------------------------------------------------------------------
# Truncated principal-value experiment
# ---------------------------------------------------------------------------

def truncated_pv(samples: BoundarySamples, boundary_points, radius: float) -> complex:
    """Kernel integral over the boundary minus balls around singular points.

    ``boundary_points`` is a tuple of points on the boundary (each must sit
    within one node spacing of the sampled curve); nodes inside any ball of
    the given radius around them are dropped, with no partial-arc
    correction.
    """
    grid = samples.grid
    pts = np.atleast_1d(np.asarray(boundary_points, dtype=complex))
    diam = domain_diameter(grid.domain)
    if not 0 < radius < diam / 4:
        raise ValueError("radius must lie in (0, diameter/4)")
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
