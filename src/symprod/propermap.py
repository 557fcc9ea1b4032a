"""Induced maps between symmetric products and their boundary behaviour.

A holomorphic self-map f of the source domain induces a map between the
symmetric products, characterized by sending the coefficients of a root
tuple to the coefficients of the image tuple.  Two evaluation routes are
implemented:

* ``roots``    factor through root finding: desymmetrize, apply f to each
               root, symmetrize again;
* ``integral`` boundary integrals of the power sums of f over the kernel
               roots, pushed through Newton's identities.

The boundary-regularity experiment samples coefficient points close to the
edge of the symmetric product (root tuples near the boundary of the source
domain and near the diagonal), evaluates the induced map by the roots route
(no quadrature kernel blow-up there) and fits empirical Holder exponents
per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import CatalogFunction
from .cauchy import BoundarySamples, boundary_samples
from .geometry import DomainBoundary, domain_diameter, sample_boundary, sample_interior
from .holder import ExponentFit, SampledField, estimate_exponent
from .symmetric import desymmetrize_batch, lojasiewicz_exponent, symmetric_power_map, symmetrize

# The boundary-regularity experiment fits on at most this many coefficient
# points; the pair table is O(m^2) and takes at most holder.MAX_POINTS.
MAX_REGULARITY_SAMPLES = 4500
_AGREEMENT_TUPLES = 100   # random tuples that route_agreement compares
# The near-boundary tuples of the regularity experiment; see below.
_DEPTH_RANGE = (1e-4, 1e-2)
_DIAGONAL_FRACTION = 0.5
_PAIR_FRACTION = 0.1


@dataclass(frozen=True)
class ProperMapSpec:
    """Source domain, the inducing map, and the arity."""

    source: DomainBoundary
    fun: CatalogFunction
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")


def map_boundary_samples(spec: ProperMapSpec, nodes: int = 256) -> BoundarySamples:
    grid = sample_boundary(spec.source, nodes)
    return boundary_samples(grid, spec.fun)


def evaluate_proper_map(spec: ProperMapSpec, z, route: str = "roots",
                        samples: BoundarySamples | None = None) -> np.ndarray:
    """Image of coefficient tuples under the induced map; ``z`` has shape
    (..., n) and so has the result.  The integral route uses ``samples``,
    by default the map on a 256-node boundary grid."""
    z = np.asarray(z, dtype=complex)
    if route == "roots":
        w, _ = desymmetrize_batch(z)
        return symmetrize(spec.fun(w)).reshape(z.shape)
    if route == "integral":
        if samples is None:
            samples = map_boundary_samples(spec)
        return symmetric_power_map(samples, z)
    raise ValueError(f"unknown route {route!r}")


def route_agreement(spec: ProperMapSpec, seed: int = 0, nodes: int = 256) -> float:
    """Largest relative deviation between the two routes on
    ``_AGREEMENT_TUPLES`` random tuples of source-domain points farther than
    a tenth of its diameter from the boundary.

    Each tuple contributes max|a - b| / (1 + max|b|), with ``a`` the
    integral route and ``b`` the roots route: the image coefficients grow
    with the size of the roots (like |w|^(2n) for ``monomial 2``), and the
    quadrature error grows with them.
    """
    rng = np.random.default_rng(seed)
    samples = map_boundary_samples(spec, nodes)
    margin = 0.1 * domain_diameter(spec.source)
    tuples = sample_interior(spec.source, _AGREEMENT_TUPLES * spec.arity, rng,
                             margin).reshape(_AGREEMENT_TUPLES, spec.arity)
    z = symmetrize(tuples)
    a = evaluate_proper_map(spec, z, route="integral", samples=samples)
    b = evaluate_proper_map(spec, z, route="roots")
    return float((np.abs(a - b).max(axis=-1) / (1.0 + np.abs(b).max(axis=-1))).max())


@dataclass(frozen=True)
class RegularityResult:
    fits: tuple[ExponentFit, ...]
    threshold: float
    passed: bool
    samples_used: int


def sample_near_boundary_tuples(domain: DomainBoundary, n: int, count: int, rng) -> np.ndarray:
    """Root tuples hugging the boundary of the source domain.

    A ``_DIAGONAL_FRACTION`` of tuples carries a clustered coordinate pair
    (probing the degenerate diagonal directions) and a ``_PAIR_FRACTION`` of
    the output comes in pairs with a sub-1e-3 offset, so the coefficient
    cloud has close pairs at every scale the exponent estimator bins.
    Coordinates lie at inward normal offsets in ``_DEPTH_RANGE`` from the
    outer contour, which keeps them inside.
    """
    outer = domain.contours[0]

    def place(theta, depth):
        p = np.asarray(outer.point(theta), dtype=complex)
        tp = np.asarray(outer.tangent(theta), dtype=complex)
        return p + depth * (1j * tp / np.abs(tp))

    lo, hi = np.log10(_DEPTH_RANGE[0]), np.log10(_DEPTH_RANGE[1])
    n_pairs = int(count * _PAIR_FRACTION / 2)
    n_base = count - n_pairs

    thetas = rng.uniform(0.0, 2.0 * np.pi, (n_base, n))
    depths = 10.0 ** rng.uniform(lo, hi, (n_base, n))
    if n >= 2:
        clustered = rng.random(n_base) < _DIAGONAL_FRACTION
        gaps = 10.0 ** rng.uniform(lo, hi, n_base)
        thetas[clustered, 1] = thetas[clustered, 0] + gaps[clustered]
    base = place(thetas, depths)

    if n_pairs:
        idx = rng.integers(0, n_base, n_pairs)
        shift = 10.0 ** rng.uniform(-4, -3, (n_pairs, 1))
        partners = place(
            thetas[idx] + shift * rng.uniform(-1, 1, (n_pairs, n)),
            depths[idx] * (1.0 + 0.2 * rng.uniform(-1, 1, (n_pairs, n))),
        )
        return np.concatenate([base, partners], axis=0)
    return base


def boundary_regularity_experiment(spec: ProperMapSpec, num_samples: int,
                                   seed: int = 0) -> RegularityResult:
    """Empirical exponent fits for each component of the induced map near
    the boundary of the symmetric product.

    The fit uses the first ``MAX_REGULARITY_SAMPLES`` distinct points.
    Pass bar: every component's fitted exponent is at least
    0.9 / exponent(n) - 0.05.  The bound is expected to be slack for the
    catalog maps; exceeding it is the point, not a discrepancy.
    """
    if num_samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(seed)
    n = spec.arity
    w = sample_near_boundary_tuples(spec.source, n, num_samples, rng)
    z = symmetrize(w)
    fz = symmetrize(spec.fun(w))   # roots route with the known preimages

    # Pairwise-distinct points are required downstream; drop duplicates.
    _, unique_idx = np.unique(np.round(z, 14), axis=0, return_index=True)
    keep = np.sort(unique_idx)[:MAX_REGULARITY_SAMPLES]
    z, fz = z[keep], fz[keep]

    # One pass over the pairs fits every component.
    fits = estimate_exponent(SampledField(points=z, values=fz))
    threshold = 0.9 / lojasiewicz_exponent(n) - 0.05
    passed = all(f.alpha_hat >= threshold for f in fits)
    return RegularityResult(fits=fits, threshold=threshold, passed=passed,
                            samples_used=len(z))
