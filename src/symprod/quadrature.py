"""Numerical integration kernels.

Two pieces: Gauss-Legendre rules on [0, 1], and tensor-product rules for
the solid simplex obtained by an iterated Duffy-type change of variables
from the unit cube.  The periodic trapezoid sum of the contour integrals
lives with the kernels: ``cauchy._kernel_integral`` is every transform's sum.

A note on the simplex rules: the surface integral over the standard
simplex {x >= 0, sum x = 1} in R^{d+1}, taken with d-dimensional surface
measure, equals sqrt(1+d) times the integral over the solid simplex A_d in
standard coordinates, while parametrizing that surface introduces the same
sqrt(1+d) in the denominator of the formulas we evaluate.  The two factors
cancel, so everything here works with plain Lebesgue integrals over A_d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_SIMPLEX_ORDER = 10        # Gauss-Legendre points per axis of the simplex rules


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]; exact to degree 2*order-1."""
    if not 1 <= order <= 64:
        raise ValueError("order must be between 1 and 64")
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class SimplexRule:
    """Product quadrature rule for the solid simplex A_d = {x >= 0, sum x <= 1}."""

    dimension: int
    nodes: np.ndarray   # (M, d)
    weights: np.ndarray  # (M,), positive, summing to 1/d!

    def __post_init__(self):
        if (self.nodes < -1e-14).any() or (self.nodes.sum(axis=1) > 1 + 1e-14).any():
            raise ValueError("simplex nodes left A_d")


@functools.lru_cache(maxsize=64)
def simplex_rule(dimension: int) -> SimplexRule:
    """Duffy-mapped tensor Gauss-Legendre rule on A_d, ``_SIMPLEX_ORDER``
    points per axis.

    The cube-to-simplex map is x_k = u_k * (1 - x_1 - ... - x_{k-1}) with
    polynomial Jacobian, so monomials up to the rule's degree integrate to
    their exact simplex moments.
    """
    d = int(dimension)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    x1, w1 = gauss_legendre(_SIMPLEX_ORDER)
    grids = np.meshgrid(*([x1] * d), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * d), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)

    nodes = np.empty_like(u)
    jac = np.ones(len(u))
    remaining = np.ones(len(u))
    for k in range(d):
        nodes[:, k] = u[:, k] * remaining
        jac *= remaining
        remaining = remaining - nodes[:, k]
    return SimplexRule(dimension=d, nodes=nodes, weights=w * jac)


def simplex_integrate(dimension: int, integrand) -> complex:
    """Integrate a function over the solid simplex A_d by :func:`simplex_rule`.

    ``integrand`` must be vectorized: it receives an (M, d) array of points
    and returns M values.
    """
    rule = simplex_rule(dimension)
    vals = np.asarray(integrand(rule.nodes))
    return complex((rule.weights * vals).sum())
