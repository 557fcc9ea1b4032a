"""Divided differences of holomorphic functions.

Two evaluation routes are provided: the triangular Newton-table recursion,
which needs pairwise distinct nodes, and a simplex-integral representation
of the (m-1)-th difference over m nodes,

    integral over A_{m-1} of f^(m-1)(tau_1 z_1 + ... + tau_m z_m),

with tau_m = 1 - sum of the others.  The integral route stays well defined
at coincident nodes (where it reduces to f^(k)(z)/k!) and serves as the
cross-check oracle for the recursion.  The final value is symmetric in the
nodes, so the denominator convention of the recursion does not matter; we
use the standard first-node-minus-last-node table.
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentNodesError
from .quadrature import simplex_integrate

# Below this fraction of the node spread the recursion refuses and callers
# should switch to the simplex route; catastrophic cancellation otherwise.
TOL_DIAG_FACTOR = 1e-8


def _as_nodes(nodes) -> np.ndarray:
    z = np.atleast_1d(np.asarray(nodes, dtype=complex))
    if z.ndim != 1 or len(z) < 1:
        raise ValueError("nodes must be a nonempty 1-d sequence")
    return z


def _require_distinct(z: np.ndarray) -> None:
    """Refuse unless the nodes of every row of ``z`` (..., m) are distinct
    to ``TOL_DIAG_FACTOR`` of that row's spread."""
    m = z.shape[-1]
    if m < 2:
        return
    d = np.abs(z[..., :, None] - z[..., None, :])
    spread = d.max(axis=(-2, -1))
    d[..., np.arange(m), np.arange(m)] = np.inf
    gap = d.min(axis=(-2, -1))
    close = gap <= TOL_DIAG_FACTOR * spread
    if close.any():
        i = np.argmax(close)
        raise CoincidentNodesError(
            f"node distance {gap.flat[i]:.3g} below {TOL_DIAG_FACTOR:.0e} "
            f"of the spread {spread.flat[i]:.3g}"
        )


def divdiff_table(values, nodes):
    """Newton-table recursion on precomputed values; nodes must be distinct.

    ``values`` and ``nodes`` have shape (m,) or (k, m): each row is one
    table, and the nodes of every row must be distinct
    (:class:`CoincidentNodesError` otherwise).  Returns a ``complex`` for
    1-d input and a (k,) array for rows.
    """
    z = np.atleast_1d(np.asarray(nodes, dtype=complex))
    if z.ndim > 2 or z.shape[-1] < 1:
        raise ValueError("nodes must be a nonempty sequence (m,) or rows (k, m)")
    col = np.asarray(values, dtype=complex).copy()
    if col.shape != z.shape:
        raise ValueError("values and nodes differ in shape")
    _require_distinct(z)
    m = z.shape[-1]
    for level in range(1, m):
        col = (col[..., :-1] - col[..., 1:]) / (z[..., : m - level] - z[..., level:])
    return complex(col[0]) if z.ndim == 1 else col[..., 0]


def divdiff_recursive(f, nodes) -> complex:
    """Order-(m-1) divided difference of a callable over m distinct nodes."""
    z = _as_nodes(nodes)
    return divdiff_table(np.asarray(f(z), dtype=complex), z)


def divdiff_gh(f_deriv, nodes) -> complex:
    """Simplex-integral route; ``f_deriv`` is the (m-1)-th derivative of f.

    Requires the convex hull of the nodes to lie in the domain of f.
    ``f_deriv`` must be vectorized.
    """
    z = _as_nodes(nodes)
    d = len(z) - 1
    if d == 0:
        return complex(np.asarray(f_deriv(z[0])).reshape(()))

    def integrand(tau):
        x = tau @ z[:d] + (1.0 - tau.sum(axis=1)) * z[d]
        return np.asarray(f_deriv(x), dtype=complex)

    return simplex_integrate(d, integrand)


def divdiff_analytic(fun, nodes) -> complex:
    """Simplex route for a :class:`~symprod.catalog.CatalogFunction`.

    Uses the handle's analytic derivative of order ``len(nodes) - 1`` and
    raises ``ValueError`` when the handle has none.
    """
    z = _as_nodes(nodes)
    k = len(z) - 1
    deriv = fun.derivative(k)
    if deriv is None:
        raise ValueError(f"{fun.label} has no analytic derivative of order {k}")
    return divdiff_gh(deriv, z)
