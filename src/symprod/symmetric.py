"""Symmetric-product machinery.

The coordinate change between root tuples and coefficient tuples (the
elementary symmetric polynomials one way, polynomial root finding back),
the permutation-quotient metric (an assignment by dynamic programming over
subsets) and its power-law comparison with the coefficient distance, in log
space, complete symmetric polynomials, component classification of the
kernel complement, and the induced map on symmetric products evaluated
through boundary integrals of power sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import roots as _roots
from .cauchy import (
    BoundarySamples,
    _kernel_integral,
    _require_roots_inside,
    _sorted_nodes,
    monic_derivative_eval,
    monic_eval,
)
from .errors import NonFiniteDataError, RootFindingError
from .geometry import (
    DomainBoundary,
    _regions,
    bounding_box,
    domain_diameter,
    interior_mask,
    sample_interior,
)

MAX_ROOT_ARITY = 12
ROOT_TOL = 1e-10           # times (1 + max |coefficient|)
CLUSTER_ROOT_TOL = 1e-6    # relaxed residual when roots cluster
_CLUSTER_DISTANCE = 1e-4   # times (1 + max |root|): declares a cluster
_ROUNDTRIP_RTOL = 1e-8
_CLUSTER_ROUNDTRIP_RTOL = 1e-5
# signature_census draws root tuples from the bounding box scaled by this
# factor about its centre, so every region of the complement is sampled.
_CENSUS_BOX_MARGIN = 1.25


# ---------------------------------------------------------------------------
# Coordinates: roots <-> coefficients
# ---------------------------------------------------------------------------

def symmetrize(w) -> np.ndarray:
    """Elementary symmetric polynomials of a root tuple.

    ``w`` has shape (..., n); returns the same shape.  Computed by the
    stable product recurrence (expanding prod (t - w_j)), so the result is
    the coefficient tuple of the monic polynomial with roots w, up to the
    alternating signs.
    """
    w = np.asarray(w, dtype=complex)
    n = w.shape[-1]
    coeffs = np.zeros(w.shape[:-1] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    for k in range(n):
        upper = coeffs[..., : k + 1].copy()
        coeffs[..., 1 : k + 2] -= w[..., k : k + 1] * upper
    signs = (-1.0) ** np.arange(1, n + 1)
    return coeffs[..., 1:] * signs


@dataclass(frozen=True)
class RootMultiset:
    """Roots of a coefficient tuple, with the achieved polynomial residual."""

    roots: np.ndarray
    residual: float


def _has_cluster(rts: np.ndarray) -> np.ndarray:
    n = rts.shape[-1]
    if rts.size == 0 or n == 1:
        return np.zeros(rts.shape[:-1], dtype=bool)
    d = np.abs(rts[..., :, None] - rts[..., None, :])
    d[..., np.arange(n), np.arange(n)] = np.inf
    scale = 1.0 + np.abs(rts).max(axis=-1)
    return d.min(axis=(-2, -1)) <= _CLUSTER_DISTANCE * scale


def desymmetrize_batch(z) -> tuple[np.ndarray, np.ndarray]:
    """Roots for a batch of coefficient tuples; returns (roots, residuals).

    ``z`` has shape (..., n), and the roots have its shape and the
    residuals its shape without the last axis; one tuple (n,) is a batch
    of one, (1, n).  A 0-d ``z`` is refused with :class:`ValueError`.
    The residual of a row is the largest polynomial value at its roots, as
    the polish of :func:`roots.monic_roots` leaves them.  Residual
    acceptance is multiplicity-aware: rows whose roots cluster are
    accepted at a relaxed tolerance, since a multiple root can only be
    located to a fractional power of machine precision.  Tuples with a
    non-finite entry raise :class:`RootFindingError` before any arithmetic.
    """
    zb = np.asarray(z, dtype=complex)
    if zb.ndim == 0:
        raise ValueError("z must supply at least one coordinate")
    if zb.ndim == 1:
        zb = zb[None, :]
    n = zb.shape[-1]
    if n > MAX_ROOT_ARITY:
        raise ValueError(f"arity {n} above the supported maximum {MAX_ROOT_ARITY}")
    if not np.isfinite(zb).all():
        raise RootFindingError("non-finite coefficient tuple")
    rts, values = _roots.monic_roots(_roots.monic_coefficients(zb))
    res = np.abs(values).max(axis=-1)
    scale = 1.0 + np.abs(zb).max(axis=-1)
    ok = res <= ROOT_TOL * scale
    if not ok.all():
        clustered = _has_cluster(rts[~ok])
        if not clustered.all() or (res[~ok] > CLUSTER_ROOT_TOL * scale[~ok]).any():
            raise RootFindingError(
                f"residual {res.max():.3g} not achieved (scale {scale.max():.3g})"
            )
    back = symmetrize(rts)
    err = np.abs(back - zb).max(axis=-1)
    rtol = np.where(_has_cluster(rts), _CLUSTER_ROUNDTRIP_RTOL, _ROUNDTRIP_RTOL)
    if (err > rtol * scale).any():
        raise RootFindingError(f"round-trip error {err.max():.3g} above tolerance")
    return rts, res


def desymmetrize(z) -> RootMultiset:
    """All roots of the coefficient-form polynomial of a single tuple (n,)."""
    if np.ndim(z) > 1:
        raise ValueError(f"desymmetrize takes one tuple (n,), not {np.shape(z)}; "
                         "desymmetrize_batch takes a batch")
    rts, res = desymmetrize_batch(z)
    return RootMultiset(roots=rts[0], residual=float(res[0]))


# ---------------------------------------------------------------------------
# Quotient metric and the power-law comparison
# ---------------------------------------------------------------------------

def delta_metric_batch(z, w) -> np.ndarray:
    """Quotient metric for batches of tuples of shape (..., n): the least
    sqrt(sum_i |z_i - w_s(i)|^2) over permutations s, by dynamic programming
    over subsets.  ``best[..., mask]`` is the least cost of matching z_0 ..
    z_{k-1}, k = |mask|, to the w_j with bit j set: O(n 2^n) time and 2^n
    floats per pair.  Sums run in the order of z, which is put in canonical
    order first; w enters only through minima.  So the value is bitwise
    invariant under reordering of either argument."""
    z = _sorted_nodes(np.asarray(z, dtype=complex))
    w = np.asarray(w, dtype=complex)
    n = z.shape[-1]
    cost = np.abs(z[..., :, None] - w[..., None, :]) ** 2    # (..., n, n)
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1 == 1       # bit j of each mask
    sizes = member.sum(axis=1)
    best = np.full(cost.shape[:-2] + (1 << n,), np.inf)
    best[..., 0] = 0.0
    for i in range(n):
        for j in range(n):
            layer = masks[(sizes == i + 1) & member[:, j]]
            best[..., layer] = np.minimum(best[..., layer],
                                          best[..., layer ^ (1 << j)] + cost[..., i, j, None])
    return np.sqrt(best[..., -1])


def lojasiewicz_exponent(n: int) -> int:
    """Power-law exponent comparing the quotient metric with the coefficient
    distance: n! up to arity 3, then (3/2) n!."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    f = math.factorial(n)
    return f if n <= 3 else (3 * f) // 2


@dataclass(frozen=True)
class LojasiewiczReport:
    arity: int
    exponent: int
    pairs_used: int
    log10_c_max: float
    near_diagonal_pairs: int
    regression_slope: float
    empirical_exponent: float
    seed: int


def lojasiewicz_check(domain: DomainBoundary, n: int, num_pairs: int, seed: int = 0) -> LojasiewiczReport:
    """Sample tuple pairs and compare the quotient metric against the
    coefficient distance.

    ``(num_pairs // 2) // n`` pairs are independent uniform tuples (166 of
    1000 at n = 3); the other ``num_pairs`` minus that many perturb one
    tuple at logarithmically spaced scales (these populate the
    near-diagonal regime where the power law degenerates), and perturbed
    pairs that leave the domain are dropped.  Reports log10 of the
    largest ratio delta^exponent / |coefficient difference| (an empirical
    constant for the inequality, kept in log space because the ratio
    itself overflows from n = 6 on) and a log-log regression restricted to
    near-diagonal pairs.  Raises :class:`NonFiniteDataError` if a quotient
    metric or coefficient distance is not finite, as on a very large domain.
    """
    if num_pairs < 100:
        raise ValueError("need at least 100 pairs")
    rng = np.random.default_rng(seed)
    lam = lojasiewicz_exponent(n)
    diam = domain_diameter(domain)
    floor = 5e-3 * diam

    m = (num_pairs // 2) // n
    count_b = num_pairs - m
    pts = sample_interior(domain, (2 * m + count_b) * n, rng, floor).reshape(-1, n)
    za, wa, zb = pts[:m], pts[m : 2 * m], pts[2 * m :]
    # Cluster some base tuples near their own diagonal before perturbing.
    cluster = rng.random(count_b) < 0.5
    zb[cluster] = zb[cluster][:, :1] + 0.02 * diam * (
        rng.standard_normal((cluster.sum(), n)) + 1j * rng.standard_normal((cluster.sum(), n))
    )
    scales = 10.0 ** rng.uniform(-4, np.log10(0.25 * diam), (count_b, 1))
    noise = rng.standard_normal((count_b, n)) + 1j * rng.standard_normal((count_b, n))
    noise /= np.maximum(np.abs(noise), 1e-12)
    wb = zb + scales * noise
    # The unclustered base tuples are sample_interior's draws at this floor,
    # and the mask's verdicts do not depend on the batch: only the moved
    # tuples need checking.
    inside = interior_mask(domain, np.concatenate([zb[cluster], wb]), floor).all(axis=1)
    keep = inside[-count_b:]
    keep[cluster] &= inside[:-count_b]
    zb, wb = zb[keep], wb[keep]

    Z = np.concatenate([za, zb], axis=0)
    W = np.concatenate([wa, wb], axis=0)
    delta = delta_metric_batch(Z, W)
    with np.errstate(over="ignore"):    # refused below
        pi_dist = np.linalg.norm(symmetrize(Z) - symmetrize(W), axis=-1)
    if not (np.isfinite(delta).all() and np.isfinite(pi_dist).all()):
        raise NonFiniteDataError("quotient metric or coefficient distance is not finite")
    mask = pi_dist > 1e-12
    delta, pi_dist = delta[mask], pi_dist[mask]

    log10_ratios = lam * np.log10(delta) - np.log10(pi_dist)
    log10_c_max = float(log10_ratios.max())

    near = delta <= 0.1 * diam
    if near.sum() >= 10:
        slope = float(np.polyfit(np.log(pi_dist[near]), np.log(delta[near]), 1)[0])
    else:
        slope = float("nan")
    empirical = 1.0 / slope if slope and not math.isnan(slope) else float("nan")
    return LojasiewiczReport(
        arity=n,
        exponent=lam,
        pairs_used=int(len(delta)),
        log10_c_max=log10_c_max,
        near_diagonal_pairs=int(near.sum()),
        regression_slope=slope,
        empirical_exponent=float(empirical),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Complete symmetric polynomials
# ---------------------------------------------------------------------------

def complete_symmetric(degree: int, arity: int, values) -> complex:
    """Complete symmetric polynomial: the sum of all monomials of the given
    total degree in ``arity`` variables; zero for negative degree.

    Computed by the stable one-variable-at-a-time recurrence
    h(p, q) = h(p, q-1) + x_q * h(p-1, q).
    """
    if degree < 0:
        return 0.0 + 0.0j
    x = np.atleast_1d(np.asarray(values, dtype=complex))
    if len(x) != arity:
        raise ValueError("value count does not match arity")
    if arity == 0:
        return 1.0 + 0.0j if degree == 0 else 0.0 + 0.0j
    h = np.zeros(degree + 1, dtype=complex)
    h[0] = 1.0
    for q in range(arity):
        for p in range(1, degree + 1):
            h[p] = h[p] + x[q] * h[p - 1]
    return complex(h[degree])


# ---------------------------------------------------------------------------
# Component classification
# ---------------------------------------------------------------------------

def signature_census(domain: DomainBoundary, n: int, samples: int, seed: int = 0) -> dict[tuple[int, ...], int]:
    """Count component signatures of coefficient tuples built from random
    root tuples drawn from a box around the domain, ``_CENSUS_BOX_MARGIN``
    times the boundary's bounding box about its centre.

    The kernel roots of ``symmetrize(w)`` are the drawn tuple w, so its
    labels give the signature.  Tuples with a root within 5e-3 diameters of
    the boundary are redrawn, so exactly ``samples`` tuples are classified.
    """
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = bounding_box(domain)
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    hx = _CENSUS_BOX_MARGIN * (x1 - x0) / 2.0
    hy = _CENSUS_BOX_MARGIN * (y1 - y0) / 2.0
    floor = 5e-3 * domain_diameter(domain)

    counts: dict[tuple[int, ...], int] = {}
    done = 0
    while done < samples:
        draw = max(samples - done, 64)
        w = (cx + rng.uniform(-hx, hx, (draw, n))) + 1j * (cy + rng.uniform(-hy, hy, (draw, n)))
        labels = _regions(domain, w, floor)
        labels = labels[(labels >= 0).all(axis=1)]
        if len(labels) == 0:
            continue
        take = min(len(labels), samples - done)
        for row in labels[:take]:
            sig = tuple(int(c) for c in np.bincount(row, minlength=domain.kappa))
            counts[sig] = counts.get(sig, 0) + 1
        done += take
    return counts


# ---------------------------------------------------------------------------
# Power sums, Newton's identities, and the induced symmetric-product map
# ---------------------------------------------------------------------------

def power_sums(w) -> np.ndarray:
    """p_l = sum_j w_j^l for l = 1..n, n the arity."""
    w = np.asarray(w, dtype=complex)
    return np.stack([(w**l).sum(axis=-1) for l in range(1, w.shape[-1] + 1)], axis=-1)


def newton_map(p) -> np.ndarray:
    """Elementary symmetric values from power sums via Newton's identities:
    e_k = (1/k) * sum_{i=1..k} (-1)^(i-1) * e_{k-i} * p_i, with e_0 = 1."""
    p = np.asarray(p, dtype=complex)
    n = p.shape[-1]
    e = np.zeros(p.shape[:-1] + (n + 1,), dtype=complex)
    e[..., 0] = 1.0
    for k in range(1, n + 1):
        acc = np.zeros(p.shape[:-1], dtype=complex)
        for i in range(1, k + 1):
            acc = acc + (-1.0) ** (i - 1) * e[..., k - i] * p[..., i - 1]
        e[..., k] = acc / k
    return e[..., 1:]


def power_sum_transform(f_samples: BoundarySamples, ell, z):
    """Boundary integral of f^ell times the logarithmic derivative of the
    coefficient-form kernel; equals the ell-th power sum of f over the
    kernel roots by residue calculus.

    ``z`` has shape (..., n) and ``ell`` is one power or a sequence of L
    powers, all formed against one kernel.  The result has shape
    ``z.shape[:-1]``, then (L,) for a sequence, then (D,) for a stack of D
    data; a single tuple, power and datum give a complex scalar.
    """
    ells = [operator.index(e) for e in np.atleast_1d(ell)]
    if min(ells, default=0) < 1:
        raise ValueError("powers must be >= 1")
    z = _require_roots_inside(f_samples.grid.domain, z).points
    out = _power_sum_integrals(f_samples, z, ells)
    if np.ndim(ell) == 0:
        out = np.take(out, 0, axis=z.ndim - 1)
    return complex(out) if np.ndim(out) == 0 else out


def _power_sum_integrals(f_samples: BoundarySamples, z: np.ndarray, ells) -> np.ndarray:
    """The power-sum integrals of ``z`` (..., n) for every power in ``ells``
    (Python ints), stacked on an axis after the tuples' and before a stack's
    data axis: one kernel evaluation, one checked sum over a numerator
    f^ell * q' of shape (..., len(ells), [D,] M)."""
    t = f_samples.grid.nodes
    q_prime = monic_derivative_eval(z, t).reshape(z.shape[:-1] + (1,) * f_samples.values.ndim + t.shape)
    with np.errstate(over="ignore", invalid="ignore"):    # the kernel sum refuses non-finite terms
        numerator = np.stack([f_samples.values**ell for ell in ells]) * q_prime
    return _kernel_integral(f_samples, monic_eval(z, t)[..., None, :], z.shape[-1],
                            numerator=numerator)


def symmetric_power_map(f_samples: BoundarySamples, z) -> np.ndarray:
    """Induced map on the symmetric product through boundary integrals:
    power sums of f over the kernel roots, pushed through Newton's
    identities back to coefficient coordinates.  ``z`` has shape (..., n)
    and so has the result; evaluation is refused with
    :class:`WrongRegionError` unless every kernel root lies inside the
    domain."""
    z = _require_roots_inside(f_samples.grid.domain, z).points
    return newton_map(_power_sum_integrals(f_samples, z, range(1, z.shape[-1] + 1)))
