"""Symmetric-product machinery.

The coordinate change between root tuples and coefficient tuples (the
elementary symmetric polynomials one way, polynomial root finding back),
the permutation-quotient metric and its power-law comparison with the
coefficient distance, complete symmetric polynomials, component
classification of the kernel complement, and the induced map on symmetric
products evaluated through boundary integrals of power sums.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import roots as _roots
from .cauchy import (
    BoundarySamples,
    _kernel_integral,
    _require_roots_inside,
    monic_derivative_eval,
    monic_eval,
)
from .errors import RootFindingError
from .geometry import (
    DomainBoundary,
    bounding_box,
    classify_points,
    distance_to_boundary,
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
MAX_PERMUTATION_ARITY = 8
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

    Residual acceptance is multiplicity-aware: rows whose roots cluster are
    accepted at a relaxed tolerance, since a multiple root can only be
    located to a fractional power of machine precision.  Tuples with a
    non-finite entry raise :class:`RootFindingError` before any arithmetic.
    """
    zb = np.asarray(z, dtype=complex)
    if zb.ndim == 1:
        zb = zb[None, :]
    n = zb.shape[-1]
    if n > MAX_ROOT_ARITY:
        raise ValueError(f"arity {n} above the supported maximum {MAX_ROOT_ARITY}")
    if not np.isfinite(zb).all():
        raise RootFindingError("non-finite coefficient tuple")
    coeffs = _roots.monic_coefficients(zb)
    rts = _roots.monic_roots(coeffs)
    res = np.abs(_roots.horner(coeffs, rts)).max(axis=-1)
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
    """All roots of the coefficient-form polynomial of a single tuple."""
    rts, res = desymmetrize_batch(np.asarray(z, dtype=complex)[None, :])
    return RootMultiset(roots=rts[0], residual=float(res[0]))


# ---------------------------------------------------------------------------
# Quotient metric and the power-law comparison
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _permutation_table(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def delta_metric_batch(z, w) -> np.ndarray:
    """Quotient metric for batches of tuples of shape (..., n)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n = z.shape[-1]
    if n > MAX_PERMUTATION_ARITY:
        raise ValueError(f"arity {n} above brute-force maximum {MAX_PERMUTATION_ARITY}")
    perms = _permutation_table(n)
    diffs = z[..., None, :] - w[..., perms]          # (..., n!, n)
    sq = np.abs(diffs) ** 2
    # Sorting the squared summands makes the value bitwise invariant under
    # reordering of either argument.
    sq = np.sort(sq, axis=-1)
    return np.sqrt(sq.sum(axis=-1).min(axis=-1))


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
    c_max: float
    violations_at_c_max: int
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
    pairs that leave the domain are dropped.  Reports the
    largest ratio delta^exponent / |coefficient difference| (an empirical
    constant for the inequality), the violation count at that constant
    (zero by construction), and a log-log regression restricted to
    near-diagonal pairs.
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
    keep = interior_mask(domain, np.concatenate([zb, wb], axis=1), floor).all(axis=1)
    zb, wb = zb[keep], wb[keep]

    Z = np.concatenate([za, zb], axis=0)
    W = np.concatenate([wa, wb], axis=0)
    delta = delta_metric_batch(Z, W)
    pi_dist = np.linalg.norm(symmetrize(Z) - symmetrize(W), axis=-1)
    mask = pi_dist > 1e-12
    delta, pi_dist = delta[mask], pi_dist[mask]

    # Large exponents overflow to an infinite c_max, which the caller reports.
    with np.errstate(over="ignore"):
        ratios = delta**lam / pi_dist
    c_max = float(ratios.max())
    violations = int((ratios > c_max).sum())

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
        c_max=c_max,
        violations_at_c_max=violations,
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

    Points whose roots land too close to the boundary for classification
    are redrawn, so exactly ``samples`` tuples are classified.
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
        w = w[(distance_to_boundary(domain, w) > floor).all(axis=1)]
        if len(w) == 0:
            continue
        rts, _ = desymmetrize_batch(symmetrize(w))
        rts = rts[(distance_to_boundary(domain, rts) > floor).all(axis=1)]
        if len(rts) == 0:
            continue
        labels = classify_points(domain, rts)
        take = min(len(rts), samples - done)
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


def power_sum_transform(f_samples: BoundarySamples, ell: int, z, check_region: bool = True):
    """Boundary integral of f^ell times the logarithmic derivative of the
    coefficient-form kernel; equals the ell-th power sum of f over the
    kernel roots by residue calculus.

    ``z`` has shape (..., n); a single tuple gives a complex scalar, a batch
    an array of shape ``z.shape[:-1]``.
    """
    if ell < 1:
        raise ValueError("power must be >= 1")
    z = np.asarray(z, dtype=complex)
    if check_region:
        _require_roots_inside(f_samples.grid.domain, z)
    out = _power_sum_integrals(f_samples, z, [ell])[..., 0]
    return complex(out) if z.ndim == 1 else out


def _power_sum_integrals(f_samples: BoundarySamples, z: np.ndarray, ells) -> np.ndarray:
    """The power-sum integrals of ``z`` (..., n) for every power in ``ells``,
    stacked on a last axis: one kernel evaluation, one checked sum over a
    numerator f^ell * q' of shape (..., len(ells), M)."""
    t = f_samples.grid.nodes
    powers = np.stack([f_samples.values**ell for ell in ells])
    numerator = powers * monic_derivative_eval(z, t)[..., None, :]
    return _kernel_integral(f_samples, monic_eval(z, t)[..., None, :], z.shape[-1],
                            numerator=numerator)


def symmetric_power_map(f_samples: BoundarySamples, z) -> np.ndarray:
    """Induced map on the symmetric product through boundary integrals:
    power sums of f over the kernel roots, pushed through Newton's
    identities back to coefficient coordinates.  ``z`` has shape (..., n)
    and so has the result; evaluation is refused with
    :class:`WrongRegionError` unless every kernel root lies inside the
    domain."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    _require_roots_inside(f_samples.grid.domain, z)
    return newton_map(_power_sum_integrals(f_samples, z, range(1, n + 1)))
