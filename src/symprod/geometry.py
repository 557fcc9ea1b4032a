"""Planar domains bounded by smooth closed contours.

A domain is one positively oriented outer contour plus any number of
negatively oriented hole contours, each given by an analytic 2*pi-periodic
parametrization.  Geometry checks (simplicity, nesting) run on a dense
sample grid at construction time; simplicity is one sorted sweep over the
validation samples that finds every pair closer than twice the largest
sample step outside a band of 8 neighbours, O(m log m) for smooth curves.
Point queries (distance, winding, classification) project each point onto
the analytic parametrization and sum a fixed 256-node winding quadrature, in
blocks of bounded memory.
Random interior points come from one rejection sampler built on those
queries, :func:`sample_interior`.
Quadrature grids are equispaced in the parameter, so the trapezoid rule is
spectrally accurate for every contour integral built on top of them.

Region labels returned by :func:`classify_points` are integers:

    0            the domain itself,
    1            the unbounded component,
    2 .. kappa-1 the holes, in storage order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryProximityError,
    InvalidGeometryError,
    NonconvergentWindingError,
    SamplingError,
)

# Hard floor for point queries, times the domain diameter.  Kernels of the
# form 1/p(z, t) blow up near the boundary and the trapezoid error grows like
# exp(-c * N * dist), so points below this floor are rejected outright.
BOUNDARY_TOL_FACTOR = 1e-6

# Dense samples per contour used for validation, diameters and bounding boxes.
VALIDATION_GRID = 2048

# The boundary oracle runs on a fixed winding grid per contour, over blocks of
# _QUERY_BLOCK points: its largest array is one real (block x _WINDING_NODES)
# array, 2 MB, whatever the number of points.
_WINDING_NODES = 256
_WINDING_SLACK = 0.25
_QUERY_BLOCK = 1024
# The trapezoid winding sum errs by about exp(-2*pi*d/h) at distance d from a
# contour with node spacing h (Trefethen & Weideman 2014, SIAM Rev. 56), so it
# rounds safely only beyond a couple of spacings (3.5e-6 at d = 2h).  Nearer
# points take their side from the tangent at their projection.
_NEAR_SPACINGS = 2.0
# The projection stops once its angle moves by at most _PROJECTION_TOL, which
# puts the foot within about 1e-12 * |gamma'| of the nearest curve point; it
# takes three to five steps, _PROJECTION_STEPS at most.
_PROJECTION_TOL = 1e-12
_PROJECTION_STEPS = 16
# The interior sampler draws from the bounding box in at most _SAMPLER_ROUNDS
# rounds.  A round draws 1.25 times the missing count over the acceptance
# rate so far, (accepted + 1) / (drawn + 1), but at least _SAMPLER_MIN_DRAW
# points and at most max(_SAMPLER_MAX_DRAW, 16 * missing), or 2 * missing
# until a point is accepted, which bounds the cost of giving up.
_SAMPLER_ROUNDS = 5
_SAMPLER_MIN_DRAW = 64
_SAMPLER_MAX_DRAW = 8192

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Contour:
    """One closed curve, parametrized by an angle running over [0, 2*pi).

    ``point`` and ``tangent`` must accept ndarray arguments.  ``orientation``
    is +1 or -1 and multiplies the quadrature weights, so flipping it negates
    every contour integral over this curve.
    """

    point: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    orientation: int = 1
    label: str = ""

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True, eq=False)
class DomainBoundary:
    """An outer contour followed by zero or more hole contours."""

    contours: tuple[Contour, ...]

    @property
    def kappa(self) -> int:
        """Number of connected components of the complement of the boundary."""
        return len(self.contours) + 1


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced quadrature nodes on every contour of a domain.

    ``weights`` are orientation-signed ``(2*pi/N) * tangent`` values, so
    ``sum(weights * g(nodes))`` approximates the oriented contour integral
    of ``g`` over the whole boundary.
    """

    domain: DomainBoundary
    nodes: np.ndarray
    weights: np.ndarray
    thetas: np.ndarray
    nodes_per_contour: int


# The per-contour caches are keyed by contour identity and every build_domain
# makes new contours, so they keep only the last few (about 90 KB each).
_CONTOUR_CACHE = 16


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def _dense_points(contour: Contour) -> np.ndarray:
    theta = np.linspace(0.0, TWO_PI, VALIDATION_GRID, endpoint=False)
    return np.asarray(contour.point(theta), dtype=complex)


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def _dense_tangents(contour: Contour) -> np.ndarray:
    theta = np.linspace(0.0, TWO_PI, VALIDATION_GRID, endpoint=False)
    return np.asarray(contour.tangent(theta), dtype=complex)


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def _diameter(contours: tuple[Contour, ...]) -> float:
    pts = np.concatenate([_dense_points(c) for c in contours])
    # The diameter is attained on the outer contour; a coarse subsample is
    # plenty at validation resolution.
    sub = pts[:: max(1, len(pts) // 512)]
    return float(np.abs(sub[:, None] - sub[None, :]).max())


def domain_diameter(domain: DomainBoundary) -> float:
    """Largest distance between boundary sample points."""
    return _diameter(domain.contours)


def boundary_tolerance(domain: DomainBoundary) -> float:
    return BOUNDARY_TOL_FACTOR * domain_diameter(domain)


@dataclass(frozen=True)
class _WindingGrid:
    """Equispaced nodes of one contour for the boundary oracle.

    The block arithmetic is real and runs about ``center``: ``xy`` holds the
    centred nodes as a (2, N) matrix and ``sq`` their squared moduli.  The
    columns of ``moments`` are the real and imaginary parts of
    ``weights * conj(centred node)`` and of ``weights``, where ``weights`` are
    ``(2*pi/N) * tangent`` without the orientation flag; ``sense`` is the sign
    of the area the parametrization encloses, +1 when it runs
    counterclockwise.  Points within ``near`` of the curve are classified by
    their projection.  A point whose nearest node lies ``reach`` (one spacing
    more) away is farther than ``near`` from the curve.
    """

    nodes: np.ndarray
    tangents: np.ndarray
    center: complex
    xy: np.ndarray
    sq: np.ndarray
    moments: np.ndarray
    near: float
    reach: float
    sense: int


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def _winding_grid(contour: Contour) -> _WindingGrid:
    theta = np.linspace(0.0, TWO_PI, _WINDING_NODES, endpoint=False)
    nodes = np.asarray(contour.point(theta), dtype=complex)
    tangents = np.asarray(contour.tangent(theta), dtype=complex)
    weights = (TWO_PI / _WINDING_NODES) * tangents
    center = complex(nodes.mean())
    t = nodes - center
    tw = weights * np.conj(t)
    area = 0.5 * float(tw.imag.sum())
    spacing = float(np.abs(np.roll(nodes, -1) - nodes).max())
    near = _NEAR_SPACINGS * spacing
    return _WindingGrid(
        nodes, tangents, center,
        xy=np.stack([t.real, t.imag]),
        sq=t.real**2 + t.imag**2,
        moments=np.stack([tw.real, tw.imag, weights.real, weights.imag], axis=1),
        near=near, reach=near + spacing, sense=1 if area > 0 else -1,
    )


def _project(contour: Contour, grid: _WindingGrid, w: np.ndarray, j: np.ndarray):
    """Point of the curve nearest to each w, and the tangent there.

    Solves f(theta) = Re(conj(gamma(theta) - w) * gamma'(theta)) = 0, half
    the derivative of |gamma - w|^2, by the Illinois variant of regula falsi.
    The bracket runs from the nearest node j to its neighbour on the side
    where |gamma - w| decreases; every iterate stays inside it, so the step
    converges for far points too.  Where that neighbour shows no sign change
    the bracket collapses onto node j.
    """
    def slope(theta):
        gamma = np.asarray(contour.point(theta), dtype=complex)
        tangent = np.asarray(contour.tangent(theta), dtype=complex)
        return np.real(np.conj(gamma - w) * tangent), gamma, tangent

    f = np.real(np.conj(grid.nodes[j] - w) * grid.tangents[j])
    pos = f > 0
    down = np.where(pos, -1, 1)
    k = (j + down) % _WINDING_NODES
    fk = np.real(np.conj(grid.nodes[k] - w) * grid.tangents[k])
    shut = pos == (fk > 0)
    h = TWO_PI / _WINDING_NODES
    x = j * h
    other = np.where(shut, x, x + down * h)
    f_other = np.where(shut, down, fk)
    # lo keeps f <= 0 and hi keeps f > 0, so fhi - flo is never zero.
    lo, flo = np.where(pos, other, x), np.where(pos, f_other, f)
    hi, fhi = np.where(pos, x, other), np.where(pos, f, f_other)
    last = None
    for _ in range(_PROJECTION_STEPS):
        x_new = hi - fhi * (hi - lo) / (fhi - flo)
        fx, gamma, tangent = slope(x_new)
        up = fx > 0
        # Illinois: an end kept for a second step running has its f halved.
        halve = 1.0 if last is None else np.where(up == last, 0.5, 1.0)
        lo, flo = np.where(up, lo, x_new), np.where(up, flo * halve, fx)
        hi, fhi = np.where(up, x_new, hi), np.where(up, fx, fhi * halve)
        last = up
        step = np.abs(x_new - x).max()
        x = x_new
        if step <= _PROJECTION_TOL:
            break
    return gamma, tangent


def _contour_query(contour: Contour, w: np.ndarray, wind: bool):
    """Distance from each point of a 1-D array w to one analytic contour and,
    if ``wind``, the contour's orientation-signed winding number about it.

    Points farther than ``_NEAR_SPACINGS`` node spacings take the rounded
    trapezoid winding sum; nearer ones are inside exactly when they lie on the
    parametrization's inner side of the tangent at their projection.  Raises
    NonconvergentWindingError when a far point's sum is not near -1, 0 or 1.
    Points on the curve get distance 0 and an arbitrary winding.  Without
    ``wind`` every distance is exact; with it, points beyond ``reach`` are
    not projected and get their nearest node's distance, an upper bound.
    """
    grid = _winding_grid(contour)
    dist = np.empty(len(w))
    windings = np.zeros(len(w), dtype=int)
    for start in range(0, len(w), _QUERY_BLOCK):
        blk = w[start : start + _QUERY_BLOCK]
        z = blk - grid.center
        zz = z.real**2 + z.imag**2
        # |t - z|^2 = |t|^2 - 2 Re(conj(t) z) + |z|^2, one real (block x N) array.
        d2 = np.stack([z.real, z.imag], axis=1) @ grid.xy
        d2 *= -2.0
        d2 += grid.sq
        j = np.argmin(d2, axis=1)
        d = np.sqrt(np.maximum(d2[np.arange(len(blk)), j] + zz, 0.0))
        proj = np.flatnonzero(d < grid.reach) if wind else np.arange(len(blk))
        if proj.size:
            foot, tangent = _project(contour, grid, blk[proj], j[proj])
            d[proj] = np.abs(foot - blk[proj])
        dist[start : start + len(blk)] = d
        if not wind:
            continue
        # sum(weights / (t - z)) = sum(weights * conj(t) / d2) - conj(z) * sum(weights / d2)
        d2 += zz[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.reciprocal(d2, out=d2) @ grid.moments
            est = (s[:, 0] + 1j * s[:, 1] - np.conj(z) * (s[:, 2] + 1j * s[:, 3])) / (2.0j * np.pi)
            raw = np.round(est.real)
            far = ~(d < grid.near)
            bad = far & ~((np.abs(est - raw) <= _WINDING_SLACK) & (np.abs(raw) <= 1))
        if bad.any():
            raise NonconvergentWindingError(
                f"winding estimate {est[bad][:3]} at {blk[bad][:3]} is not near -1, 0 or 1 "
                f"(contour {contour.label!r})"
            )
        if proj.size:
            close = ~far[proj]
            inner = grid.sense * np.imag(np.conj(tangent) * (blk[proj] - foot)) > 0
            raw[proj[close]] = grid.sense * inner[close]
        windings[start : start + len(blk)] = contour.orientation * raw.astype(int)
    return dist, windings


def _query(contours: Sequence[Contour], w: np.ndarray, wind: bool):
    """Distance from each point of a 1-D array w to the nearest contour, and
    the (points, contours) windings when ``wind`` is set."""
    dist = np.full(len(w), np.inf)
    windings = np.zeros((len(w), len(contours)), dtype=int)
    for k, c in enumerate(contours):
        d, windings[:, k] = _contour_query(c, w, wind)
        dist = np.minimum(dist, d)
    return dist, windings


def distance_to_boundary(domain: DomainBoundary, w) -> np.ndarray:
    """Distance from point(s) w to the analytic boundary curves.

    Each point is projected onto every contour's parametrization, so the
    result is exact to rounding, not to a sample spacing.
    """
    w = np.asarray(w, dtype=complex)
    dist, _ = _query(domain.contours, w.reshape(-1), wind=False)
    return dist.reshape(w.shape)


def classify_points(domain: DomainBoundary, w) -> np.ndarray:
    """Region labels for a batch of points (see module docstring)."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    flat = w.reshape(-1)
    dist, windings = _query(domain.contours, flat, wind=True)
    close = dist <= boundary_tolerance(domain)
    if close.any():
        raise BoundaryProximityError(f"points too close to the boundary: {flat[close][:3]}")
    outer = windings[:, 0]
    if (outer < 0).any():
        raise NonconvergentWindingError("unexpected winding about the outer contour")
    if (windings[:, 1:] > 0).any():
        raise NonconvergentWindingError("unexpected winding about a hole contour")
    labels = np.where(outer == 1, 0, 1)
    for k in range(1, len(domain.contours)):
        labels[(outer == 1) & (windings[:, k] == -1)] = k + 1
    return labels.reshape(w.shape)


def bounding_box(domain: DomainBoundary) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) of the boundary's validation samples; the
    outer contour's samples give it, since the holes lie inside."""
    pts = _dense_points(domain.contours[0])
    return (float(pts.real.min()), float(pts.real.max()),
            float(pts.imag.min()), float(pts.imag.max()))


def interior_mask(domain: DomainBoundary, w, min_distance: float) -> np.ndarray:
    """True where a point lies in the domain (label 0) and farther than
    ``min_distance`` from the boundary; same shape as w.

    Only points past the distance test are classified; the distance floor
    never drops below the classification floor, so no point is refused.
    """
    w = np.asarray(w, dtype=complex)
    flat = w.reshape(-1)
    keep = distance_to_boundary(domain, flat) > max(min_distance, boundary_tolerance(domain))
    if keep.any():
        keep[keep] = classify_points(domain, flat[keep]) == 0
    return keep.reshape(w.shape)


def sample_interior(domain: DomainBoundary, count: int, rng, min_distance: float) -> np.ndarray:
    """``count`` uniform points of the domain farther than ``min_distance``
    from the boundary, by rejection from the boundary's bounding box.

    Raises SamplingError when ``_SAMPLER_ROUNDS`` rounds of draws leave
    points missing.
    """
    x0, x1, y0, y1 = bounding_box(domain)
    out = np.empty(count, dtype=complex)
    filled = drawn = 0
    for _ in range(_SAMPLER_ROUNDS):
        need = count - filled
        if need <= 0:
            break
        draw = 1.25 * need * (drawn + 1) / (filled + 1)
        ceiling = max(_SAMPLER_MAX_DRAW, (16 if filled else 2) * need)
        draw = int(np.clip(draw, _SAMPLER_MIN_DRAW, ceiling))
        cand = rng.uniform(x0, x1, draw) + 1j * rng.uniform(y0, y1, draw)
        cand = cand[interior_mask(domain, cand, min_distance)][:need]
        out[filled : filled + len(cand)] = cand
        filled += len(cand)
        drawn += draw
    if filled < count:
        raise SamplingError(
            f"placed {filled} of {count} points farther than {min_distance:.3g} from the "
            f"boundary in {drawn} draws"
        )
    return out


def sample_boundary(domain: DomainBoundary, nodes_per_contour: int) -> BoundaryGrid:
    """Equispaced quadrature grid with N nodes on each contour.

    N must be even and at least 16.  The weight at node j is
    orientation * (2*pi/N) * tangent(theta_j).
    """
    n = int(nodes_per_contour)
    if n < 16 or n % 2:
        raise ValueError("nodes_per_contour must be even and >= 16")
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    nodes = [np.asarray(c.point(theta), dtype=complex) for c in domain.contours]
    weights = [c.orientation * (TWO_PI / n) * np.asarray(c.tangent(theta), dtype=complex)
               for c in domain.contours]
    return BoundaryGrid(
        domain=domain,
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        thetas=np.tile(theta, len(domain.contours)),
        nodes_per_contour=n,
    )


# ---------------------------------------------------------------------------
# Built-in contour families
# ---------------------------------------------------------------------------

def circle_contour(center: complex, radius: float, orientation: int = 1, label: str = "circle") -> Contour:
    if radius <= 0:
        raise InvalidGeometryError("circle radius must be positive")
    c, r = complex(center), float(radius)
    return Contour(
        point=lambda th: c + r * np.exp(1j * th),
        tangent=lambda th: 1j * r * np.exp(1j * th),
        orientation=orientation,
        label=label,
    )


def ellipse_contour(center: complex, a: float, b: float, label: str = "ellipse") -> Contour:
    if a <= 0 or b <= 0:
        raise InvalidGeometryError("ellipse semi-axes must be positive")
    c = complex(center)
    return Contour(
        point=lambda th: c + a * np.cos(th) + 1j * b * np.sin(th),
        tangent=lambda th: -a * np.sin(th) + 1j * b * np.cos(th),
        label=label,
    )


def star_contour(radius: float, ripple: float, arms: int, label: str = "star") -> Contour:
    """Wavy circle r(theta) = R * (1 + ripple * cos(arms * theta)).

    The family only accepts ripples small enough that both r and the
    curvature proxy r + r'' stay positive on the validation grid; larger
    ripples pinch the lobes toward self-contact and are rejected.
    """
    if radius <= 0 or arms < 1:
        raise InvalidGeometryError("star needs radius > 0 and arms >= 1")
    R, eps, m = float(radius), float(ripple), int(arms)
    theta = np.linspace(0.0, TWO_PI, VALIDATION_GRID, endpoint=False)
    r = R * (1.0 + eps * np.cos(m * theta))
    rpp = -R * eps * m * m * np.cos(m * theta)
    if r.min() <= 0 or (r + rpp).min() <= 0:
        raise InvalidGeometryError(
            f"star(R={R}, ripple={eps}, arms={m}) fails the regularity check"
        )

    def point(th):
        return R * (1.0 + eps * np.cos(m * th)) * np.exp(1j * th)

    def tangent(th):
        rr = R * (1.0 + eps * np.cos(m * th))
        rp = -R * eps * m * np.sin(m * th)
        return (rp + 1j * rr) * np.exp(1j * th)

    return Contour(point=point, tangent=tangent, label=label)


# ---------------------------------------------------------------------------
# Domain construction and validation
# ---------------------------------------------------------------------------

def _check_simple(contour: Contour) -> None:
    """Reject a contour with a vanishing tangent or two validation samples
    closer than ``floor`` (twice the largest step) that are at least ``sep``
    apart in cyclic index order.

    Non-adjacent samples of a simple smooth curve stay well apart; a dip
    below a couple of arc steps flags (near-)self-intersection.  The close
    pairs are found by one sorted sweep: the samples are sorted along the
    wider bounding-box axis, and pass k compares each sorted sample with the
    k-th after it, keeping only the starts whose coordinate gap is still
    below ``floor``.  A pair closer than ``floor`` has a coordinate gap below
    it, so the sweep meets every such pair, and it stops once no start is
    left: O(m log m) for smooth curves, with O(m) memory.
    """
    pts = _dense_points(contour)
    tan = _dense_tangents(contour)
    scale = float(np.abs(pts - pts.mean()).max())
    if np.abs(tan).min() <= 1e-9 * max(scale, 1e-12):
        raise InvalidGeometryError(f"contour {contour.label!r} has a vanishing tangent")
    step = np.abs(np.roll(pts, -1) - pts)
    floor = 2.0 * float(step.max())
    m = len(pts)
    sep = 8
    wide = np.ptp(pts.real) >= np.ptp(pts.imag)
    key = pts.real if wide else pts.imag
    order = np.argsort(key, kind="stable")
    key, spts = key[order], pts[order]
    # Sorted keys make each start's gap grow with k, so a dropped start
    # never comes back.
    live = np.arange(m - 1)
    for k in range(1, m):
        live = live[live < m - k]
        live = live[key[live + k] - key[live] < floor]
        if not live.size:
            break
        gap = np.abs(order[live + k] - order[live])
        far = np.minimum(gap, m - gap) >= sep
        if (far & (np.abs(spts[live + k] - spts[live]) < floor)).any():
            raise InvalidGeometryError(
                f"contour {contour.label!r} self-intersects at validation resolution"
            )


def _check_nesting(domain: DomainBoundary) -> None:
    contours = domain.contours
    if len(contours) < 2:
        return
    step = VALIDATION_GRID // 32
    tol = boundary_tolerance(domain)
    try:
        for i, hole in enumerate(contours[1:], start=1):
            probes = _dense_points(hole)[::step]
            for j, other in enumerate(contours):
                if j == i:
                    continue
                dist, wind = _contour_query(other, probes, wind=True)
                if (dist <= tol).any():
                    raise InvalidGeometryError("contours touch at validation resolution")
                if j == 0:
                    if not (wind == 1).all():
                        raise InvalidGeometryError(
                            f"hole contour {hole.label!r} is not inside the outer contour"
                        )
                elif not (wind == 0).all():
                    raise InvalidGeometryError(
                        f"hole contours {hole.label!r} and {other.label!r} are nested"
                    )
    except NonconvergentWindingError as exc:
        raise InvalidGeometryError(f"nesting validation failed: {exc}") from exc


def validate_domain(domain: DomainBoundary) -> DomainBoundary:
    if not domain.contours:
        raise InvalidGeometryError("a domain needs at least one contour")
    if domain.contours[0].orientation != 1:
        raise InvalidGeometryError("the outer contour must be positively oriented")
    if any(c.orientation != -1 for c in domain.contours[1:]):
        raise InvalidGeometryError("hole contours must be negatively oriented")
    for c in domain.contours:
        _check_simple(c)
    _check_nesting(domain)
    return domain


def disc(center: complex = 0.0, radius: float = 1.0) -> DomainBoundary:
    return validate_domain(DomainBoundary((circle_contour(center, radius, label="outer"),)))


def ellipse(center: complex, a: float, b: float) -> DomainBoundary:
    return validate_domain(DomainBoundary((ellipse_contour(center, a, b, label="outer"),)))


def star(radius: float, ripple: float, arms: int) -> DomainBoundary:
    return validate_domain(DomainBoundary((star_contour(radius, ripple, arms, label="outer"),)))


def annulus(center: complex, inner: float, outer: float) -> DomainBoundary:
    if not 0 < inner < outer:
        raise InvalidGeometryError("annulus needs 0 < inner < outer")
    return validate_domain(
        DomainBoundary(
            (
                circle_contour(center, outer, label="outer"),
                circle_contour(center, inner, orientation=-1, label="hole0"),
            )
        )
    )


def composite(outer: Contour, holes: Sequence[Contour] = ()) -> DomainBoundary:
    """Assemble a multiply-connected domain; holes are re-oriented negatively."""
    fixed = tuple(Contour(h.point, h.tangent, -1, h.label or f"hole{k}")
                  for k, h in enumerate(holes))
    out = Contour(outer.point, outer.tangent, 1, outer.label or "outer")
    return validate_domain(DomainBoundary((out,) + fixed))


_FAMILY_ARITY = {"disc": 3, "ellipse": 4, "star": 3, "annulus": 4}


def _parse_numbers(tokens: list[str]) -> list[float]:
    try:
        args = [float(x) for x in tokens[1:]]
    except ValueError as exc:
        raise InvalidGeometryError(f"bad numeric argument in {tokens!r}") from exc
    if not np.isfinite(args).all():
        raise InvalidGeometryError(f"non-finite numeric argument in {tokens!r}")
    return args


def _parse_family(tokens: list[str]) -> Contour:
    if not tokens:
        raise InvalidGeometryError("missing contour spec")
    name = tokens[0]
    args = _parse_numbers(tokens)
    if name not in _FAMILY_ARITY or len(args) != _FAMILY_ARITY[name]:
        raise InvalidGeometryError(f"unknown contour spec {tokens!r}")
    if name == "disc":
        return circle_contour(complex(args[0], args[1]), args[2])
    if name == "ellipse":
        return ellipse_contour(complex(args[0], args[1]), args[2], args[3])
    if name == "star":
        return star_contour(args[0], args[1], int(args[2]))
    # annulus is only valid as a whole-domain descriptor
    raise InvalidGeometryError("annulus cannot be used as a single contour")


def build_domain(descriptor: str) -> DomainBoundary:
    """Build a validated domain from a text descriptor.

    Examples::

        disc 0 0 1
        ellipse 0 0 1.1 0.9
        star 1 0.25 2
        annulus 0 0 0.3 1
        disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4
    """
    parts = [p.strip() for p in descriptor.split("+")]
    head = parts[0].split()
    if not head:
        raise InvalidGeometryError("empty domain descriptor")
    if head[0] == "annulus":
        if len(parts) > 1:
            raise InvalidGeometryError("annulus does not take extra holes")
        args = _parse_numbers(head)
        if len(args) != 4:
            raise InvalidGeometryError("annulus needs: cx cy r_inner r_outer")
        return annulus(complex(args[0], args[1]), args[2], args[3])
    outer = _parse_family(head)
    holes = []
    for part in parts[1:]:
        tokens = part.split()
        if not tokens or tokens[0] != "hole":
            raise InvalidGeometryError(f"expected 'hole <family ...>', got {part!r}")
        holes.append(_parse_family(tokens[1:]))
    return composite(outer, holes)
