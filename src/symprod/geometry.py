"""Planar domains bounded by smooth closed contours.

A domain is one positively oriented outer contour plus any number of
negatively oriented hole contours, each given by an analytic 2*pi-periodic
parametrization.  Geometry checks (simplicity, nesting) run on a dense
sample grid at construction time; simplicity is one sorted sweep over the
validation samples that finds every pair closer than twice the largest
sample step and at least 8 steps apart in arc length, O(m log m) for smooth curves.
Point queries run on a fixed 256-node grid per contour, in blocks of
bounded memory.  :func:`distance_to_boundary` projects every point onto
every contour's analytic parametrization, so it is exact to rounding.
:func:`classify_points` and :func:`interior_mask` share one oracle that
makes one nearest-node pass per contour over the points inside the
contour's node bounding box and inside the ring about the nodes' centre
that holds every node, both padded by the distance floor and three
spacings.  A point outside either lies beyond the floor from that contour,
and its winding about it is that of the centre, one 256-node sum per
contour, in the ring's inner disc and 0 elsewhere.  A node lies on the
curve and every curve point lies within a node spacing h of a node, so a
point whose nearest node is d away is between d - h and d from that
contour: the nearest nodes decide the distance test, except in a band of
one spacing above the floor.  A point within two spacings of a contour is
projected onto it once, and that foot gives both its side of the contour
and its exact distance to it; :func:`distance_to_boundary` measures the
rest of the band.  The same pass gives the 256-node winding sums of the
farther points that it does not refuse.
Random interior points come from one rejection sampler built on the
oracle, :func:`sample_interior`.
Quadrature grids are equispaced in the parameter, so the trapezoid rule is
spectrally accurate for every contour integral built on top of them.

Domain descriptors parse by ``catalog.parse_descriptor``.  The built-in
contour families return one shared, immutable contour per parameter set,
with neither orientation nor label: :func:`composite`, which every
constructor and :func:`build_domain` call, alone orients a domain's contours
and labels them 'outer', 'hole0', 'hole1', ..., through one shared copy per
contour.  The per-contour work (validation samples, the simplicity check,
diameters and winding grids) is cached by contour identity, so a process
that builds the same domain again reuses all of it; only the nesting check,
which classifies each hole's samples against the other contours, runs on
every build.

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

from .catalog import parse_descriptor
from .errors import (
    BoundaryProximityError,
    InvalidGeometryError,
    NonconvergentWindingError,
    NonFiniteDataError,
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
# The oracle measures exactly the points whose nearest node lies from a
# relative _SCREEN_SLACK below the distance floor to one spacing above it.
_SCREEN_SLACK = 1e-9
# The interior sampler draws from the bounding box in at most _SAMPLER_ROUNDS
# rounds.  A round draws 1.25 times the missing count over the acceptance
# rate so far, (accepted + 1) / (drawn + 1), but at least _SAMPLER_MIN_DRAW
# points and at most max(_SAMPLER_MAX_DRAW, 16 * missing), or 2 * missing
# until a point is accepted, which bounds the cost of giving up.  A domain that
# accepted a point has room, so the sampler goes on to _SAMPLER_MAX_ROUNDS (five
# rounds missed 1 of 18 points 0.74 deep in the unit disc in 11 of 20000 calls).
_SAMPLER_ROUNDS = 5
_SAMPLER_MAX_ROUNDS = 20
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


# The contour families and the per-contour caches keep the last few entries
# (about 90 KB of samples per contour).  A family returns one shared contour
# per parameter set, so repeated builds of a domain hit every per-contour
# cache, which is keyed by contour identity.
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
    # |a - b| and |b - a| round alike, so the upper triangle, in blocks of 64
    # rows, has the same largest distance as the whole matrix.
    return float(max(np.abs(sub[i0 : i0 + 64, None] - sub[None, i0:]).max()
                     for i0 in range(0, len(sub), 64)))


def domain_diameter(domain: DomainBoundary) -> float:
    """Largest distance between boundary sample points."""
    return _diameter(domain.contours)


def boundary_tolerance(domain: DomainBoundary) -> float:
    return BOUNDARY_TOL_FACTOR * domain_diameter(domain)


@dataclass(frozen=True)
class _WindingGrid:
    """Equispaced nodes of one contour for the boundary oracle.

    The block arithmetic is real and runs about ``center``: ``xy`` holds -2
    times the centred nodes as a (2, N) matrix and ``sq`` their squared
    moduli.  The columns of ``moments`` are the real and imaginary parts of
    ``weights * conj(centred node)`` and of ``weights``, where ``weights`` are
    ``(2*pi/N) * tangent`` without the orientation flag; ``sense`` is the sign
    of the area the parametrization encloses, +1 when it runs
    counterclockwise.  Points within ``near`` of the curve are classified by
    their projection.  Every curve point lies within ``spacing``, the largest
    node step, of a node, so a point whose nearest node lies ``reach``
    (``near`` plus one spacing) away is farther than ``near`` from the curve,
    and so is every point outside ``box``, the nodes' (x_min, x_max, y_min,
    y_max) padded by ``reach``; about such a point the winding is 0.
    ``r_in`` and ``r_out`` are the least and the largest node distance from
    ``center``, less and plus ``reach``, so the curve lies in the ring
    ``r_in + near <= |q - center| <= r_out - near``.  Every point of the
    inner disc ``|w - center| < r_in`` is therefore farther than ``near``
    from the curve and has ``inside``, the rounded winding sum of
    ``center``, as its winding; every point beyond ``r_out`` is as far and
    has winding 0.  ``r_in`` is at most 0, an empty inner disc, when the
    nodes come within ``reach`` of the centre or its sum is not near -1, 0
    or 1.
    """

    nodes: np.ndarray
    tangents: np.ndarray
    center: complex
    xy: np.ndarray
    sq: np.ndarray
    moments: np.ndarray
    spacing: float
    near: float
    reach: float
    box: tuple[float, float, float, float]
    r_in: float
    r_out: float
    inside: int
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
    reach = near + spacing
    box = (float(nodes.real.min()) - reach, float(nodes.real.max()) + reach,
           float(nodes.imag.min()) - reach, float(nodes.imag.max()) + reach)
    radii = np.abs(t)
    r_in, r_out, inside = float(radii.min()) - reach, float(radii.max()) + reach, 0
    if r_in > 0:
        est = complex((weights / t).sum()) / (2.0j * np.pi)
        inside = round(est.real)
        if abs(est - inside) > _WINDING_SLACK or abs(inside) > 1:
            r_in, inside = 0.0, 0
    return _WindingGrid(
        nodes, tangents, center,
        xy=-2.0 * np.stack([t.real, t.imag]),
        sq=t.real**2 + t.imag**2,
        moments=np.stack([tw.real, tw.imag, weights.real, weights.imag], axis=1),
        spacing=spacing, near=near, reach=reach, box=box,
        r_in=r_in, r_out=r_out, inside=inside, sense=1 if area > 0 else -1,
    )


def _project(contour: Contour, grid: _WindingGrid, w: np.ndarray, j: np.ndarray):
    """Point of the curve nearest to each w, and the tangent there.

    Solves f(theta) = Re(conj(gamma(theta) - w) * gamma'(theta)) = 0, half
    the derivative of |gamma - w|^2, by the Illinois variant of regula falsi.
    The bracket runs from the nearest node j to its neighbour on the side
    where |gamma - w| decreases; every iterate stays inside it, so the step
    converges for far points too.  Where that neighbour shows no sign change
    the bracket collapses onto node j.  Each point stops at its own first
    step of at most ``_PROJECTION_TOL``, so its foot does not depend on the
    other points of the call.
    """
    def slope(theta, w):
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
    foot = np.empty(len(w), dtype=complex)
    foot_tangent = np.empty(len(w), dtype=complex)
    live = np.arange(len(w))
    last = None
    for _ in range(_PROJECTION_STEPS):
        x_new = hi - fhi * (hi - lo) / (fhi - flo)
        fx, foot[live], foot_tangent[live] = slope(x_new, w)
        up = fx > 0
        # Illinois: an end kept for a second step running has its f halved.
        halve = 1.0 if last is None else np.where(up == last, 0.5, 1.0)
        lo, flo = np.where(up, lo, x_new), np.where(up, flo * halve, fx)
        hi, fhi = np.where(up, x_new, hi), np.where(up, fx, fhi * halve)
        go = np.abs(x_new - x) > _PROJECTION_TOL
        if not go.any():
            break
        live, w, x, lo, flo, hi, fhi, last = (
            a[go] for a in (live, w, x_new, lo, flo, hi, fhi, up))
    return foot, foot_tangent


def _node_blocks(grid: _WindingGrid, w: np.ndarray):
    """The nearest node of each point of a 1-D array w, over blocks of
    ``_QUERY_BLOCK`` points.

    Yields ``(start, blk, z, zz, d2, j, d)`` per block: the block ``blk`` of
    w from index ``start``, its points centred (``z``) and their squared
    moduli ``zz``, the real (block x N) array ``d2`` of |t - z|^2 - |z|^2
    over the nodes t, the nearest node ``j`` and its distance ``d``.
    """
    for start in range(0, len(w), _QUERY_BLOCK):
        blk = w[start : start + _QUERY_BLOCK]
        z = blk - grid.center
        zz = z.real**2 + z.imag**2
        # |t - z|^2 = |t|^2 - 2 Re(conj(t) z) + |z|^2, one real (block x N) array.
        d2 = np.stack([z.real, z.imag], axis=1) @ grid.xy
        d2 += grid.sq
        j = np.argmin(d2, axis=1)
        yield start, blk, z, zz, d2, j, np.abs(grid.nodes[j] - blk)


def _nearest_nodes(grid: _WindingGrid, w: np.ndarray):
    """Index and distance of the nearest node of each point of a 1-D w."""
    j = np.empty(len(w), dtype=int)
    d = np.empty(len(w))
    for start, blk, _, _, _, jb, db in _node_blocks(grid, w):
        j[start : start + len(blk)] = jb
        d[start : start + len(blk)] = db
    return j, d


def _winding_sums(contour: Contour, blk, z, zz, d2, rows) -> np.ndarray:
    """Rounded trapezoid winding sums, without the orientation flag, of the
    points ``rows`` of one ``_node_blocks`` block, from its ``d2``.

    The rows are copied out while they are at most half the block, so the
    copy stays within 1 MB; otherwise the whole block is summed in place.
    Raises NonconvergentWindingError when a sum is not near -1, 0 or 1.
    """
    if 2 * len(rows) <= len(blk):
        blk, z, zz, d2 = blk[rows], z[rows], zz[rows], d2[rows]
        rows = slice(None)
    # sum(weights / (t - z)) = sum(weights * conj(t) / d2) - conj(z) * sum(weights / d2)
    d2 += zz[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (np.reciprocal(d2, out=d2) @ _winding_grid(contour).moments)[rows]
    blk, z = blk[rows], z[rows]
    est = (s[:, 0] + 1j * s[:, 1] - np.conj(z) * (s[:, 2] + 1j * s[:, 3])) / (2.0j * np.pi)
    raw = np.round(est.real)
    bad = ~((np.abs(est - raw) <= _WINDING_SLACK) & (np.abs(raw) <= 1))
    if bad.any():
        raise NonconvergentWindingError(
            f"winding estimate {est[bad][:3]} at {blk[bad][:3]} is not near -1, 0 or 1 "
            f"(contour {contour.label!r})"
        )
    return raw.astype(int)


def _screen(grid: _WindingGrid, w: np.ndarray, pad: float):
    """The points of a 1-D w that one contour's node pass must scan, and
    the points deep in its inner disc, as two index sets.

    A point is scanned when it lies in ``grid.box`` and in the ring
    ``r_in - pad <= |w - center| <= r_out + pad``; the first set is
    ``slice(None)``, which copies nothing, when every point is.  A point
    with ``|w - center| < r_in - pad`` is deep and has winding
    ``grid.inside`` about the contour, and every other point has winding 0.
    Deep and other points lie more than ``pad`` plus ``near`` from it.
    """
    x0, x1, y0, y1 = grid.box
    r = np.abs(w - grid.center)
    deep = r < grid.r_in - pad
    skip = (deep | (r > grid.r_out + pad) | (w.real < x0 - pad) | (w.real > x1 + pad)
            | (w.imag < y0 - pad) | (w.imag > y1 + pad))
    return (np.flatnonzero(~skip) if skip.any() else slice(None)), np.flatnonzero(deep)


def _finite_points(w) -> np.ndarray:
    """w as a complex array, refused with NonFiniteDataError unless finite."""
    w = np.asarray(w, dtype=complex)
    if not np.isfinite(w).all():
        raise NonFiniteDataError(f"query points are not finite: {w[~np.isfinite(w)][:3]}")
    return w


def distance_to_boundary(domain: DomainBoundary, w) -> np.ndarray:
    """Distance from point(s) w to the analytic boundary curves.

    Every point is projected onto every contour's parametrization, so the
    result is exact to rounding, not to a sample spacing.  A NaN or infinite
    point raises NonFiniteDataError.
    """
    w = _finite_points(w)
    flat = w.reshape(-1)
    dist = np.full(len(flat), np.inf)
    for c in domain.contours:
        grid = _winding_grid(c)
        foot, _ = _project(c, grid, flat, _nearest_nodes(grid, flat)[0])
        dist = np.minimum(dist, np.abs(foot - flat))
    return dist.reshape(w.shape)


def _regions(domain: DomainBoundary, w: np.ndarray, floor: float) -> np.ndarray:
    """Region labels of an array w of finite points, same shape, with -1
    where ``distance_to_boundary(domain, w) <= floor``.

    Each contour makes one ``_node_blocks`` pass over the points that
    :func:`_screen` finds in its ``box`` and its ring, padded by ``floor``;
    the others lie more than ``floor`` plus ``near`` from it and have the
    winding of its centre in the ring's inner disc and 0 elsewhere.  A point
    whose nearest node is d away lies between d - ``spacing`` and d from the
    contour, so it is refused when some d is within ``floor``, from a
    relative ``_SCREEN_SLACK`` below it so that rounding cannot flip a
    verdict, and lies beyond ``floor`` from each contour whose d less
    ``spacing`` is.  The same block gives the winding sums of the points
    beyond ``near`` that its nearest node does not refuse.  A point within
    ``near`` is projected onto the contour once, from that nearest node, and
    the foot gives both its exact distance to the contour and its side of
    the tangent there.  The rest of the band, the points within one spacing
    above ``floor`` of a contour whose nearest node lies beyond ``near``, is
    measured by :func:`distance_to_boundary`.  Raises
    NonconvergentWindingError when a sum is not near -1, 0 or 1, or a
    winding is not one these holes allow.
    """
    flat = w.reshape(-1)
    refuse = floor * (1.0 - _SCREEN_SLACK)
    out, band = np.zeros((2, len(flat)), dtype=bool)
    windings = np.zeros((len(flat), len(domain.contours)), dtype=int)
    sides = []
    for k, c in enumerate(domain.contours):
        grid = _winding_grid(c)
        sel, deep = _screen(grid, flat, floor)
        windings[deep, k] = c.orientation * grid.inside
        index = np.arange(len(flat))[sel]
        for start, blk, z, zz, d2, j, d in _node_blocks(grid, flat[sel]):
            rows = index[start : start + len(blk)]
            live, close = d > refuse, d < grid.near
            out[rows[~live]] = True
            band[rows[~close & (d - grid.spacing <= floor)]] = True
            far = np.flatnonzero(live & ~close)
            if far.size:
                windings[rows[far], k] = c.orientation * _winding_sums(c, blk, z, zz, d2, far)
            sides.append((k, rows[live & close], j[live & close]))
    for k, rows, j in sides:
        rows, j = rows[~out[rows]], j[~out[rows]]
        if rows.size:
            c = domain.contours[k]
            grid = _winding_grid(c)
            foot, tangent = _project(c, grid, flat[rows], j)
            out[rows] = np.abs(foot - flat[rows]) <= floor
            inner = grid.sense * np.imag(np.conj(tangent) * (flat[rows] - foot)) > 0
            windings[rows, k] = c.orientation * grid.sense * inner
    band = np.flatnonzero(band & ~out)
    if band.size:
        out[band] = distance_to_boundary(domain, flat[band]) <= floor
    outer = windings[:, 0]
    if (outer < 0).any():
        raise NonconvergentWindingError("unexpected winding about the outer contour")
    if (windings[:, 1:] > 0).any():
        raise NonconvergentWindingError("unexpected winding about a hole contour")
    labels = np.where(outer == 1, 0, 1)
    for k in range(1, len(domain.contours)):
        labels[(outer == 1) & (windings[:, k] == -1)] = k + 1
    labels[out] = -1
    return labels.reshape(w.shape)


def classify_points(domain: DomainBoundary, w) -> np.ndarray:
    """Region labels for a batch of points (see module docstring).

    Raises BoundaryProximityError for points within :func:`boundary_tolerance`
    of the boundary and NonFiniteDataError for NaN or infinite ones.
    """
    w = np.atleast_1d(_finite_points(w))
    labels = _regions(domain, w, boundary_tolerance(domain))
    if (labels < 0).any():
        raise BoundaryProximityError(f"points too close to the boundary: {w[labels < 0][:3]}")
    return labels


def bounding_box(domain: DomainBoundary) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) of the boundary's validation samples; the
    outer contour's samples give it, since the holes lie inside."""
    pts = _dense_points(domain.contours[0])
    return (float(pts.real.min()), float(pts.real.max()),
            float(pts.imag.min()), float(pts.imag.max()))


def interior_mask(domain: DomainBoundary, w, min_distance: float) -> np.ndarray:
    """True where a point lies in the domain (label 0) and farther than
    ``min_distance`` from the boundary; same shape as w.

    The distance test runs at the larger of ``min_distance`` and
    :func:`boundary_tolerance`, and its verdict is that of
    ``distance_to_boundary(domain, w) > threshold``.  NaN and infinite
    points are False.
    """
    w = np.asarray(w, dtype=complex)
    keep = np.asarray(np.isfinite(w))
    keep[keep] = _regions(domain, w[keep], max(min_distance, boundary_tolerance(domain))) == 0
    return keep


def sample_interior(domain: DomainBoundary, count: int, rng, min_distance: float) -> np.ndarray:
    """``count`` uniform points of the domain farther than ``min_distance``
    from the boundary, by rejection from the boundary's bounding box.

    Raises SamplingError when ``_SAMPLER_ROUNDS`` rounds of draws accept no
    point, or ``_SAMPLER_MAX_ROUNDS`` rounds leave points missing.
    """
    x0, x1, y0, y1 = bounding_box(domain)
    out = np.empty(count, dtype=complex)
    filled = drawn = rounds = 0
    while filled < count and rounds < (_SAMPLER_MAX_ROUNDS if filled else _SAMPLER_ROUNDS):
        rounds += 1
        need = count - filled
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

@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def circle_contour(center: complex, radius: float) -> Contour:
    if radius <= 0:
        raise InvalidGeometryError("circle radius must be positive")
    c, r = complex(center), float(radius)
    return Contour(
        point=lambda th: c + r * np.exp(1j * th),
        tangent=lambda th: 1j * r * np.exp(1j * th),
    )


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def ellipse_contour(center: complex, a: float, b: float) -> Contour:
    if a <= 0 or b <= 0:
        raise InvalidGeometryError("ellipse semi-axes must be positive")
    c = complex(center)
    return Contour(
        point=lambda th: c + a * np.cos(th) + 1j * b * np.sin(th),
        tangent=lambda th: -a * np.sin(th) + 1j * b * np.cos(th),
    )


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def star_contour(radius: float, ripple: float, arms: int) -> Contour:
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

    return Contour(point=point, tangent=tangent)


# ---------------------------------------------------------------------------
# Domain construction and validation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def _check_simple(contour: Contour) -> None:
    """Reject a contour with a vanishing tangent or two validation samples
    closer than ``floor`` (twice the largest step) that are at least ``band``
    (eight largest steps) apart in arc length along the sample polygon.

    Samples of a simple smooth curve that lie far apart along it stay well
    apart, also where it runs slowly, as at the tips of a thin ellipse; a
    dip below a couple of steps flags (near-)self-intersection.  The close
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
    band = 8.0 * float(step.max())
    arc = np.concatenate([[0.0], np.cumsum(step[:-1])])
    perimeter = float(step.sum())
    m = len(pts)
    wide = np.ptp(pts.real) >= np.ptp(pts.imag)
    key = pts.real if wide else pts.imag
    order = np.argsort(key, kind="stable")
    key, spts, sarc = key[order], pts[order], arc[order]
    # Sorted keys make each start's gap grow with k, so a dropped start
    # never comes back.
    live = np.arange(m - 1)
    for k in range(1, m):
        live = live[live < m - k]
        live = live[key[live + k] - key[live] < floor]
        if not live.size:
            break
        gap = np.abs(sarc[live + k] - sarc[live])
        far = np.minimum(gap, perimeter - gap) >= band
        if (far & (np.abs(spts[live + k] - spts[live]) < floor)).any():
            raise InvalidGeometryError(
                f"contour {contour.label!r} self-intersects at validation resolution"
            )


def _check_nesting(domain: DomainBoundary) -> None:
    """Reject a hole that touches another contour, leaves the outer one or
    is inside another hole, at its validation samples classified against
    the others."""
    contours = domain.contours
    try:
        for i, hole in enumerate(contours[1:], start=1):
            others = contours[:i] + contours[i + 1:]
            try:
                labels = classify_points(DomainBoundary(others), _dense_points(hole))
            except BoundaryProximityError as exc:
                raise InvalidGeometryError("contours touch at validation resolution") from exc
            if (labels == 1).any():
                raise InvalidGeometryError(
                    f"hole contour {hole.label!r} is not inside the outer contour")
            for k, other in enumerate(others[1:], start=2):
                if (labels == k).any():
                    raise InvalidGeometryError(
                        f"hole contours {hole.label!r} and {other.label!r} are nested")
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
    return composite(circle_contour(center, radius))


def ellipse(center: complex, a: float, b: float) -> DomainBoundary:
    return composite(ellipse_contour(center, a, b))


def star(radius: float, ripple: float, arms: int) -> DomainBoundary:
    return composite(star_contour(radius, ripple, arms))


def annulus(center: complex, inner: float, outer: float) -> DomainBoundary:
    return composite(circle_contour(center, outer), [circle_contour(center, inner)])


@functools.lru_cache(maxsize=_CONTOUR_CACHE)
def _oriented(contour: Contour, orientation: int, label: str) -> Contour:
    """``contour`` itself when it has this orientation and label, else one
    shared copy with them."""
    if (contour.orientation, contour.label) == (orientation, label):
        return contour
    return Contour(contour.point, contour.tangent, orientation, label)


def composite(outer: Contour, holes: Sequence[Contour] = ()) -> DomainBoundary:
    """Validated domain of ``outer``, oriented positively and labelled 'outer',
    and the holes, oriented negatively and labelled 'hole0', 'hole1', ..."""
    fixed = tuple(_oriented(h, -1, f"hole{k}") for k, h in enumerate(holes))
    return validate_domain(DomainBoundary((_oriented(outer, 1, "outer"),) + fixed))


# The contour families of a domain descriptor, as catalog.parse_descriptor
# reads them: each kind's factory, its numbers' converters and their count.
_FAMILIES = {
    "disc": (lambda x, y, r: circle_contour(complex(x, y), r), (float,) * 3, 3),
    "ellipse": (lambda x, y, a, b: ellipse_contour(complex(x, y), a, b), (float,) * 4, 4),
    "star": (star_contour, (float, float, int), 3),
}
# An annulus is a whole domain: it heads a descriptor that has no holes.
_WHOLE = dict(_FAMILIES, annulus=(
    lambda x, y, inner, outer: annulus(complex(x, y), inner, outer), (float,) * 4, 4))


def build_domain(descriptor: str) -> DomainBoundary:
    """Build a validated domain from a text descriptor: a contour family
    followed by any number of ``+ hole <family>`` parts, or an annulus.

    Examples::

        disc 0 0 1
        ellipse 0 0 1.1 0.9
        star 1 0.25 2
        annulus 0 0 0.3 1
        disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4
    """
    head, *parts = (part.strip() for part in descriptor.split("+"))
    outer = parse_descriptor(head, _FAMILIES if parts else _WHOLE, "domain", InvalidGeometryError)
    if isinstance(outer, DomainBoundary):
        return outer
    holes = []
    for part in parts:
        tag, _, family = part.partition(" ")
        if tag != "hole":
            raise InvalidGeometryError(f"expected 'hole <family ...>', got {part!r}")
        holes.append(parse_descriptor(family, _FAMILIES, "hole", InvalidGeometryError))
    return composite(outer, holes)
