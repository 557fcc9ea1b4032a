"""Planar domains bounded by smooth closed contours.

A domain is one positively oriented outer contour plus any number of
negatively oriented hole contours, each given by an analytic 2*pi-periodic
parametrization.  Geometry checks (simplicity, nesting) run on a dense
sample grid at construction time.  Quadrature grids are equispaced in the
parameter, so the trapezoid rule is spectrally accurate for every contour
integral built on top of them.

Region labels returned by :func:`classify_point` are integers:

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
)

# Hard floor for point queries, times the domain diameter.  Kernels of the
# form 1/p(z, t) blow up near the boundary and the trapezoid error grows like
# exp(-c * N * dist), so points below this floor are rejected outright.
BOUNDARY_TOL_FACTOR = 1e-6

# Dense samples per contour used for validation, distances and diameters.
VALIDATION_GRID = 2048

_WINDING_NODES = 256
_WINDING_MAX_NODES = 4096
_WINDING_SLACK = 0.25

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
    tangents: np.ndarray
    weights: np.ndarray
    thetas: np.ndarray
    contour_index: np.ndarray
    nodes_per_contour: int


@functools.lru_cache(maxsize=256)
def _dense_points(contour: Contour) -> np.ndarray:
    theta = np.linspace(0.0, TWO_PI, VALIDATION_GRID, endpoint=False)
    return np.asarray(contour.point(theta), dtype=complex)


@functools.lru_cache(maxsize=256)
def _dense_tangents(contour: Contour) -> np.ndarray:
    theta = np.linspace(0.0, TWO_PI, VALIDATION_GRID, endpoint=False)
    return np.asarray(contour.tangent(theta), dtype=complex)


@functools.lru_cache(maxsize=128)
def _domain_points(domain: DomainBoundary) -> np.ndarray:
    return np.concatenate([_dense_points(c) for c in domain.contours])


@functools.lru_cache(maxsize=128)
def domain_diameter(domain: DomainBoundary) -> float:
    """Largest distance between boundary sample points."""
    pts = _domain_points(domain)
    # The diameter is attained on the outer contour; a coarse subsample is
    # plenty at validation resolution.
    sub = pts[:: max(1, len(pts) // 512)]
    return float(np.abs(sub[:, None] - sub[None, :]).max())


def boundary_tolerance(domain: DomainBoundary) -> float:
    return BOUNDARY_TOL_FACTOR * domain_diameter(domain)


def distance_to_boundary(domain: DomainBoundary, w) -> np.ndarray:
    """Distance from point(s) w to the sampled boundary."""
    pts = _domain_points(domain)
    w = np.asarray(w, dtype=complex)
    return np.abs(w[..., None] - pts).min(axis=-1)


def _contour_distance(contour: Contour, w: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(w, dtype=complex)[..., None] - _dense_points(contour)).min(axis=-1)


def _winding_estimate(contour: Contour, w: np.ndarray, nodes: int) -> np.ndarray:
    theta = np.linspace(0.0, TWO_PI, nodes, endpoint=False)
    t = np.asarray(contour.point(theta), dtype=complex)
    wts = contour.orientation * (TWO_PI / nodes) * np.asarray(contour.tangent(theta), dtype=complex)
    return (wts / (t - w[..., None])).sum(axis=-1) / (2.0j * np.pi)


def _contour_windings(contour: Contour, w: np.ndarray) -> np.ndarray:
    """Integer windings of a batch of points about one contour.

    Refines the node count while estimates sit away from integers; a simple
    closed contour can only wind -1, 0 or +1, so anything else after
    refinement is reported as nonconvergent rather than trusted.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    est = _winding_estimate(contour, w, _WINDING_NODES)
    nodes = _WINDING_NODES
    refine = np.abs(est - np.round(est.real)) > 0.1
    while refine.any() and nodes < _WINDING_MAX_NODES:
        nodes *= 2
        est[refine] = _winding_estimate(contour, w[refine], nodes)
        refine = np.abs(est - np.round(est.real)) > 0.1
    bad = np.abs(est - np.round(est.real)) > _WINDING_SLACK
    if bad.any():
        raise NonconvergentWindingError(
            f"winding estimate not near an integer at {w[bad][:3]} (contour {contour.label!r})"
        )
    out = np.round(est.real).astype(int)
    if (np.abs(out) > 1).any():
        raise NonconvergentWindingError(
            f"implausible winding {out[np.abs(out) > 1][:3]} about a simple contour"
        )
    return out


def winding_number(contours: Sequence[Contour], w: complex) -> int:
    """Total winding (1/2*pi*i) * integral dt/(t - w), summed over contours.

    Raises BoundaryProximityError if w is within the tolerance floor of any
    contour and NonconvergentWindingError if the quadrature estimate does not
    settle near an integer.
    """
    contours = tuple(contours)
    pts = np.concatenate([_dense_points(c) for c in contours])
    sub = pts[:: max(1, len(pts) // 512)]
    diam = float(np.abs(sub[:, None] - sub[None, :]).max())
    tol = BOUNDARY_TOL_FACTOR * diam
    warr = np.atleast_1d(np.asarray(w, dtype=complex))
    for c in contours:
        if (_contour_distance(c, warr) <= tol).any():
            raise BoundaryProximityError(f"point {w} within {tol:.3g} of contour {c.label!r}")
    total = sum(int(_contour_windings(c, warr)[0]) for c in contours)
    return total


def classify_points(domain: DomainBoundary, w) -> np.ndarray:
    """Region labels for a batch of points (see module docstring)."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    tol = boundary_tolerance(domain)
    dist = distance_to_boundary(domain, w)
    if (dist <= tol).any():
        off = w[dist <= tol][:3]
        raise BoundaryProximityError(f"points too close to the boundary: {off}")
    windings = np.stack([_contour_windings(c, w) for c in domain.contours], axis=-1)
    labels = np.empty(w.shape, dtype=int)
    outer = windings[..., 0]
    if not np.isin(outer, (0, 1)).all():
        raise NonconvergentWindingError("unexpected winding about the outer contour")
    if windings.shape[-1] > 1 and not np.isin(windings[..., 1:], (-1, 0)).all():
        raise NonconvergentWindingError("unexpected winding about a hole contour")
    labels[outer == 0] = 1
    inside = outer == 1
    hole = np.zeros(w.shape, dtype=int)
    for k in range(1, len(domain.contours)):
        in_hole = windings[..., k] == -1
        hole[in_hole & inside] = k + 1
    labels[inside] = np.where(hole[inside] > 0, hole[inside], 0)
    return labels


def classify_point(domain: DomainBoundary, w: complex) -> int:
    """Region label of a single point."""
    return int(classify_points(domain, np.asarray([w]))[0])


def sample_boundary(domain: DomainBoundary, nodes_per_contour: int) -> BoundaryGrid:
    """Equispaced quadrature grid with N nodes on each contour.

    N must be even and at least 16.  The weight at node j is
    orientation * (2*pi/N) * tangent(theta_j).
    """
    n = int(nodes_per_contour)
    if n < 16 or n % 2:
        raise ValueError("nodes_per_contour must be even and >= 16")
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    nodes, tangents, weights, thetas, index = [], [], [], [], []
    for k, c in enumerate(domain.contours):
        t = np.asarray(c.point(theta), dtype=complex)
        tp = np.asarray(c.tangent(theta), dtype=complex)
        nodes.append(t)
        tangents.append(tp)
        weights.append(c.orientation * (TWO_PI / n) * tp)
        thetas.append(theta)
        index.append(np.full(n, k))
    return BoundaryGrid(
        domain=domain,
        nodes=np.concatenate(nodes),
        tangents=np.concatenate(tangents),
        weights=np.concatenate(weights),
        thetas=np.concatenate(thetas),
        contour_index=np.concatenate(index),
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


def ellipse_contour(center: complex, a: float, b: float, orientation: int = 1, label: str = "ellipse") -> Contour:
    if a <= 0 or b <= 0:
        raise InvalidGeometryError("ellipse semi-axes must be positive")
    c = complex(center)
    return Contour(
        point=lambda th: c + a * np.cos(th) + 1j * b * np.sin(th),
        tangent=lambda th: -a * np.sin(th) + 1j * b * np.cos(th),
        orientation=orientation,
        label=label,
    )


def star_contour(radius: float, ripple: float, arms: int, orientation: int = 1, label: str = "star") -> Contour:
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

    return Contour(point=point, tangent=tangent, orientation=orientation, label=label)


# ---------------------------------------------------------------------------
# Domain construction and validation
# ---------------------------------------------------------------------------

def _check_simple(contour: Contour) -> None:
    pts = _dense_points(contour)
    tan = _dense_tangents(contour)
    scale = float(np.abs(pts - pts.mean()).max())
    if np.abs(tan).min() <= 1e-9 * max(scale, 1e-12):
        raise InvalidGeometryError(f"contour {contour.label!r} has a vanishing tangent")
    step = np.abs(np.roll(pts, -1) - pts)
    floor = 2.0 * float(step.max())
    m = len(pts)
    sep = 8
    # Non-adjacent samples of a simple smooth curve stay well apart; a dip
    # below a couple of arc steps flags (near-)self-intersection.
    block = 256
    for i0 in range(0, m, block):
        rows = pts[i0 : i0 + block]
        d = np.abs(rows[:, None] - pts[None, :])
        idx = np.arange(i0, i0 + len(rows))[:, None]
        jdx = np.arange(m)[None, :]
        cyc = np.abs(idx - jdx)
        cyc = np.minimum(cyc, m - cyc)
        d[cyc < sep] = np.inf
        if d.min() < floor:
            raise InvalidGeometryError(
                f"contour {contour.label!r} self-intersects at validation resolution"
            )


def _check_nesting(domain: DomainBoundary) -> None:
    contours = domain.contours
    if len(contours) < 2:
        return
    step = VALIDATION_GRID // 32
    try:
        for i, hole in enumerate(contours[1:], start=1):
            probes = _dense_points(hole)[::step]
            for j, other in enumerate(contours):
                if j == i:
                    continue
                if (_contour_distance(other, probes) <= boundary_tolerance(domain)).any():
                    raise InvalidGeometryError("contours touch at validation resolution")
                wind = _contour_windings(other, probes)
                if j == 0:
                    if not (wind == 1).all():
                        raise InvalidGeometryError(
                            f"hole contour {hole.label!r} is not inside the outer contour"
                        )
                elif not (wind == 0).all():
                    raise InvalidGeometryError(
                        f"hole contours {hole.label!r} and {other.label!r} are nested"
                    )
    except (BoundaryProximityError, NonconvergentWindingError) as exc:
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
    fixed = []
    for k, h in enumerate(holes):
        orient = -1
        fixed.append(Contour(h.point, h.tangent, orient, h.label or f"hole{k}"))
    out = Contour(outer.point, outer.tangent, 1, outer.label or "outer")
    return validate_domain(DomainBoundary((out,) + tuple(fixed)))


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
