import numpy as np
import pytest

import symprod as sp
from symprod.errors import BoundaryProximityError, InvalidGeometryError
from symprod.geometry import (
    _check_simple,
    _dense_points,
    _dense_tangents,
    _nearest_nodes,
    _project,
    _winding_grid,
)


@pytest.fixture(scope="session")
def unit_disc():
    return sp.disc(0, 1)


@pytest.fixture(scope="session")
def disc_grid(unit_disc):
    return sp.sample_boundary(unit_disc, 256)


@pytest.fixture(scope="session")
def annulus_domain():
    return sp.annulus(0, 0.3, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def check_simple_reference(contour) -> None:
    """All-pairs block scan over the validation samples: the brute-force
    reference for ``geometry._check_simple``, which must match its verdicts
    and messages."""
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
    block = 256
    for i0 in range(0, len(pts), block):
        rows = pts[i0 : i0 + block]
        d = np.abs(rows[:, None] - pts[None, :])
        gap = np.abs(arc[i0 : i0 + block, None] - arc[None, :])
        d[np.minimum(gap, perimeter - gap) < band] = np.inf
        if d.min() < floor:
            raise InvalidGeometryError(
                f"contour {contour.label!r} self-intersects at validation resolution"
            )


def _verdict(check, contour):
    try:
        check(contour)
    except InvalidGeometryError as exc:
        return str(exc)
    return None


@pytest.fixture(scope="session")
def simple_verdict():
    """The message ``_check_simple`` raises for a contour, or None when it
    accepts it, after asserting that the reference scan agrees."""
    def verdict(contour):
        got = _verdict(_check_simple, contour)
        assert got == _verdict(check_simple_reference, contour)
        return got
    return verdict


class OracleReference:
    """The boundary oracle without its screen and prunes: every point is
    projected onto every contour and gets every contour's winding sum.  The
    public queries must match it exactly."""

    @staticmethod
    def _contour(contour, w):
        """Distance from every point of w to one contour and the contour's
        orientation-signed winding about it: the rounded winding sum, or
        the tangent side at the projection within ``near`` of the curve."""
        grid = _winding_grid(contour)
        j, d = _nearest_nodes(grid, w)
        foot, tangent = _project(contour, grid, w, j)
        weights = (2 * np.pi / len(grid.nodes)) * grid.tangents
        with np.errstate(divide="ignore", invalid="ignore"):
            est = np.concatenate([
                (weights / (grid.nodes - w[k : k + 512, None])).sum(axis=1)
                for k in range(0, len(w), 512)
            ] or [np.zeros(0)]) / (2j * np.pi)
            side = grid.sense * (grid.sense * np.imag(np.conj(tangent) * (w - foot)) > 0)
            winding = np.where(d < grid.near, side, np.round(est.real)).astype(int)
        return np.abs(foot - w), contour.orientation * winding

    @classmethod
    def distance(cls, domain, w):
        return np.min([cls._contour(c, w)[0] for c in domain.contours], axis=0)

    @classmethod
    def labels(cls, domain, w):
        windings = np.stack([cls._contour(c, w)[1] for c in domain.contours], axis=1)
        outer = windings[:, 0]
        labels = np.where(outer == 1, 0, 1)
        for k in range(1, len(domain.contours)):
            labels[(outer == 1) & (windings[:, k] == -1)] = k + 1
        return labels

    @classmethod
    def mask(cls, domain, w, threshold):
        """distance > threshold, then label 0 among the points kept."""
        keep = cls.distance(domain, w) > threshold
        keep[keep] = cls.labels(domain, w[keep]) == 0
        return keep

    @classmethod
    def check(cls, domain, w, threshold):
        """Assert that the public queries equal the reference on w and
        return the reference distances."""
        tol = sp.geometry.boundary_tolerance(domain)
        dist = cls.distance(domain, w)
        assert np.array_equal(sp.distance_to_boundary(domain, w), dist, equal_nan=True)
        assert np.array_equal(sp.interior_mask(domain, w, threshold),
                              cls.mask(domain, w, max(threshold, tol)))
        clear = w[dist > tol]
        assert np.array_equal(sp.classify_points(domain, clear), cls.labels(domain, clear))
        for point in w[dist <= tol]:
            with pytest.raises(BoundaryProximityError):
                sp.classify_points(domain, point)
        return dist


@pytest.fixture(scope="session")
def oracle_reference():
    return OracleReference


def check_screen(contour) -> None:
    """Assert that one contour's screen is rigorous: every validation sample
    lies in the grid's ring ``[r_in, r_out]`` about ``center`` and in its
    ``box``, and an inner disc is kept only when the centre lies farther than
    ``near`` plus ``spacing`` from every node, with ``inside`` the winding of
    the centre on the validation grid."""
    grid = _winding_grid(contour)
    pts = _dense_points(contour)
    r = np.abs(pts - grid.center)
    assert (r >= grid.r_in).all() and (r <= grid.r_out).all()
    x0, x1, y0, y1 = grid.box
    assert ((x0 <= pts.real) & (pts.real <= x1) & (y0 <= pts.imag) & (pts.imag <= y1)).all()
    if grid.r_in > 0:
        assert np.abs(grid.nodes - grid.center).min() > grid.near + grid.spacing
        weights = (2 * np.pi / len(pts)) * _dense_tangents(contour)
        est = (weights / (pts - grid.center)).sum() / (2j * np.pi)
        assert grid.inside == round(est.real)


@pytest.fixture(scope="session")
def screen_holds():
    return check_screen
