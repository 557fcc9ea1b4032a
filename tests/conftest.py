import numpy as np
import pytest

import symprod as sp
from symprod.errors import InvalidGeometryError
from symprod.geometry import _check_simple, _dense_points, _dense_tangents


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
    m = len(pts)
    sep = 8
    block = 256
    for i0 in range(0, m, block):
        rows = pts[i0 : i0 + block]
        d = np.abs(rows[:, None] - pts[None, :])
        r = np.arange(len(rows))
        for off in range(1 - sep, sep):
            d[r, (r + i0 + off) % m] = np.inf
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
