"""Property tests of the boundary oracle against closed-form distances."""

import numpy as np
import pytest

import symprod as sp
from symprod.errors import InvalidGeometryError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_DOMAINS = {(1.0,): sp.disc(0.2, 1.0), (1.0, 0.3): sp.annulus(0.2, 0.3, 1.0)}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    radii=st.sampled_from(sorted(_DOMAINS)),
    r=st.floats(min_value=0.0, max_value=3.0),
    angle=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_distance_is_the_closed_form(radii, r, angle):
    domain = _DOMAINS[radii]
    w = 0.2 + r * np.exp(1j * angle)
    exact = min(abs(abs(w - 0.2) - rho) for rho in radii)
    got = float(sp.distance_to_boundary(domain, w))
    assert abs(got - exact) <= 1e-10 * sp.domain_diameter(domain)


_ORDERS = (-3, -2, -1, 0, 2, 3)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    size=st.floats(min_value=0.0, max_value=0.25),
    coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=12, max_size=12),
)
def test_check_simple_matches_reference_on_fourier_curves(size, coeffs, simple_verdict):
    # e^{it} plus low-order Fourier terms: simple below a size of about 0.1,
    # looped or pinched above 0.2.
    c = size * (np.array(coeffs[:6]) + 1j * np.array(coeffs[6:]))
    k = np.array(_ORDERS)

    def point(t):
        t = np.asarray(t)[..., None]
        return np.exp(1j * t[..., 0]) + (c * np.exp(1j * k * t)).sum(axis=-1)

    def tangent(t):
        t = np.asarray(t)[..., None]
        return 1j * np.exp(1j * t[..., 0]) + (1j * k * c * np.exp(1j * k * t)).sum(axis=-1)

    simple_verdict(sp.geometry.Contour(point, tangent))


_README = {d: sp.build_domain(d) for d in (
    "disc 0 0 1",
    "ellipse 0 0 1.1 0.9",
    "star 1 0.25 2",
    "annulus 0 0 0.3 1",
    "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4",
)}


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    descriptor=st.sampled_from(sorted(_README)),
    factor=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.floats(min_value=1e-4, max_value=0.3),
)
def test_oracle_matches_the_unscreened_reference(descriptor, factor, seed, spread,
                                                 oracle_reference):
    # Points scattered about random boundary points, as far out as ``spread``
    # diameters, at a random threshold.
    domain = _README[descriptor]
    diam = sp.domain_diameter(domain)
    rng = np.random.default_rng(seed)
    contour = domain.contours[rng.integers(len(domain.contours))]
    base = contour.point(rng.uniform(0.0, 2 * np.pi, 64))
    w = base + spread * diam * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    oracle_reference.check(domain, w, factor * diam)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    center=st.complex_numbers(max_magnitude=5.0),
    a=st.floats(min_value=0.05, max_value=3.0),
    b=st.floats(min_value=0.05, max_value=3.0),
)
def test_screen_holds_on_ellipses(center, a, b, screen_holds):
    screen_holds(sp.geometry.ellipse_contour(center, a, b))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    radius=st.floats(min_value=0.05, max_value=3.0),
    ripple=st.floats(min_value=0.0, max_value=0.6),
    arms=st.integers(min_value=1, max_value=12),
)
def test_screen_holds_on_stars(radius, ripple, arms, screen_holds):
    try:
        contour = sp.geometry.star_contour(radius, ripple, arms)
    except InvalidGeometryError:
        hypothesis.reject()
    screen_holds(contour)
