"""Property tests of the boundary oracle against closed-form distances."""

import numpy as np
import pytest

import symprod as sp

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
