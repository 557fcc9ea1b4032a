import math

import numpy as np
import pytest

import symprod as sp
from symprod import catalog
from symprod.errors import ConfigError

PHI_DESCRIPTORS = ["monomial 0", "monomial 3", "pole 3 0 1", "pole 0.5 -2 3", "conj",
                   "weierstrass 0.5 12", "weierstrass 1 0"]
MAP_DESCRIPTORS = ["monomial 1", "monomial 2", "blaschke 0.5", "blaschke 0.5 -0.3"]


@pytest.mark.parametrize("role, text", [("phi", t) for t in PHI_DESCRIPTORS]
                         + [("proper-map", t) for t in MAP_DESCRIPTORS])
def test_label_is_the_canonical_descriptor(role, text):
    assert catalog.parse_function(text, role).label == text


def test_short_forms_parse_to_their_canonical_descriptor():
    assert catalog.parse_function("weierstrass 0.5", "phi").label == "weierstrass 0.5 12"
    assert catalog.parse_function("identity", "proper-map").label == "monomial 1"
    assert catalog.parse_function("pole 3.0 0.0 1", "phi").label == "pole 3 0 1"


@pytest.mark.parametrize("role, text", [
    ("phi", "pole inf 0 1"), ("phi", "pole 3 nan 1"), ("phi", "pole 1e999 0 1"),
    ("phi", "weierstrass nan"), ("proper-map", "blaschke 0.5 -inf"),
    # Each role takes its own kinds only, and maps are not constant.
    ("phi", "blaschke 0.5"), ("phi", "identity"), ("proper-map", "conj"),
    ("proper-map", "monomial 0"),
    ("phi", "monomial 2.5"), ("phi", "pole 3 0"), ("phi", "conj 1"), ("proper-map", "blaschke"),
    ("phi", ""),
])
def test_refused_descriptors(role, text):
    with pytest.raises(ConfigError):
        catalog.parse_function(text, role)


def test_pole_derivatives_of_higher_order():
    # d^k/dz^k (z - a)^(-2) = (-1)^k (k+1)! (z - a)^(-2-k)
    f = catalog.pole_phi(0.5j, 2)
    z = np.array([0.3, -1.0 + 2.0j])
    for k in range(5):
        expected = (-1) ** k * math.factorial(k + 1) * (z - 0.5j) ** (-2 - k)
        assert np.allclose(f.derivative(k)(z), expected, rtol=1e-14, atol=0)


def test_boundary_values_use_the_trace_where_there_is_one():
    grid = sp.sample_boundary(sp.disc(0, 2), 16)
    assert np.array_equal(catalog.monomial_phi(2).boundary(grid.nodes, grid.thetas),
                          grid.nodes**2)
    assert np.array_equal(catalog.conj_phi().boundary(grid.nodes, grid.thetas),
                          np.conj(grid.nodes))
    assert catalog.conj_phi().fun is None and catalog.conj_phi().derivative(1) is None
