import itertools
import math

import numpy as np
import pytest

import symprod as sp


def simplex_moment(exponents) -> float:
    """Exact monomial moment over A_d: prod(b_j!) / (|b| + d)!."""
    b = [int(bj) for bj in exponents]
    return math.prod(math.factorial(bj) for bj in b) / math.factorial(sum(b) + len(b))


# The periodic trapezoid rule is the sum of every contour transform.


def _ones(grid):
    return sp.boundary_samples(grid, sp.CatalogFunction("1", trace=lambda t, theta: np.ones_like(t)))


def test_periodic_trapezoid_cauchy_formula(disc_grid):
    # the contour integral of 1/t
    val = sp.cauchy_transform(_ones(disc_grid), 0.0)
    assert abs(val - 1.0) < 1e-12


def test_periodic_trapezoid_entire(disc_grid):
    # the contour integral of t, written as t^2 / (t - 0)
    sq = sp.boundary_samples(disc_grid, sp.CatalogFunction("t^2", trace=lambda t, theta: t**2))
    assert abs(sp.cauchy_transform(sq, 0.0)) < 1e-12


def test_periodic_trapezoid_derivative_kernel():
    # the contour integral of (t - 1/2)^-2 on 128 nodes
    grid = sp.sample_boundary(sp.disc(0, 1), 128)
    val = sp.derivative_symmetrized((1,), _ones(grid), np.array([0.5]))
    assert abs(val) < 1e-10


def test_gauss_legendre_order_one():
    x, w = sp.gauss_legendre(1)
    assert np.allclose(x, [0.5]) and np.allclose(w, [1.0])


def test_gauss_legendre_degree_exactness():
    x, w = sp.gauss_legendre(2)
    assert abs((w * x**2).sum() - 1.0 / 3.0) < 1e-15
    assert abs((w * x**3).sum() - 1.0 / 4.0) < 1e-15


def test_gauss_legendre_exp():
    x, w = sp.gauss_legendre(8)
    assert abs((w * np.exp(x)).sum() - (np.e - 1.0)) < 1e-12


def test_gauss_legendre_bounds():
    with pytest.raises(ValueError):
        sp.gauss_legendre(0)
    with pytest.raises(ValueError):
        sp.gauss_legendre(65)


def test_simplex_rule_invariants():
    for d in (1, 2, 3, 4):
        rule = sp.simplex_rule(d)
        assert (rule.nodes >= -1e-14).all()
        assert (rule.nodes.sum(axis=1) <= 1 + 1e-14).all()
        assert abs(rule.weights.sum() - 1.0 / math.factorial(d)) < 1e-12


def test_simplex_lengths_and_volumes():
    assert abs(sp.simplex_integrate(1, lambda x: np.ones(len(x))) - 1.0) < 1e-13
    assert abs(sp.simplex_integrate(2, lambda x: np.ones(len(x))) - 0.5) < 1e-13


def test_simplex_first_moment():
    assert abs(sp.simplex_integrate(2, lambda x: x[:, 0]) - 1.0 / 6.0) < 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_monomial_moments(d):
    exponents = [b for b in itertools.product(range(4), repeat=d) if sum(b) <= 6]
    for b in exponents:
        exact = simplex_moment(b)

        def mono(x, b=b):
            out = np.ones(len(x))
            for j, bj in enumerate(b):
                out = out * x[:, j] ** bj
            return out

        got = sp.simplex_integrate(d, mono)
        assert abs(got - exact) < 1e-10, (b, got, exact)


def test_trapezoid_spectral_convergence():
    # error on an analytic integrand at least halves as N doubles
    domain = sp.disc(0, 1)
    errors = []
    for n in (16, 32, 64, 128, 256):
        ones = _ones(sp.sample_boundary(domain, n))
        val = sp.norlund_transform(ones, np.array([0.5, 0.3]))
        # residues at 0.5 and 0.3 give 1/(0.5-0.3) + 1/(0.3-0.5) = 0
        errors.append(abs(val))
    for a, b in zip(errors, errors[1:]):
        assert b <= 0.5 * a + 1e-14
