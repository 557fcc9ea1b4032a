from itertools import permutations

import numpy as np
import pytest

import symprod as sp
from symprod import catalog
from symprod.divdiff import divdiff_table
from symprod.errors import CoincidentNodesError


def test_square_two_nodes():
    f = catalog.monomial_phi(2)
    assert abs(sp.divdiff_recursive(f, [0, 2]) - 2.0) < 1e-14


def test_cube_three_nodes():
    f = catalog.monomial_phi(3)
    # equals the degree-1 complete symmetric polynomial of the nodes
    assert abs(sp.divdiff_recursive(f, [0, 1, 2]) - 3.0) < 1e-14


def test_pole_two_nodes():
    f = catalog.pole_phi(3.0)
    got = sp.divdiff_recursive(f, [0, 0.5])
    assert abs(got - (-1.0 / 7.5)) < 1e-14


def test_coincident_nodes_rejected():
    f = catalog.exp_function()
    with pytest.raises(CoincidentNodesError):
        sp.divdiff_recursive(f, [0.5, 0.5 + 1e-12, 1.0])


def test_table_matches_recursive(rng):
    f = catalog.exp_function()
    z = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
    vals = f(z)
    assert divdiff_table(vals, z) == sp.divdiff_recursive(f, z)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_table_rows_match_single_tables(rng, m):
    f = catalog.exp_function()
    z = rng.uniform(-0.5, 0.5, (6, m)) + 1j * rng.uniform(-0.5, 0.5, (6, m))
    got = divdiff_table(f(z), z)
    assert got.shape == (6,)
    for row, value in zip(z, got):
        single = divdiff_table(f(row), row)
        assert isinstance(single, complex) and single == value


def test_table_refuses_a_coincident_row(rng):
    z = rng.uniform(-0.5, 0.5, (3, 3)) + 0j
    z[1, 2] = z[1, 0] + 1e-12
    with pytest.raises(CoincidentNodesError):
        divdiff_table(np.ones_like(z), z)
    with pytest.raises(ValueError):
        divdiff_table(np.ones((3, 2)), z)


def test_gh_linear_case():
    f = catalog.monomial_phi(2)
    got = sp.divdiff_gh(f.derivative(1), [0, 2])
    assert abs(got - 2.0) < 1e-13


def test_gh_confluent():
    f = catalog.exp_function()
    got = sp.divdiff_gh(f.derivative(2), [0, 0, 0])
    assert abs(got - 0.5) < 1e-13


def test_gh_matches_recursive_exp():
    f = catalog.exp_function()
    nodes = [0.0, 0.5, 1.0]
    a = sp.divdiff_analytic(f, nodes)
    b = sp.divdiff_recursive(f, nodes)
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("fun", [
    catalog.exp_function(),
    catalog.monomial_phi(2),
    catalog.monomial_phi(4),
    catalog.monomial_phi(6),
    catalog.pole_phi(3.0),
    catalog.pole_phi(1.5 - 0.5j, 2),
])
def test_cross_representation(fun, rng):
    for m in (2, 3, 4, 5):
        for _ in range(10):
            z = rng.uniform(-0.6, 0.6, m) + 1j * rng.uniform(-0.6, 0.6, m)
            d = np.abs(z[:, None] - z[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() < 0.1:
                continue
            a = sp.divdiff_analytic(fun, z)
            b = sp.divdiff_recursive(fun, z)
            assert abs(a - b) < 1e-9


def test_analytic_refuses_missing_derivative():
    plain = catalog.CatalogFunction("exp-no-deriv", np.exp)
    with pytest.raises(ValueError, match="no analytic derivative"):
        sp.divdiff_analytic(plain, [0.1, 0.3, 0.5])


def test_confluent_limit():
    f = catalog.exp_function()
    spreads = [1e-2, 1e-3, 1e-4]
    target = np.exp(0.3) / 6.0  # f'''(0.3)/3!
    errs = []
    for s in spreads:
        # offsets with zero mean collapse onto 0.3 at second order
        nodes = [0.3 + s, 0.3 - s, 0.3 + 1j * s, 0.3 - 1j * s]
        errs.append(abs(sp.divdiff_analytic(f, nodes) - target))
    assert errs[0] > errs[-1]
    assert errs[-1] <= 1e-8


def _permutation_change(f, nodes):
    """Largest change of the Newton-table divided difference over all
    reorderings of the nodes."""
    z = np.asarray(nodes, dtype=complex)
    base = sp.divdiff_recursive(f, z)
    return max(abs(sp.divdiff_recursive(f, z[list(p)]) - base) for p in permutations(range(len(z))))


def test_symmetry_all_permutations():
    f = catalog.monomial_phi(3)
    assert _permutation_change(f, [0, 1, 2]) <= 1e-12


def test_symmetry_two_nodes():
    f = catalog.exp_function()
    assert _permutation_change(f, [0.2, 0.7]) <= 1e-14


def test_symmetry_pole_complex_nodes():
    f = catalog.pole_phi(3.0)
    assert _permutation_change(f, [0, 0.4, 0.8j]) <= 1e-12


def test_symmetry_random_catalog(rng):
    funs = [catalog.exp_function(), catalog.monomial_phi(4), catalog.pole_phi(3.0)]
    for fun in funs:
        for _ in range(30):
            m = rng.integers(2, 6)
            z = rng.uniform(-0.6, 0.6, m) + 1j * rng.uniform(-0.6, 0.6, m)
            d = np.abs(z[:, None] - z[None, :])
            spread = d.max()
            np.fill_diagonal(d, np.inf)
            if d.min() < 0.05 * spread:
                continue
            assert _permutation_change(fun, z) <= 1e-10


MPMATH_CASES = [
    (catalog.exp_function(), lambda mp, x: mp.exp(x)),
    (catalog.monomial_phi(6), lambda mp, x: x**6),
    (catalog.pole_phi(3.0), lambda mp, x: 1 / (x - 3)),
]


@pytest.mark.parametrize("fun, mp_fun", MPMATH_CASES, ids=["exp", "z^6", "pole"])
@pytest.mark.parametrize("z, w", [(0.3 + 0.2j, 0.55 + 0.1j), (-0.4 + 0.1j, -0.1 - 0.35j)])
def test_coincident_nodes_match_mpmath(fun, mp_fun, z, w):
    # The simplex route at coincident nodes against 30-digit references:
    # f^(k)(z)/k! for k+1 equal nodes, and (f[z, w] - f'(z))/(w - z) for
    # the nodes (z, z, w).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        zm, wm = mpmath.mpc(z), mpmath.mpc(w)

        def f(x):
            return mp_fun(mpmath, x)

        refs = [((z,) * (k + 1), mpmath.diff(f, zm, k) / mpmath.factorial(k)) for k in range(1, 5)]
        slope = (f(wm) - f(zm)) / (wm - zm)
        refs.append(((z, z, w), (slope - mpmath.diff(f, zm, 1)) / (wm - zm)))
        for nodes, ref in refs:
            ref = complex(ref)
            got = sp.divdiff_analytic(fun, nodes)
            assert abs(got - ref) <= 1e-13 * abs(ref), (nodes, got, ref)
