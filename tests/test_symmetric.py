import itertools
import math

import numpy as np
import pytest

import symprod as sp
from symprod import catalog
from symprod.errors import RootFindingError
from symprod.symmetric import delta_metric_batch, desymmetrize_batch, power_sums


def test_symmetrize_examples():
    assert np.allclose(sp.symmetrize(np.array([1.0, 2.0])), [3.0, 2.0])
    w = 0.3 + 0.2j
    assert np.allclose(sp.symmetrize(np.array([w, w])), [2 * w, w * w])
    omega = np.exp(2j * np.pi / 3)
    z = sp.symmetrize(np.array([1.0, omega, omega**2]))
    assert np.abs(z - np.array([0.0, 0.0, 1.0])).max() < 1e-14


def test_symmetrize_permutation_invariance(rng):
    for n in (2, 3, 5, 7):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base = sp.symmetrize(w)
        scale = 1.0 + np.abs(base).max()
        for perm in (rng.permutation(n) for _ in range(6)):
            diff = np.abs(sp.symmetrize(w[perm]) - base).max()
            assert diff <= 1e-13 * scale


def test_desymmetrize_examples():
    rm = sp.desymmetrize(np.array([3.0, 2.0]))
    assert np.allclose(rm.roots, [1.0, 2.0])
    rm = sp.desymmetrize(np.array([0.0, 0.0, 1.0]))
    assert abs(sorted(np.abs(rm.roots))[0] - 1.0) < 1e-10
    assert abs(rm.roots.prod() - 1.0) < 1e-10


def test_desymmetrize_double_root():
    w = 0.4 + 0.1j
    rm = sp.desymmetrize(np.array([2 * w, w * w]))
    assert np.abs(rm.roots - w).max() < 1e-5
    assert rm.residual <= 1e-6 * (1 + abs(w))


def test_roundtrip_identity(rng):
    for n in range(1, 13):
        w = rng.uniform(-1, 1, (1000 // n, n)) + 1j * rng.uniform(-1, 1, (1000 // n, n))
        roots, _ = desymmetrize_batch(sp.symmetrize(w))
        # Roots come back in numpy's complex sort order, (real, imag), so
        # sorting w pairs each root with its source entry, multiplicities
        # included; a near-tie in real parts could only make this fail.
        assert np.abs(np.sort(w, axis=-1) - roots).max() <= 1e-8


def test_arity_cap():
    with pytest.raises(ValueError):
        sp.desymmetrize(np.zeros(13))


def test_diagonal_pullback_transform(disc_grid):
    sq = sp.boundary_samples(disc_grid, catalog.monomial_phi(2))
    # the multi-node transform on the diagonal (0.3, 0.3) is the contour
    # form of the derivative of z^2 at 0.3
    assert abs(sp.norlund_transform(sq, [0.3, 0.3]) - 0.6) < 1e-12


def test_delta_metric_examples():
    got = delta_metric_batch([[1, 2j], [0, 0], [0, 1]], [[2j, 1], [1, 1], [0.1, 1.2]])
    assert got[0] == 0.0
    assert abs(got[1] - math.sqrt(2)) < 1e-15
    assert abs(got[2] - math.sqrt(0.05)) < 1e-15


def test_delta_metric_group_invariance_exact(rng):
    for n in (2, 3, 4):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        perms = [list(p) for p in itertools.permutations(range(n))]
        base = delta_metric_batch(z, w)
        assert (delta_metric_batch(z[perms], w) == base).all()
        assert (delta_metric_batch(z, w[perms]) == base).all()


def test_delta_metric_arity_cap():
    with pytest.raises(ValueError):
        delta_metric_batch(np.zeros(9), np.zeros(9))


def test_lojasiewicz_exponent_values():
    assert sp.lojasiewicz_exponent(1) == 1
    assert sp.lojasiewicz_exponent(2) == 2
    assert sp.lojasiewicz_exponent(3) == 6
    assert sp.lojasiewicz_exponent(4) == 36
    assert sp.lojasiewicz_exponent(5) == 180


def test_lojasiewicz_check_basics(unit_disc):
    rep = sp.lojasiewicz_check(unit_disc, 2, 400, seed=7)
    assert rep.violations_at_c_max == 0
    assert rep.c_max > 0
    assert rep.pairs_used > 300
    with pytest.raises(ValueError):
        sp.lojasiewicz_check(unit_disc, 2, 50)


def test_lojasiewicz_arity_one(unit_disc, rng):
    # coefficients equal coordinates, so every ratio is exactly 1
    z = rng.uniform(-0.5, 0.5, (50, 1)) + 1j * rng.uniform(-0.5, 0.5, (50, 1))
    w = rng.uniform(-0.5, 0.5, (50, 1)) + 1j * rng.uniform(-0.5, 0.5, (50, 1))
    delta = delta_metric_batch(z, w)
    pi_dist = np.linalg.norm(sp.symmetrize(z) - sp.symmetrize(w), axis=-1)
    ratios = delta ** sp.lojasiewicz_exponent(1) / pi_dist
    assert np.abs(ratios - 1.0).max() < 1e-12


def test_complete_symmetric_values():
    assert sp.complete_symmetric(0, 3, [5, 6, 7]) == 1.0
    assert sp.complete_symmetric(-2, 3, [5, 6, 7]) == 0.0
    assert abs(sp.complete_symmetric(1, 2, [1.0, 2.0]) - 3.0) < 1e-15
    assert abs(sp.complete_symmetric(2, 2, [1.0, 2.0]) - 7.0) < 1e-15


def test_complete_symmetric_enumeration(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for p in range(5):
        brute = sum(
            z[0] ** a * z[1] ** b * z[2] ** c
            for a in range(p + 1)
            for b in range(p + 1)
            for c in range(p + 1)
            if a + b + c == p
        )
        assert abs(sp.complete_symmetric(p, 3, z) - brute) < 1e-12


def test_classify_symmetric_point(unit_disc):
    # the component signature as signature_census computes it: roots of the
    # coefficient tuple, their region labels, and the count per region
    z = sp.symmetrize(np.array([[0.1, 0.2], [0.5, 3.0]]))
    rts, _ = desymmetrize_batch(z)
    counts = [np.bincount(row, minlength=unit_disc.kappa) for row in sp.classify_points(unit_disc, rts)]
    assert [tuple(c) for c in counts] == [(2, 0), (1, 1)]


def test_census_disc_n2(unit_disc):
    counts = sp.signature_census(unit_disc, 2, 3000, seed=3)
    assert set(counts) == {(2, 0), (1, 1), (0, 2)}
    assert sum(counts.values()) == 3000


def test_newton_map_examples():
    assert np.allclose(sp.newton_map(np.array([3.0, 5.0])), [3.0, 2.0])
    assert np.allclose(sp.newton_map(np.zeros(4)), np.zeros(4))
    got = sp.newton_map(np.array([0.0, 0.0, 3.0]))
    assert np.abs(got - np.array([0.0, 0.0, 1.0])).max() < 1e-14


def test_newton_map_consistency(rng):
    for n in range(1, 9):
        w = rng.uniform(-1, 1, (200, n)) + 1j * rng.uniform(-1, 1, (200, n))
        direct = sp.symmetrize(w)
        via_newton = sp.newton_map(power_sums(w))
        scale = 1.0 + np.abs(direct).max(axis=-1, keepdims=True)
        assert (np.abs(via_newton - direct) / scale).max() <= 1e-11


def test_power_sum_transform_residues():
    big = sp.disc(0, 4)
    grid = sp.sample_boundary(big, 256)
    ident = sp.boundary_samples(grid, lambda t, theta: t, "identity")
    z = np.array([3.0, 2.0])
    assert abs(sp.power_sum_transform(ident, 1, z) - 3.0) < 1e-10
    assert abs(sp.power_sum_transform(ident, 2, z) - 5.0) < 1e-10


def test_power_sum_transform_squared_function(disc_grid):
    sq = sp.boundary_samples(disc_grid, lambda t, theta: t**2, "t^2")
    z = sp.symmetrize(np.array([0.1, 0.2]))
    got = sp.power_sum_transform(sq, 1, z)
    assert abs(got - 0.05) < 1e-12


def test_power_sum_matches_roots(disc_grid, rng):
    fun = catalog.monomial_function(2)
    samples = sp.boundary_samples(disc_grid, lambda t, theta: fun(t), fun.label)
    for n in (1, 2, 3):
        w = 0.6 * (rng.random(n) - 0.5) + 0.6j * (rng.random(n) - 0.5)
        z = sp.symmetrize(w)
        for ell in range(1, n + 1):
            got = sp.power_sum_transform(samples, ell, z, check_region=False)
            ref = (fun(w) ** ell).sum()
            assert abs(got - ref) <= 1e-9
        # a (2, 4, n) batch gives the row-by-row values in the leading shape
        wb = 0.6 * (rng.random((2, 4, n)) - 0.5) + 0.6j * (rng.random((2, 4, n)) - 0.5)
        zb = sp.symmetrize(wb)
        for ell in range(1, n + 1):
            got = sp.power_sum_transform(samples, ell, zb)
            rows = [sp.power_sum_transform(samples, ell, row) for row in zb.reshape(-1, n)]
            assert got.shape == (2, 4)
            assert np.abs(got.reshape(-1) - rows).max() <= 1e-14


def test_symmetric_power_map_identity(disc_grid, rng):
    ident = sp.boundary_samples(disc_grid, lambda t, theta: t, "identity")
    w = 0.7 * (rng.random(3) - 0.5) + 0.7j * (rng.random(3) - 0.5)
    z = sp.symmetrize(w)
    got = sp.symmetric_power_map(ident, z)
    assert np.abs(got - z).max() < 1e-10
    zb = sp.symmetrize(0.7 * (rng.random((2, 4, 3)) - 0.5) + 0.7j * (rng.random((2, 4, 3)) - 0.5))
    got = sp.symmetric_power_map(ident, zb)
    rows = [sp.symmetric_power_map(ident, row) for row in zb.reshape(-1, 3)]
    assert got.shape == zb.shape
    assert np.abs(got.reshape(-1, 3) - rows).max() <= 1e-14


def test_symmetric_power_map_square(disc_grid):
    sq = sp.boundary_samples(disc_grid, lambda t, theta: t**2, "t^2")
    z = sp.symmetrize(np.array([0.1, 0.2]))
    got = sp.symmetric_power_map(sq, z)
    assert np.abs(got - np.array([0.05, 0.0004])).max() < 1e-12


def test_root_failure_is_diagnosed():
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        z = np.array([[3.0, 2.0, 1.0], [0.5, bad, 0.1]], dtype=complex)
        with pytest.raises(RootFindingError):
            desymmetrize_batch(z)
