import itertools
import math
import tracemalloc

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
    for n in (2, 3, 4, 8, 12):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if n <= 4:
            perms = [list(p) for p in itertools.permutations(range(n))]
        else:
            z[1] = z[0]   # a repeated root ties in the canonical order
            perms = [rng.permutation(n) for _ in range(24)]
        base = delta_metric_batch(z, w)
        assert (delta_metric_batch(z[perms], w) == base).all()
        assert (delta_metric_batch(z, w[perms]) == base).all()


def _delta_brute_force(z, w):
    """The quotient metric as the minimum over all n! permutations."""
    n = z.shape[-1]
    perms = np.array(list(itertools.permutations(range(n))))
    sq = np.abs(z[..., None, :] - w[..., perms]) ** 2
    return np.sqrt(sq.sum(axis=-1).min(axis=-1))


@pytest.mark.parametrize("n", range(1, 8))
def test_delta_metric_matches_brute_force(rng, n):
    def draw(scale=1.0):
        return scale * (rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n)))

    z, w = draw(), draw()
    coincident = z.copy()
    coincident[:, n // 2:] = z[:, :1]
    pairs = [(z, w), (z, z + draw(1e-9)), (coincident, w), (coincident, coincident + draw(1e-6))]
    for a, b in pairs:
        want = _delta_brute_force(a, b)
        assert (np.abs(delta_metric_batch(a, b) - want) <= 1e-15 * want).all()
    assert (delta_metric_batch(coincident, coincident[:, ::-1]) == 0.0).all()


def test_delta_metric_memory_is_linear_in_pairs(rng):
    # A permutation table would hold 1000 * 8! * 8 complex differences (5 GB);
    # the subset table holds 2^8 floats per pair.
    z = rng.standard_normal((1000, 8)) + 1j * rng.standard_normal((1000, 8))
    w = rng.standard_normal((1000, 8)) + 1j * rng.standard_normal((1000, 8))
    tracemalloc.start()
    try:
        delta_metric_batch(z, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_lojasiewicz_exponent_values():
    assert sp.lojasiewicz_exponent(1) == 1
    assert sp.lojasiewicz_exponent(2) == 2
    assert sp.lojasiewicz_exponent(3) == 6
    assert sp.lojasiewicz_exponent(4) == 36
    assert sp.lojasiewicz_exponent(5) == 180


def test_lojasiewicz_check_basics(unit_disc):
    rep = sp.lojasiewicz_check(unit_disc, 2, 400, seed=7)
    assert np.isfinite(rep.log10_c_max)
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


def census_reference(domain, n, samples, seed):
    """``signature_census`` with both of its distance filters computed as
    ``distance_to_boundary(...) > floor``, with no screen."""
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = sp.bounding_box(domain)
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    hx = sp.symmetric._CENSUS_BOX_MARGIN * (x1 - x0) / 2.0
    hy = sp.symmetric._CENSUS_BOX_MARGIN * (y1 - y0) / 2.0
    floor = 5e-3 * sp.domain_diameter(domain)
    counts, done = {}, 0
    while done < samples:
        draw = max(samples - done, 64)
        w = (cx + rng.uniform(-hx, hx, (draw, n))) + 1j * (cy + rng.uniform(-hy, hy, (draw, n)))
        w = w[(sp.distance_to_boundary(domain, w) > floor).all(axis=1)]
        if len(w) == 0:
            continue
        rts, _ = desymmetrize_batch(sp.symmetrize(w))
        rts = rts[(sp.distance_to_boundary(domain, rts) > floor).all(axis=1)]
        if len(rts) == 0:
            continue
        labels = sp.classify_points(domain, rts)
        take = min(len(rts), samples - done)
        for row in labels[:take]:
            sig = tuple(int(c) for c in np.bincount(row, minlength=domain.kappa))
            counts[sig] = counts.get(sig, 0) + 1
        done += take
    return counts


@pytest.mark.parametrize("descriptor, n", [
    ("disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4", 2),
    ("disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4", 3),
    ("annulus 0 0 0.3 1", 3),
])
def test_census_matches_the_unscreened_reference(descriptor, n):
    domain = sp.build_domain(descriptor)
    for seed in (0, 1):
        counts = sp.signature_census(domain, n, 1500, seed=seed)
        assert counts == census_reference(domain, n, 1500, seed)


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
    ident = sp.boundary_samples(grid, sp.CatalogFunction("identity", trace=lambda t, theta: t))
    z = np.array([3.0, 2.0])
    assert abs(sp.power_sum_transform(ident, 1, z) - 3.0) < 1e-10
    assert abs(sp.power_sum_transform(ident, 2, z) - 5.0) < 1e-10


def test_power_sum_transform_squared_function(disc_grid):
    sq = sp.boundary_samples(disc_grid, sp.CatalogFunction("t^2", trace=lambda t, theta: t**2))
    z = sp.symmetrize(np.array([0.1, 0.2]))
    got = sp.power_sum_transform(sq, 1, z)
    assert abs(got - 0.05) < 1e-12


def test_power_sum_matches_roots(disc_grid, rng):
    fun = catalog.monomial_phi(2)
    samples = sp.boundary_samples(disc_grid, fun)
    for n in (1, 2, 3):
        w = 0.6 * (rng.random(n) - 0.5) + 0.6j * (rng.random(n) - 0.5)
        z = sp.symmetrize(w)
        for ell in range(1, n + 1):
            got = sp.power_sum_transform(samples, ell, z)
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
    ident = sp.boundary_samples(disc_grid,
                                sp.CatalogFunction("identity", trace=lambda t, theta: t))
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
    sq = sp.boundary_samples(disc_grid, sp.CatalogFunction("t^2", trace=lambda t, theta: t**2))
    z = sp.symmetrize(np.array([0.1, 0.2]))
    got = sp.symmetric_power_map(sq, z)
    assert np.abs(got - np.array([0.05, 0.0004])).max() < 1e-12


def test_root_failure_is_diagnosed():
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        z = np.array([[3.0, 2.0, 1.0], [0.5, bad, 0.1]], dtype=complex)
        with pytest.raises(RootFindingError):
            desymmetrize_batch(z)
