import warnings

import numpy as np
import pytest

import symprod as sp
from symprod import catalog, cauchy, suites, symmetric
from symprod.cauchy import _kernel_integral
from symprod.errors import (
    BoundaryProximityError,
    DegenerateTruncationError,
    KernelProximityError,
    NonFiniteDataError,
    WrongRegionError,
)


@pytest.fixture(scope="module")
def grids():
    domain = sp.disc(0, 1)
    grid = sp.sample_boundary(domain, 256)
    return domain, grid


def phi_samples(grid, phi):
    return sp.boundary_samples(grid, phi)


def test_boundary_samples_length_checked(grids):
    _, grid = grids
    with pytest.raises(ValueError):
        sp.BoundarySamples(grid=grid, values=np.zeros(3, dtype=complex))


def test_boundary_samples_refuse_non_finite_data():
    # A grid node of this ellipse sits exactly on the pole at 3.  The
    # evaluation's division warning is silenced (tier-1 turns RuntimeWarning
    # into an error) and the refusal names the data.
    grid = sp.sample_boundary(sp.build_domain("ellipse 0 0 3 2"), 256)
    with pytest.raises(NonFiniteDataError, match="pole 3 0 1"):
        sp.boundary_samples(grid, catalog.pole_phi(3.0))
    with pytest.raises(NonFiniteDataError):
        sp.boundary_samples(grid, sp.CatalogFunction(
            "exp(1e3 Re t)", trace=lambda t, theta: np.exp(1e3 * t.real)))
    assert np.isfinite(sp.boundary_samples(grid, catalog.pole_phi(4.0)).values).all()


# A generic transform: kernel values given as data, summed by the transform core.


def test_generic_transform_cauchy_kernel(grids):
    _, grid = grids
    ones = phi_samples(grid, catalog.monomial_phi(0))
    val = _kernel_integral(ones, grid.nodes - 0.0, 1)
    assert abs(val - 1.0) < 1e-12


def test_generic_transform_two_node_kernel(grids):
    _, grid = grids
    ones = phi_samples(grid, catalog.monomial_phi(0))
    val = _kernel_integral(ones, (grid.nodes - 0.0) * (grid.nodes - 0.5), 2)
    # residues 1/(z1-z2) + 1/(z2-z1) cancel
    assert abs(val) < 1e-12


def test_generic_transform_pole_data(grids):
    _, grid = grids
    inv = phi_samples(grid, catalog.pole_phi(0.0))  # phi(t) = 1/t
    val = _kernel_integral(inv, grid.nodes - 0.5, 1)
    assert abs(val) < 1e-12


def test_cauchy_transform_reproduces_cube(grids):
    _, grid = grids
    cube = phi_samples(grid, catalog.monomial_phi(3))
    assert abs(sp.cauchy_transform(cube, 0.2) - 0.008) < 1e-12


def test_cauchy_transform_pole(grids):
    _, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    assert abs(sp.cauchy_transform(pole, 0.1) - 1.0 / (0.1 - 3.0)) < 1e-12


def test_cauchy_transform_conj_trace(grids):
    _, grid = grids
    conj = phi_samples(grid, catalog.conj_phi())
    assert abs(sp.cauchy_transform(conj, 0.5)) < 1e-12


def test_cauchy_transform_rejects_exterior(grids):
    _, grid = grids
    cube = phi_samples(grid, catalog.monomial_phi(3))
    with pytest.raises(WrongRegionError):
        sp.cauchy_transform(cube, 2.0)
    with pytest.raises(BoundaryProximityError):
        sp.cauchy_transform(cube, 1.0 - 1e-9)


def test_norlund_reduces_to_cauchy(grids):
    _, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    a = sp.norlund_transform(pole, np.array([0.3 + 0.1j]))
    b = sp.cauchy_transform(pole, 0.3 + 0.1j)
    assert abs(a - b) < 1e-14


def test_norlund_square_data(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    assert abs(sp.norlund_transform(sq, np.array([0.1, 0.2])) - 0.3) < 1e-12


def test_norlund_pole_data(grids):
    _, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    got = sp.norlund_transform(pole, np.array([0.0, 0.5]))
    assert abs(got - (-1.0 / 7.5)) < 1e-12


def test_norlund_permutation_invariance_exact(grids, rng):
    _, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    for n in (2, 3, 4):
        w = 0.4 * (rng.random(n) - 0.5) + 0.4j * (rng.random(n) - 0.5)
        base = sp.norlund_transform(pole, w)
        for _ in range(4):
            perm = rng.permutation(n)
            assert sp.norlund_transform(pole, w[perm]) == base


def test_symmetrized_matches_norlund(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    z = sp.symmetrize(np.array([0.1, 0.2]))
    assert np.allclose(z, [0.3, 0.02])
    assert abs(sp.symmetrized_transform(sq, z) - 0.3) < 1e-12


def test_symmetrized_pole(grids):
    _, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    z = sp.symmetrize(np.array([0.0, 0.5]))
    assert np.allclose(z, [0.5, 0.0])
    assert abs(sp.symmetrized_transform(pole, z) - (-1.0 / 7.5)) < 1e-12


def test_symmetrized_rejects_outside_roots(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    z = sp.symmetrize(np.array([0.5, 3.0]))
    with pytest.raises((WrongRegionError, KernelProximityError)):
        sp.symmetrized_transform(sq, z)


def test_factorization_identity_batch(grids, rng):
    domain, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    for n in (1, 2, 3):
        w = 0.8 * (rng.random((200, n)) - 0.5) + 0.8j * (rng.random((200, n)) - 0.5)
        z = sp.symmetrize(w)
        lhs = sp.symmetrized_transform(pole, z)
        rhs = sp.norlund_transform(pole, w)
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_derivative_zeroth_order(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    z = sp.symmetrize(np.array([0.1, 0.2]))
    a = sp.derivative_symmetrized((0, 0), sq, z)
    b = sp.symmetrized_transform(sq, z)
    assert abs(a - b) < 1e-14


def test_derivative_classical(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    got = sp.derivative_symmetrized((1,), sq, np.array([0.3]))
    assert abs(got - 0.6) < 1e-12


def test_derivative_matches_finite_difference(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    z = sp.symmetrize(np.array([0.1, 0.2]))
    got = sp.derivative_symmetrized((1, 0), sq, z)
    h = 1e-4
    e1 = np.array([h, 0.0])
    fd = (sp.symmetrized_transform(sq, z + e1) - sp.symmetrized_transform(sq, z - e1)) / (2 * h)
    assert abs(got - fd) <= 1e-6


def test_truncated_pv_chi_one_bounded(grids):
    _, grid8 = sp.disc(0, 1), sp.sample_boundary(sp.disc(0, 1), 8192)
    w = sp.boundary_samples(grid8, catalog.weierstrass_phi(0.5))
    t0 = grid8.nodes[100]
    mags = [abs(sp.truncated_pv(w, [t0], 2.0**-k)) for k in range(3, 9)]
    assert max(mags) < 10 * (min(mags) + 1.0)


def test_truncated_pv_requires_boundary_points(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    with pytest.raises(BoundaryProximityError):
        sp.truncated_pv(sq, [0.5], 0.1)


def test_truncated_pv_degenerate(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    # balls around the 8th roots of unity at this radius cover the circle
    eighth_roots = grid.nodes[::32]
    with pytest.raises(DegenerateTruncationError):
        sp.truncated_pv(sq, eighth_roots, 0.45)


def test_truncated_pv_radius_validation(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    with pytest.raises(DegenerateTruncationError):
        sp.truncated_pv(sq, [grid.nodes[0]], 0.9)


def test_kernel_floor_rejection(grids):
    _, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    # A root 5e-5 from the circle passes the region check, and the kernel
    # floor refuses it: kernel minimum about 4.5e-5 against a floor of 4e-4.
    z = sp.symmetrize(np.array([0.99995, 0.1]))
    with pytest.raises(KernelProximityError):
        sp.symmetrized_transform(sq, z)
    # the Cauchy kernel has the same floor (degree 1): 1e-4 from the circle
    # its quadrature error would be about 40
    with pytest.raises(KernelProximityError):
        sp.cauchy_transform(sq, 1.0 - 1e-4)



def test_kernel_floor_beyond_the_float_range():
    # On a disc of radius R = 10^25.5 the arity-12 floor 1e-4 * (2R)^12 is
    # about 0.41 R^12, but (2R)^12 itself leaves the float range.  Nodes
    # near the centre (kernel about R^12) are evaluated, and nodes with one
    # 1e-3 R from the circle (kernel about 1e-3 R^12) are refused.
    radius = 10**25.5
    samples = phi_samples(sp.sample_boundary(sp.disc(0, radius), 256), catalog.monomial_phi(11))
    ring = np.exp(2j * np.pi * np.arange(12) / 12)
    # The divided difference of t^11 at 12 nodes is 1.
    assert abs(sp.norlund_transform(samples, 0.02 * radius * ring) - 1) < 1e-12
    with pytest.raises(KernelProximityError, match="below floor"):
        sp.norlund_transform(samples, np.append(0.999 * radius, 0.02 * radius * ring[1:]))


def test_non_finite_kernel_sums_are_refused():
    # On a disc of radius 1e36, t^8 times the weights leaves the float range,
    # so the sum is not finite.  It is refused without a RuntimeWarning
    # (tier-1 turns one into an error).
    samples = phi_samples(sp.sample_boundary(sp.disc(0, 1e36), 256), catalog.monomial_phi(8))
    with pytest.raises(NonFiniteDataError, match="sum"):
        sp.cauchy_transform(samples, np.array([0.0, 1e35, 3e35j]))


def test_non_finite_kernel_values_are_refused(grids):
    _, grid = grids
    samples = phi_samples(grid, catalog.monomial_phi(2))
    kern = grid.nodes - 0.5
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFiniteDataError, match="kernel values"):
            _kernel_integral(samples, np.where(np.arange(len(kern)) == 3, bad, kern), 1)


def test_certified_set_is_checked_again_on_another_domain(grids, annulus_domain):
    disc, grid = grids
    ring = phi_samples(sp.sample_boundary(annulus_domain, 256), catalog.monomial_phi(2))
    # 0.1 lies inside the disc and in the annulus's hole.
    points = cauchy._require_inside(disc, [0.1, 0.6])
    assert cauchy._require_inside(disc, points) is points
    with pytest.raises(WrongRegionError):
        sp.cauchy_transform(ring, points)
    with pytest.raises(WrongRegionError):
        sp.norlund_transform(ring, points)
    z = cauchy._require_roots_inside(disc, sp.symmetrize(np.array([0.1, 0.6])))
    assert cauchy._require_roots_inside(disc, z) is z
    with pytest.raises(WrongRegionError):
        sp.symmetrized_transform(ring, z)
    with pytest.raises(WrongRegionError):
        sp.power_sum_transform(ring, 1, z)
    # The same sets on their own domain pass as they are.
    sq = phi_samples(grid, catalog.monomial_phi(2))
    assert (sp.cauchy_transform(sq, points) == sp.cauchy_transform(sq, [0.1, 0.6])).all()
    assert sp.symmetrized_transform(sq, z) == sp.symmetrized_transform(sq, z.points)


def test_point_set_gets_its_roots_found_and_checked(grids, monkeypatch):
    disc, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    # Coefficients (0.7, -0.78) lie in the disc; their roots are -0.6 and 1.3.
    z = sp.symmetrize(np.array([-0.6, 1.3]))
    points = cauchy._require_inside(disc, z)
    assert points.roots is None
    calls = []
    find = symmetric.desymmetrize_batch
    monkeypatch.setattr(symmetric, "desymmetrize_batch", lambda zz: calls.append(zz) or find(zz))
    with pytest.raises(WrongRegionError):
        sp.symmetrized_transform(sq, points)
    with pytest.raises(WrongRegionError):
        sp.derivative_symmetrized((1, 0), sq, points)
    with pytest.raises(WrongRegionError):
        sp.symmetric_power_map(sq, points)
    assert len(calls) == 3


def test_certified_rows_keep_their_roots(unit_disc, rng):
    w = 0.5 * (rng.random((8, 5)) - 0.5) + 0.5j * (rng.random((8, 5)) - 0.5)
    z = sp.symmetrize(w)
    inside = cauchy._require_roots_inside(unit_disc, z)
    assert inside.roots.shape == z.shape
    for rows in ([3], [0, 2, 5], np.arange(8) % 3 == 0, slice(1, 7, 2)):
        part = inside[rows]
        fresh = cauchy._require_roots_inside(unit_disc, z[rows])
        assert (part.points == z[rows]).all()
        assert part.roots.tobytes() == fresh.roots.tobytes()
    # As an array the set reads as its points.
    assert np.asarray(inside) is inside.points


def test_reproduction_on_annulus(annulus_domain):
    grid = sp.sample_boundary(annulus_domain, 256)
    # pole inside the hole is holomorphic on the annulus
    pole = sp.boundary_samples(grid, catalog.pole_phi(0.0))
    z = 0.6 + 0.1j
    assert abs(sp.cauchy_transform(pole, z) - 1.0 / z) < 1e-10


def test_monomial_range_identity(grids, rng):
    # transform of t^r equals the complete symmetric polynomial of degree
    # r-n+1 in the node coordinates (index shifted from naive expectation;
    # verified against the divided-difference oracle)
    _, grid = grids
    for n in (1, 2, 3):
        w = 0.6 * (rng.random(n) - 0.5) + 0.6j * (rng.random(n) - 0.5)
        for r in range(0, 6):
            data = phi_samples(grid, catalog.monomial_phi(r))
            got = sp.norlund_transform(data, w)
            expected = sp.complete_symmetric(r - n + 1, n, w)
            assert abs(got - expected) < 1e-10, (n, r)


def test_pole_range_identity(grids, rng):
    # transform of (t-a)^(-r) carries the sign (-1)^(n-1) relative to the
    # product-of-reciprocals times complete-symmetric form
    _, grid = grids
    a = 3.0
    for n in (1, 2, 3):
        w = 0.6 * (rng.random(n) - 0.5) + 0.6j * (rng.random(n) - 0.5)
        for r in (1, 2):
            data = phi_samples(grid, catalog.pole_phi(a, r))
            got = sp.norlund_transform(data, w)
            inv = 1.0 / (w - a)
            expected = (-1.0) ** (n - 1) * np.prod(inv) * sp.complete_symmetric(r - 1, n, inv)
            assert abs(got - expected) < 1e-10, (n, r)


_ORACLE_TUPLES = (np.array([0.1 + 0.2j, -0.3 + 0.05j]), np.array([0.45 - 0.3j, -0.2 - 0.4j]))


@pytest.mark.parametrize("transform", ["cauchy", "norlund", "symmetrized", "derivative", "power_sum"])
@pytest.mark.parametrize("w", _ORACLE_TUPLES, ids=["near-centre", "off-centre"])
def test_transform_sum_matches_mpmath(grids, transform, w):
    # The same 256-term trapezoid sum, each term built from the float nodes,
    # weights and data but evaluated at 30 digits: the float result may
    # differ from it by rounding only.
    mpmath = pytest.importorskip("mpmath")
    _, grid = grids
    pole = phi_samples(grid, catalog.pole_phi(3.0))
    z = sp.symmetrize(w)
    with mpmath.workdps(30):
        t = [mpmath.mpc(x) for x in grid.nodes]
        phi = [mpmath.mpc(x) for x in pole.values]
        w0, w1 = (mpmath.mpc(x) for x in w)
        z1, z2 = (mpmath.mpc(x) for x in z)
        if transform == "cauchy":
            got = sp.cauchy_transform(pole, w[0])
            terms = [p / (tj - w0) for p, tj in zip(phi, t)]
        elif transform == "norlund":
            got = sp.norlund_transform(pole, w)
            terms = [p / ((tj - w0) * (tj - w1)) for p, tj in zip(phi, t)]
        elif transform == "symmetrized":
            got = sp.symmetrized_transform(pole, z)
            terms = [p / (tj**2 - z1 * tj + z2) for p, tj in zip(phi, t)]
        elif transform == "derivative":
            # d^2/dz1 dz2 of 1/(t^2 - z1 t + z2) is -2t / (t^2 - z1 t + z2)^3
            got = sp.derivative_symmetrized((1, 1), pole, z)
            terms = [-2 * p * tj / ((tj - w0) * (tj - w1)) ** 3 for p, tj in zip(phi, t)]
        else:
            got = sp.power_sum_transform(pole, 2, z)
            terms = [p**2 * (2 * tj - z1) / (tj**2 - z1 * tj + z2) for p, tj in zip(phi, t)]
        ref = mpmath.fsum(term * mpmath.mpc(wt) for term, wt in zip(terms, grid.weights))
        ref = complex(ref / (2j * mpmath.pi))
    assert abs(got - ref) <= 1e-13 * abs(ref)


# A stack of data on one grid: one kernel, and each datum bit for bit its own call.

README_DOMAINS = [
    "disc 0 0 1",
    "ellipse 0 0 1.1 0.9",
    "star 1 0.25 2",
    "annulus 0 0 0.3 1",
    "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4",
]
STACK_PHIS = [catalog.monomial_phi(2), catalog.pole_phi(3.0), catalog.conj_phi(),
              catalog.weierstrass_phi(0.5)]


def _derivative_entries(gammas, samples, z):
    """derivative_symmetrized's values and verdicts, also where the floor refuses some."""
    try:
        values = sp.derivative_symmetrized(gammas, samples, z)
    except KernelProximityError as exc:
        return exc.partial
    return values, np.ones(np.shape(gammas)[:1], dtype=bool)


def _stacked_and_single(transform, stack, singles, w):
    """The stacked call's values and the single-datum calls' values, data last."""
    z = sp.symmetrize(w)
    gammas = np.array(suites._multi_indices(w.shape[-1]))
    calls = {
        "cauchy": lambda s: sp.cauchy_transform(s, w.reshape(-1)),
        "norlund": lambda s: sp.norlund_transform(s, w),
        "symmetrized": lambda s: sp.symmetrized_transform(s, z),
        "derivative": lambda s: _derivative_entries(gammas, s, z)[0],
        "power_sum": lambda s: sp.power_sum_transform(s, [1, 2, 3], z),
    }
    return calls[transform](stack), np.stack([calls[transform](s) for s in singles], axis=-1)


@pytest.mark.parametrize("transform", ["cauchy", "norlund", "symmetrized", "derivative", "power_sum"])
@pytest.mark.parametrize("descriptor", README_DOMAINS)
def test_stacked_data_match_single_calls_bitwise(descriptor, transform):
    domain = sp.build_domain(descriptor)
    grid = sp.sample_boundary(domain, 256)
    singles = [sp.boundary_samples(grid, phi) for phi in STACK_PHIS]
    stack = sp.stack_samples(singles)
    assert stack.values.shape == (len(STACK_PHIS), len(grid.nodes))
    w = suites._separated_tuples(domain, 2, 6, np.random.default_rng(7), min_distance=0.25,
                                 separation=0.1)
    got, ref = _stacked_and_single(transform, stack, singles, w)
    assert got.shape == ref.shape and got.shape[-1] == len(STACK_PHIS)
    assert np.array_equal(got, ref)
    # A scalar point or a single tuple gives one value per datum.
    one, ref = _stacked_and_single(transform, stack, singles, w[0])
    assert np.array_equal(one, ref)


def test_stacked_derivative_partial_matches_single_calls(unit_disc, disc_grid):
    # At n = 4 on the unit disc the floor refuses order 2 of some tuples only.
    singles = [sp.boundary_samples(disc_grid, phi) for phi in STACK_PHIS]
    tuples = suites._separated_tuples(unit_disc, 4, 5, np.random.default_rng(0),
                                      min_distance=0.37 * 2, separation=0.08)
    z = sp.symmetrize(tuples)
    gammas = np.array(suites._multi_indices(4))
    with pytest.raises(KernelProximityError) as caught:
        sp.derivative_symmetrized(gammas, sp.stack_samples(singles), z)
    values, accepted = caught.value.partial
    assert values.shape == accepted.shape + (len(singles),)
    refused = ~accepted
    assert refused.any() and not refused[:, gammas.sum(axis=1) < 2].any()
    assert not refused[:, gammas.sum(axis=1) == 2].all()
    for d, single in enumerate(singles):
        with pytest.raises(KernelProximityError) as one:
            sp.derivative_symmetrized(gammas, single, z)
        assert np.array_equal(one.value.partial[1], accepted)
        assert np.array_equal(one.value.partial[0], values[..., d])


def test_power_sum_transform_takes_a_sequence_of_powers(grids, rng):
    domain, grid = grids
    sq = phi_samples(grid, catalog.monomial_phi(2))
    w = sp.sample_interior(domain, 12, rng, 0.2).reshape(4, 3)
    got = sp.power_sum_transform(sq, range(1, 4), sp.symmetrize(w))
    assert got.shape == (4, 3)
    for i, ell in enumerate(range(1, 4)):
        assert np.array_equal(got[:, i], sp.power_sum_transform(sq, ell, sp.symmetrize(w)))
        assert np.abs(got[:, i] - (w**(2 * ell)).sum(axis=-1)).max() < 1e-12
    with pytest.raises(ValueError):
        sp.power_sum_transform(sq, [1, 0], sp.symmetrize(w))


def test_stacked_call_with_an_overflowing_datum_is_refused_whole():
    # On a disc of radius 1e36, t^8 times the weights leaves the float range
    # while t^1 does not: the stacked call refuses every datum, and warns nothing.
    grid = sp.sample_boundary(sp.disc(0, 1e36), 256)
    stack = sp.stack_samples([phi_samples(grid, catalog.monomial_phi(m)) for m in (1, 8)])
    z = np.array([0.0, 1e35, 3e35j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(sp.cauchy_transform(phi_samples(grid, catalog.monomial_phi(1)), z)).all()
        with pytest.raises(NonFiniteDataError, match="sum"):
            sp.cauchy_transform(stack, z)
        with pytest.raises(NonFiniteDataError, match="sum"):
            sp.power_sum_transform(stack, [1, 2, 3], sp.symmetrize(z[1:]))


def test_stack_samples_takes_single_data_on_one_grid(grids):
    domain, grid = grids
    one = phi_samples(grid, catalog.monomial_phi(1))
    other = phi_samples(sp.sample_boundary(domain, 128), catalog.monomial_phi(1))
    for bad in ([], [one, other], [sp.stack_samples([one])]):
        with pytest.raises(ValueError):
            sp.stack_samples(bad)
    with pytest.raises(ValueError):
        sp.BoundarySamples(grid=grid, values=np.zeros((2, 3), dtype=complex))
