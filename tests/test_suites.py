"""The batched derivative-factorization suite against the per-call loop it
replaced: one derivative call per tuple and multi-index, and one transform
call per circle point with its own region check."""

import numpy as np
import pytest

import symprod as sp
from symprod import catalog, cauchy, suites, symmetric
from symprod.errors import (
    KernelProximityError,
    NonFiniteDataError,
    RootFindingError,
    SamplingError,
)


def derivative_reference(gamma, samples, z) -> complex:
    """One tuple, one multi-index: the unbatched factorized derivative."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    g = np.asarray(gamma, dtype=int)
    order = int(g.sum())
    roots = cauchy._require_roots_inside(samples.grid.domain, z).roots
    if order == 0:
        return sp.symmetrized_transform(samples, z)
    values = samples.values * cauchy.derivative_weight_values(g, n, samples.grid.nodes)
    kern = cauchy.product_eval(roots, samples.grid.nodes) ** (order + 1)
    return complex(cauchy._kernel_integral(samples, kern, n * (order + 1), numerator=values))


def circle_taylor_reference(samples, w, u, radius):
    """Taylor coefficients g_0..g_2 of F(symmetrize(w + zeta*u)) from one
    transform call per point of the circle |zeta| = radius."""
    m = suites._CIRCLE_POINTS
    zeta = radius * np.exp(2j * np.pi * np.arange(m) / m)
    values = np.array([sp.symmetrized_transform(samples, sp.symmetrize(w + z * u)) for z in zeta])
    return np.fft.fft(values)[: suites._MAX_ORDER + 1] / (m * radius ** np.arange(3))


def derivative_suite_reference(domain, points, seed, arities, nodes=256):
    """(max_residual, comparisons) of the per-call loop; an arity that placed
    no tuples, or where the floor refused every call of one order, or one
    circle point, reads inf."""
    rng = np.random.default_rng(seed)
    direction_rng = rng.spawn(1)[0]
    grid = sp.sample_boundary(domain, nodes)
    phis = [catalog.pole_phi(3.0), catalog.monomial_phi(6)]
    diameter = sp.domain_diameter(domain)
    depth = 0.37 * diameter
    radius = suites._CIRCLE_RADIUS * diameter
    worst = 0.0
    comparisons = 0
    for n in arities:
        try:
            tuples = suites._separated_tuples(domain, n, points, rng, min_distance=depth,
                                              separation=0.08)
        except SamplingError:
            worst = float("inf")
            continue
        re, im = direction_rng.standard_normal((2, n * (n + 1) // 2, n))
        directions = (re + 1j * im) / np.abs(re + 1j * im).max(axis=-1, keepdims=True)
        gammas = suites._multi_indices(n)
        for phi in phis:
            samples = sp.boundary_samples(grid, phi)
            rows = []      # (order, |g - c|, sum of |terms|) per compared coefficient
            for w in tuples:
                z = sp.symmetrize(w)
                got = np.zeros(len(gammas), dtype=complex)
                refused = set()
                for i, gamma in enumerate(gammas):
                    try:
                        got[i] = derivative_reference(gamma, samples, z)
                    except KernelProximityError:
                        refused.add(sum(gamma))
                for u in directions:
                    try:
                        taylor = circle_taylor_reference(samples, w, u, radius)
                    except KernelProximityError:
                        worst = float("inf")
                        continue
                    weights = suites._chain_rule_weights(np.array(gammas), w, u)
                    for k in range(suites._MAX_ORDER + 1):
                        if refused & set(range(k + 1)):
                            continue
                        terms = got * weights[k]
                        rows.append((k, abs(taylor[k] - terms.sum()),
                                     np.sum([abs(t) for t in terms])))
            # Rounding floor: the size of a circle point's quadrature terms.
            size = suites._abs(samples.values * grid.weights).sum() / (
                2 * np.pi * (0.32 * diameter)**n)
            for k in range(suites._MAX_ORDER + 1):
                bound = max((s for order, _, s in rows if order == k), default=None)
                if bound is None:
                    worst = float("inf")
                    continue
                bound = max(bound, suites._RESOLUTION * size / radius**k)
                for order, error, _ in rows:
                    if order == k:
                        worst = max(worst, error / bound)
                        comparisons += 1
    return worst, comparisons


def _deep_symmetric_points(domain, n, count, seed):
    depth = 0.37 * sp.domain_diameter(domain)
    tuples = suites._separated_tuples(domain, n, count, np.random.default_rng(seed),
                                      min_distance=depth, separation=0.08)
    return sp.symmetrize(tuples)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_derivative_matches_single_calls(unit_disc, disc_grid, n, monkeypatch):
    samples = sp.boundary_samples(disc_grid, catalog.pole_phi(3.0))
    zs = _deep_symmetric_points(unit_disc, n, 8, seed=n)
    gammas = np.array(suites._multi_indices(n))
    orders = gammas.sum(axis=1)
    single = np.zeros((len(zs), len(gammas)), dtype=complex)
    refused = np.zeros(single.shape, dtype=bool)
    for b, z in enumerate(zs):
        for i, gamma in enumerate(gammas):
            try:
                single[b, i] = sp.derivative_symmetrized(gamma, samples, z)
            except KernelProximityError:
                refused[b, i] = True
                continue
            assert isinstance(single[b, i].item(), complex)
            assert single[b, i] == derivative_reference(gamma, samples, z)
    # The floor reaches order 2 from n = 4 (0.37^12 < 1e-4): some tuples at
    # n = 4, every tuple at n = 5.  It refuses a tuple's whole order.
    second = refused[:, orders == 2]
    assert not refused[:, orders < 2].any() and (second == second[:, :1]).all()
    assert second.any() == (n >= 4) and second.all() == (n == 5)
    root_calls, region_calls = [], []
    find, classify = symmetric.desymmetrize_batch, cauchy.classify_points
    monkeypatch.setattr(symmetric, "desymmetrize_batch",
                        lambda z: root_calls.append(z) or find(z))
    monkeypatch.setattr(cauchy, "classify_points",
                        lambda *args: region_calls.append(args) or classify(*args))
    zs = cauchy._require_roots_inside(unit_disc, zs)
    got, accepted = cauchy._derivative_entries(gammas, samples, zs)
    assert (accepted == ~refused).all() and (got == single).all()
    if refused.any():
        with pytest.raises(KernelProximityError) as refusal:
            sp.derivative_symmetrized(gammas, samples, zs)
        values, verdicts = refusal.value.partial
        assert (values == got).all() and (verdicts == accepted).all()
    else:
        assert (sp.derivative_symmetrized(gammas, samples, zs) == got).all()
    # The certified set is root-found and classified once, for every call on it.
    assert len(root_calls) == len(region_calls) == 1
    for pattern in np.unique(~refused, axis=0):
        rows = (~refused == pattern).all(axis=1)
        batch = sp.derivative_symmetrized(gammas[pattern], samples, zs[rows])
        assert batch.shape == (rows.sum(), pattern.sum())
        assert (batch == single[np.ix_(rows, pattern)]).all()
    # Leading dimensions broadcast: (2, k, n) points with one multi-index.
    i = np.flatnonzero(orders == 1)[-1]
    stacked = np.stack([zs, zs[::-1]])
    got = sp.derivative_symmetrized(gammas[i], samples, stacked)
    assert got.shape == stacked.shape[:-1]
    assert (got[0] == single[:, i]).all() and (got[1] == single[::-1, i]).all()


def test_derivative_stack_validation(disc_grid):
    samples = sp.boundary_samples(disc_grid, catalog.pole_phi(3.0))
    z = sp.symmetrize(np.array([0.1, -0.2j]))
    with pytest.raises(ValueError):
        sp.derivative_symmetrized(np.zeros((1, 1, 2), dtype=int), samples, z)
    with pytest.raises(ValueError):
        sp.derivative_symmetrized([(0, 1), (1, -1)], samples, z)
    with pytest.raises(ValueError):
        sp.derivative_symmetrized([(0, 1, 0)], samples, z)


def test_derivative_suite_evaluates_no_refused_entry(unit_disc, monkeypatch):
    # Over arities 1..5 the floor refuses order 2 of some tuples at n = 4 and of
    # every tuple at n = 5: one core call per arity for both data, no floor refusal inside.
    calls, cores, sums = [], [], []
    public, core, integral = (cauchy.derivative_symmetrized, cauchy._derivative_entries,
                              cauchy._kernel_integral)

    def counted(log, fn):
        def wrapped(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except KernelProximityError:
                log.append(False)
                raise
            log.append(True)
            return out
        return wrapped

    arities = (1, 2, 3, 4, 5)
    ref = derivative_suite_reference(unit_disc, 5, 0, arities)
    monkeypatch.setattr(cauchy, "derivative_symmetrized", counted(calls, public))
    monkeypatch.setattr(cauchy, "_derivative_entries", counted(cores, core))
    monkeypatch.setattr(cauchy, "_kernel_integral", counted(sums, integral))
    res = suites.derivative_factorization_suite(unit_disc, points=5, seed=0, arities=arities)
    assert len(cores) == len(calls) == len(arities) and all(cores)
    # Each refused call hands back its accepted entries and is not repeated.
    assert calls.count(False) == 2 and all(sums)
    assert (res.max_residual, res.comparisons) == ref


@pytest.mark.parametrize("arities", [(1, 2, 3), (4,), (4, 5)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_derivative_suite_matches_per_call_loop(unit_disc, seed, arities):
    res = suites.derivative_factorization_suite(unit_disc, points=5, seed=seed, arities=arities)
    ref = derivative_suite_reference(unit_disc, 5, seed, arities)
    assert (res.max_residual, res.comparisons) == ref
    assert res.comparisons > 0
    # From n = 5 the floor refuses every second-order call on the unit disc.
    assert res.passed == (5 not in arities)


def test_circle_points_take_no_root_finding(unit_disc, monkeypatch):
    # The tuples' roots are found once per arity; the circle points carry theirs.
    root_calls = []
    find = symmetric.desymmetrize_batch
    monkeypatch.setattr(symmetric, "desymmetrize_batch",
                        lambda z: root_calls.append(z.shape) or find(z))
    res = suites.derivative_factorization_suite(unit_disc, points=5, arities=(1, 2, 3))
    assert res.passed and root_calls == [(5, 1), (5, 2), (5, 3)]


def test_chain_rule_predicts_taylor_coefficients():
    # F(z) = exp(c.z) has derivatives c^gamma F; its Taylor coefficients along
    # zeta -> symmetrize(w + zeta*u) come from a 64-point FFT on a small circle.
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        w, u, c = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) * 0.5
        gammas = np.array(suites._multi_indices(n))
        zeta = 0.01 * np.exp(2j * np.pi * np.arange(64) / 64)
        curve = sp.symmetrize(w + zeta[:, None] * u)
        derivatives = np.prod(c ** gammas, axis=1) * np.exp(c @ sp.symmetrize(w))
        taylor = np.fft.fft(np.exp(curve @ c))[:3] / (64 * 0.01 ** np.arange(3))
        predicted = suites._chain_rule_weights(gammas, w, u) @ derivatives
        assert np.abs(predicted - taylor).max() < 1e-10 * np.abs(taylor).max()


def test_chain_rule_weights_beyond_the_float_range_are_refused():
    # On a very large domain a_1^gamma overflows: the suite's arity goes
    # unchecked rather than np.fmax skipping a NaN weight.
    gammas = np.array(suites._multi_indices(5))
    w, u = np.full(5, 1e59 + 0j), np.ones(5, dtype=complex)
    with pytest.raises(NonFiniteDataError):
        suites._chain_rule_weights(gammas, w, u)


def test_derivative_suite_fails_a_perturbed_second_derivative(unit_disc, monkeypatch):
    # A relative error of 1e-7 in one order-2 entry is 100 times the tolerance.
    exact = cauchy.derivative_symmetrized

    def perturbed(gammas, samples, z):
        out = exact(gammas, samples, z)
        second = np.flatnonzero(np.atleast_2d(gammas).sum(axis=1) == 2)
        if len(second):
            out[:, second[0]] *= 1 + 1e-7    # (B, G, data): one entry for every datum
        return out

    assert suites.derivative_factorization_suite(unit_disc).passed
    monkeypatch.setattr(cauchy, "derivative_symmetrized", perturbed)
    res = suites.derivative_factorization_suite(unit_disc)
    assert not res.passed and 1e-9 < res.max_residual < 1e-6


def test_derivative_suite_scale_has_a_rounding_floor(unit_disc):
    # These three arity-1 tuples lie within 0.035 of the origin, where z^6 is
    # below 2e-9 and its quadrature sums agree to 2e-17: relative to z^6
    # alone that read 1e-8.
    res = suites.derivative_factorization_suite(unit_disc, points=3, seed=4157521878,
                                                arities=(1,))
    assert res.passed and res.max_residual < 1e-11


def test_derivative_suite_fails_an_arity_without_tuples():
    # No arity-3 tuple fits 0.37 diameters deep in this ellipse: arities 1
    # and 2 compare and pass, and the unchecked arity 3 fails the suite.
    domain = sp.build_domain("ellipse 0 0 1 0.77")
    res = suites.derivative_factorization_suite(domain, points=20, seed=7, arities=(1, 2, 3))
    assert res.comparisons > 0 and res.max_residual == np.inf and not res.passed
    assert (res.max_residual, res.comparisons) == derivative_suite_reference(domain, 20, 7,
                                                                             (1, 2, 3))
    assert suites.derivative_factorization_suite(domain, points=20, seed=7, arities=(1, 2)).passed


def test_derivative_suite_fails_past_the_floor_without_raising(unit_disc):
    res = suites.derivative_factorization_suite(unit_disc, arities=(8,))
    assert not res.passed


def test_non_finite_data_are_refused_not_compared():
    # pole_phi(3.0) has its pole on a grid node of this ellipse: its samples
    # are refused, and each suite that uses it compares the other data only.
    domain = sp.build_domain("ellipse 0 0 3 2")
    with pytest.raises(NonFiniteDataError):
        cauchy.boundary_samples(sp.sample_boundary(domain, suites.DEFAULT_NODES),
                                catalog.pole_phi(3.0))
    r = suites.cauchy_reproduction_suite(domain, points=20)
    assert r.comparisons == 9 * 20 and np.isfinite(r.max_residual)
    r = suites.norlund_divdiff_suite(domain, points=10, arities=(2,))
    assert r.comparisons == 6 * 10 and r.passed
    r = suites.pushforward_suite(domain, points=10, arities=(1, 2))
    assert r.comparisons == 2 * 5 * 10 and r.passed
    # Its only datum refused, the permutation suite compares nothing and fails.
    r = suites.permutation_invariance_suite(domain, points=10)
    assert (r.comparisons, r.passed) == (0, False)


@pytest.mark.parametrize("descriptor", ["disc 0 0 1", "annulus 0 0 0.3 1"])
def test_readme_domains_refuse_no_data(descriptor):
    grid = sp.sample_boundary(sp.build_domain(descriptor), suites.DEFAULT_NODES)
    # Every datum the suites sample, the pole at 3 among them.
    phis = ([catalog.monomial_phi(m) for m in range(9)] + catalog.smooth_phi_suite()
            + [catalog.conj_phi(), catalog.weierstrass_phi(0.5)])
    for phi in phis:
        assert np.isfinite(cauchy.boundary_samples(grid, phi).values).all()


def _refuse(error):
    def refused(*args, **kwargs):
        raise error("refused")

    return refused


DOMAIN_SUITES = [suites.cauchy_reproduction_suite, suites.norlund_divdiff_suite,
                 suites.pushforward_suite, suites.derivative_factorization_suite,
                 suites.power_sum_suite, suites.permutation_invariance_suite]


REFUSALS = [(suite, step, error) for step, error in [
    ("draw", SamplingError), ("transform", NonFiniteDataError), ("certify", RootFindingError),
] for suite in DOMAIN_SUITES] + [(suite, "later-draw", SamplingError) for suite in DOMAIN_SUITES
                                 if suite is not suites.cauchy_reproduction_suite]


@pytest.mark.parametrize("suite, step, error", REFUSALS,
                         ids=[f"{t}-{e.__name__}-{s.__name__}" for s, t, e in REFUSALS])
def test_a_library_error_leaves_the_arity_unchecked(unit_disc, monkeypatch, suite, step, error):
    # Whatever library error a suite's draw, region check or transform
    # raises, the suite reads inf and fails; it does not raise.  A refused
    # second arity keeps the comparisons of the first.
    if step == "draw":
        monkeypatch.setattr(sp.geometry, "sample_interior", _refuse(error))
    elif step == "later-draw":
        draw, calls = suites._separated_tuples, []

        def first_draw_only(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs) if len(calls) == 1 else _refuse(error)()

        monkeypatch.setattr(suites, "_separated_tuples", first_draw_only)
    elif step == "certify":
        monkeypatch.setattr(cauchy, "_require_inside", _refuse(error))
        monkeypatch.setattr(cauchy, "_require_roots_inside", _refuse(error))
    else:
        for name in ("cauchy_transform", "norlund_transform", "symmetrized_transform",
                     "derivative_symmetrized"):
            monkeypatch.setattr(cauchy, name, _refuse(error))
        monkeypatch.setattr(symmetric, "power_sum_transform", _refuse(error))
    result = suite(unit_disc, points=10)
    assert result.max_residual == float("inf") and not result.passed
    assert (result.comparisons > 0) == (step == "later-draw")


@pytest.mark.parametrize("suite", DOMAIN_SUITES, ids=lambda s: s.__name__)
def test_other_errors_propagate(unit_disc, monkeypatch, suite):
    monkeypatch.setattr(sp.geometry, "sample_interior", _refuse(ZeroDivisionError))
    with pytest.raises(ZeroDivisionError):
        suite(unit_disc, points=10)
