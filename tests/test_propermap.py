from unittest import mock

import numpy as np
import pytest

import symprod as sp
from symprod import catalog, holder, propermap
from symprod.errors import ConfigError
from symprod.holder import SampledField
from symprod.propermap import ProperMapSpec, map_boundary_samples


@pytest.fixture(scope="module")
def disc():
    return sp.disc(0, 1)


def test_parse_proper_map():
    assert sp.parse_function("monomial 2", "proper-map").label == "monomial 2"
    assert sp.parse_function("blaschke 0.5", "proper-map").label == "blaschke 0.5"
    assert sp.parse_function("identity", "proper-map").label == "monomial 1"
    with pytest.raises(ConfigError):
        sp.parse_function("monomial 0", "proper-map")
    with pytest.raises(ConfigError):
        sp.parse_function("blaschke 1.5", "proper-map")
    with pytest.raises(ConfigError):
        sp.parse_function("frobnicate 1", "proper-map")


def test_identity_map_fixed_points(disc, rng):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(1), arity=2)
    w = 0.8 * (rng.random(2) - 0.5) + 0.8j * (rng.random(2) - 0.5)
    z = sp.symmetrize(w)
    zb = sp.symmetrize(0.8 * (rng.random((3, 5, 2)) - 0.5) + 0.8j * (rng.random((3, 5, 2)) - 0.5))
    for route in ("roots", "integral"):
        got = sp.evaluate_proper_map(spec, z, route=route)
        assert np.abs(got - z).max() < 1e-9
        # a (3, 5, 2) batch gives the row-by-row images in the input's shape
        got = sp.evaluate_proper_map(spec, zb, route=route)
        rows = [sp.evaluate_proper_map(spec, row, route=route) for row in zb.reshape(-1, 2)]
        assert got.shape == zb.shape
        assert np.abs(got.reshape(-1, 2) - rows).max() <= 1e-14


def test_square_map_by_hand(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=2)
    z = sp.symmetrize(np.array([0.1, 0.2]))
    got = sp.evaluate_proper_map(spec, z, route="roots")
    assert np.abs(got - np.array([0.05, 0.0004])).max() < 1e-10


def test_route_agreement_blaschke(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.blaschke_function([0.5]), arity=2)
    z = sp.symmetrize(np.array([0.0, 0.2]))
    a = sp.evaluate_proper_map(spec, z, route="integral")
    b = sp.evaluate_proper_map(spec, z, route="roots")
    assert np.abs(a - b).max() <= 1e-8


def test_route_agreement_batch(disc):
    for fun in (catalog.monomial_phi(2), catalog.blaschke_function([0.5])):
        for n in (1, 2, 3):
            spec = ProperMapSpec(source=disc, fun=fun, arity=n)
            assert sp.route_agreement(spec, seed=0) <= 1e-8


def test_functoriality(disc, rng):
    # composing the inducing maps composes the induced maps
    f = catalog.monomial_phi(2)
    g = catalog.blaschke_function([0.3])

    def fg(z):
        return f(g(z))

    comp = catalog.CatalogFunction("f.g", fg)
    spec_fg = ProperMapSpec(source=disc, fun=comp, arity=2)
    spec_f = ProperMapSpec(source=disc, fun=f, arity=2)
    spec_g = ProperMapSpec(source=disc, fun=g, arity=2)
    for _ in range(50):
        w = 0.8 * (rng.random(2) - 0.5) + 0.8j * (rng.random(2) - 0.5)
        z = sp.symmetrize(w)
        once = sp.evaluate_proper_map(spec_fg, z, route="roots")
        twice = sp.evaluate_proper_map(spec_f, sp.evaluate_proper_map(spec_g, z, route="roots"),
                                       route="roots")
        assert np.abs(once - twice).max() <= 1e-7


def test_boundary_experiment_validation(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=2)
    with pytest.raises(ValueError):
        sp.boundary_regularity_experiment(spec, 500)


def test_boundary_experiment_smoke(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=2)
    result = sp.boundary_regularity_experiment(spec, 1200, seed=0)
    assert len(result.fits) == 2
    assert result.threshold == pytest.approx(0.9 / 2 - 0.05)
    assert result.passed


def test_boundary_experiment_classical_square(disc):
    # classical one-variable case: the squared map is smooth up to the circle
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=1)
    result = sp.boundary_regularity_experiment(spec, 2000, seed=0)
    assert result.fits[0].alpha_hat >= 0.85


def test_boundary_experiment_identity_three(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(1), arity=3)
    result = sp.boundary_regularity_experiment(spec, 3000, seed=0)
    assert min(f.alpha_hat for f in result.fits) >= 0.95


def test_map_boundary_samples_description(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=2)
    samples = map_boundary_samples(spec, nodes=64)
    assert samples.description == "monomial 2"
    assert len(samples.values) == 64


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_experiment_fits_match_per_component(disc, n):
    # One estimate_exponent call fits all components; each fit equals the
    # fit of that component alone.
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=n)
    with mock.patch.object(propermap, "estimate_exponent", wraps=holder.estimate_exponent) as est:
        result = sp.boundary_regularity_experiment(spec, 1500, seed=5)
    assert est.call_count == 1
    fld = est.call_args.args[0]
    values = np.asarray(fld.values)
    assert values.shape == (result.samples_used, n)
    assert len(result.fits) == n
    for comp, fit in enumerate(result.fits):
        assert fit == holder.estimate_exponent(SampledField(points=fld.points, values=values[:, comp]))


def test_boundary_experiment_sample_cap(disc):
    spec = ProperMapSpec(source=disc, fun=catalog.monomial_phi(2), arity=1)
    result = sp.boundary_regularity_experiment(spec, propermap.MAX_REGULARITY_SAMPLES + 500, seed=0)
    assert result.samples_used == propermap.MAX_REGULARITY_SAMPLES
