import tracemalloc

import numpy as np
import pytest

import symprod as sp
from symprod import cauchy
from symprod.roots import derivative_coefficients, horner, monic_coefficients, monic_roots
from symprod.symmetric import desymmetrize_batch


def horner_reference(coeffs, x):
    """Horner's rule with a fresh array per step: the evaluator before it
    filled its output in place."""
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=complex)
    shape = np.broadcast_shapes(coeffs[..., :1].shape, x.shape)
    out = np.broadcast_to(coeffs[..., :1], shape).copy()
    for k in range(1, coeffs.shape[-1]):
        out = out * x + coeffs[..., k : k + 1]
    return out


def monic_roots_reference(coeffs):
    """The companion eigenvalues and the three-step guarded Newton polish
    that evaluates the polynomial afresh at the start of every step; sorted
    roots only."""
    c = np.asarray(coeffs, dtype=complex)
    B, m1 = c.shape
    degree = m1 - 1
    companion = np.zeros((B, degree, degree), dtype=complex)
    companion[:, 0, :] = -c[:, 1:]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    x = np.linalg.eigvals(companion)
    dcoeffs = derivative_coefficients(c)
    for _ in range(3):
        p = horner_reference(c, x)
        dp = horner_reference(dcoeffs, x)
        dp = np.where(dp == 0, 1e-300, dp)
        candidate = x - p / dp
        better = np.abs(horner_reference(c, candidate)) <= np.abs(p)
        x = np.where(better, candidate, x)
    order = np.lexsort((x.imag, x.real), axis=-1)
    return np.take_along_axis(x, order, axis=-1)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _root_batches(rng):
    """Coefficient rows of random root tuples at n = 1..12, and of tuples
    with a double root (n >= 2) and a triple root (n >= 3)."""
    for n in range(1, 13):
        w = 0.6 * _complex(rng, (40, n))
        yield n, monic_coefficients(sp.symmetrize(w))
        if n >= 2:
            w[:, 1] = w[:, 0]
            yield n, monic_coefficients(sp.symmetrize(w))
        if n >= 3:
            w[:, 2] = w[:, 0]
            yield n, monic_coefficients(sp.symmetrize(w))


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 9])
def test_horner_matches_polyval_in_both_broadcasting_modes(rng, degree):
    coeffs = _complex(rng, (7, degree + 1))
    per_row = _complex(rng, (7, 5))
    shared = _complex(rng, 5)
    got = horner(coeffs, per_row)
    want = np.stack([np.polyval(c, x) for c, x in zip(coeffs, per_row)])
    assert got.shape == (7, 5)
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
    got = horner(coeffs, shared)
    want = np.stack([np.polyval(c, shared) for c in coeffs])
    assert got.shape == (7, 5)
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
    assert np.array_equal(horner(coeffs, per_row), horner_reference(coeffs, per_row))
    assert np.array_equal(horner(coeffs, shared), horner_reference(coeffs, shared))


def test_horner_leaves_its_arguments_unmodified(rng):
    coeffs = _complex(rng, (4, 6))
    for x in (_complex(rng, (4, 3)), _complex(rng, 3), _complex(rng, (4, 1))):
        before = coeffs.copy(), x.copy()
        horner(coeffs, x)
        assert np.array_equal(coeffs, before[0]) and np.array_equal(x, before[1])


def test_monic_roots_values_are_horner_at_the_roots(rng):
    for _, coeffs in _root_batches(rng):
        rts, values = monic_roots(coeffs)
        assert values.shape == rts.shape == (len(coeffs), coeffs.shape[-1] - 1)
        assert np.array_equal(values, horner(coeffs, rts))


def test_monic_roots_polish_matches_the_reference_loop(rng):
    for n, coeffs in _root_batches(rng):
        rts, _ = monic_roots(coeffs)
        assert np.array_equal(rts, monic_roots_reference(coeffs)), n


def test_monic_roots_takes_any_leading_shape(rng):
    coeffs = monic_coefficients(sp.symmetrize(0.6 * _complex(rng, (2, 3, 4))))
    rts, values = monic_roots(coeffs)
    flat_rts, flat_values = monic_roots(coeffs.reshape(-1, 5))
    assert rts.shape == values.shape == (2, 3, 4)
    assert np.array_equal(rts.reshape(-1, 4), flat_rts)
    assert np.array_equal(values.reshape(-1, 4), flat_values)
    row_rts, row_values = monic_roots(coeffs[1, 2])
    assert np.array_equal(row_rts, flat_rts[5]) and np.array_equal(row_values, flat_values[5])
    for bad in (1.0, [1.0], np.ones((3, 1))):
        with pytest.raises(ValueError, match="degree"):
            monic_roots(bad)


def test_desymmetrize_batch_takes_any_leading_shape(rng):
    z = sp.symmetrize(0.6 * _complex(rng, (2, 3, 4)))
    rts, res = desymmetrize_batch(z)
    flat_rts, flat_res = desymmetrize_batch(z.reshape(-1, 4))
    assert rts.shape == (2, 3, 4) and res.shape == (2, 3)
    assert np.array_equal(rts.reshape(-1, 4), flat_rts)
    assert np.array_equal(res.reshape(-1), flat_res)
    one_rts, one_res = desymmetrize_batch(z[0, 0])
    assert one_rts.shape == (1, 4) and one_res.shape == (1,)
    assert np.array_equal(one_rts[0], flat_rts[0])
    with pytest.raises(ValueError, match="one tuple"):
        sp.desymmetrize(z[0])


def test_monic_eval_peaks_near_its_output(rng):
    # Horner fills its one output array in place, so the peak is that array
    # plus the (2000, 7) coefficient rows.
    z = 0.5 * _complex(rng, (2000, 6))
    nodes = np.exp(2j * np.pi * np.arange(256) / 256)
    tracemalloc.start()
    try:
        out = cauchy.monic_eval(z, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2000, 256)
    assert peak <= 1.25 * out.nbytes


# Every entry point that reads a coefficient tuple (..., n): the kernel
# evaluators, the transforms with and without their root-finding region
# check, and the root finders.
_ZERO_D_ENTRIES = {
    "monic_eval": lambda s, z: cauchy.monic_eval(z, s.grid.nodes),
    "monic_derivative_eval": lambda s, z: cauchy.monic_derivative_eval(z, s.grid.nodes),
    "symmetrized_transform_unchecked":
        lambda s, z: sp.symmetrized_transform(s, z, check_region=False),
    "symmetrized_transform": lambda s, z: sp.symmetrized_transform(s, z),
    "derivative_symmetrized": lambda s, z: sp.derivative_symmetrized((0,), s, z),
    "power_sum_transform": lambda s, z: sp.power_sum_transform(s, 1, z),
    "symmetric_power_map": lambda s, z: sp.symmetric_power_map(s, z),
    "desymmetrize": lambda s, z: sp.desymmetrize(z),
    "desymmetrize_batch": lambda s, z: desymmetrize_batch(z),
    "_require_roots_inside": lambda s, z: cauchy._require_roots_inside(s.grid.domain, z),
}


@pytest.mark.parametrize("entry", sorted(_ZERO_D_ENTRIES))
@pytest.mark.parametrize("z", [0.1, np.complex128(0.1 + 0.1j), np.array(0.1)])
def test_zero_d_coefficients_are_refused(disc_grid, entry, z):
    sq = sp.boundary_samples(disc_grid, sp.CatalogFunction("t^2", fun=lambda t: t**2))
    with pytest.raises(ValueError, match="at least one coordinate"):
        _ZERO_D_ENTRIES[entry](sq, z)
