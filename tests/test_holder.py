from unittest import mock

import numpy as np
import pytest

import symprod as sp
from symprod import holder
from symprod.errors import MissingDerivativeFieldError
from symprod.holder import SampledField


def test_constant_field_seminorm():
    fld = SampledField(points=np.linspace(0, 1, 10), values=np.full(10, 2.0 + 1.0j))
    assert sp.holder_seminorm(fld, 0.5) == 0.0


def test_linear_seminorm_two_points():
    fld = SampledField(points=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
    assert abs(sp.holder_seminorm(fld, 1.0) - 1.0) < 1e-15


def test_sqrt_seminorm_three_points():
    x = np.array([0.0, 0.25, 1.0])
    fld = SampledField(points=x, values=np.sqrt(x))
    assert abs(sp.holder_seminorm(fld, 0.5) - 1.0) < 1e-15


def test_seminorm_validation():
    fld = SampledField(points=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        sp.holder_seminorm(fld, 1.5)
    big = SampledField(points=np.arange(5001, dtype=float), values=np.zeros(5001))
    with pytest.raises(ValueError):
        sp.holder_seminorm(big, 0.5)
    dup = SampledField(points=np.array([0.0, 0.0, 1.0]), values=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        sp.holder_seminorm(dup, 0.5)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        SampledField(points=np.array([0.0, 1.0]), values=np.array([0.0]))


def test_monotonicity_in_alpha(rng):
    # d**(-alpha) grows with alpha when all distances are below one, so the
    # sup is nondecreasing there, and the other way around above one
    x = rng.random(40) * 0.5
    x = np.unique(x)
    fld = SampledField(points=x, values=np.sin(3 * x))
    vals = [sp.holder_seminorm(fld, a) for a in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    y = np.array([0.0, 1.5, 3.2, 5.0, 7.77])
    fld2 = SampledField(points=y, values=np.sin(y))
    vals2 = [sp.holder_seminorm(fld2, a) for a in (0.2, 0.5, 1.0)]
    assert all(a >= b for a, b in zip(vals2, vals2[1:]))


def test_scaling(rng):
    x = np.unique(rng.random(60))
    v = np.cos(5 * x) + 1j * x
    f1 = SampledField(points=x, values=v)
    f2 = SampledField(points=x, values=(2.0 - 1.0j) * v)
    c = abs(2.0 - 1.0j)
    assert abs(sp.holder_seminorm(f2, 0.5) - c * sp.holder_seminorm(f1, 0.5)) < 1e-12
    k0 = {(0,): f1}
    k0s = {(0,): f2}
    assert abs(sp.ck_norm(k0s, 0.5) - c * sp.ck_norm(k0, 0.5)) < 1e-12


def test_complex_points_accepted():
    z = np.array([0.0 + 0j, 1.0 + 0j, 1j])
    fld = SampledField(points=z, values=np.array([0.0, 1.0, 2.0]))
    assert fld.coords.shape == (3, 2)
    assert sp.holder_seminorm(fld, 1.0) > 0


def test_estimate_requires_points():
    fld = SampledField(points=np.linspace(0, 1, 50), values=np.zeros(50))
    with pytest.raises(ValueError):
        sp.estimate_exponent(fld)


def test_estimator_calibration():
    for name, truth, fld in sp.calibration_fields():
        fit = sp.estimate_exponent(fld)
        assert abs(fit.alpha_hat - truth) <= 0.07, (name, fit.alpha_hat)
        assert not fit.flagged


def test_estimator_example_bands():
    fits = {name: sp.estimate_exponent(fld) for name, _, fld in sp.calibration_fields()}
    assert 0.45 <= fits["abs_sqrt"].alpha_hat <= 0.55
    assert 0.95 <= fits["linear"].alpha_hat <= 1.05
    assert 0.25 <= fits["lacunar_0.3"].alpha_hat <= 0.38


def test_pair_statistics_csv_columns():
    _, _, fld = sp.calibration_fields()[0]
    bin_lo, bin_hi, counts, maxima = sp.pair_statistics(fld)
    assert len(bin_lo) == len(bin_hi) == len(counts) == len(maxima)
    assert (bin_hi > bin_lo).all()
    assert counts.sum() == 2000 * 1999 // 2


def test_ck_norm_k0():
    x = np.linspace(0.1, 1.0, 30)
    fld = SampledField(points=x, values=2.0 * x)
    got = sp.ck_norm({(0,): fld}, 0.5)
    assert abs(got - (2.0 + sp.holder_seminorm(fld, 0.5))) < 1e-12


def test_ck_norm_constant_any_k():
    x = np.linspace(0.0, 1.0, 20)
    const = SampledField(points=x, values=np.full(20, 3.0 + 4.0j))
    zero = SampledField(points=x, values=np.zeros(20))
    got = sp.ck_norm({(0,): const, (1,): zero}, 0.5)
    assert abs(got - 5.0) < 1e-12


def test_ck_norm_identity_on_disc(rng):
    # f(z) = z on disc samples, k = 1: sup|z| + sup|f'| + 0
    pts = 0.999 * np.exp(1j * rng.uniform(0, 2 * np.pi, 50)) * rng.random(50) ** 0.5
    f0 = SampledField(points=pts, values=pts)
    f10 = SampledField(points=pts, values=np.ones(50))
    f01 = SampledField(points=pts, values=np.zeros(50))
    got = sp.ck_norm({(0, 0): f0, (1, 0): f10, (0, 1): f01}, 0.5)
    assert abs(got - (np.abs(pts).max() + 1.0)) < 1e-12


def test_ck_norm_missing_field():
    x = np.linspace(0, 1, 10)
    fld = SampledField(points=x, values=x)
    with pytest.raises(MissingDerivativeFieldError):
        sp.ck_norm({(1,): fld}, 0.5)


def _reference_table(fld):
    """Brute-force pair table: every pair i < j in row-major order, bins by
    np.digitize with the ends clipped, first pair attaining each maximum."""
    coords, values = fld.coords, np.asarray(fld.values)
    i, j = np.triu_indices(len(coords), k=1)
    d = np.sqrt(((coords[i] - coords[j]) ** 2).sum(axis=1))
    dv = np.abs(values[i] - values[j])
    lo = int(np.floor(np.log2(d.min())))
    hi = max(int(np.ceil(np.log2(d.max()))), lo + 1)
    edges = 2.0 ** np.arange(lo, hi + 1)
    idx = np.clip(np.digitize(d, edges) - 1, 0, hi - lo - 1)
    maxima, argdist = np.zeros(hi - lo), np.zeros(hi - lo)
    for b in range(hi - lo):
        sel = np.flatnonzero(idx == b)
        if len(sel) and dv[sel].max() > 0:
            k = sel[np.argmax(dv[sel])]
            maxima[b], argdist[b] = dv[k], d[k]
    return edges, np.bincount(idx, minlength=hi - lo), maxima, argdist


def _assert_same_table(fld):
    got, want = holder._pair_table(fld), _reference_table(fld)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _assert_columns_match(fld):
    """Each column of an (m, k) table equals the table of that column alone,
    both as built by ``_pair_table`` and by the brute-force reference."""
    edges, counts, maxima, argdist = holder._pair_table(fld)
    values = np.asarray(fld.values)
    assert maxima.shape == argdist.shape == (values.shape[1], len(counts))
    for c in range(values.shape[1]):
        one = SampledField(points=fld.points, values=values[:, c])
        for want in (holder._pair_table(one), _reference_table(one)):
            for g, w in zip((edges, counts, maxima[c], argdist[c]), want):
                assert np.array_equal(g, w)


def _cloud_across_blocks(rng):
    """1300 complex 2-D points, 200 of them 1e-6 from another one."""
    z = rng.normal(size=(1100, 2)) + 1j * rng.normal(size=(1100, 2))
    return np.concatenate([z, z[:200] + 1e-6 * rng.normal(size=(200, 2))])


def test_pair_table_matches_brute_force_across_blocks(rng):
    z = _cloud_across_blocks(rng)
    fld = SampledField(points=z, values=z[:, 0] * z[:, 1] ** 2)
    assert len(z) * (len(z) - 1) > 4 * holder._BLOCK_ENTRIES
    _assert_same_table(fld)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_tables_match_across_blocks(rng, k):
    z = _cloud_across_blocks(rng)
    columns = [z[:, 0] * z[:, 1] ** 2, np.abs(z[:, 0]), np.conj(z[:, 1])]
    _assert_columns_match(SampledField(points=z, values=np.stack(columns[:k], axis=1)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_tables_match_with_ties(k):
    # The linear and staircase columns tie their bin maxima many times over.
    _, _, lin = sp.calibration_fields(points=1200)[1]
    x = lin.points
    columns = [lin.values, np.floor(4.0 * x), np.sqrt(np.abs(x))]
    _assert_columns_match(SampledField(points=x, values=np.stack(columns[:k], axis=1)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_tables_fold_power_of_two_distance(rng, k):
    x = np.concatenate([[0.0, 1.5, 2.0], rng.uniform(0.1, 1.9, 300)])
    columns = [np.minimum(x, 1.0), np.maximum(x, 1.0), -2.0 * np.minimum(x, 1.0)]
    fld = SampledField(points=x, values=np.stack(columns[:k], axis=1))
    edges, counts, maxima, argdist = holder._pair_table(fld)
    assert edges[-1] == 2.0 and counts.sum() == 302 * 303 // 2
    assert argdist[0, -1] == 1.5
    _assert_columns_match(fld)


def test_estimate_exponent_per_column():
    # abs_sqrt and linear sample the same grid, so they stack as two columns.
    (_, _, sqrt_fld), (_, _, lin_fld), _ = sp.calibration_fields()
    both = SampledField(points=sqrt_fld.points,
                        values=np.stack([sqrt_fld.values, lin_fld.values], axis=1))
    assert sp.estimate_exponent(both) == (sp.estimate_exponent(sqrt_fld),
                                          sp.estimate_exponent(lin_fld))
    one = SampledField(points=lin_fld.points, values=lin_fld.values[:, None])
    assert sp.estimate_exponent(one) == (sp.estimate_exponent(lin_fld),)


@pytest.mark.parametrize("values", [np.zeros((4, 2, 2)), np.zeros((4, 0)), np.float64(1.0)])
def test_values_shape_rejected(values):
    with pytest.raises(ValueError, match="shape"):
        SampledField(points=np.arange(4.0), values=values)


def test_pair_table_matches_brute_force_with_ties():
    _, _, lin = sp.calibration_fields(points=1200)[1]
    _assert_same_table(lin)


def test_pair_table_folds_power_of_two_distance(rng):
    # The pair at d = 2 joins the last bin [1, 2] and ties its maximum with
    # the earlier pair at d = 1.5, which keeps the argdist.
    x = np.concatenate([[0.0, 1.5, 2.0], rng.uniform(0.1, 1.9, 300)])
    fld = SampledField(points=x, values=np.minimum(x, 1.0))
    edges, counts, maxima, argdist = holder._pair_table(fld)
    assert edges[-1] == 2.0 and counts.sum() == 302 * 303 // 2
    assert maxima[-1] == 1.0 and argdist[-1] == 1.5
    _assert_same_table(fld)


def test_pair_table_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Quarter-integer grids give ties and exact powers of two; tiny blocks
    # put block boundaries everywhere.  k = 0 stands for (m,) values, k >= 1
    # for (m, k) values.
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        grid=st.lists(st.lists(st.integers(-8, 8), min_size=2, max_size=2),
                      min_size=2, max_size=40, unique_by=tuple),
        levels=st.lists(st.integers(0, 3), min_size=120, max_size=120),
        dim=st.integers(1, 2),
        block=st.integers(1, 50),
        k=st.integers(0, 3),
    )
    def check(grid, levels, dim, block, k):
        pts = 0.25 * np.array(grid, dtype=float)[:, :dim]
        hypothesis.assume(len(np.unique(pts, axis=0)) == len(pts))
        values = np.array(levels, dtype=float).reshape(40, 3)[:len(pts)]
        values = values[:, 0] if k == 0 else values[:, :k]
        fld = SampledField(points=pts, values=values)
        with mock.patch.object(holder, "_BLOCK_ENTRIES", block):
            if k == 0:
                _assert_same_table(fld)
            else:
                _assert_columns_match(fld)
            i, j = np.triu_indices(len(pts), k=1)
            d = np.sqrt(((fld.coords[i] - fld.coords[j]) ** 2).sum(axis=1))
            dv = np.abs(fld.values[i] - fld.values[j]).reshape(len(d), -1).max(axis=1)
            assert sp.holder_seminorm(fld, 0.5) == (dv / d**0.5).max()

    check()


@pytest.mark.parametrize("points, values", [
    (np.linspace(0, 1, 200), np.where(np.arange(200) == 7, np.nan, 1.0)),
    (np.where(np.arange(200) == 7, np.nan, np.linspace(0, 1, 200)), np.zeros(200)),
    (np.where(np.arange(200) == 7, np.inf, np.linspace(0, 1, 200)), np.zeros(200)),
])
def test_non_finite_field_rejected(points, values):
    with pytest.raises(ValueError, match="finite"):
        SampledField(points=points, values=values)


def test_pair_statistics_two_points_one_bin():
    fld = SampledField(points=np.array([0.0, 1.0]), values=np.array([0.0, 3.0]))
    bin_lo, bin_hi, counts, maxima = sp.pair_statistics(fld)
    assert list(bin_lo) == [1.0] and list(bin_hi) == [2.0]
    assert list(counts) == [1] and list(maxima) == [3.0]


def test_pair_statistics_needs_two_points():
    fld = SampledField(points=np.array([0.5]), values=np.array([1.0]))
    with pytest.raises(ValueError, match="at least two points"):
        sp.pair_statistics(fld)
