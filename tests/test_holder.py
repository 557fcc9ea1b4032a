import tracemalloc
from unittest import mock

import numpy as np
import pytest

import symprod as sp
from symprod import holder
from symprod.holder import SampledField


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        SampledField(points=np.array([0.0, 1.0]), values=np.array([0.0]))


@pytest.mark.parametrize("points, message", [
    (np.array([0.5]), "at least two points"),
    (np.arange(5001, dtype=float), "too many points"),
    (np.array([0.0, 0.0, 1.0]), "pairwise distinct"),
])
def test_pair_table_refusals(points, message):
    fld = SampledField(points=points, values=np.arange(len(points), dtype=float))
    with pytest.raises(ValueError, match=message):
        holder._pair_table(fld)


def test_complex_points_accepted():
    z = np.array([0.0 + 0j, 1.0 + 0j, 1j])
    fld = SampledField(points=z, values=np.array([0.0, 1.0, 2.0]))
    assert fld.coords.shape == (3, 2)
    edges, counts, maxima, argdist = holder._pair_table(fld)
    assert list(edges) == [1.0, 2.0]
    assert list(counts) == [3] and list(maxima) == [2.0] and list(argdist) == [1.0]


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


def test_pair_table_csv_columns():
    # The columns that ``cli holder`` writes: bin_lo, bin_hi, pair_count, max_diff.
    _, _, fld = sp.calibration_fields()[0]
    edges, counts, maxima, _ = holder._pair_table(fld)
    assert len(edges) - 1 == len(counts) == len(maxima)
    assert (np.diff(edges) > 0).all()
    assert counts.sum() == 2000 * 1999 // 2


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
    _, _, lin = sp.calibration_fields()[1]
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
    _, _, lin = sp.calibration_fields()[1]
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

    check()


@pytest.mark.parametrize("points, values", [
    (np.linspace(0, 1, 200), np.where(np.arange(200) == 7, np.nan, 1.0)),
    (np.where(np.arange(200) == 7, np.nan, np.linspace(0, 1, 200)), np.zeros(200)),
    (np.where(np.arange(200) == 7, np.inf, np.linspace(0, 1, 200)), np.zeros(200)),
])
def test_non_finite_field_rejected(points, values):
    with pytest.raises(ValueError, match="finite"):
        SampledField(points=points, values=values)


def test_pair_table_two_points_one_bin():
    fld = SampledField(points=np.array([0.0, 1.0]), values=np.array([0.0, 3.0]))
    edges, counts, maxima, argdist = holder._pair_table(fld)
    assert list(edges) == [1.0, 2.0]
    assert list(counts) == [1] and list(maxima) == [3.0] and list(argdist) == [1.0]


def _extreme_cloud(rng, scale, pow2):
    """Points at coordinate scale ``scale`` whose d**2 reach the ends of the
    float range, then 2-D points at scale ``pow2`` (a power of two) with
    distances at exact powers of two and one ulp either side of them."""
    z = rng.normal(size=60) + 1j * rng.normal(size=60)
    # Partners 1e-6 to 1 of the scale away: at 1e-150 their d**2 are
    # subnormal, at 1e150 the largest d**2 are near 1e302.
    near = z + 10.0 ** -rng.uniform(0, 6, 60) * np.exp(2j * np.pi * rng.random(60))
    # From the origin: 2**j and its neighbours on three half-axes, so the
    # pairs across the origin also fall next to powers of two.
    p = 2.0 ** np.arange(-4, 4)
    zero = np.zeros(len(p))
    x = np.concatenate([[0.0], p, -np.nextafter(p, 0), zero, zero])
    y = np.concatenate([[0.0], zero, zero, np.nextafter(p, np.inf), -p])
    grid = pow2 * np.stack([x, y], axis=1)
    return scale * np.concatenate([z, near]), grid


@pytest.mark.parametrize("block", [64, holder._BLOCK_ENTRIES])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("scale, pow2", [(1e-150, 2.0 ** -520), (1e-3, 2.0 ** -10),
                                         (1e150, 2.0 ** 500)])
def test_pair_table_at_extreme_scales(rng, scale, pow2, kind, k, block):
    for pts in _extreme_cloud(rng, scale, pow2):
        # Quarter steps give ties; the values share the points' scale.
        steps = np.round(4.0 * rng.normal(size=(len(pts), 2 * k))) / 4.0
        values = steps[:, :k] if kind is float else steps[:, :k] + 1j * steps[:, k:]
        values = scale * values
        with mock.patch.object(holder, "_BLOCK_ENTRIES", block):
            _assert_same_table(SampledField(points=pts, values=values[:, 0]))
            _assert_columns_match(SampledField(points=pts, values=values))


@pytest.mark.parametrize("m", [1000, 4000])
def test_pair_table_working_memory_is_bounded(rng, m):
    # The block buffers and the candidates of one block, plus the O(m * k)
    # inputs and the per-slot tables, never the m x m pair matrix.
    k = 2
    z = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    fld = SampledField(points=z, values=z ** 2)
    tracemalloc.start()
    try:
        holder._pair_table(fld)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (16 * holder._BLOCK_ENTRIES + 16 * m * k + 8 * holder._SLOTS * k)
