"""Holder seminorms and empirical exponent estimation on sampled fields.

The seminorm is the exact discrete supremum of |df| / |dx|^alpha over all
point pairs.  The exponent estimator bins pairs by dyadic distance, takes
the per-bin maximum of |df| (a sup-type statistic, matching the seminorm;
per-bin means systematically underestimate roughness) and regresses the log
of those maxima on the log bin center.  Estimates are lower-bound flavored:
theory gives lower bounds on regularity, so "observed exponent at or above
the predicted one" is the pass direction.

A field may carry k value columns over one point cloud, values of shape
(m, k), as the components of a map do.  One pass over the pairs then
serves every column: distances, bins and pair counts are computed once per
block, and only |df| and the per-bin maxima are kept per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .catalog import weierstrass
from .errors import MissingDerivativeFieldError

MAX_POINTS = 5000
MIN_POINTS_FOR_FIT = 100
MIN_PAIRS_PER_BIN = 5
_BLOCK_ENTRIES = 1 << 16        # pair-block size: 512 KiB per float array
# Pair-table slots: a distance d > 0 with frexp exponent e (2**(e - 1) <= d
# < 2**e, e in [-1073, 1024]) goes to slot e + _SLOT0; slot _DUMP takes the
# block entries that are not pairs of their own.
_SLOT0 = 1073
_DUMP = _SLOT0 + 1025
_SLOTS = _DUMP + 1


@dataclass(frozen=True)
class SampledField:
    """Evaluation results on a point cloud.

    ``points`` may be a real array of shape (m, d), a complex vector of
    shape (m,), or a complex array of shape (m, k); complex data is viewed
    as pairs of real coordinates.  ``values`` has shape (m,), or (m, k) for
    k value columns (real or complex) over the same points.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = real_coordinates(self.points)
        values = np.asarray(self.values)
        if values.ndim not in (1, 2) or values.shape[1:] == (0,):
            raise ValueError(f"values must have shape (m,) or (m, k) with k >= 1, "
                             f"not {values.shape}")
        if len(pts) != len(values):
            raise ValueError("points and values differ in length")
        if not (np.isfinite(pts).all() and np.isfinite(values).all()):
            raise ValueError("points and values must be finite")

    @property
    def coords(self) -> np.ndarray:
        return real_coordinates(self.points)


def real_coordinates(points) -> np.ndarray:
    p = np.asarray(points)
    if np.iscomplexobj(p):
        p = np.atleast_1d(p)
        if p.ndim == 1:
            p = p[:, None]
        p = np.concatenate([p.real, p.imag], axis=1)
    else:
        p = np.atleast_1d(p.astype(float))
        if p.ndim == 1:
            p = p[:, None]
    return p


def _cloud(fld: SampledField) -> tuple[np.ndarray, np.ndarray]:
    """Real coordinates (m, d) and the value columns (k, m) of a field."""
    coords = fld.coords
    if len(coords) < 2:
        raise ValueError("need at least two points")
    if len(coords) > MAX_POINTS:
        raise ValueError(f"too many points ({len(coords)} > {MAX_POINTS})")
    return coords, np.asarray(fld.values).reshape(len(coords), -1).T


def _pair_blocks(coords: np.ndarray, columns: np.ndarray):
    """Upper-triangle pair blocks ``(i0, d, dvs)`` of distances and |df|.

    Entry (r, c) of a block is the pair (i0 + r, i0 + 1 + c): a few rows
    against the columns ``i0 + 1:``, about ``_BLOCK_ENTRIES`` entries in
    all, with squared distances summed one coordinate at a time.  Entries
    left of the diagonal (c < r) are not pairs of their own: for c < r - 1
    they repeat a pair of the same block, and the self pairs c = r - 1 carry
    the distance of the pair (i0 + r, i0 + r + 1) with |df| = 0.  Maxima and
    minima over a whole block are therefore those over its pairs; counts
    must skip c < r.

    ``columns`` holds k value columns, shape (k, m); ``dvs`` yields the |df|
    block of each column in turn, on the entries of ``d``, so one column's
    block is alive at a time.
    """
    m = len(coords)
    cols = np.ascontiguousarray(coords.T)
    block = max(1, _BLOCK_ENTRIES // (m - 1))
    for i0 in range(0, m - 1, block):
        i1 = min(i0 + block, m - 1)
        d = np.zeros((i1 - i0, m - 1 - i0), dtype=cols.dtype)
        tmp = np.empty_like(d)
        for col in cols:
            np.subtract.outer(col[i0:i1], col[i0 + 1:], out=tmp)
            d += np.square(tmp, out=tmp)
        np.sqrt(d, out=d)
        r = np.arange(1, i1 - i0)
        d[r, r - 1] = d[r, r]
        if d.min() == 0:
            raise ValueError("points must be pairwise distinct")
        yield i0, d, _column_diffs(columns, i0, i1)


def _column_diffs(columns: np.ndarray, i0: int, i1: int):
    """|df| blocks, rows ``i0:i1`` against ``i0 + 1:``, one column at a time."""
    for v in columns:
        yield np.abs(np.subtract.outer(v[i0:i1], v[i0 + 1:]))


def holder_seminorm(fld: SampledField, alpha: float) -> float:
    """Exact discrete sup of |df| / |dx|^alpha over all point pairs.

    For (m, k) values |df| is the largest change of any one column.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    worst = 0.0
    for _, d, dvs in _pair_blocks(*_cloud(fld)):
        scale = d**alpha
        for dv in dvs:
            worst = max(worst, float((dv / scale).max(initial=0.0)))
    return worst


@dataclass(frozen=True)
class ExponentFit:
    """Log-log regression summary for an empirical Holder exponent."""

    alpha_hat: float
    confidence_band: tuple[float, float]
    pairs_used: int
    flagged: bool


def _pair_table(fld: SampledField):
    """Dyadic bin table ``(edges, counts, maxima, argdist)`` in one pass.

    The edges are the powers of two from floor(log2 dmin) to
    ceil(log2 dmax), at least two of them; bin k holds the pairs with
    edges[k] <= d < edges[k + 1], and pairs beyond either end are clipped
    into the end bins.  ``maxima`` is the largest |df| in a bin and
    ``argdist`` the distance of the first pair (i < j, row-major) that
    attains it; both are 0 where |df| is 0 throughout.  The edges are
    known only after the pass, so the pass gathers its counts and maxima
    in fixed slots, one per frexp exponent of d, and folds them at the end.

    For (m, k) values the one pass serves all k columns: edges and counts
    are shared, and ``maxima`` and ``argdist`` have one row per column,
    shape (k, bins); each row equals the table of that column alone.
    """
    coords, columns = _cloud(fld)
    m, k = len(coords), len(columns)
    counts = np.zeros(_SLOTS, dtype=int)
    maxima = np.zeros((k, _SLOTS))
    argdist = np.zeros((k, _SLOTS))
    rank = np.zeros((k, _SLOTS), dtype=int)     # i * m + j of the argdist pair
    dmin, dmax = np.inf, 0.0
    for i0, d, dvs in _pair_blocks(coords, columns):
        dmin, dmax = min(dmin, float(d.min())), max(dmax, float(d.max()))
        slot = np.frexp(d)[1].astype(np.intp)
        slot += _SLOT0
        slot[:, :len(d)][np.tri(len(d), k=-1, dtype=bool)] = _DUMP
        slot, d = slot.ravel(), d.ravel()
        counts += np.bincount(slot, minlength=_SLOTS)
        for dv, mx, ad, rk in zip(dvs, maxima, argdist, rank):
            dv = dv.ravel()
            top = np.zeros(_SLOTS)
            np.maximum.at(top, slot, dv)
            top[_DUMP] = 0.0
            # Only strictly larger maxima replace, so ties keep the earlier
            # block; in a block the first hit in row-major order is the
            # first pair.
            target = np.where(top > mx, top, np.nan)
            hits = np.flatnonzero(dv == target[slot])
            won, first = np.unique(slot[hits], return_index=True)
            row, col = np.divmod(hits[first], m - 1 - i0)
            mx[won] = top[won]
            ad[won] = d[hits[first]]
            rk[won] = (i0 + row) * m + i0 + 1 + col
    lo = int(np.floor(np.log2(dmin)))
    hi = max(int(np.ceil(np.log2(dmax))), lo + 1)
    # Slot s holds 2**(s - _SLOT0 - 1) <= d < 2**(s - _SLOT0).  Per bin the
    # winning slot has the largest maximum and, among ties, the earliest
    # pair; it leads its bin's run once the slots are sorted that way.
    used = np.flatnonzero(counts[:_DUMP])
    bins = np.clip(used - (_SLOT0 + 1 + lo), 0, hi - lo - 1)
    bin_counts = np.zeros(hi - lo, dtype=int)
    np.add.at(bin_counts, bins, counts[used])
    bin_maxima, bin_argdist = np.zeros((k, hi - lo)), np.zeros((k, hi - lo))
    for mx, ad, rk, bmx, bad in zip(maxima, argdist, rank, bin_maxima, bin_argdist):
        order = np.lexsort((rk[used], -mx[used], bins))
        lead = order[np.flatnonzero(np.diff(bins[order], prepend=-1))]
        bmx[bins[lead]] = mx[used[lead]]
        bad[bins[lead]] = ad[used[lead]]
    if np.ndim(fld.values) == 1:
        bin_maxima, bin_argdist = bin_maxima[0], bin_argdist[0]
    return 2.0 ** np.arange(lo, hi + 1), bin_counts, bin_maxima, bin_argdist


def pair_statistics(fld: SampledField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dyadic bin table: (bin_lo, bin_hi, pair_count, max_diff); for (m, k)
    values ``max_diff`` has one row per column."""
    edges, counts, maxima, _ = _pair_table(fld)
    return edges[:-1], edges[1:], counts, maxima


def estimate_exponent(fld: SampledField) -> ExponentFit | tuple[ExponentFit, ...]:
    """Empirical Holder exponent from per-bin maxima of |df|.

    The regression abscissa for each bin is the distance of the pair that
    attains the bin maximum, which removes the bias of partially covered
    edge bins.  For (m, k) values the k columns share one pass over the
    pairs, and the result is a tuple of k fits, one per column, each equal
    to the fit of that column alone.
    """
    if len(fld.coords) < MIN_POINTS_FOR_FIT:
        raise ValueError(f"need at least {MIN_POINTS_FOR_FIT} points")
    edges, counts, maxima, argdist = _pair_table(fld)
    if np.ndim(fld.values) == 1:
        return _fit_table(counts, maxima, argdist)
    return tuple(_fit_table(counts, mx, ad) for mx, ad in zip(maxima, argdist))


def _fit_table(counts, maxima, argdist) -> ExponentFit:
    """The regression of :func:`estimate_exponent` on a built pair table."""
    keep = (counts >= MIN_PAIRS_PER_BIN) & (maxima > 0)
    if keep.sum() < 3:
        raise ValueError("insufficient pairs: fewer than 3 usable distance bins")
    x = np.log2(argdist[keep])
    y = np.log2(maxima[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    sx = x - x.mean()
    se = float(np.sqrt((resid**2).sum() / dof / (sx**2).sum()))
    alpha_hat = float(slope)
    return ExponentFit(
        alpha_hat=alpha_hat,
        confidence_band=(alpha_hat - 2.0 * se, alpha_hat + 2.0 * se),
        pairs_used=int(counts[keep].sum()),
        flagged=not (0.0 <= alpha_hat <= 1.5),
    )


def ck_norm(fields: Mapping[tuple, SampledField], alpha: float) -> float:
    """Sum of sup norms over all derivative orders up to k plus the Holder
    seminorms of the top-order fields.

    ``fields`` maps multi-indices (tuples) to sampled fields and must cover
    every multi-index of order <= k, where k is the largest order present.
    """
    if not fields:
        raise MissingDerivativeFieldError("no fields supplied")
    keys = list(fields)
    nvars = len(keys[0])
    k = max(sum(g) for g in keys)
    for g in _multi_indices(nvars, k):
        if g not in fields:
            raise MissingDerivativeFieldError(f"missing derivative field for {g}")
    total = sum(float(np.abs(fields[g].values).max()) for g in _multi_indices(nvars, k))
    top = [g for g in _multi_indices(nvars, k) if sum(g) == k]
    for g in top:
        fld = fields[g]
        if len(fld.coords) >= 2:
            total += holder_seminorm(fld, alpha)
    return total


def _multi_indices(nvars: int, max_order: int):
    def rec(prefix, remaining, budget):
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(budget + 1):
            yield from rec(prefix + [v], remaining - 1, budget - v)

    out = []
    for total in range(max_order + 1):
        out.extend(g for g in rec([], nvars, total) if sum(g) == total)
    return out


# ---------------------------------------------------------------------------
# Calibration fields with known exponents
# ---------------------------------------------------------------------------

def calibration_fields(points: int = 2000) -> list[tuple[str, float, SampledField]]:
    """Known-exponent fields: (name, true exponent, field).

    Equispaced samples keep every pair distance at or above the roughness
    cutoff of the lacunar series, so the estimator sees the asymptotic
    regime only.  The grid for |x|^(1/2) contains 0 so the extremal pair of
    every distance bin is present, and the lacunar window spans two periods
    so its top bins are not dominated by saturation.
    """
    x = np.linspace(-1.0, 1.0, points, endpoint=False)
    theta = np.linspace(0.0, 4.0 * np.pi, points, endpoint=False)
    return [
        ("abs_sqrt", 0.5, SampledField(points=x, values=np.sqrt(np.abs(x)))),
        ("linear", 1.0, SampledField(points=x, values=0.75 * x)),
        ("lacunar_0.3", 0.3, SampledField(points=theta, values=weierstrass(theta, 0.3))),
    ]
