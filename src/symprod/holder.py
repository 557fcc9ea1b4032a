"""Empirical Holder-exponent estimation on sampled fields.

The exponent estimator bins pairs by dyadic distance, takes the per-bin
maximum of |df| (a sup-type statistic, matching the Holder seminorm;
per-bin means systematically underestimate roughness) and regresses the log
of those maxima on the log bin center.  Estimates are lower-bound flavored:
theory gives lower bounds on regularity, so "observed exponent at or above
the predicted one" is the pass direction.

A field may carry k value columns over one point cloud, values of shape
(m, k), as the components of a map do.  One pass over the pairs then
serves every column: distances, bins and pair counts are computed once per
block, and only |df| and the per-bin maxima are kept per column.

The pass works in a fixed set of block buffers, allocated once per table
and refilled for every block of about ``_BLOCK_ENTRIES`` pairs, so its
working memory is bounded and it allocates no fresh block temporaries.  A
pair's bin comes from its squared distance, without a square root, and
only the pairs whose |df| beats the running maximum of their bin reach
the per-bin bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import weierstrass

MAX_POINTS = 5000
MIN_POINTS_FOR_FIT = 100
MIN_PAIRS_PER_BIN = 5
_CALIBRATION_POINTS = 2000      # samples per calibration field
_BLOCK_ENTRIES = 1 << 14        # pair-block size: 128 KiB per float buffer
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

    The pass walks the upper triangle in blocks of about ``_BLOCK_ENTRIES``
    entries, rows ``i0:i1`` against the columns ``i0 + 1:``, and fills the
    same block buffers, allocated once per call, for every block.  Entries
    left of the diagonal (c < r) are not pairs of their own: for c < r - 1
    they repeat a pair of the same block, and the self pairs c = r - 1 get
    the squared distance of the pair (i0 + r, i0 + r + 1), so minima and
    maxima over a block are those over its pairs; they go to slot ``_DUMP``.
    The slot of d comes from s = d**2 without taking the root: with e2 the
    frexp exponent of s, that of d is (e2 + 1) >> 1, exactly, since sqrt
    is correctly rounded; the root is taken only for dmin, dmax and the
    argdist of a new maximum.  An entry can change a column's table only if
    its |df| exceeds the running maximum of its slot, so only those
    candidates are scattered; ties keep the earlier pair.
    """
    coords = fld.coords
    if len(coords) < 2:
        raise ValueError("need at least two points")
    if len(coords) > MAX_POINTS:
        raise ValueError(f"too many points ({len(coords)} > {MAX_POINTS})")
    m = len(coords)
    columns = np.ascontiguousarray(np.asarray(fld.values).reshape(m, -1).T)    # (k, m)
    cols = np.ascontiguousarray(coords.T)
    k = len(columns)
    counts = np.zeros(_SLOTS, dtype=int)
    maxima = np.zeros((k, _SLOTS))
    maxima[:, _DUMP] = np.inf               # no entry of the dump slot is a candidate
    argdist = np.zeros((k, _SLOTS))
    rank = np.zeros((k, _SLOTS), dtype=int)     # i * m + j of the argdist pair
    size = max(_BLOCK_ENTRIES, m - 1)
    sq, scratch = np.empty((2, size), dtype=cols.dtype)
    dv, thr = np.empty((2, size))
    diff = dv if columns.dtype == dv.dtype else np.empty(size, dtype=columns.dtype)
    slot = np.empty(size, dtype=np.intp)
    cand = np.empty(size, dtype=bool)
    smin, smax = np.inf, 0.0
    i0 = 0
    while i0 < m - 1:
        w = m - 1 - i0
        i1 = i0 + min(max(1, size // w), w)
        n = (i1 - i0) * w
        s, t = sq[:n].reshape(-1, w), scratch[:n].reshape(-1, w)
        np.subtract.outer(cols[0, i0:i1], cols[0, i0 + 1:], out=s)
        np.square(s, out=s)
        for col in cols[1:]:
            np.subtract.outer(col[i0:i1], col[i0 + 1:], out=t)
            s += np.square(t, out=t)
        r = np.arange(1, i1 - i0)
        s[r, r - 1] = s[r, r]
        smin, smax = min(smin, s.min()), max(smax, s.max())
        if smin == 0:
            raise ValueError("points must be pairwise distinct")
        sl = slot[:n]
        np.frexp(sq[:n], out=(scratch[:n], sl))
        sl += 1 + 2 * _SLOT0
        sl >>= 1
        sl.reshape(-1, w)[:, :i1 - i0][np.tri(i1 - i0, k=-1, dtype=bool)] = _DUMP
        counts += np.bincount(sl, minlength=_SLOTS)
        for v, mx, ad, rk in zip(columns, maxima, argdist, rank):
            np.subtract.outer(v[i0:i1], v[i0 + 1:], out=diff[:n].reshape(-1, w))
            np.abs(diff[:n], out=dv[:n])
            np.take(mx, sl, out=thr[:n])
            hits = np.flatnonzero(np.greater(dv[:n], thr[:n], out=cand[:n]))
            if not len(hits):
                continue
            hs, hv = sl[hits], dv[hits]
            # Every candidate beats its slot's running maximum, so the new
            # maximum of each slot it reaches is attained in this block,
            # first by the first pair in row-major order.
            np.maximum.at(mx, hs, hv)
            win = np.flatnonzero(hv == mx[hs])
            won, first = np.unique(hs[win], return_index=True)
            best = hits[win[first]]
            row, col = np.divmod(best, w)
            ad[won] = np.sqrt(sq[best])
            rk[won] = (i0 + row) * m + i0 + 1 + col
        i0 = i1
    dmin, dmax = float(np.sqrt(smin)), float(np.sqrt(smax))
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


# ---------------------------------------------------------------------------
# Calibration fields with known exponents
# ---------------------------------------------------------------------------

def calibration_fields() -> list[tuple[str, float, SampledField]]:
    """Known-exponent fields of ``_CALIBRATION_POINTS`` samples each:
    (name, true exponent, field).

    Equispaced samples keep every pair distance at or above the roughness
    cutoff of the lacunar series, so the estimator sees the asymptotic
    regime only.  The grid for |x|^(1/2) contains 0 so the extremal pair of
    every distance bin is present, and the lacunar window spans two periods
    so its top bins are not dominated by saturation.
    """
    x = np.linspace(-1.0, 1.0, _CALIBRATION_POINTS, endpoint=False)
    theta = np.linspace(0.0, 4.0 * np.pi, _CALIBRATION_POINTS, endpoint=False)
    return [
        ("abs_sqrt", 0.5, SampledField(points=x, values=np.sqrt(np.abs(x)))),
        ("linear", 1.0, SampledField(points=x, values=0.75 * x)),
        ("lacunar_0.3", 0.3, SampledField(points=theta, values=weierstrass(theta, 0.3))),
    ]
