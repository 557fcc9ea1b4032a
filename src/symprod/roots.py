"""Monic polynomials in coefficient form: evaluation and root finding.

Operates on batches of polynomials of a common degree, given by coefficient
rows in descending powers.  Roots are the eigenvalues of the companion
matrices, which are backward stable (Edelman & Murakami 1995, Math. Comp.
64, 763-776), finished by a guarded Newton polish.  Multiple roots end up
accurate to roughly sqrt(machine eps), which the callers accept through a
relaxed residual for clustered roots.
"""

from __future__ import annotations

import numpy as np

from .errors import RootFindingError

_POLISH_STEPS = 3


def monic_coefficients(z) -> np.ndarray:
    """Coefficient rows of t^n - z_1 t^(n-1) + z_2 t^(n-2) - ... + (-1)^n z_n.

    ``z`` has shape (..., n); returns (..., n+1) in descending powers.
    """
    z = np.asarray(z, dtype=complex)
    signs = (-1.0) ** np.arange(1, z.shape[-1] + 1)
    lead = np.ones(z.shape[:-1] + (1,), dtype=complex)
    return np.concatenate([lead, z * signs], axis=-1)


def derivative_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient rows of the derivative; (..., m+1) -> (..., m)."""
    return coeffs[..., :-1] * np.arange(coeffs.shape[-1] - 1, 0, -1)


def horner(coeffs, x) -> np.ndarray:
    """Values of the polynomials with coefficient rows ``coeffs`` at ``x``.

    ``coeffs`` has shape (..., m+1) in descending powers; ``x`` broadcasts
    against ``coeffs[..., :1]``: (..., k) gives k points per row, (k,) the
    same k points for every row.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=complex)
    shape = np.broadcast_shapes(coeffs[..., :1].shape, x.shape)
    out = np.broadcast_to(coeffs[..., :1], shape).copy()
    for k in range(1, coeffs.shape[-1]):
        out = out * x + coeffs[..., k : k + 1]
    return out


def monic_roots(coeffs) -> np.ndarray:
    """All roots of each monic polynomial row, sorted by (real, imag).

    ``coeffs`` has shape (B, degree+1) with leading entries 1; returns
    (B, degree).
    """
    c = np.asarray(coeffs, dtype=complex)
    B, m1 = c.shape
    degree = m1 - 1
    if degree < 1:
        raise ValueError("need degree >= 1")

    companion = np.zeros((B, degree, degree), dtype=complex)
    companion[:, 0, :] = -c[:, 1:]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    try:
        x = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:  # non-finite entries or no convergence
        raise RootFindingError(f"companion eigenvalues failed: {exc}") from exc

    dcoeffs = derivative_coefficients(c)
    for _ in range(_POLISH_STEPS):
        p = horner(c, x)
        dp = horner(dcoeffs, x)
        dp = np.where(dp == 0, 1e-300, dp)
        candidate = x - p / dp
        better = np.abs(horner(c, candidate)) <= np.abs(p)
        x = np.where(better, candidate, x)

    order = np.lexsort((x.imag, x.real), axis=-1)
    return np.take_along_axis(x, order, axis=-1)
