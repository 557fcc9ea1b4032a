"""Cross-module identity suites with pinned tolerances.

Each suite returns a :class:`SuiteResult` carrying the worst residual seen,
the tolerance it was checked against and the number of comparisons.  A
boundary datum whose samples are not finite is refused and compares nothing;
the other data of a suite form one stack, which each transform of a case
evaluates in one call, so a datum whose sum leaves the float range refuses
the whole case.  A suite checks its cases (arities, or data) one at a time,
and one rule, :func:`_tally`, holds for all of them: a library error while a
suite draws, certifies or evaluates a case leaves that case unchecked, so
the suite reports an infinite residual and fails, and the comparisons made
before the error still count.
The CLI ``identities`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import catalog, cauchy, divdiff, geometry, symmetric
from .errors import KernelProximityError, NonFiniteDataError, SamplingError, SymprodError

DEFAULT_NODES = 256
# Rounds of twice the missing rows that _separated_tuples draws before it gives up.
_TUPLE_ROUNDS = 5
_MAX_ORDER = 2             # derivative orders checked; _chain_rule_weights goes no higher
_CIRCLE_POINTS = 8         # points per Cauchy circle of derivative_factorization_suite
_CIRCLE_RADIUS = 0.05      # and its radius in root space, in domain diameters
_RESOLUTION = 1e-5         # least residual scale, as a fraction of the quadrature terms' size
_NEWTON_TUPLES = 125       # tuples per arity of newton_consistency_suite
_NEWTON_MAX_ARITY = 8


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float
    comparisons: int

    @property
    def passed(self) -> bool:
        """Within tolerance on at least one comparison; a suite that compared
        nothing has shown nothing."""
        return self.comparisons > 0 and self.max_residual <= self.tolerance


def _tally(name, tolerance, cases, compare) -> SuiteResult:
    """The worst residual and the count of the ``(residual, count)`` pairs that
    ``compare(case)`` yields for each case.  A library error leaves its case
    unchecked: the residual reads inf, and the pairs yielded before it count."""
    worst = 0.0
    comparisons = 0
    for case in cases:
        try:
            for residual, count in compare(case):
                worst = max(worst, residual)    # a NaN residual is skipped, as np.fmax does
                comparisons += count
        except SymprodError:
            worst = float("inf")
    return SuiteResult(name, worst, tolerance, comparisons)


def _boundary_data(domain, nodes, phis):
    """The data among ``phis`` whose samples on the domain's boundary grid are
    finite, and those samples as one stack (D, M), or None if there are none;
    the data refused with NonFiniteDataError are left out."""
    grid = geometry.sample_boundary(domain, nodes)
    kept, samples = [], []
    for phi in phis:
        try:
            samples.append(cauchy.boundary_samples(grid, phi))
        except NonFiniteDataError:
            continue
        kept.append(phi)
    return kept, cauchy.stack_samples(samples) if samples else None


def _separated_tuples(domain, n, count, rng, min_distance=0.12, separation=0.15):
    """``count`` tuples of ``n`` interior points with pairwise gaps of at least
    ``separation``: interior draws in rows of n, filtered by their smallest gap."""
    rows = np.empty((0, n), dtype=complex)
    for _ in range(_TUPLE_ROUNDS):
        need = count - len(rows)
        if need <= 0:
            break
        cand = geometry.sample_interior(domain, 2 * need * n, rng, min_distance).reshape(-1, n)
        gaps = np.abs(cand[:, :, None] - cand[:, None, :])
        gaps[:, np.arange(n), np.arange(n)] = np.inf
        rows = np.concatenate([rows, cand[gaps.min(axis=(1, 2)) >= separation][:need]])
    if len(rows) < count:
        raise SamplingError(f"placed {len(rows)} of {count} tuples with gaps >= {separation}")
    return rows


def cauchy_reproduction_suite(domain, nodes=DEFAULT_NODES, points=200, seed=0) -> SuiteResult:
    """Reproduction of holomorphic boundary traces by the Cauchy transform,
    each datum's error relative to ``max(1, max|phi|)`` over the nodes."""
    rng = np.random.default_rng(seed)
    phis, data = _boundary_data(domain, nodes, [catalog.monomial_phi(m) for m in range(9)]
                                + [catalog.pole_phi(3.0)])

    def compare(count):
        zs = cauchy._require_inside(domain, geometry.sample_interior(domain, count, rng, 0.1))
        if data is None:
            return
        got = cauchy.cauchy_transform(data, zs)    # (count, D)
        for d, phi in enumerate(phis):
            scale = max(1.0, float(np.abs(data.values[d]).max()))
            yield float(np.abs(got[:, d] - phi(zs.points)).max()) / scale, len(got)

    return _tally("cauchy_reproduction", 1e-10, [points], compare)


def norlund_divdiff_suite(domain, nodes=DEFAULT_NODES, points=200, seed=0,
                          arities=(2, 3, 4)) -> SuiteResult:
    """Multi-node transform against divided differences of the Cauchy
    transform evaluated on the same grid."""
    rng = np.random.default_rng(seed)
    phis, data = _boundary_data(domain, nodes, catalog.smooth_phi_suite()
                                + [catalog.conj_phi(), catalog.weierstrass_phi(0.5)])

    def compare(n):
        tuples = cauchy._require_inside(domain, _separated_tuples(domain, n, points, rng))
        if data is None:
            return
        lhs = cauchy.norlund_transform(data, tuples)              # (B, D)
        values = cauchy.cauchy_transform(data, tuples)            # (B, n, D)
        for d in range(len(phis)):
            ref = divdiff.divdiff_table(values[..., d], tuples.points)
            yield float(np.fmax.reduce(_abs(lhs[:, d] - ref))), len(lhs)

    return _tally("norlund_divided_difference", 1e-9, arities, compare)


def gh_equivalence_suite(seed=0, tuples_per_case=20, max_nodes=5) -> SuiteResult:
    """Simplex-integral route against the Newton-table recursion."""
    rng = np.random.default_rng(seed)
    funs = [catalog.exp_function(), catalog.monomial_phi(3),
            catalog.monomial_phi(6), catalog.pole_phi(3.0)]

    def compare(fun):
        for m in range(2, max_nodes + 1):
            made = 0
            while made < tuples_per_case:
                z = rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(-0.7, 0.7, m)
                z = z[np.abs(z) < 0.95]
                if len(z) < m:
                    continue
                d = np.abs(z[:, None] - z[None, :])
                np.fill_diagonal(d, np.inf)
                if d.min() < 0.1:
                    continue
                a = divdiff.divdiff_recursive(fun, z)
                b = divdiff.divdiff_analytic(fun, z)
                yield abs(a - b), 1
                made += 1

    return _tally("simplex_recursion_equivalence", 1e-9, funs, compare)


def pushforward_suite(domain, nodes=DEFAULT_NODES, points=200, seed=0,
                      arities=(1, 2, 3)) -> SuiteResult:
    """Symmetrized transform at the coefficients of a tuple against the
    multi-node transform at the tuple itself."""
    rng = np.random.default_rng(seed)
    phis, data = _boundary_data(domain, nodes,
                                catalog.smooth_phi_suite() + [catalog.weierstrass_phi(0.5)])

    def compare(n):
        tuples = cauchy._require_inside(domain, _separated_tuples(
            domain, n, points, rng, min_distance=0.2, separation=0.05))
        zs = cauchy._require_roots_inside(domain, symmetric.symmetrize(tuples.points))
        if data is None:
            return
        lhs = cauchy.symmetrized_transform(data, zs)      # (B, D)
        rhs = cauchy.norlund_transform(data, tuples)
        for d in range(len(phis)):
            yield float(np.abs(lhs[:, d] - rhs[:, d]).max()), len(lhs)

    return _tally("pushforward_identity", 1e-9, arities, compare)


def derivative_factorization_suite(domain, nodes=DEFAULT_NODES, points=5, seed=0,
                                   arities=(1, 2, 3)) -> SuiteResult:
    """Factorized derivatives of the symmetrized transform against its Taylor
    coefficients on Cauchy circles in root space.

    Per arity, the tuples' roots w get C(n+1, 2) directions u, from a
    generator spawned off the tuple draws, and a circle w + zeta*u of
    ``_CIRCLE_POINTS`` points along each.  One symmetrized transform call per
    arity evaluates all circle points for all data, and an FFT gives the
    Taylor coefficients g_k of F(symmetrize(w + zeta*u)); the chain rule
    predicts them from the derivatives (:func:`_chain_rule_weights`).  A residual
    |g_k - c_k| is scaled by the largest sum of |terms| of c_k over the
    arity's tuples and directions, or, where that is larger, by
    ``_RESOLUTION`` times a bound on the size of the quadrature terms over
    radius^k, which rounding resolves; it needs each entry of order <= k of
    its tuple.

    The composed kernel of order |gamma| has degree n*(|gamma|+1) and the
    floor ``KERNEL_FLOOR * diameter^(n*(|gamma|+1))``.  Tuples sit 0.37
    diameters deep, which clears it while n*(|gamma|+1) <= 9.  Past that the
    floor refuses some tuples' orders; the one derivative call per arity,
    for all data, hands back the other entries with its refusal.  If the
    floor refuses every tuple of an arity at one order (on the unit disc,
    order 2 from n = 5), or refuses the circle points, that order is
    unchecked and the suite reports an infinite residual, so it fails.  So
    does an arity that places no tuples at the sampling depth, as on a
    narrow annulus or on ``ellipse 0 0 1 0.77`` at n = 3, or meets another
    library error: that arity goes unchecked.
    """
    rng = np.random.default_rng(seed)
    direction_rng = rng.spawn(1)[0]
    phis, data = _boundary_data(domain, nodes, [catalog.pole_phi(3.0), catalog.monomial_phi(6)])
    diameter = geometry.domain_diameter(domain)
    # Every kernel factor is at least 0.37 * diameter: 0.37^9 ~ 1.3e-4 > KERNEL_FLOOR.
    depth = 0.37 * diameter
    radius = _CIRCLE_RADIUS * diameter
    zeta = radius * np.exp(2j * np.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS)
    rho_k = radius ** np.arange(_MAX_ORDER + 1)

    def compare(n):
        tuples = _separated_tuples(domain, n, points, rng, min_distance=depth, separation=0.08)
        zs = cauchy._require_roots_inside(domain, symmetric.symmetrize(tuples))
        gammas = np.array(_multi_indices(n))
        orders = gammas.sum(axis=1)
        re, im = direction_rng.standard_normal((2, n * (n + 1) // 2, n))
        u = (re + 1j * im) / np.abs(re + 1j * im).max(axis=-1, keepdims=True)   # (D, n)
        # Roots that move at most _CIRCLE_RADIUS diameters stay 0.32 deep.  Certified once,
        # they are carried with their coefficients, so no root finding runs for them.
        w = tuples[:, None, None, :] + zeta[:, None] * u[:, None, :]                # (B, D, M, n)
        w = cauchy._require_inside(domain, w).points
        circles = cauchy._Inside(domain, symmetric.symmetrize(w), w)
        weights = _chain_rule_weights(gammas, tuples[:, None, :], u)     # (B, D, K, G)
        if data is None:
            return
        try:
            got = cauchy.derivative_symmetrized(gammas, data, zs)     # (B, G, P): P data
            accepted = np.ones(got.shape[:-1], dtype=bool)
        except KernelProximityError as exc:
            got, accepted = exc.partial
        # (B, K): tuples whose entries of order <= k were all accepted.
        checked = (accepted[:, None, :]
                   | (orders > np.arange(_MAX_ORDER + 1)[:, None])).all(-1)
        # The floor refuses circle points for every datum alike: the arity goes unchecked.
        values = cauchy.symmetrized_transform(data, circles)     # (B, D, M, P)
        if not checked.any(axis=0).all():
            yield float("inf"), 0    # an order that no tuple could check
        for d in range(len(phis)):
            taylor = np.fft.fft(values[..., d])[..., :_MAX_ORDER + 1] / (_CIRCLE_POINTS * rho_k)
            terms = got[:, None, None, :, d] * weights
            mask = np.broadcast_to(checked[:, None, :], taylor.shape)
            scale = np.where(mask, _abs(terms).sum(axis=-1), 0.0).max(axis=(0, 1))   # (K,)
            # Terms of a circle point's sum are at most |phi w| / (0.32 diameter)^n.
            size = (_abs(data.values[d] * data.grid.weights).sum()
                    / (2 * np.pi * (0.32 * diameter)**n))
            errors = _abs(taylor - terms.sum(axis=-1)) / np.maximum(scale, _RESOLUTION * size / rho_k)
            yield float(np.fmax.reduce(errors[mask], initial=0.0)), int(mask.sum())

    return _tally("derivative_factorization", 1e-9, arities, compare)


def _multi_indices(n: int) -> list[tuple[int, ...]]:
    """Multi-indices of n variables up to ``_MAX_ORDER``, by order, then lexicographically."""
    return [g for order in range(_MAX_ORDER + 1)
            for g in itertools.product(range(order + 1), repeat=n) if sum(g) == order]


def _abs(x: np.ndarray) -> np.ndarray:
    # Bit for bit Python's abs(complex); np.abs of complex arrays may differ.
    # The suites reduce these with np.fmax, which skips NaN entries as
    # _tally's max(worst, residual) skips a NaN residual.
    return np.hypot(x.real, x.imag)


def _chain_rule_weights(gammas, w, u):
    """Weights (..., K, G) taking the derivatives (..., G) of F at z(0) to the
    Taylor coefficients c_k, k <= _MAX_ORDER = 2, of F(z(zeta)) for
    z(zeta) = symmetrize(w + zeta*u): a_1^gamma / gamma! at k = |gamma|, and
    a_2^gamma at k = |gamma| + 1 = 2.  The curve's coefficients a_k are those
    of x^1..x^n in prod_j (1 + x*(w_j + zeta*u_j)), truncated after zeta^2.
    Raises :class:`NonFiniteDataError` if a weight leaves the float range, as
    on a very large domain, so the arity goes unchecked."""
    w, u = np.broadcast_arrays(w, u)
    a = np.zeros((_MAX_ORDER + 1,) + w.shape[:-1] + (w.shape[-1] + 1,), dtype=complex)
    a[0, ..., 0] = 1.0
    for j in range(w.shape[-1]):
        step = w[..., j, None] * a[..., :-1]
        step[1:] += u[..., j, None] * a[:-1, ..., :-1]
        a[..., 1:] += step
    orders = gammas.sum(axis=1)
    factorials = np.prod([[math.factorial(g) for g in row] for row in gammas], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        first = np.prod(a[1, ..., None, 1:] ** gammas, axis=-1) / factorials       # (..., G)
        second = np.prod(a[2, ..., None, 1:] ** gammas[orders == 1], axis=-1)
    if not (np.isfinite(first).all() and np.isfinite(second).all()):
        raise NonFiniteDataError("chain-rule weights are not finite")
    weights = np.zeros(first.shape[:-1] + (_MAX_ORDER + 1, len(gammas)), dtype=complex)
    for k in range(_MAX_ORDER + 1):
        weights[..., k, orders == k] = first[..., orders == k]
    weights[..., 2, orders == 1] = second
    return weights


def power_sum_suite(domain, nodes=DEFAULT_NODES, points=50, seed=0, arities=(1, 2, 3)) -> SuiteResult:
    """Boundary power-sum integrals against direct power sums over the
    drawn roots (residue identity), each error relative to
    ``max(1, max|f|^ell)`` over the nodes."""
    rng = np.random.default_rng(seed)
    funs, data = _boundary_data(domain, nodes, [catalog.monomial_phi(1), catalog.monomial_phi(2)])

    def compare(n):
        tuples = _separated_tuples(domain, n, points, rng, min_distance=0.2, separation=0.05)
        zs = cauchy._require_roots_inside(domain, symmetric.symmetrize(tuples))
        if data is None:
            return
        got = symmetric.power_sum_transform(data, range(1, n + 1), zs)    # (B, n, D)
        for d, fun in enumerate(funs):
            roots_vals = fun(tuples)
            for ell in range(1, n + 1):
                ref = (roots_vals**ell).sum(axis=-1)
                scale = max(1.0, float(np.abs(data.values[d]).max()) ** ell)
                yield float(np.abs(got[:, ell - 1, d] - ref).max()) / scale, len(tuples)

    return _tally("power_sum_residues", 1e-9, arities, compare)


def newton_consistency_suite(seed=0) -> SuiteResult:
    """Newton's identities recover the elementary symmetric values from
    power sums (relative error)."""
    rng = np.random.default_rng(seed)

    def compare(n):
        shape = (_NEWTON_TUPLES, n)
        w = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        e_direct = symmetric.symmetrize(w)
        e_newton = symmetric.newton_map(symmetric.power_sums(w))
        scale = 1.0 + np.abs(e_direct).max(axis=-1, keepdims=True)
        yield float((np.abs(e_newton - e_direct) / scale).max()), _NEWTON_TUPLES

    return _tally("newton_power_sum_consistency", 1e-11, range(1, _NEWTON_MAX_ARITY + 1),
                  compare)


def permutation_invariance_suite(domain, nodes=DEFAULT_NODES, points=25, seed=0) -> SuiteResult:
    """Bitwise permutation invariance of the multi-node transform: the tuples
    and three permutations of their coordinates, in one call per arity."""
    rng = np.random.default_rng(seed)
    phis, data = _boundary_data(domain, nodes, [catalog.pole_phi(3.0)])

    def compare(n):
        tuples = cauchy._require_inside(domain, _separated_tuples(domain, n, points, rng))
        if data is None:
            return
        orders = np.stack([np.arange(n)] + [rng.permutation(n) for _ in range(3)])
        out = cauchy.norlund_transform(data, tuples[:, orders])    # (B, 4, D)
        for d in range(len(phis)):
            for other in out[:, 1:, d].T:
                yield float(np.abs(other - out[:, 0, d]).max()), len(out)

    return _tally("permutation_invariance", 0.0, (2, 3, 4), compare)


def run_identity_suites(domain, nodes=DEFAULT_NODES, max_arity=3, seed=0,
                        points=50, tol_scale=1.0) -> list[SuiteResult]:
    """The full identity suite at CLI scale."""
    arities = tuple(range(2, max_arity + 1)) or (2,)
    sym_arities = tuple(range(1, max_arity + 1))
    return [replace(r, tolerance=r.tolerance * tol_scale) for r in [
        cauchy_reproduction_suite(domain, nodes, points, seed),
        norlund_divdiff_suite(domain, nodes, points, seed, arities=arities),
        gh_equivalence_suite(seed, tuples_per_case=5, max_nodes=min(max_arity + 1, 5)),
        pushforward_suite(domain, nodes, points, seed, arities=sym_arities),
        derivative_factorization_suite(domain, nodes, max(points // 10, 3), seed,
                                       arities=sym_arities),
        power_sum_suite(domain, nodes, max(points // 2, 10), seed, arities=sym_arities),
        newton_consistency_suite(seed),
        permutation_invariance_suite(domain, nodes, max(points // 2, 10), seed),
    ]]
