"""Cross-module identity suites with pinned tolerances.

Each suite returns a :class:`SuiteResult` carrying the worst residual seen,
the tolerance it was checked against and the number of comparisons.  A
boundary datum whose samples are not finite is refused and compares nothing.
The CLI ``identities`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import catalog, cauchy, divdiff, geometry, symmetric
from .errors import KernelProximityError, NonFiniteDataError, SamplingError

DEFAULT_NODES = 256
# Rounds of twice the missing rows that _separated_tuples draws before it gives up.
_TUPLE_ROUNDS = 5
_MAX_ORDER = 2             # derivative orders checked; _stencils goes no higher
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


def _boundary_data(grid, phis):
    """(phi, samples) for each datum whose samples on the grid are finite;
    the data refused with NonFiniteDataError are left out."""
    data = []
    for phi in phis:
        try:
            data.append((phi, cauchy.boundary_samples(grid, phi)))
        except NonFiniteDataError:
            continue
    return data


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
    """Reproduction of holomorphic boundary traces by the Cauchy transform."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    phis = [catalog.monomial_phi(m) for m in range(9)] + [catalog.pole_phi(3.0)]
    zs = cauchy._require_inside(domain, geometry.sample_interior(domain, points, rng, 0.1))
    data = _boundary_data(grid, phis)
    worst = 0.0
    comparisons = 0
    for phi, samples in data:
        exact = phi.holomorphic_extension()
        got = cauchy.cauchy_transform(samples, zs)
        worst = max(worst, float(np.abs(got - exact(zs.points)).max()))
        comparisons += len(got)
    return SuiteResult("cauchy_reproduction", worst, 1e-10, comparisons)


def norlund_divdiff_suite(domain, nodes=DEFAULT_NODES, points=200, seed=0,
                          arities=(2, 3, 4)) -> SuiteResult:
    """Multi-node transform against divided differences of the Cauchy
    transform evaluated on the same grid."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    phis = catalog.smooth_phi_suite() + [catalog.conj_phi(), catalog.weierstrass_phi(0.5)]
    data = _boundary_data(grid, phis)
    worst = 0.0
    comparisons = 0
    for n in arities:
        tuples = cauchy._require_inside(domain, _separated_tuples(domain, n, points, rng))
        for _, samples in data:
            lhs = cauchy.norlund_transform(samples, tuples)
            ref = divdiff.divdiff_table(cauchy.cauchy_transform(samples, tuples), tuples.points)
            worst = max(worst, float(np.fmax.reduce(_abs(lhs - ref))))
            comparisons += len(lhs)
    return SuiteResult("norlund_divided_difference", worst, 1e-9, comparisons)


def gh_equivalence_suite(seed=0, tuples_per_case=20, max_nodes=5) -> SuiteResult:
    """Simplex-integral route against the Newton-table recursion."""
    rng = np.random.default_rng(seed)
    funs = [catalog.exp_function(), catalog.monomial_function(3),
            catalog.monomial_function(6), catalog.pole_function(3.0)]
    worst = 0.0
    comparisons = 0
    for fun in funs:
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
                worst = max(worst, abs(a - b))
                comparisons += 1
                made += 1
    return SuiteResult("simplex_recursion_equivalence", worst, 1e-9, comparisons)


def pushforward_suite(domain, nodes=DEFAULT_NODES, points=200, seed=0,
                      arities=(1, 2, 3)) -> SuiteResult:
    """Symmetrized transform at the coefficients of a tuple against the
    multi-node transform at the tuple itself."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    phis = catalog.smooth_phi_suite() + [catalog.weierstrass_phi(0.5)]
    data = _boundary_data(grid, phis)
    worst = 0.0
    comparisons = 0
    for n in arities:
        tuples = cauchy._require_inside(domain, _separated_tuples(
            domain, n, points, rng, min_distance=0.2, separation=0.05))
        zs = cauchy._require_roots_inside(domain, symmetric.symmetrize(tuples.points))
        for _, samples in data:
            lhs = cauchy.symmetrized_transform(samples, zs)
            rhs = cauchy.norlund_transform(samples, tuples)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            comparisons += len(lhs)
    return SuiteResult("pushforward_identity", worst, 1e-9, comparisons)


def derivative_factorization_suite(domain, nodes=DEFAULT_NODES, points=5, seed=0,
                                   arities=(1, 2, 3)) -> SuiteResult:
    """Factorized derivative of the symmetrized transform against central
    finite differences (relative error).

    Per arity and boundary datum, one :func:`cauchy.derivative_symmetrized`
    call evaluates every tuple at every multi-index up to ``_MAX_ORDER``, and
    one :func:`cauchy.symmetrized_transform` call evaluates every point of
    the finite-difference stencils (step 1e-4) that the accepted entries use.
    The tuples and the stencil points in use are checked once per arity.

    The composed kernel of order |gamma| has degree n*(|gamma|+1) and the
    floor ``KERNEL_FLOOR * diameter^(n*(|gamma|+1))``.  Tuples sit 0.37
    diameters deep, which clears it while n*(|gamma|+1) <= 9.  Past that the
    floor refuses the whole call; :func:`_accepted_derivatives` then
    evaluates the entries again by order, then by tuple, and skips those
    it refuses.  If the floor refuses every tuple of an arity at one order
    (on the unit disc, order 2 from n = 5), that order is unchecked and the
    suite reports an infinite residual, so it fails.  A domain too thin for
    the sampling depth, such as a narrow annulus, places no tuples, and the
    arity makes no comparison.
    """
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    data = _boundary_data(grid, [catalog.pole_phi(3.0), catalog.monomial_phi(6)])
    # Every kernel factor is at least 0.37 * diameter: 0.37^9 ~ 1.3e-4 > KERNEL_FLOOR.
    depth = 0.37 * geometry.domain_diameter(domain)
    worst = 0.0
    comparisons = 0
    for n in arities:
        try:
            tuples = _separated_tuples(domain, n, points, rng, min_distance=depth,
                                       separation=0.08)
        except SamplingError:
            continue
        zs = cauchy._require_roots_inside(domain, symmetric.symmetrize(tuples))
        gammas = np.array(_multi_indices(n))
        orders = gammas.sum(axis=1)
        offsets, uses, coefs, denominators = _stencils(gammas, 1e-4)
        touches = (uses[:, :, None] == np.arange(len(offsets))).any(axis=1)   # (G, P)
        runs = [(samples, *_accepted_derivatives(gammas, samples, zs)) for _, samples in data]
        # Only the stencil points of accepted entries are checked, once, and evaluated.
        needs = [(accepted[:, :, None] & touches).any(axis=1) for *_, accepted in runs]
        used = np.any(needs, axis=0)
        stencil = cauchy._require_roots_inside(domain, (zs.points[:, None, :] + offsets)[used])
        for (samples, got, accepted), need in zip(runs, needs):
            f = np.zeros(need.shape, dtype=complex)
            if need.any():
                f[need] = cauchy.symmetrized_transform(samples, stencil[need[used]])
            ref = _stencil_values(f, uses, coefs, denominators)
            scale = _abs(ref)
            keep = accepted & ~(scale < 1e-2)
            if keep.any():
                errors = _abs(got - ref)[keep] / scale[keep]
                worst = max(worst, float(np.fmax.reduce(errors)))
                comparisons += int(keep.sum())
            if any(not accepted[:, orders == k].any() for k in range(_MAX_ORDER + 1)):
                worst = float("inf")
    return SuiteResult("derivative_factorization", worst, 1e-5, comparisons)


def _multi_indices(n: int) -> list[tuple[int, ...]]:
    """Multi-indices of n variables up to ``_MAX_ORDER``, by order, then lexicographically."""
    return [g for order in range(_MAX_ORDER + 1)
            for g in itertools.product(range(order + 1), repeat=n) if sum(g) == order]


def _abs(x: np.ndarray) -> np.ndarray:
    # Bit for bit Python's abs(complex); np.abs of complex arrays may differ.
    # The suites reduce these with np.fmax, which skips NaN entries as the
    # per-entry max(worst, abs(...)) loops it replaced did.
    return np.hypot(x.real, x.imag)


def _accepted_derivatives(gammas, samples, zs):
    """Derivatives (B, G) of ``cauchy.derivative_symmetrized`` and the mask of
    the entries that the kernel floor accepted; the others read 0.

    One call for all entries; if the floor refuses it, one call per order
    over all tuples, and one call per tuple within an order it refuses.  The
    floor refuses all of a tuple's multi-indices of one order together.
    Every retry slices one certified set of the tuples and their roots.
    """
    zs = cauchy._require_roots_inside(samples.grid.domain, zs)
    got = np.zeros((len(zs.points), len(gammas)), dtype=complex)
    accepted = np.ones(got.shape, dtype=bool)

    def evaluate(rows, cols):
        try:
            got[np.ix_(rows, cols)] = cauchy.derivative_symmetrized(gammas[cols], samples, zs[rows])
        except KernelProximityError:
            return False
        return True

    tuples, orders = np.arange(len(got)), gammas.sum(axis=1)
    if not evaluate(tuples, orders >= 0):
        for k in np.unique(orders):
            if not evaluate(tuples, orders == k):
                for b in tuples:
                    accepted[b, orders == k] = evaluate([b], orders == k)
    return got, accepted


def _stencils(gammas, h):
    """Central-difference stencils of the multi-indices (order at most 2).

    The difference of multi-index g at z is
    ``sum_k coefs[g, k] * f(z + offsets[uses[g, k]]) / denominators[g]``,
    summed in k order; unused slots have ``uses`` -1 and coefficient 0.
    ``offsets`` (P, n) lists each displacement once.
    """
    n = gammas.shape[1]
    offsets: dict[tuple, int] = {}
    uses = np.full((len(gammas), 4), -1)
    coefs = np.zeros((len(gammas), 4))
    denominators = np.ones(len(gammas))

    def step(i, sign):
        e = np.zeros(n)
        e[i] = sign * h
        return e

    for row, gamma in enumerate(gammas):
        order = int(gamma.sum())
        if order > 2:
            raise ValueError(f"finite differences reach order 2, not {order}")
        if order == 0:
            pairs = [(np.zeros(n), 1.0)]
        else:
            i, j = np.flatnonzero(gamma)[[0, -1]]   # i == j unless gamma is mixed
            if order == 1:
                pairs, denominators[row] = [(step(i, 1), 1.0), (step(i, -1), -1.0)], 2 * h
            elif i == j:
                pairs = [(step(i, 1), 1.0), (np.zeros(n), -2.0), (step(i, -1), 1.0)]
                denominators[row] = h**2
            else:
                pairs = [(step(i, a) + step(j, b), a * b) for a in (1, -1) for b in (1, -1)]
                denominators[row] = 4 * h**2
        for k, (offset, coef) in enumerate(pairs):
            uses[row, k] = offsets.setdefault(tuple(offset), len(offsets))
            coefs[row, k] = coef
    return np.array(list(offsets)), uses, coefs, denominators


def _stencil_values(f, uses, coefs, denominators):
    """Differences (B, G) from the stencil-point values ``f`` (B, P).

    Real and imaginary parts are summed and divided separately, which is
    what Python's complex arithmetic does with real coefficients; numpy's
    complex-by-real division would round differently.
    """
    out = np.empty((len(f), len(uses)), dtype=complex)
    for part, values in ((out.real, f.real), (out.imag, f.imag)):
        acc = coefs[:, 0] * values[:, uses[:, 0]]
        for k in range(1, uses.shape[1]):
            acc = acc + coefs[:, k] * values[:, uses[:, k]]
        part[...] = acc / denominators
    return out


def power_sum_suite(domain, nodes=DEFAULT_NODES, points=50, seed=0, arities=(1, 2, 3)) -> SuiteResult:
    """Boundary power-sum integrals against direct power sums over the
    desymmetrized roots (residue identity)."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    funs = [catalog.identity_function(), catalog.monomial_function(2)]
    worst = 0.0
    comparisons = 0
    for n in arities:
        tuples = _separated_tuples(domain, n, points, rng, min_distance=0.2, separation=0.05)
        zs = cauchy._require_roots_inside(domain, symmetric.symmetrize(tuples))
        for fun in funs:
            samples = cauchy.boundary_samples(grid, lambda t, theta: fun(t), description=fun.label)
            roots_vals = fun(tuples)
            for ell in range(1, n + 1):
                got = symmetric.power_sum_transform(samples, ell, zs)
                ref = (roots_vals**ell).sum(axis=-1)
                worst = max(worst, float(np.abs(got - ref).max()))
                comparisons += len(tuples)
    return SuiteResult("power_sum_residues", worst, 1e-9, comparisons)


def newton_consistency_suite(seed=0) -> SuiteResult:
    """Newton's identities recover the elementary symmetric values from
    power sums (relative error)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, _NEWTON_MAX_ARITY + 1):
        shape = (_NEWTON_TUPLES, n)
        w = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        e_direct = symmetric.symmetrize(w)
        e_newton = symmetric.newton_map(symmetric.power_sums(w))
        scale = 1.0 + np.abs(e_direct).max(axis=-1, keepdims=True)
        worst = max(worst, float((np.abs(e_newton - e_direct) / scale).max()))
    return SuiteResult("newton_power_sum_consistency", worst, 1e-11,
                       _NEWTON_TUPLES * _NEWTON_MAX_ARITY)


def permutation_invariance_suite(domain, nodes=DEFAULT_NODES, points=25, seed=0) -> SuiteResult:
    """Bitwise permutation invariance of the multi-node transform."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    data = _boundary_data(grid, [catalog.pole_phi(3.0)])
    worst = 0.0
    comparisons = 0
    for n in (2, 3, 4):
        tuples = cauchy._require_inside(domain, _separated_tuples(domain, n, points, rng))
        for _, samples in data:
            base = cauchy.norlund_transform(samples, tuples)
            for _ in range(3):
                perm = rng.permutation(n)
                other = cauchy.norlund_transform(samples, tuples[:, perm])
                worst = max(worst, float(np.abs(other - base).max()))
                comparisons += len(base)
    return SuiteResult("permutation_invariance", worst, 0.0, comparisons)


def run_identity_suites(domain, nodes=DEFAULT_NODES, max_arity=3, seed=0,
                        points=50, tol_scale=1.0) -> list[SuiteResult]:
    """The full identity suite at CLI scale."""
    arities = tuple(range(2, max_arity + 1)) or (2,)
    sym_arities = tuple(range(1, max_arity + 1))
    results = [
        cauchy_reproduction_suite(domain, nodes, points, seed),
        norlund_divdiff_suite(domain, nodes, points, seed, arities=arities),
        gh_equivalence_suite(seed, tuples_per_case=5, max_nodes=min(max_arity + 1, 5)),
        pushforward_suite(domain, nodes, points, seed, arities=sym_arities),
        derivative_factorization_suite(domain, nodes, max(points // 10, 3), seed,
                                       arities=sym_arities),
        power_sum_suite(domain, nodes, max(points // 2, 10), seed, arities=sym_arities),
        newton_consistency_suite(seed),
        permutation_invariance_suite(domain, nodes, max(points // 2, 10), seed),
    ]
    if tol_scale != 1.0:
        results = [
            SuiteResult(r.name, r.max_residual, r.tolerance * tol_scale, r.comparisons)
            for r in results
        ]
    return results
