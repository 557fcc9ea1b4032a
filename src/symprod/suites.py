"""Cross-module identity suites with pinned tolerances.

Each suite returns a :class:`SuiteResult` carrying the worst residual seen,
the tolerance it was checked against, and the number of comparisons.  The
CLI ``identities`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog, cauchy, divdiff, geometry, holder, symmetric
from .errors import KernelProximityError, SamplingError

DEFAULT_NODES = 256
# Rounds of twice the missing rows that _separated_tuples draws before it gives up.
_TUPLE_ROUNDS = 5


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
    zs = geometry.sample_interior(domain, points, rng, 0.1)
    worst = 0.0
    comparisons = 0
    for phi in phis:
        samples = cauchy.boundary_samples(grid, phi)
        exact = phi.holomorphic_extension()
        got = cauchy.cauchy_transform(samples, zs)
        worst = max(worst, float(np.abs(got - exact(zs)).max()))
        comparisons += len(zs)
    return SuiteResult("cauchy_reproduction", worst, 1e-10, comparisons)


def norlund_divdiff_suite(domain, nodes=DEFAULT_NODES, points=200, seed=0,
                          arities=(2, 3, 4)) -> SuiteResult:
    """Multi-node transform against divided differences of the Cauchy
    transform evaluated on the same grid."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    phis = catalog.smooth_phi_suite() + [catalog.conj_phi(), catalog.weierstrass_phi(0.5)]
    worst = 0.0
    comparisons = 0
    for n in arities:
        tuples = _separated_tuples(domain, n, points, rng)
        for phi in phis:
            samples = cauchy.boundary_samples(grid, phi)
            lhs = cauchy.norlund_transform(samples, tuples)
            values = cauchy.cauchy_transform(samples, tuples)
            for row, values_row, got in zip(tuples, values, lhs):
                ref = divdiff.divdiff_table(values_row, row)
                worst = max(worst, abs(got - ref))
                comparisons += 1
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
    worst = 0.0
    comparisons = 0
    for n in arities:
        tuples = _separated_tuples(domain, n, points, rng, min_distance=0.2, separation=0.05)
        zs = symmetric.symmetrize(tuples)
        for phi in phis:
            samples = cauchy.boundary_samples(grid, phi)
            lhs = cauchy.symmetrized_transform(samples, zs, check_region=False)
            rhs = cauchy.norlund_transform(samples, tuples)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            comparisons += len(tuples)
    return SuiteResult("pushforward_identity", worst, 1e-9, comparisons)


def derivative_factorization_suite(domain, nodes=DEFAULT_NODES, points=5, seed=0,
                                   arities=(1, 2, 3), max_order=2) -> SuiteResult:
    """Factorized derivative of the symmetrized transform against central
    finite differences (relative error).

    The composed kernel of order |gamma| has degree n*(|gamma|+1) and the
    floor ``KERNEL_FLOOR * diameter^(n*(|gamma|+1))``.  Tuples sit 0.37
    diameters deep, which clears it while n*(|gamma|+1) <= 9; past that,
    refused points are skipped (on the unit disc from n = 4: 560 of 1800
    calls at 60 points).  A domain too thin for that depth, such as a
    narrow annulus, fails the sampling, and the arity makes no comparison.
    Finite differences take the step 1e-4.
    """
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    phis = [catalog.pole_phi(3.0), catalog.monomial_phi(6)]
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
        zs = symmetric.symmetrize(tuples)
        gammas = holder._multi_indices(n, max_order)
        for phi in phis:
            samples = cauchy.boundary_samples(grid, phi)

            def ev(zz, samples=samples):
                return cauchy.symmetrized_transform(samples, zz, check_region=False)

            for z in zs:
                for gamma in gammas:
                    try:
                        got = cauchy.derivative_symmetrized(gamma, samples, z)
                    except KernelProximityError:
                        continue
                    ref = _finite_difference(ev, z, gamma, 1e-4)
                    if abs(ref) < 1e-2:
                        continue
                    worst = max(worst, abs(got - ref) / abs(ref))
                    comparisons += 1
    return SuiteResult("derivative_factorization", worst, 1e-5, comparisons)


def _finite_difference(f, z, gamma, h):
    order = sum(gamma)
    if order == 0:
        return f(z)
    first = [i for i, g in enumerate(gamma) if g > 0][0]
    e = np.zeros(len(z), dtype=complex)
    e[first] = h
    if order == 1:
        return (f(z + e) - f(z - e)) / (2 * h)
    rest = list(gamma)
    rest[first] -= 1
    if rest[first] > 0:
        second = first
    else:
        second = [i for i, g in enumerate(rest) if g > 0][0]
    if second == first:
        return (f(z + e) - 2 * f(z) + f(z - e)) / h**2
    e2 = np.zeros(len(z), dtype=complex)
    e2[second] = h
    return (f(z + e + e2) - f(z + e - e2) - f(z - e + e2) + f(z - e - e2)) / (4 * h**2)


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
        zs = symmetric.symmetrize(tuples)
        for fun in funs:
            samples = cauchy.boundary_samples(grid, lambda t, theta: fun(t), description=fun.label)
            roots_vals = fun(tuples)
            for ell in range(1, n + 1):
                got = symmetric.power_sum_transform(samples, ell, zs, check_region=False)
                ref = (roots_vals**ell).sum(axis=-1)
                worst = max(worst, float(np.abs(got - ref).max()))
                comparisons += len(tuples)
    return SuiteResult("power_sum_residues", worst, 1e-9, comparisons)


def newton_consistency_suite(seed=0, samples=1000, max_arity=8) -> SuiteResult:
    """Newton's identities recover the elementary symmetric values from
    power sums (relative error)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    comparisons = 0
    for n in range(1, max_arity + 1):
        count = max(samples // max_arity, 50)
        w = rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))
        e_direct = symmetric.symmetrize(w)
        e_newton = symmetric.newton_map(symmetric.power_sums(w))
        scale = 1.0 + np.abs(e_direct).max(axis=-1, keepdims=True)
        worst = max(worst, float((np.abs(e_newton - e_direct) / scale).max()))
        comparisons += count
    return SuiteResult("newton_power_sum_consistency", worst, 1e-11, comparisons)


def permutation_invariance_suite(domain, nodes=DEFAULT_NODES, points=25, seed=0) -> SuiteResult:
    """Bitwise permutation invariance of the multi-node transform."""
    rng = np.random.default_rng(seed)
    grid = geometry.sample_boundary(domain, nodes)
    samples = cauchy.boundary_samples(grid, catalog.pole_phi(3.0))
    worst = 0.0
    comparisons = 0
    for n in (2, 3, 4):
        tuples = _separated_tuples(domain, n, points, rng)
        base = cauchy.norlund_transform(samples, tuples)
        for _ in range(3):
            perm = rng.permutation(n)
            other = cauchy.norlund_transform(samples, tuples[:, perm])
            worst = max(worst, float(np.abs(other - base).max()))
            comparisons += len(tuples)
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
