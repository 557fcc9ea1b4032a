"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time

import pytest

import symprod as sp
from symprod import suites
from symprod.cli import pv_base_point
from symprod.propermap import ProperMapSpec


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_cauchy_reproduction():
    start = time.time()
    worst = 0.0
    for descriptor in ("disc 0 0 1", "ellipse 0 0 1.1 0.9", "annulus 0 0 0.3 1"):
        domain = sp.build_domain(descriptor)
        res = suites.cauchy_reproduction_suite(domain, nodes=256, points=200, seed=0)
        worst = max(worst, res.max_residual)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("criterion 1 (cauchy reproduction)", ok,
            f"max residual {worst:.3e} <= 1e-10, runtime {elapsed:.2f}s < 5s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_norlund_divided_difference():
    start = time.time()
    domain = sp.disc(0, 1)
    res = suites.norlund_divdiff_suite(domain, nodes=256, points=200, seed=0,
                                       arities=(2, 3, 4))
    elapsed = time.time() - start
    ok = res.max_residual <= 1e-9 and elapsed < 30.0
    _report("criterion 2 (multi-node vs divided difference)", ok,
            f"max residual {res.max_residual:.3e} <= 1e-9 over {res.comparisons} "
            f"comparisons, runtime {elapsed:.1f}s < 30s")
    assert res.max_residual <= 1e-9
    assert elapsed < 30.0


def test_criterion_03_simplex_recursion_equivalence():
    res = suites.gh_equivalence_suite(seed=0, tuples_per_case=20, max_nodes=5)
    ok = res.max_residual <= 1e-9
    _report("criterion 3 (simplex vs recursion)", ok,
            f"max residual {res.max_residual:.3e} <= 1e-9 over {res.comparisons} comparisons")
    assert res.max_residual <= 1e-9


def test_criterion_04_pushforward_identity():
    domain = sp.disc(0, 1)
    res = suites.pushforward_suite(domain, nodes=256, points=200, seed=0, arities=(1, 2, 3))
    ok = res.max_residual <= 1e-9
    _report("criterion 4 (pushforward identity)", ok,
            f"max residual {res.max_residual:.3e} <= 1e-9 over {res.comparisons} comparisons")
    assert res.max_residual <= 1e-9


def test_criterion_05_derivative_factorization():
    domain = sp.disc(0, 1)
    res = suites.derivative_factorization_suite(domain, nodes=256, points=5, seed=0,
                                                arities=(1, 2, 3))
    ok = res.max_residual <= 1e-9 and res.comparisons >= 50
    _report("criterion 5 (derivative factorization)", ok,
            f"max scaled error {res.max_residual:.3e} <= 1e-9 over {res.comparisons} comparisons")
    assert res.comparisons >= 50
    assert res.max_residual <= 1e-9


def test_criterion_06_component_census():
    cases = [
        ("disc 0 0 1", 2, 3),
        ("annulus 0 0 0.3 1", 2, 6),
        ("disc 0 0 1", 3, 4),
    ]
    results = []
    for descriptor, n, expected in cases:
        domain = sp.build_domain(descriptor)
        counts = sp.signature_census(domain, n, 10000, seed=0)
        results.append((descriptor, n, expected, len(counts)))
    ok = all(got == want for _, _, want, got in results)
    _report("criterion 6 (component census)", ok,
            "; ".join(f"{d} n={n}: {got}/{want}" for d, n, want, got in results))
    for _, _, want, got in results:
        assert got == want


def test_criterion_07_lojasiewicz_stability():
    domain = sp.disc(0, 1)
    details = []
    ok = True
    for n in (2, 3):
        log_cs = []
        for seed in (0, 1, 2):
            rep = sp.lojasiewicz_check(domain, n, 10000, seed=seed)
            log_cs.append(rep.log10_c_max)
        ratio = 10 ** (max(log_cs) - min(log_cs))
        details.append(f"n={n}: c_max spread {ratio:.2f}x")
        ok = ok and ratio <= 5.0
    _report("criterion 7 (power-law sampling stability)", ok,
            "; ".join(details) + " (must be within 5x)")
    assert ok


def test_criterion_08_pv_blowup_rates():
    domain = sp.disc(0, 1)
    grid = sp.sample_boundary(domain, 8192)
    samples = sp.boundary_samples(grid, sp.weierstrass_phi(0.5))
    base = pv_base_point(domain, 8192)
    fits = {n: sp.truncation_growth_fit(samples, base, n) for n in (2, 3)}
    ok2 = abs(fits[2].slope - (-1.0)) <= 0.2
    ok3 = abs(fits[3].slope - (-2.0)) <= 0.3
    _report("criterion 8 (truncated-integral growth)", ok2 and ok3,
            f"chi=2 slope {fits[2].slope:+.3f} in -1+-0.2; "
            f"chi=3 slope {fits[3].slope:+.3f} in -2+-0.3")
    assert fits[2].coincidence == 2 and fits[3].coincidence == 3
    assert ok2 and ok3


def test_criterion_09_proper_map_routes_and_regularity():
    start = time.time()
    domain = sp.disc(0, 1)
    spec = ProperMapSpec(source=domain, fun=sp.monomial_phi(2), arity=2)
    agreement = sp.route_agreement(spec, seed=0, nodes=256)
    experiment = sp.boundary_regularity_experiment(spec, 3000, seed=0)
    elapsed = time.time() - start
    threshold = 0.9 / sp.lojasiewicz_exponent(2) - 0.05
    min_alpha = min(f.alpha_hat for f in experiment.fits)
    ok = agreement <= 1e-8 and min_alpha >= threshold and elapsed < 120.0
    _report("criterion 9 (induced-map routes and regularity)", ok,
            f"route agreement {agreement:.3e} <= 1e-8; min alpha_hat {min_alpha:.3f} "
            f">= {threshold:.2f}; runtime {elapsed:.1f}s < 120s")
    assert agreement <= 1e-8
    assert min_alpha >= threshold
    assert elapsed < 120.0


def test_criterion_10_exponent_calibration():
    details = []
    ok = True
    for name, truth, fld in sp.calibration_fields():
        fit = sp.estimate_exponent(fld)
        good = abs(fit.alpha_hat - truth) <= 0.07
        details.append(f"{name}: {fit.alpha_hat:.3f} vs {truth}")
        ok = ok and good
    _report("criterion 10 (exponent calibration)", ok,
            "; ".join(details) + " (each within +-0.07)")
    assert ok


def test_criterion_11_newton_power_sum_consistency():
    res = suites.newton_consistency_suite(seed=0)
    ok = res.max_residual <= 1e-11
    _report("criterion 11 (power sums vs elementary)", ok,
            f"max relative error {res.max_residual:.3e} <= 1e-11 over {res.comparisons} samples")
    assert res.max_residual <= 1e-11
