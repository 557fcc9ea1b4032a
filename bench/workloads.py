"""The four benchmark workloads.

Each workload is a closed loop driven by one client: the next op starts
after the previous one has finished and been checked.  An op takes its
inputs from ``(seed, op index)`` only, so the same seed gives the same ops.
``check`` is independent of the code under test where it can be: the
coefficient-form transform is compared with a closed form computed here in
plain numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    items_per_op: int
    # The highest percentile that left at least ten ops beyond it in every
    # 20 s run on the 2-core box named in README.md; see there for
    # regularity, where that rule leaves no tail.
    tail_pct: int
    # Ops in each half of a traced run: untraced, then the same ops traced.
    trace_ops: int
    setup: Callable          # (symprod, scratch dir or None) -> context
    make_input: Callable     # (seed, index) -> op input
    run: Callable            # (symprod, context, input) -> op output
    check: Callable          # (context, input, output) -> (ok, reason, fingerprint)


# ---------------------------------------------------------------------------
# CLI workloads: symprod.cli.run(argv) in process, outputs in a scratch dir
# ---------------------------------------------------------------------------

@dataclass
class CliContext:
    out: Path


def _cli_setup(descriptor: str):
    def setup(sp, out: Path):
        sp.geometry.domain_diameter(sp.geometry.build_domain(descriptor))
        return CliContext(out)

    return setup


def _cli_run(argv: list[str]):
    def run(sp, ctx: CliContext, seed: int) -> int:
        return sp.cli.run(argv + ["--seed", str(seed), "--out", str(ctx.out)])

    return run


def clear_outputs(ctx) -> None:
    if isinstance(ctx, CliContext) and ctx.out.exists():
        for path in ctx.out.iterdir():
            path.unlink()


def _fingerprint_dir(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cli_check(extra_check=None):
    def check(ctx: CliContext, seed: int, code: int):
        if code != 0:
            return False, f"exit code {code}", None
        report_path = ctx.out / "report.json"
        if not report_path.exists():
            return False, "no report.json", None
        report = json.loads(report_path.read_text())
        if report.get("failures") != []:
            return False, f"failures {report.get('failures')}", None
        if extra_check is not None:
            reason = extra_check(report)
            if reason:
                return False, reason, None
        return True, "", _fingerprint_dir(ctx.out)

    return check


def _loja_check(report: dict) -> str:
    results = report["results"]
    # The power-law exponent of the quotient metric is n! for n <= 3.
    if results["exponent"] != math.factorial(3):
        return f"exponent {results['exponent']} != 3!"
    empirical = results["empirical_exponent"]
    if not isinstance(empirical, (int, float)) or not math.isfinite(empirical):
        return f"empirical exponent {empirical!r} not finite"
    return ""


def _identities_check(report: dict) -> str:
    empty = [name for name, r in report["results"].items() if not r["comparisons"] > 0]
    return f"suites with no comparisons: {empty}" if empty else ""


# ---------------------------------------------------------------------------
# coeff-eval: the coefficient-form transform with the region check
# ---------------------------------------------------------------------------

COEFF_TUPLES = 100
COEFF_ARITY = 6
COEFF_RADIUS = 0.55
COEFF_PHI_DEGREE = 8
COEFF_NODES = 256
# Roundoff bound of the 256-term trapezoid sum: the integrand is at most
# 1 / (1 - 0.55)^6 ~ 120, so N * 120 * eps ~ 7e-12; the closed form itself
# is exact to ~1e-15.
COEFF_TOL = 1e-10


def _coeff_setup(sp, out: Path):
    domain = sp.geometry.build_domain("disc 0 0 1")
    grid = sp.geometry.sample_boundary(domain, COEFF_NODES)
    return sp.cauchy.boundary_samples(grid, sp.catalog.monomial_phi(COEFF_PHI_DEGREE))


def coefficients(roots: np.ndarray) -> np.ndarray:
    """Elementary symmetric values e_1..e_n of each root row, plain numpy."""
    rows, n = roots.shape
    e = np.zeros((rows, n + 1), dtype=complex)
    e[:, 0] = 1.0
    for k in range(n):
        e[:, 1 : k + 2] = e[:, 1 : k + 2] + roots[:, k : k + 1] * e[:, : k + 1]
    return e[:, 1:]


def complete_h3(roots: np.ndarray) -> np.ndarray:
    """h_3 = (p1^3 + 3 p1 p2 + 2 p3) / 6 from the power sums p_k."""
    p1, p2, p3 = (np.sum(roots**k, axis=-1) for k in (1, 2, 3))
    return (p1**3 + 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _coeff_input(seed: int, index: int):
    rng = np.random.default_rng([seed, index])
    shape = (COEFF_TUPLES, COEFF_ARITY)
    radius = COEFF_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, shape))
    roots = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))
    return roots, coefficients(roots)


def _coeff_run(sp, samples, inp):
    return sp.cauchy.symmetrized_transform(samples, inp[1], check_region=True)


def _coeff_check(samples, inp, values):
    # For phi = t^8 the arity-6 kernel gives the divided difference of t^8
    # at the roots, the complete homogeneous polynomial h_(8-6+1) = h_3.
    values = np.asarray(values)
    if values.shape != (COEFF_TUPLES,) or not np.isfinite(values).all():
        return False, "values not finite or misshaped", None
    err = float(np.abs(values - complete_h3(inp[0])).max())
    if err > COEFF_TOL:
        return False, f"max error {err:.3g} above {COEFF_TOL:g}", None
    return True, "", hashlib.sha256(values.tobytes()).hexdigest()


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loja-annulus",
            item="pair", items_per_op=1000, tail_pct=53, trace_ops=6,
            setup=_cli_setup("annulus 0 0 0.3 1"),
            make_input=op_seed,
            run=_cli_run(["loja", "--domain", "annulus 0 0 0.3 1", "--n", "3",
                          "--samples", "1000"]),
            check=_cli_check(_loja_check),
        ),
        Workload(
            name="coeff-eval",
            item="tuple", items_per_op=COEFF_TUPLES, tail_pct=97, trace_ops=100,
            setup=_coeff_setup,
            make_input=_coeff_input,
            run=_coeff_run,
            check=_coeff_check,
        ),
        Workload(
            name="identities",
            item="command", items_per_op=1, tail_pct=65, trace_ops=10,
            setup=_cli_setup("disc 0 0 1"),
            make_input=op_seed,
            run=_cli_run(["identities", "--domain", "disc 0 0 1", "--n", "3",
                          "--samples", "20"]),
            check=_cli_check(_identities_check),
        ),
        Workload(
            name="regularity",
            item="sample", items_per_op=2000, tail_pct=75, trace_ops=4,
            setup=_cli_setup("disc 0 0 1"),
            make_input=op_seed,
            run=_cli_run(["propermap", "--domain", "disc 0 0 1", "--n", "2",
                          "--samples", "2000"]),
            check=_cli_check(),
        ),
    )
}
