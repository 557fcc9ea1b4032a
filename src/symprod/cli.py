"""Command-line driver.

Subcommands::

    transform   evaluate the (symmetrized) transform on a deterministic grid
    identities  run the cross-module identity suite
    components  count component signatures of the kernel complement
    loja        quotient-metric power-law sampling
    pv          truncated near-singular integral growth fit
    holder      exponent-estimator calibration suite
    propermap   induced-map route agreement and boundary regularity

Configuration comes from an optional key = value file holding keys of
_DEFAULTS (any other key is a configuration error), plus flag overrides;
all outputs land in the --out directory as report.json and CSV files.  With
a fixed seed the outputs are byte-identical across runs (the output path is
deliberately not echoed into the report).

Exit codes: 0 success, 1 tolerance failure (report lists the failures),
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, catalog, cauchy, geometry, holder, propermap, suites, symmetric
from .errors import ConfigError, InvalidGeometryError, SymprodError

_DEFAULTS = {
    "domain": "disc 0 0 1",
    "phi": "monomial 3",
    "n": 2,
    "nodes": 256,
    "samples": 1000,
    "seed": 42,
    "tol_scale": 1.0,
    "propermap": "monomial 2",
}
# Defaults of single commands; they still yield to the config file and flags.
_COMMAND_DEFAULTS = {"pv": {"phi": "weierstrass 0.5 12"}}


def _load_config(path: str | None) -> dict:
    cfg: dict = {}
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update(_COMMAND_DEFAULTS.get(args.command, {}))
    cfg.update(_load_config(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    try:
        # Each value takes the type of its default; only the numbers can fail.
        cfg = {key: type(_DEFAULTS[key])(value) for key, value in cfg.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric config value: {exc}") from exc
    max_n = symmetric.MAX_PERMUTATION_ARITY if args.command == "loja" else symmetric.MAX_ROOT_ARITY
    if not 1 <= cfg["n"] <= max_n:
        raise ConfigError(f"n = {cfg['n']} outside 1..{max_n}")
    if cfg["nodes"] < 16 or cfg["nodes"] % 2:
        raise ConfigError(f"nodes = {cfg['nodes']} must be even and at least 16")
    if cfg["samples"] < 1:
        raise ConfigError(f"samples = {cfg['samples']} must be at least 1")
    if not (np.isfinite(cfg["tol_scale"]) and cfg["tol_scale"] > 0):
        raise ConfigError(f"tol_scale = {cfg['tol_scale']} must be finite and above 0")
    return cfg


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_ready(dataclasses.asdict(obj))
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _json_ready(obj.item())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    return obj


def _write_report(out: Path, payload: dict) -> None:
    with open(out / "report.json", "w", newline="\n") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])


def _cell(x):
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (effective cfg, results, failures, tables), where
# tables maps a CSV file name to (header, rows); run writes the outputs.
# ---------------------------------------------------------------------------

def _cmd_transform(cfg: dict):
    domain = geometry.build_domain(cfg["domain"])
    phi = catalog.parse_phi(cfg["phi"])
    grid = geometry.sample_boundary(domain, cfg["nodes"])
    samples = cauchy.boundary_samples(grid, phi)
    cfg = dict(cfg, samples=min(cfg["samples"], 500))
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["n"]
    tuples = suites._separated_tuples(domain, n, cfg["samples"], rng,
                                      min_distance=0.1, separation=0.02)
    zs = symmetric.symmetrize(tuples)
    vals = cauchy.symmetrized_transform(samples, zs, check_region=False)
    header = [f"z{j}_{p}" for j in range(n) for p in ("re", "im")] + ["value_re", "value_im"]
    rows = [
        [c for j in range(n) for c in (z[j].real, z[j].imag)] + [v.real, v.imag]
        for z, v in zip(zs, vals)
    ]
    results = {
        "points": len(zs),
        "max_abs_value": float(np.abs(vals).max()),
        "phi": samples.description,
    }
    return cfg, results, [], {"transform.csv": (header, rows)}


def _cmd_identities(cfg: dict):
    domain = geometry.build_domain(cfg["domain"])
    cfg = dict(cfg, samples=max(10, min(cfg["samples"], 200)))
    suite = suites.run_identity_suites(
        domain, nodes=cfg["nodes"], max_arity=cfg["n"], seed=cfg["seed"],
        points=cfg["samples"], tol_scale=cfg["tol_scale"],
    )
    results = {r.name: {"max_residual": r.max_residual, "tolerance": r.tolerance,
                        "comparisons": r.comparisons, "passed": r.passed}
               for r in suite}
    table = (["identity", "max_residual", "tolerance", "comparisons", "passed"],
             [[r.name, r.max_residual, r.tolerance, r.comparisons, int(r.passed)] for r in suite])
    return cfg, results, [r.name for r in suite if not r.passed], {"identities.csv": table}


def _cmd_components(cfg: dict):
    domain = geometry.build_domain(cfg["domain"])
    counts = symmetric.signature_census(domain, cfg["n"], cfg["samples"], cfg["seed"])
    signatures = {"|".join(str(c) for c in sig): cnt for sig, cnt in sorted(counts.items())}
    results = {
        "distinct_signatures": len(counts),
        "expected_component_count": math.comb(cfg["n"] + domain.kappa - 1, domain.kappa - 1),
        "signatures": signatures,
    }
    return cfg, results, [], {"signatures.csv": (["signature", "count"], list(signatures.items()))}


def _cmd_loja(cfg: dict):
    domain = geometry.build_domain(cfg["domain"])
    cfg = dict(cfg, samples=max(cfg["samples"], 100))
    report = symmetric.lojasiewicz_check(domain, cfg["n"], cfg["samples"], cfg["seed"])
    failures = []
    if report.violations_at_c_max != 0:
        failures.append("violations_at_c_max")
    # delta**exponent leaves the float range for large exponents or domains,
    # and then the violation count, zero by construction, says nothing.
    if not (np.isfinite(report.c_max) and report.c_max > 0):
        failures.append("c_max_out_of_range")
    return cfg, dataclasses.asdict(report), failures, {}


def _cmd_pv(cfg: dict):
    domain = geometry.build_domain(cfg["domain"])
    nodes = max(cfg["nodes"], 8192)
    cfg = dict(cfg, nodes=nodes)
    grid = geometry.sample_boundary(domain, nodes)
    phi = catalog.parse_phi(cfg["phi"])
    samples = cauchy.boundary_samples(grid, phi)
    base = pv_base_point(domain, nodes)
    fit = cauchy.truncation_growth_fit(samples, base, cfg["n"])
    expected = -(fit.coincidence - 1)
    band = {1: 0.3, 2: 0.2, 3: 0.3}.get(fit.coincidence)
    failures = []
    if band is not None and abs(fit.slope - expected) > band:
        failures.append("slope_outside_band")
    results = {
        "slope": fit.slope,
        "expected_slope": expected,
        "band": band,
        "coincidence": fit.coincidence,
        "radii": list(fit.radii),
        "magnitudes": list(fit.magnitudes),
        "phi": samples.description,
    }
    return cfg, results, failures, {"pv.csv": (["radius", "magnitude"],
                                               list(zip(fit.radii, fit.magnitudes)))}


def _cmd_holder(cfg: dict):
    results, failures, tables = {}, [], {}
    for name, truth, fld in holder.calibration_fields(points=2000):
        edges, counts, maxima, argdist = holder._pair_table(fld)   # one pass per field
        fit = holder._fit_table(counts, maxima, argdist)
        results[name] = {
            "true_exponent": truth,
            "alpha_hat": fit.alpha_hat,
            "confidence_band": list(fit.confidence_band),
            "pairs_used": fit.pairs_used,
            "flagged": fit.flagged,
        }
        if abs(fit.alpha_hat - truth) > 0.07 * cfg["tol_scale"]:
            failures.append(name)
        tables[f"pairs_{name}.csv"] = (["bin_lo", "bin_hi", "pair_count", "max_diff"],
                                       list(zip(edges[:-1], edges[1:], counts, maxima)))
    return cfg, results, failures, tables


def _cmd_propermap(cfg: dict):
    domain = geometry.build_domain(cfg["domain"])
    fun = propermap.parse_proper_map(cfg["propermap"])
    spec = propermap.ProperMapSpec(source=domain, fun=fun, arity=cfg["n"])
    cfg = dict(cfg, samples=min(max(cfg["samples"], 1000), propermap.MAX_REGULARITY_SAMPLES))
    agreement = propermap.route_agreement(spec, count=100, seed=cfg["seed"], nodes=cfg["nodes"])
    experiment = propermap.boundary_regularity_experiment(
        spec, num_samples=cfg["samples"], seed=cfg["seed"])
    failures = []
    if agreement > 1e-8 * cfg["tol_scale"]:
        failures.append("route_agreement")
    if not experiment.passed:
        failures.append("boundary_regularity")
    results = {
        "map": fun.label,
        "route_agreement": agreement,
        "regularity_threshold": experiment.threshold,
        "alpha_hat_per_component": [f.alpha_hat for f in experiment.fits],
        "samples_used": experiment.samples_used,
    }
    return cfg, results, failures, {}


def pv_base_point(domain, nodes: int) -> complex:
    """Boundary point a quarter node spacing off the grid.

    Centering the deleted ball exactly on a node makes the cut symmetric and
    cancels the odd part of the kernel singularity, hiding the generic
    blow-up rate; the fixed fractional offset breaks the symmetry by the
    same half spacing at every radius.
    """
    outer = domain.contours[0]
    step = geometry.TWO_PI / nodes
    theta0 = (2 * nodes // 5 + 0.25) * step
    return complex(np.asarray(outer.point(np.array([theta0])))[0])


_COMMANDS = {
    "transform": _cmd_transform,
    "identities": _cmd_identities,
    "components": _cmd_components,
    "loja": _cmd_loja,
    "pv": _cmd_pv,
    "holder": _cmd_holder,
    "propermap": _cmd_propermap,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symprod", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--domain", default=None)
        p.add_argument("--phi", default=None)
        p.add_argument("--propermap", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol-scale", dest="tol_scale", type=float, default=None)
        p.add_argument("--out", default="out")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg, results, failures, tables = _COMMANDS[args.command](_resolve(args))
    except (ConfigError, InvalidGeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    meta = {"version": __version__, "command": args.command, "config": cfg, "seed": cfg["seed"]}
    _write_report(out, {"meta": meta, "results": results, "failures": failures})
    return 1 if failures else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
