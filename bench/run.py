"""symprod benchmark: one closed-loop client per workload, one process.

Usage (from the repository root)::

    python3 bench/run.py --workload loja-annulus --seed 1 --seconds 20 --trace 0

``--trace 0`` times the ops with tracing off and prints the end-to-end
metrics.  Times are scaled to a fixed reference speed of the machine, which
a speed probe measures next to every op and set-up probe (see
``SpeedProbe``); the unscaled times are printed and recorded too.
``--trace 1`` runs a fixed number of ops untraced, then the same ops with
every layer function wrapped (see tracer.py), checks that both
halves give identical outputs, and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, and the spans of a traced run,
go to ``.bench_build/bench/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
# Times are reported as they would read on a machine where one
# SpeedProbe.sample() takes CAL_REF_S.  Each op or set-up probe is scaled by
# the median of the speed samples taken within CAL_WINDOW places of it.
# A set-up probe process takes SETUP_SPEED_SAMPLES speed samples of its own.
CAL_REF_S = 0.005
CAL_WINDOW = 5
SETUP_SPEED_SAMPLES = 3


def limit_blas_threads() -> dict:
    """Hold BLAS threads at 1 in this process and its children.

    symprod runs single-threaded numpy; on its small matrices a second BLAS
    thread only spins and adds noise.  Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def import_symprod():
    """Import symprod from this checkout's src/, nowhere else."""
    if not (SRC / "symprod" / "__init__.py").is_file():
        raise SystemExit(f"bench: no symprod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symprod
    import symprod.cli  # noqa: F401  (not imported by the package itself)

    if Path(symprod.__file__).resolve().parent != (SRC / "symprod").resolve():
        raise SystemExit(f"bench: imported symprod from {symprod.__file__}, not {SRC}")
    return symprod


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, blas_env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": blas_env,
        "seed": seed,
    }


class SpeedProbe:
    """A fixed unit of interpreter and numpy work, timed next to every op.

    The shared machine this benchmark was built on changes speed by up to 2x
    within minutes, for all code alike (README.md).  The probe runs no symprod
    code and allocates no large arrays, so its time follows the machine's
    speed only.  Its mix (a Python loop, many numpy calls on small arrays, a
    few on cache-sized ones) resembles symprod's own hot paths.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.linspace(0.0, 1.0, 600) + 0.5j
        self.small_out = np.empty_like(self.small)
        self.mid = np.exp(1j * np.linspace(0.0, 6.0, 1 << 15))
        self.mid_out = np.empty_like(self.mid)
        self.mid_abs = np.empty(self.mid.shape)

    def sample(self) -> float:
        """Seconds for one unit of the probe's work."""
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(300):
            np.multiply(self.small, self.small, out=self.small_out)
            np.add(self.small_out, self.small, out=self.small_out)
            np.abs(self.small_out).sum()
        for _ in range(12):
            np.subtract(self.mid, 0.3, out=self.mid_out)
            np.abs(self.mid_out, out=self.mid_abs)
            self.mid_abs.sum()
        return time.perf_counter() - start


def scaled(times: list[float], speed: list[float]) -> list[float]:
    """Each time as it would read at reference speed; ``speed[i]`` was taken next to ``times[i]``."""
    return [t * CAL_REF_S / statistics.median(speed[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
            for i, t in enumerate(times)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up time: import plus one-time library set-up, in fresh processes
# ---------------------------------------------------------------------------

def setup_probe(workload_name: str) -> None:
    start = time.perf_counter()
    sp = import_symprod()
    from workloads import WORKLOADS

    WORKLOADS[workload_name].setup(sp, None)
    elapsed = time.perf_counter() - start
    speed = SpeedProbe()
    print(repr(elapsed), repr(statistics.median(speed.sample() for _ in range(SETUP_SPEED_SAMPLES))))


def measure_setup(workload_name: str) -> tuple[list[float], list[float]]:
    """Wall time of each set-up probe, and the speed its process measured after set-up."""
    times, speed = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {done.stderr.strip()}")
        elapsed, sample = done.stdout.split()
        times.append(float(elapsed))
        speed.append(float(sample))
    return times, speed


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class OpLog:
    """Latency, outcome and output fingerprint of every op of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.fingerprints: dict[int, str | None] = {}

    def record(self, index: int, latency: float, ok: bool, reason: str, fingerprint):
        self.latencies.append(latency)
        self.fingerprints[index] = fingerprint
        if not ok:
            self.failures.append((index, reason))


def run_op(sp, w, ctx, seed: int, index: int, log: OpLog, tracer=None) -> float:
    from workloads import clear_outputs

    inp = w.make_input(seed, index)
    clear_outputs(ctx)
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        out = w.run(sp, ctx, inp)
        error = None
    except Exception as exc:  # a failed op is counted, never dropped
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    ok, reason, fingerprint = False, error, None
    if error is None:
        try:
            ok, reason, fingerprint = w.check(ctx, inp, out)
        except (KeyError, TypeError, ValueError, OSError) as exc:  # malformed output
            reason = f"check raised {type(exc).__name__}: {exc}"
    log.record(index, latency, ok, reason, fingerprint)
    return latency


def percentile(values: list[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def e2e_from_latencies(w, lat: list[float]) -> dict:
    n = len(lat)
    return {
        "items_per_s": w.items_per_op * n / sum(lat),
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "op_tail_ms": 1e3 * percentile(lat, w.tail_pct),
    }


def timed_run(sp, w, ctx, seed: int, seconds: float) -> tuple[dict, list[OpLog]]:
    warm = OpLog()
    run_op(sp, w, ctx, seed, 0, warm)
    log = OpLog()
    probe, speed = SpeedProbe(), []
    busy, index = 0.0, 1
    while busy < seconds:
        busy += run_op(sp, w, ctx, seed, index, log)
        speed.append(probe.sample())
        index += 1
    lat = scaled(log.latencies, speed)
    metrics = e2e_from_latencies(w, lat)
    n = len(lat)
    beyond = sum(1 for x in lat if x > metrics["op_tail_ms"] / 1e3)
    info = {
        "timed_ops": n,
        "timed_seconds": busy,
        "tail_percentile": w.tail_pct,
        "ops_beyond_tail": beyond,
        "unscaled": e2e_from_latencies(w, log.latencies),
        "latencies_s": log.latencies,
        "speed_samples_s": speed,
    }
    return {**metrics, "info": info}, [warm, log]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def traced_run(sp, w, scratch: Path, seed: int, out_dir: Path) -> tuple[dict, list[OpLog]]:
    import tracer as tr

    ctx = w.setup(sp, scratch)
    warm = OpLog()
    run_op(sp, w, ctx, seed, 0, warm)
    probe, speed_plain, speed_traced = SpeedProbe(), [], []
    plain = OpLog()
    for index in range(1, w.trace_ops + 1):
        run_op(sp, w, ctx, seed, index, plain)
        speed_plain.append(probe.sample())
    rss_plain = peak_rss_mb()

    # Set-up again untraced, then traced, so both are warm.
    _, setup_plain = timed(w.setup, sp, scratch)
    tracer = tr.install(sp)
    ctx, setup_traced = timed(w.setup, sp, scratch)
    traced = OpLog()
    for index in range(1, w.trace_ops + 1):
        run_op(sp, w, ctx, seed, index, traced, tracer)
        speed_traced.append(probe.sample())
    rss_traced = peak_rss_mb()

    e2e_plain = e2e_from_latencies(w, scaled(plain.latencies, speed_plain))
    e2e_traced = e2e_from_latencies(w, scaled(traced.latencies, speed_traced))
    overhead = {k: e2e_traced[k] - e2e_plain[k] for k in e2e_plain}
    overhead["setup_s"] = setup_traced - setup_plain
    overhead["peak_rss_mb"] = rss_traced - rss_plain
    overhead["error_ratio"] = (len(traced.failures) - len(plain.failures)) / w.trace_ops

    mismatched = [i for i, f in plain.fingerprints.items() if f != traced.fingerprints.get(i)]
    agg = tr.aggregate(tracer.spans, sum(traced.latencies), len(traced.latencies))
    spans_path = out_dir / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    return {
        "aggregate": agg,
        "overhead": overhead,
        "untraced": e2e_plain,
        "traced": e2e_traced,
        "outputs_identical": not mismatched,
        "mismatched_ops": mismatched,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }, [warm, plain, traced]


# ---------------------------------------------------------------------------
# Per-layer self-check and predictions
# ---------------------------------------------------------------------------

CLI = ("loja-annulus", "identities", "regularity")
SUITES = ("cauchy_reproduction_suite", "norlund_divdiff_suite", "gh_equivalence_suite",
          "pushforward_suite", "derivative_factorization_suite", "power_sum_suite",
          "newton_consistency_suite", "permutation_invariance_suite")
# Workloads on which each traced function must record at least one span.
RECORDED_ON = {
    "geometry.distance_to_boundary": ("loja-annulus", "identities"),
    "geometry.classify_points": ("loja-annulus", "identities"),
    "geometry.build_domain": CLI,
    "roots.desymmetrize": ("coeff-eval", "identities"),
    "cauchy.cauchy_transform": ("identities",),
    "cauchy.norlund_transform": ("identities",),
    "cauchy.symmetrized_transform": ("coeff-eval", "identities"),
    "cauchy.derivative_symmetrized": ("identities",),
    "symmetric.lojasiewicz_check": ("loja-annulus",),
    "symmetric.delta_metric_batch": ("loja-annulus",),
    "symmetric.symmetrize": ("loja-annulus", "identities"),
    "symmetric.power_sum_transform": ("identities",),
    "divdiff.divdiff_recursive": ("identities",),
    "divdiff.divdiff_analytic": ("identities",),
    "quadrature.simplex_integrate": ("identities",),
    "holder.estimate_exponent": ("regularity",),
    "propermap.route_agreement": ("regularity",),
    "propermap.boundary_regularity_experiment": ("regularity",),
    "cli.run": CLI,
    **{f"suites.{s}": ("identities",) for s in SUITES},
}
# Layers whose spans a workload must record, for the <layer>.self_share metrics.
LAYER_RECORDED_ON = {
    "geometry": ("loja-annulus", "identities"), "roots": ("coeff-eval", "identities"),
    "cauchy": ("coeff-eval", "identities"), "symmetric": ("loja-annulus", "identities"),
    "divdiff": ("identities",), "quadrature": ("identities",), "suites": ("identities",),
    "catalog": ("identities",), "holder": ("regularity",), "propermap": ("regularity",),
    "cli": CLI,
}


def recorded(metric: str, funcs: dict, workload: str) -> tuple[bool, bool]:
    """(must be recorded on this workload, was recorded) for one metric."""
    if metric == "error_ratio":
        return True, True
    if metric in ("cauchy.kernel_evals", "cauchy.refused"):
        from tracer import TRANSFORMS

        need = workload in ("coeff-eval", "identities")
        return need, any(funcs.get(f, {}).get("calls", 0) for f in TRANSFORMS)
    if metric.endswith(".self_share"):
        layer = metric.split(".", 1)[0]
        need = workload in LAYER_RECORDED_ON[layer]
        return need, any(n.split(".", 1)[0] == layer for n in funcs)
    func = metric.rsplit(".", 1)[0]
    if func not in RECORDED_ON:
        raise KeyError(f"per-layer metric {metric} has no recording rule")
    return workload in RECORDED_ON[func], funcs.get(func, {}).get("spans", 0) > 0


def predictions(workload: str, per_op: dict, funcs: dict) -> list[dict]:
    share = {k.split(".")[0]: v for k, v in per_op.items() if k.endswith(".self_share")}
    out = []

    def claim(text, holds):
        out.append({"prediction": text, "holds": bool(holds)})

    if workload == "loja-annulus":
        claim("geometry > 50% of op self time", share["geometry"] > 0.5)
        claim("roots ~0 (< 1%)", share["roots"] < 0.01)
    if workload == "coeff-eval":
        claim("roots > 50% of op self time", share["roots"] > 0.5)
    if workload == "regularity":
        claim("holder > 50% of op self time", share["holder"] > 0.5)
        claim("geometry < 10% of op self time", share["geometry"] < 0.10)
    if workload == "identities":
        for layer in ("geometry", "roots", "cauchy", "divdiff", "suites"):
            claim(f"{layer} records spans", any(n.split(".")[0] == layer for n in funcs))
    if workload != "regularity":
        claim("holder is 0", share["holder"] == 0.0)
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    blas_env = limit_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    env = environment(args.seed, blas_env)
    if args.trace == 0:
        setup_times, setup_speed = measure_setup(w.name)
    sp = import_symprod()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR))
    try:
        if args.trace == 0:
            e2e, logs = timed_run(sp, w, w.setup(sp, scratch), args.seed, args.seconds)
            e2e["setup_s"] = statistics.median(scaled(setup_times, setup_speed))
            e2e["peak_rss_mb"] = peak_rss_mb()
            record = {"mode": "untraced", "setup_s_samples": setup_times,
                      "setup_speed_samples_s": setup_speed, **e2e.pop("info")}
            record["unscaled"]["setup_s"] = statistics.median(setup_times)
        else:
            record, logs = traced_run(sp, w, scratch, args.seed, OUT_DIR)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(log.latencies) for log in logs)
    failures = [f for log in logs for f in log.failures]
    failed = len(failures)
    error_ratio = failed / attempted
    if args.trace == 0:
        e2e["error_ratio"] = error_ratio
        record["e2e"] = e2e
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        checks_ok = True
    else:
        agg = record.pop("aggregate")
        per_op = {**agg["per_op"], "error_ratio": error_ratio}
        declared = spec["per_layer"]
        missing = []
        for m in declared:
            need, seen = recorded(m["name"], agg["functions"], w.name)
            if need and not seen:
                missing.append(m["name"])
        metrics = {m["name"]: {"value": per_op.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared}
        record.update({"not_recorded": missing,
                       "layer_self_s_per_op": {k: v / w.trace_ops
                                               for k, v in agg["layer_self_s"].items()},
                       "predictions": predictions(w.name, per_op, agg["functions"]),
                       "all_per_op": per_op})
        checks_ok = record["outputs_identical"] and not missing
    record.update({"workload": w.name, "item": w.item, "items_per_op": w.items_per_op,
                   "environment": env, "failures": failures,
                   "attempted": attempted, "failed": failed})
    record_path = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  {env['cpu_model']}")
    print(f"python {env['python']}  numpy {env['numpy']}  {env['blas']}  "
          f"{' '.join(f'{k}={v}' for k, v in env['blas_threads_env'].items())}")
    if args.trace == 0:
        print(f"timed ops {record['timed_ops']}  op_tail_ms is p{w.tail_pct} "
              f"with {record['ops_beyond_tail']} ops beyond it")
        print(f"times scaled to a speed sample of {1e3 * CAL_REF_S:g} ms; median speed "
              f"sample {1e3 * statistics.median(record['speed_samples_s']):.4g} ms; unscaled: "
              + "  ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    else:
        print(f"traced ops {w.trace_ops}  outputs identical {record['outputs_identical']}  "
              f"spans {record['span_count']}  not recorded {missing or 'none'}")
        for p in record["predictions"]:
            print(f"prediction: {p['prediction']}: {'holds' if p['holds'] else 'DOES NOT HOLD'}")
        print("tracing overhead: " + "  ".join(f"{k} {v:+.4g}" for k, v in record["overhead"].items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for index, reason in failures:
        print(f"failed op {index}: {reason}")
    print(f"full record: {record_path.relative_to(ROOT)}")
    result_line = {"correct": failed == 0 and checks_ok, "attempted": attempted,
                   "failed": failed, "metrics": metrics}
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
