"""Record paired benchmark runs of a parent checkout and this one as JSON.

Usage (from the repository root)::

    python3 tools/bench_record.py --parent ../parent --seeds 1 2 3 4 5 --out BENCH_8.json

For every workload and seed it runs ``python3 bench/run.py --workload W
--seed S --seconds T --trace 0`` once in the parent checkout and once in
this one.  The side that goes first alternates from seed to seed for each
workload, and from one workload to the next within a seed, so that drift of
the machine's speed does not favour either side.  Each run
uses the benchmark files of its own checkout.  The output holds the machine
and library versions that ``bench/run.py`` reports, every run's end-to-end
metrics, and per workload and side the median, quartiles and spread
((Q3 - Q1) / median) of each metric, with the number of pairs in which this
checkout read better.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def describe(checkout: Path) -> str | None:
    """``git describe --always --dirty`` of a checkout, or None outside git."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result line and the environment it recorded."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {workload} seed {seed} failed in {checkout}:\n"
                         f"{done.stderr.strip()}")
    result = json.loads(done.stdout.splitlines()[-1])
    record = checkout / ".bench_build" / "bench" / f"{workload}-seed{seed}-trace0.json"
    env = json.loads(record.read_text())["environment"]
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "environment": env}


def summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values), [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "spread": float((q3 - q1) / med) if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    env = None
    for i, seed in enumerate(args.seeds):
        for j, w in enumerate(workloads):
            order = ("parent", "change") if (i + j) % 2 == 0 else ("change", "parent")
            for side in order:
                run = bench_once(sides[side], w, seed, spec["run_seconds"])
                env = env or run["environment"]
                runs[w][side].append(run)
                print(f"{w} seed {seed} {side}: " + "  ".join(
                    f"{k} {v:.6g}" for k, v in run["metrics"].items()), flush=True)

    result = {
        "command": f"bench/run.py --seconds {spec['run_seconds']} --trace 0",
        "seeds": args.seeds,
        "parent": describe(sides["parent"]),
        "change": describe(ROOT),
        "environment": {k: v for k, v in env.items() if k != "seed"},
        "workloads": {},
    }
    for w, by_side in runs.items():
        entry = {}
        for name, direction in better.items():
            vals = {side: [r["metrics"][name] for r in by_side[side]] for side in sides}
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            entry[name] = {"better": direction, "parent": summary(vals["parent"]),
                           "change": summary(vals["change"]), "change_better_pairs": int(wins),
                           "pairs": len(vals["parent"])}
        entry["failed"] = {side: sum(r["failed"] for r in by_side[side]) for side in sides}
        entry["attempted"] = {side: sum(r["attempted"] for r in by_side[side]) for side in sides}
        entry["correct"] = all(r["correct"] for side in sides for r in by_side[side])
        entry["runs"] = {side: [{"seed": r["seed"], **r["metrics"]} for r in by_side[side]]
                         for side in sides}
        result["workloads"][w] = entry
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
