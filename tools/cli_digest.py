"""Compare fixed-seed CLI runs of a parent checkout and this one, case by case.

Usage (from the repository root)::

    python3 tools/cli_digest.py --parent ../parent

It runs every case of ``CASES`` once in the parent checkout and once in
this one, each as ``python -m symprod`` against that checkout's own
``src/``, in a fresh working directory with ``--out out``.  The cases are
every command that reads a domain on the five README domains at ``--n 2``,
``holder`` once, and the refusals and edge cases below them; each passes
only flags its command reads, and ``--seed`` to the commands that draw at
random.  For each case it prints whether the ``--out`` tree (file names and
bytes), stdout, stderr and the exit code match, naming the files that
differ and, in ``report.json``, the sections that do; it exits 1 if
anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
SEED = "7"

README_DOMAINS = (
    "disc 0 0 1",
    "ellipse 0 0 1.1 0.9",
    "star 1 0.25 2",
    "annulus 0 0 0.3 1",
    "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4",
)
DOMAIN_COMMANDS = ("transform", "identities", "components", "loja", "pv", "propermap")
# Commands that draw nothing at random and take no --seed.
SEEDLESS = ("pv", "holder")

CASES = [
    [command, "--domain", domain, "--n", "2"]
    for domain in README_DOMAINS for command in DOMAIN_COMMANDS
] + [
    ["holder"],
    ["identities", "--domain", "disc 0 0 1", "--n", "5"],
    # The kernel floor refuses order 2 of some tuples only.
    ["identities", "--domain", "disc 0 0 1", "--n", "4", "--samples", "200"],
    # The floor refuses order 2 of every tuple.
    ["identities", "--domain", "disc 0 0 1", "--n", "5", "--samples", "200"],
    # The floor refuses order 1 of some tuples and order 2 of every tuple.
    ["identities", "--domain", "disc 0 0 1", "--n", "6", "--samples", "50"],
    # Off the origin, and past the floor of the multi-node and coefficient-form suites.
    ["identities", "--domain", "disc 5 5 1", "--n", "3"],
    ["identities", "--domain", "disc 0 0 1", "--n", "8", "--samples", "10"],
    ["propermap", "--domain", "disc 0 0 1", "--propermap", "blaschke 0.5", "--n", "3"],
    # Pair tables of one complex coordinate, and of the most blocks.
    ["propermap", "--domain", "disc 0 0 1", "--n", "1"],
    ["propermap", "--domain", "disc 0 0 1", "--n", "2", "--samples", "4500"],
    # The census at arity 3, with one hole and with two.
    ["components", "--domain", "annulus 0 0 0.3 1", "--n", "3"],
    ["components", "--domain", README_DOMAINS[-1], "--n", "3"],
    # An off-origin centre, and a thin contour, in the oracle's ring screen.
    ["loja", "--domain", "disc 5 5 1", "--n", "2"],
    # Exponents 1080 and 7560, so delta**exponent leaves the float range.
    ["loja", "--domain", "disc 0 0 1", "--n", "6"],
    ["loja", "--domain", "disc 0 0 1", "--n", "7"],
    ["components", "--domain", "ellipse 0 0 1 0.2", "--n", "2"],
    # Thin ellipses.
    ["transform", "--domain", "ellipse 0 0 1 0.2"],
    ["transform", "--domain", "ellipse 0 0 1 0.25"],
    # Holes that leave the outer contour, nest, overlap or touch.
    ["transform", "--domain", "disc 0 0 1 + hole disc 0.9 0 0.5"],
    ["transform", "--domain", "disc 0 0 1 + hole disc 2 0 0.3"],
    ["transform", "--domain", "disc 0 0 2 + hole disc 0 0 0.8 + hole disc 0 0 0.3"],
    ["transform", "--domain", "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc 1.5 0 0.45"],
    ["transform", "--domain", "disc 0 0 1 + hole disc 0.5 0 0.5"],
    # Two holes that cross between every 64th validation sample of the first.
    ["transform", "--domain",
     "disc 0 0 3 + hole disc 0 0 1 + hole disc 1.9884132802571408 0.1954907335324023 1"],
    # No room for the interior points, and a pole on a quadrature node.
    ["transform", "--domain", "annulus 0 0 0.9 1"],
    ["transform", "--domain", "disc 0 0 3", "--phi", "pole 3 0 1"],
    # A flag the command does not read.
    ["holder", "--domain", "disc 0 0 1"],
    # Descriptors of each catalog kind, and non-finite numbers in them.
    ["transform", "--phi", "conj"],
    ["transform", "--phi", "pole 3 0 2"],
    ["propermap", "--propermap", "identity"],
    ["propermap", "--propermap", "blaschke 0.5 -0.3"],
    ["transform", "--phi", "pole inf 0 1"],
    ["propermap", "--propermap", "blaschke nan"],
    # No arity-3 tuple fits at the derivative suite's depth.
    ["identities", "--domain", "ellipse 0 0 1 0.77", "--n", "3"],
    # A star's arm count is an integer.
    ["components", "--domain", "star 1 0.25 2.5"],
    # Kernel floors and sums beyond the float range.
    ["identities", "--domain", "disc 0 0 1e60", "--n", "2", "--samples", "10"],
    # No room for the permutation suite's tuples, and a root round trip
    # that misses its tolerance: each arity goes unchecked.
    ["identities", "--domain", "disc 0 0 0.3", "--n", "3"],
    ["identities", "--domain", "disc 5 5 1", "--n", "6", "--samples", "50"],
]


def run_case(checkout: Path, args: list[str]) -> dict:
    """Exit code, stdout, stderr and the ``--out`` tree of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    seed = [] if args[0] in SEEDLESS else ["--seed", SEED]
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, "-m", "symprod", *args, *seed, "--out", "out"],
            cwd=work, env=env, capture_output=True, timeout=RUN_TIMEOUT_S, check=False,
        )
        out = Path(work) / "out"
        tree = {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
    return {"tree": tree, "stdout": done.stdout, "stderr": done.stderr,
            "exit": done.returncode}


def tree_diffs(parent: dict, change: dict) -> list[str]:
    """The files of two ``--out`` trees that differ, each ``report.json``
    named with its differing sections: meta, failures and each result."""
    diffs = []
    for name in sorted(set(parent) | set(change)):
        if parent.get(name) == change.get(name):
            continue
        if name == "report.json" and name in parent and name in change:
            a, b = json.loads(parent[name]), json.loads(change[name])
            parts = [key for key in ("meta", "failures") if a[key] != b[key]]
            parts += [f"results.{key}" for key in sorted(set(a["results"]) | set(b["results"]))
                      if a["results"].get(key) != b["results"].get(key)]
            name += f"[{', '.join(parts)}]"
        diffs.append(name)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)

    differ = 0
    for case in CASES:
        parent, change = run_case(args.parent.resolve(), case), run_case(ROOT, case)
        diffs = tree_diffs(parent["tree"], change["tree"])
        diffs += [part for part in ("stdout", "stderr") if parent[part] != change[part]]
        if parent["exit"] != change["exit"]:
            diffs.append(f"exit {parent['exit']} -> {change['exit']}")
        label = " ".join(repr(a) if " " in a else a for a in case)
        if diffs:
            differ += 1
            print(f"DIFFER {label}: {', '.join(diffs)}", flush=True)
        else:
            print(f"same   {label} (exit {change['exit']})", flush=True)
    print(f"{len(CASES) - differ} of {len(CASES)} cases identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
