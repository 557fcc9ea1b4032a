"""Record one claim per CLI cell: every domain-reading command on every domain
row at n = 1..12, plus the extra cells below, and compare them with a parent.

    python3 tools/claim_matrix.py                     # writes CLAIMS.json
    python3 tools/claim_matrix.py --parent ../parent  # prints differing cells, exits 1 if any

Each cell runs ``symprod.cli.run`` at the default seed with a fresh ``--out``
and warning registry.  Its record holds the exit code (or the type of the
exception that ends the run), the failures, the first stderr line, each
suite's max_residual and comparisons, pv's band, and a sha256 over the
``--out`` tree, stdout and stderr (with the checkout's ``src`` masked).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600

README_ROWS = ("disc 0 0 1", "ellipse 0 0 1.1 0.9", "star 1 0.25 2", "annulus 0 0 0.3 1",
               "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4")
# The same verdicts are owed on a moved, a scaled-up and a scaled-down domain.
FRAME_ROWS = ("disc 5 5 1", "disc 0 0 3", "disc 0 0 0.3", "ellipse 0 0 3.3 2.7")
SETTINGS = {"transform": [], "identities": ["--samples", "50"], "components": ["--samples", "2000"],
            "loja": ["--samples", "300"], "pv": [], "propermap": ["--samples", "1000"]}
GRID = [[command, "--domain", row, "--n", str(n), *flags] for command, flags in SETTINGS.items()
        for row in README_ROWS + FRAME_ROWS for n in range(1, 13)]

# The README rows at n = 2 with each command's default samples, then edge cases.
EXTRAS = [[command, "--domain", row, "--n", "2"]
          for command in ("identities", "components", "loja") for row in README_ROWS]
EXTRAS += [shlex.split(line) for line in """
# Once, and with a flag the command does not read.
holder
holder --domain 'disc 0 0 1'
identities --domain 'disc 0 0 1' --n 5
# The kernel floor refuses order 2 of some tuples only, then of every tuple.
identities --domain 'disc 0 0 1' --n 4 --samples 200
identities --domain 'disc 0 0 1' --n 5 --samples 200
# Off the origin, and past the floor of the multi-node and coefficient-form suites.
identities --domain 'disc 5 5 1' --n 3
identities --domain 'disc 0 0 1' --n 8 --samples 10
# No arity-3 tuple fits at the derivative suite's depth, or in the permutation suite.
identities --domain 'ellipse 0 0 1 0.77' --n 3
identities --domain 'disc 0 0 0.3' --n 3
# Kernel values, sums and coefficient distances beyond the float range.
identities --domain 'disc 0 0 1e60' --n 2 --samples 10
identities --domain 'disc 0 0 1e60' --n 5 --samples 10
loja --domain 'disc 0 0 1e36' --n 5 --samples 10
# An off-origin centre in the oracle's ring screen, and exponents 1080 and 7560.
loja --domain 'disc 5 5 1' --n 2
loja --domain 'disc 0 0 1' --n 6
loja --domain 'disc 0 0 1' --n 7
# The census at arity 3 with one hole and with two, on a thin ellipse, and a star's
# arm count that is not an integer.
components --domain 'annulus 0 0 0.3 1' --n 3
components --domain 'disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4' --n 3
components --domain 'ellipse 0 0 1 0.2' --n 2
components --domain 'star 1 0.25 2.5'
# Pair tables of the most blocks, and each proper-map kind.
propermap --domain 'disc 0 0 1' --n 2 --samples 4500
propermap --domain 'disc 0 0 1' --propermap 'blaschke 0.5' --n 3
propermap --propermap identity
propermap --propermap 'blaschke 0.5 -0.3'
propermap --propermap 'blaschke nan'
# pv's largest radius, 2^-3, reaches past a quarter of this disc's diameter.
pv --domain 'disc 0 0 0.2'
# Thin ellipses, and holes that leave the outer contour, nest, overlap or touch.
transform --domain 'ellipse 0 0 1 0.2'
transform --domain 'ellipse 0 0 1 0.25'
transform --domain 'disc 0 0 1 + hole disc 0.9 0 0.5'
transform --domain 'disc 0 0 1 + hole disc 2 0 0.3'
transform --domain 'disc 0 0 2 + hole disc 0 0 0.8 + hole disc 0 0 0.3'
transform --domain 'disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc 1.5 0 0.45'
transform --domain 'disc 0 0 1 + hole disc 0.5 0 0.5'
# Two holes that cross between every 64th validation sample of the first, no room for
# the interior points, a pole on a quadrature node, each boundary-data kind, and a
# non-finite number.
transform --domain 'disc 0 0 3 + hole disc 0 0 1 + hole disc 1.9884132802571408 0.1954907335324023 1'
transform --domain 'annulus 0 0 0.9 1'
transform --domain 'disc 0 0 3' --phi 'pole 3 0 1'
transform --phi conj
transform --phi 'pole 3 0 2'
transform --phi 'pole inf 0 1'
""".splitlines() if line and not line.startswith("#")]


def run_cell(args: list[str]) -> dict:
    """The record of one in-process CLI run."""
    from symprod import cli
    src = str(Path(cli.__file__).resolve().parent.parent)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings(), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default", RuntimeWarning)    # clears the "already shown" registry
        out = Path(work) / "out"
        try:
            code = cli.run([*args, "--out", str(out)])
        except Exception as exc:     # a traceback is a claim too
            code = type(exc).__name__
        tree = {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
    err = stderr.getvalue().replace(src, "<src>")
    digest = hashlib.sha256(b"\0".join([stdout.getvalue().encode(), err.encode(), *(
        name.encode() + b"\0" + data for name, data in tree.items())]))
    results = json.loads(tree.get("report.json", b"{}"))
    record = {"exit": code, "failures": results.get("failures"),
              "stderr": err.splitlines()[0] if err else "", "sha256": digest.hexdigest()}
    results = results.get("results", {})
    if args[0] == "identities":
        record["residuals"] = {k: [v["max_residual"], v["comparisons"]] for k, v in results.items()}
    if args[0] == "pv" and "band" in results:
        record["band"] = "no band" if results["band"] is None else results["band"]
    return record


def emit() -> None:
    """Print every cell's record as one JSON line, last on stdout."""
    print(json.dumps({shlex.join(args): run_cell(args) for args in GRID + EXTRAS}))


def claims(*checkouts: Path) -> list[dict]:
    """Each checkout's cells, from child processes that run at once against its own ``src/``."""
    children = [subprocess.Popen([sys.executable, "-c", "import sys; sys.path[:0] = "
                                  f"[{str(c / 'src')!r}, {str(ROOT / 'tools')!r}]; "
                                  "import claim_matrix; claim_matrix.emit()"],
                                 cwd=c, text=True, stdout=subprocess.PIPE) for c in checkouts]
    outs = [child.communicate(timeout=RUN_TIMEOUT_S)[0] for child in children]
    if any(child.returncode for child in children):
        raise SystemExit("claim_matrix: a child process failed")
    # LAPACK may write to the C-level stdout, so only the last line is ours.
    return [json.loads(out.splitlines()[-1]) for out in outs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)
    if args.parent is None:
        cells = json.dumps(claims(ROOT)[0], indent=1, sort_keys=True)
        (ROOT / "CLAIMS.json").write_text(cells + "\n")
        return 0
    parent, change = claims(args.parent.resolve(), ROOT)
    cells = sorted(set(parent) | set(change))
    differ = [label for label in cells if parent.get(label) != change.get(label)]
    for label in differ:
        old, new = parent.get(label, {}), change.get(label, {})
        print(f"DIFFER {label}: " + "; ".join(
            k if k == "sha256" else f"{k} {old.get(k)!r} -> {new.get(k)!r}"
            for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)))
    print(f"{len(cells) - len(differ)} of {len(cells)} cells identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
