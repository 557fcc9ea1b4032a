"""The benchmark's traced entry points are still reached by the CLI.

``bench/run.py --trace 1`` requires that each function its ``RECORDED_ON``
table lists for a workload records at least one span on that workload.  A
refactor that routes around one of them shows up there only as
``correct: false``; this test runs the ``identities`` and ``regularity``
commands under the benchmark's tracer and checks the same table.  The
bench modules are imported without writing bytecode next to them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run as bench_run
import tracer as bench_tracer
symprod = bench_run.import_symprod()
tr = bench_tracer.install(symprod)
runs = {
    "identities": ["identities", "--domain", "disc 0 0 1", "--n", "3", "--samples", "20"],
    "regularity": ["propermap", "--n", "2", "--samples", "1000"],
}
seen, codes = {}, {}
for op, (workload, argv) in enumerate(runs.items()):
    tr.op = op
    codes[workload] = symprod.cli.run(argv + ["--out", sys.argv[3] + "/" + workload])
    seen[workload] = sorted({span[1] for span in tr.spans if span[3] == op})
need = {w: sorted(name for name, on in bench_run.RECORDED_ON.items() if w in on) for w in runs}
print(json.dumps({"codes": codes, "seen": seen, "need": need}))
"""


def test_traced_entry_points_record_spans(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _SCRIPT, str(ROOT / "bench"), str(ROOT / "src"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"identities": 0, "regularity": 0}
    for workload, names in result["need"].items():
        assert names, workload
        missing = sorted(set(names) - set(result["seen"][workload]))
        assert not missing, f"{workload}: no span from {missing}"
