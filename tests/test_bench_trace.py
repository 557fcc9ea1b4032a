"""The benchmark's traced entry points are still reached by its workloads.

``bench/run.py --trace 1`` requires that each function its ``RECORDED_ON``
table lists for a workload records at least one span on that workload, and
that each layer its ``LAYER_RECORDED_ON`` table lists does.  A refactor
that routes around one of them shows up there only as ``correct: false``;
this test runs one op of each workload of ``bench/workloads.py``, through
the workload's own ``setup``, ``make_input``, ``run`` and ``check``, under
the benchmark's tracer and checks both tables.  The bench modules are
imported without writing bytecode next to them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run as bench_run
import tracer as bench_tracer
from workloads import WORKLOADS
symprod = bench_run.import_symprod()
tr = bench_tracer.install(symprod)
seen, checks = {}, {}
for op, (name, w) in enumerate(WORKLOADS.items()):
    out = Path(sys.argv[3]) / name
    out.mkdir()
    ctx = w.setup(symprod, out)
    inp = w.make_input(1, op)
    tr.op = op
    result = w.run(symprod, ctx, inp)
    tr.op = None
    checks[name] = list(w.check(ctx, inp, result)[:2])
    seen[name] = sorted({span[1] for span in tr.spans if span[3] == op})
need = {w: sorted(name for name, on in bench_run.RECORDED_ON.items() if w in on)
        for w in WORKLOADS}
layers = {w: sorted(layer for layer, on in bench_run.LAYER_RECORDED_ON.items() if w in on)
          for w in WORKLOADS}
print(json.dumps({"checks": checks, "seen": seen, "need": need, "layers": layers}))
"""


def test_traced_entry_points_record_spans(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _SCRIPT, str(ROOT / "bench"), str(ROOT / "src"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["checks"]) == {"loja-annulus", "coeff-eval", "identities", "regularity"}
    for workload, (ok, reason) in result["checks"].items():
        assert ok, f"{workload}: {reason}"
    for workload, names in result["need"].items():
        assert names, workload
        seen = result["seen"][workload]
        missing = sorted(set(names) - set(seen))
        assert not missing, f"{workload}: no span from {missing}"
        missing = [layer for layer in result["layers"][workload]
                   if not any(name.split(".")[0] == layer for name in seen)]
        assert not missing, f"{workload}: no span from the layers {missing}"
