import importlib.util
import json
import shlex
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_alternates_the_first_side_per_workload(tmp_path, monkeypatch):
    bench_record = _load("bench_record")
    spec = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    calls = []

    def recorder(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        return {"seed": seed, "correct": True, "failed": 0, "attempted": 1,
                "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
                "environment": {"seed": seed}}

    monkeypatch.setattr(bench_record, "bench_once", recorder)
    parent = tmp_path / "parent"
    parent.mkdir()
    seeds = [str(s) for s in range(1, 11)]
    assert bench_record.main(["--parent", str(parent), "--seeds", *seeds,
                              "--out", str(tmp_path / "bench.json")]) == 0
    pairs = list(zip(calls[::2], calls[1::2]))
    assert all(a[1:] == b[1:] and a[0] != b[0] for a, b in pairs)
    # Over ten seeds, each workload runs each side first five times.
    parent_first = Counter(a[1] for a, _ in pairs if a[0] == parent)
    assert parent_first == {w["name"]: 5 for w in spec["workloads"]}
    # Within a seed, consecutive pairs start with opposite sides.
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a[2] == b[2]:
            assert a[0] != b[0]


def test_claim_matrix_cells_repeat_and_match_the_committed_claims():
    claim_matrix = _load("claim_matrix")
    committed = json.loads((claim_matrix.ROOT / "CLAIMS.json").read_text())
    cells = [(["transform", "--domain", "disc 0 0 1", "--n", "5"], 0),
             # The kernel floor refuses the sixth arity.
             (["transform", "--domain", "disc 0 0 1", "--n", "6"], 1),
             (["components", "--domain", "star 1 0.25 2.5"], 2),
             # Pins every identity suite's max_residual and comparisons.
             (["identities", "--domain", "disc 0 0 1", "--n", "3", "--samples", "50"], 0)]
    for args, code in cells:
        assert args in claim_matrix.GRID + claim_matrix.EXTRAS
        record = claim_matrix.run_cell(args)
        assert record == claim_matrix.run_cell(args)
        assert record["exit"] == code
        claim = committed[shlex.join(args)]
        assert [claim.get(k) for k in ("exit", "failures", "residuals")] == [
            record.get(k) for k in ("exit", "failures", "residuals")]
