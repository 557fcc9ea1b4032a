import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symprod.cli import run

README_DESCRIPTORS = [
    "disc 0 0 1",
    "ellipse 0 0 1.1 0.9",
    "star 1 0.25 2",
    "annulus 0 0 0.3 1",
    "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4",
]


def _read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _tree_hash(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.glob("*")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_bogus_flag_exits_2():
    assert run(["transform", "--bogus"]) == 2


def test_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2


def test_bad_domain_exits_2(tmp_path):
    assert run(["transform", "--domain", "hexagon 1 2", "--out", str(tmp_path)]) == 2


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = banana\n")
    assert run(["identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # A misspelt key would otherwise be ignored, and echoed in meta.config as
    # if it had been used.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sampels = 5\n")
    assert run(["components", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key 'sampels'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_identities_small_run(tmp_path):
    out = tmp_path / "ids"
    code = run(["identities", "--domain", "disc 0 0 1", "--n", "2", "--nodes", "256",
                "--samples", "12", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["failures"] == []
    assert set(rep["meta"]) == {"version", "command", "config", "seed"}
    assert rep["meta"]["seed"] == 42
    assert rep["meta"]["config"]["samples"] == 12
    assert (out / "identities.csv").exists()
    header = (out / "identities.csv").read_text().splitlines()[0]
    assert header == "identity,max_residual,tolerance,comparisons,passed"


def test_identities_fails_a_suite_without_comparisons(tmp_path):
    # On this annulus the derivative suite's sampling depth exceeds the ring
    # width, so it places no tuples; a suite that compared nothing fails.
    out = tmp_path / "ids_annulus"
    code = run(["identities", "--domain", "annulus 0 0 0.3 1", "--n", "1",
                "--samples", "10", "--out", str(out)])
    assert code == 1
    rep = _read_report(out)
    entry = rep["results"]["derivative_factorization"]
    assert entry["comparisons"] == 0 and entry["passed"] is False
    assert "derivative_factorization" in rep["failures"]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = disc 0 0 1\nphi = monomial 3\nn = 2\nnodes = 64\nsamples = 30\n"
                   "tol-scale = 2\n")
    out = tmp_path / "tr"
    code = run(["transform", "--config", str(cfg), "--nodes", "128", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["meta"]["config"]["nodes"] == 128   # flag wins
    assert rep["meta"]["config"]["samples"] == rep["results"]["points"] == 30
    assert rep["meta"]["config"]["phi"] == "monomial 3"
    assert rep["meta"]["config"]["tol_scale"] == 2.0   # tol-scale is read as tol_scale
    assert (out / "transform.csv").exists()


def test_components_annulus(tmp_path):
    out = tmp_path / "comp"
    code = run(["components", "--domain", "annulus 0 0 0.3 1", "--n", "2",
                "--samples", "5000", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["results"]["distinct_signatures"] == 6
    assert rep["results"]["expected_component_count"] == 6


def test_determinism(tmp_path):
    args = ["identities", "--domain", "disc 0 0 1", "--n", "2", "--samples", "10",
            "--seed", "7"]
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(args + ["--out", str(out)]) == 0
        hashes.append(_tree_hash(out))
    assert hashes[0] == hashes[1]


def test_loja_run(tmp_path):
    out = tmp_path / "loja"
    code = run(["loja", "--domain", "disc 0 0 1", "--n", "2", "--samples", "300",
                "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["results"]["violations_at_c_max"] == 0
    assert rep["results"]["c_max"] > 0
    assert rep["meta"]["config"]["samples"] == 300


def test_holder_run(tmp_path):
    out = tmp_path / "holder"
    assert run(["holder", "--out", str(out)]) == 0
    rep = _read_report(out)
    assert set(rep["results"]) == {"abs_sqrt", "linear", "lacunar_0.3"}
    for name in rep["results"]:
        assert (out / f"pairs_{name}.csv").exists()
        header = (out / f"pairs_{name}.csv").read_text().splitlines()[0]
        assert header == "bin_lo,bin_hi,pair_count,max_diff"


def test_pv_run(tmp_path):
    out = tmp_path / "pv"
    code = run(["pv", "--domain", "disc 0 0 1", "--n", "2", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert abs(rep["results"]["slope"] - rep["results"]["expected_slope"]) <= rep["results"]["band"]
    assert (out / "pv.csv").exists()
    assert rep["meta"]["config"]["phi"] == rep["results"]["phi"] == "weierstrass 0.5 12"
    assert rep["meta"]["config"]["nodes"] == 8192   # the raised count actually used


def test_pv_explicit_phi_is_used(tmp_path):
    out = tmp_path / "pv"
    code = run(["pv", "--phi", "monomial 3", "--out", str(out)])
    assert code in (0, 1)
    rep = _read_report(out)
    assert rep["meta"]["config"]["phi"] == rep["results"]["phi"] == "monomial 3"


def test_propermap_run(tmp_path):
    out = tmp_path / "pm"
    code = run(["propermap", "--domain", "disc 0 0 1", "--propermap", "monomial 2",
                "--n", "2", "--samples", "500", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["meta"]["config"]["samples"] == rep["results"]["samples_used"] == 1000
    assert rep["results"]["route_agreement"] <= 1e-8
    assert min(rep["results"]["alpha_hat_per_component"]) >= rep["results"]["regularity_threshold"]


def test_propermap_samples_clamped_to_cap(tmp_path):
    # Beyond the fit's cap more samples change nothing, so the request is
    # clamped to the cap and the run is the run at the cap.
    runs = {}
    for samples in ("100000", "4500"):
        out = tmp_path / samples
        assert run(["propermap", "--n", "1", "--samples", samples, "--out", str(out)]) == 0
        runs[samples] = out
    rep = _read_report(runs["100000"])
    assert rep["meta"]["config"]["samples"] == 4500
    assert rep["results"]["samples_used"] <= 4500
    assert _tree_hash(runs["100000"]) == _tree_hash(runs["4500"])


def test_tolerance_failure_exits_1(tmp_path):
    out = tmp_path / "tight"
    code = run(["holder", "--tol-scale", "0.0001", "--out", str(out)])
    assert code == 1
    rep = _read_report(out)
    assert rep["failures"]


def test_identities_n3(tmp_path):
    out = tmp_path / "ids3"
    code = run(["identities", "--domain", "disc 0 0 1", "--n", "3", "--nodes", "256",
                "--samples", "5", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["meta"]["config"]["samples"] == 10   # raised to the suite minimum
    assert rep["failures"] == []
    for entry in rep["results"].values():
        assert entry["passed"]


@pytest.mark.parametrize(
    "descriptor, n",
    [pytest.param(d, 2, id=d) for d in README_DESCRIPTORS]
    + [pytest.param("disc 5 5 1", 3, id="disc 5 5 1-3")],
)
def test_propermap_route_agreement_on_readme_domains(tmp_path, descriptor, n):
    # The check tuples are drawn inside the source domain, whatever its shape.
    # Off the origin the image coefficients reach |w|^(2n) (~3e5 for the
    # shifted disc at n = 3), so the agreement is relative to their size.
    out = tmp_path / "pm"
    code = run(["propermap", "--domain", descriptor, "--n", str(n), "--samples", "1000",
                "--out", str(out)])
    assert code == 0
    assert _read_report(out)["results"]["route_agreement"] <= 1e-8


@pytest.mark.parametrize("argv", [
    ["transform", "--n", "0"],
    ["transform", "--nodes", "3"],
    ["loja", "--n", "9"],
    ["components", "--samples", "0"],
    ["identities", "--tol-scale", "nan"],
    ["transform", "--phi", "weierstrass 0.5 2000"],
    ["transform", "--phi", "weierstrass 0.5 -3"],
    ["pv", "--phi", "weierstrass 0.5 2000"],
])
def test_out_of_range_number_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_loja_c_max_out_of_range_fails(tmp_path):
    # At n = 6 the exponent is 1080, so delta**1080 overflows to inf on the
    # unit disc; the violation count is 0 by construction and proves nothing.
    out = tmp_path / "loja6"
    code = run(["loja", "--n", "6", "--samples", "100", "--out", str(out)])
    assert code == 1
    rep = _read_report(out)
    assert rep["results"]["c_max"] == "inf"
    assert rep["failures"] == ["c_max_out_of_range"]


def test_sampling_failure_exits_1(tmp_path, capsys):
    # No point of this ring is 0.1 from both circles, so the sampler gives up.
    code = run(["transform", "--domain", "annulus 0 0 0.9 1", "--out", str(tmp_path / "t")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_python_m_symprod(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "holder"
    proc = subprocess.run([sys.executable, "-m", "symprod", "holder", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()


COMMANDS = ["transform", "identities", "components", "loja", "pv", "holder", "propermap"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_readme_descriptor_matrix(tmp_path, descriptor, command):
    # Every command on every README domain: a success, or a tolerance
    # failure that the report lists; never a config error or a traceback.
    out = tmp_path / "o"
    samples = "1000" if command == "propermap" else "100"
    code = run([command, "--domain", descriptor, "--n", "2", "--samples", samples,
                "--out", str(out)])
    assert code in (0, 1)
    failures = _read_report(out)["failures"]
    if code == 1:
        assert failures
    else:
        assert failures == []
