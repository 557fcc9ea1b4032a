import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from symprod import cli, geometry
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


# The config keys each command reads: its flags, its config-file keys and
# its meta.config echo.  VALUES holds a valid value of every key.
READS = {
    "transform": {"domain", "phi", "n", "nodes", "samples", "seed"},
    "identities": {"domain", "n", "nodes", "samples", "seed", "tol_scale"},
    "components": {"domain", "n", "samples", "seed"},
    "loja": {"domain", "n", "samples", "seed"},
    "pv": {"domain", "phi", "n", "nodes"},
    "holder": {"tol_scale"},
    "propermap": {"domain", "propermap", "n", "nodes", "samples", "seed", "tol_scale"},
}
VALUES = {"domain": "disc 0 0 1", "phi": "monomial 3", "propermap": "monomial 2", "n": "2",
          "nodes": "64", "samples": "100", "seed": "7", "tol_scale": "2"}


def _flags(command: str, **values) -> list[str]:
    """The flags of ``values`` that ``command`` reads."""
    return [arg for key, value in values.items() if key in READS[command]
            for arg in ("--" + key.replace("_", "-"), value)]


@pytest.mark.parametrize("command", READS)
def test_meta_config_echoes_the_keys_the_command_reads(tmp_path, command):
    out = tmp_path / "o"
    assert run([command, *_flags(command, n="1", samples="100"), "--out", str(out)]) in (0, 1)
    meta = _read_report(out)["meta"]
    assert set(meta["config"]) == READS[command]
    assert meta["seed"] == (42 if "seed" in READS[command] else None)


def test_an_unread_flag_is_refused_with_the_command_usage(tmp_path, capsys):
    assert run(["holder", "--domain", "x", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: symprod holder ")
    assert err.endswith("symprod holder: error: unrecognized arguments: --domain x\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", READS)
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, command):
    key = next(k for k in VALUES if k not in READS[command])
    flag = "--" + key.replace("_", "-")
    assert run([command, flag, VALUES[key], "--out", str(tmp_path / "o")]) == 2
    assert flag in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {VALUES[key]}\n")
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown config key {key!r} for {command}" in capsys.readouterr().err
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


@pytest.mark.parametrize("n, code", [(3, 0), (5, 1)])
def test_identities_fails_an_order_the_floor_refused(tmp_path, n, code):
    # On the unit disc the kernel floor refuses every second-order
    # derivative evaluation from n = 5, so that order goes unchecked.
    out = tmp_path / f"ids_n{n}"
    assert run(["identities", "--domain", "disc 0 0 1", "--n", str(n), "--samples", "30",
                "--out", str(out)]) == code
    failures = _read_report(out)["failures"]
    assert failures == (["derivative_factorization"] if code else [])


def test_identities_past_the_floor_writes_a_report(tmp_path):
    # From n = 8 the kernel floor refuses some arity of the multi-node and
    # coefficient-form suites; each marks that arity unchecked and fails.
    out = tmp_path / "ids_n8"
    assert run(["identities", "--domain", "disc 0 0 1", "--n", "8", "--samples", "10",
                "--out", str(out)]) == 1
    rep = _read_report(out)
    refusing = {"norlund_divided_difference", "pushforward_identity",
                "derivative_factorization", "power_sum_residues"}
    assert {"norlund_divided_difference", "derivative_factorization"} <= set(rep["failures"])
    assert set(rep["failures"]) <= refusing
    for name in rep["failures"]:
        assert rep["results"][name]["max_residual"] == "inf"


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = disc 0 0 1\nphi = monomial 3\nn = 2\nnodes = 64\nsamples = 30\n")
    out = tmp_path / "tr"
    code = run(["transform", "--config", str(cfg), "--nodes", "128", "--out", str(out)])
    assert code == 0
    rep = _read_report(out)
    assert rep["meta"]["config"]["nodes"] == 128   # flag wins
    assert rep["meta"]["config"]["samples"] == rep["results"]["points"] == 30
    assert rep["meta"]["config"]["phi"] == "monomial 3"
    assert (out / "transform.csv").exists()
    cfg.write_text("tol-scale = 2\n")
    out = tmp_path / "holder"
    assert run(["holder", "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_report(out)["meta"]["config"] == {"tol_scale": 2.0}   # read as tol_scale


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
    assert math.isfinite(rep["results"]["log10_c_max"])
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


def test_pv_on_a_domain_smaller_than_its_radii_is_refused(tmp_path, capfd):
    # The fixed radius 2^-3 reaches past a quarter of this disc's diameter 0.4.
    code = run(["pv", "--domain", "disc 0 0 0.2", "--out", str(tmp_path / "pv")])
    _, err = capfd.readouterr()
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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


def test_identities_derivative_factorization_off_center(tmp_path):
    # The Taylor circles sit in root space around the tuples, so they follow
    # the domain; the reproduction and power-sum suites compare each error
    # at the size of its datum on the boundary, which grows like |t|^8 here.
    out = tmp_path / "ids_off"
    assert run(["identities", "--domain", "disc 5 5 1", "--n", "3", "--out", str(out)]) == 0
    entry = _read_report(out)["results"]["derivative_factorization"]
    assert entry["passed"] and entry["max_residual"] <= 1e-9 and entry["comparisons"] > 0


@pytest.mark.parametrize("argv", [
    ["transform", "--n", "0"],
    ["transform", "--nodes", "3"],
    ["loja", "--n", "13"],
    ["components", "--samples", "0"],
    ["identities", "--tol-scale", "nan"],
    ["transform", "--phi", "weierstrass 0.5 2000"],
    ["transform", "--phi", "weierstrass 0.5 -3"],
    ["pv", "--phi", "weierstrass 0.5 2000"],
    # Descriptor numbers must be finite, as in the domain grammar.
    ["transform", "--phi", "pole inf 0 1"],
    ["transform", "--phi", "pole nan 0 1"],
    ["propermap", "--propermap", "blaschke nan"],
])
def test_out_of_range_number_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["loja", "--n", "6", "--samples", "100"],
    ["loja", "--domain", "disc 0 0 100", "--n", "5"],
])
def test_loja_log10_c_max_stays_finite(tmp_path, argv):
    # delta**exponent overflows here (exponent 1080 at n = 6, delta up to 200
    # on the large disc), but its logarithm does not.
    out = tmp_path / "loja"
    assert run(argv + ["--out", str(out)]) == 0
    rep = _read_report(out)
    assert math.isfinite(rep["results"]["log10_c_max"])
    assert rep["failures"] == []


@pytest.mark.parametrize("descriptor", [
    "star 1 0.25 2.5", "disc 0 0 1 + hole annulus 0 0 0.1 0.2",
    "annulus 0 0 0.3 1 + hole disc 0 0 0.1", "disc 0 0", "disc 0 0 inf", "square 0 0 1",
    "disc 0 0 1 + hole",
])
def test_refused_domain_descriptor_exits_2(tmp_path, capsys, descriptor):
    assert run(["components", "--domain", descriptor, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, refusing", [
    # Tuples that find no room, a root round trip that misses its
    # tolerance, and the kernel floor: each refuses one suite's arity.
    (["--domain", "disc 0 0 0.3", "--n", "3", "--seed", "7"], "permutation_invariance"),
    (["--domain", "disc 5 5 1", "--n", "6", "--samples", "50", "--seed", "7"],
     "pushforward_identity"),
    (["--domain", "disc 0 0 100", "--n", "2", "--samples", "10"], "permutation_invariance"),
])
def test_a_refused_arity_still_writes_the_report(tmp_path, argv, refusing):
    out = tmp_path / "ids"
    assert run(["identities", *argv, "--out", str(out)]) == 1
    report = _read_report(out)
    assert refusing in report["failures"]
    assert report["results"][refusing]["max_residual"] == "inf"


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


def test_python_m_symprod_on_a_very_large_domain(tmp_path):
    # Kernel floors and sums beyond the float range are refused, not raised:
    # every command that reads a domain exits with a code the README names.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in DOMAIN_COMMANDS:
        argv = [command, *_flags(command, domain="disc 0 0 1e60", samples="10")]
        proc = subprocess.run([sys.executable, "-m", "symprod", *argv, "--out", str(tmp_path / command)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 1, 2), (command, proc.stderr)
        assert "Traceback" not in proc.stderr, (command, proc.stderr)


def _matrix_argv(command: str, descriptor: str) -> list[str]:
    samples = "1000" if command == "propermap" else "100"
    return [command, *_flags(command, domain=descriptor, n="2", samples=samples)]


DOMAIN_COMMANDS = [c for c in READS if "domain" in READS[c]]


@pytest.mark.parametrize("command", DOMAIN_COMMANDS)
@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_readme_descriptor_matrix(tmp_path, descriptor, command):
    # Every command that reads a domain on every README domain: a success, or
    # a tolerance failure that the report lists; never a config error or a
    # traceback.
    out = tmp_path / "o"
    code = run(_matrix_argv(command, descriptor) + ["--out", str(out)])
    assert code in (0, 1)
    failures = _read_report(out)["failures"]
    if code == 1:
        assert failures
    else:
        assert failures == []


def _clear_shared_caches() -> None:
    """Empty the parser cache and every contour cache, as in a new process."""
    for module in (geometry, cli):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("command", DOMAIN_COMMANDS)
@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_warm_run_equals_cold_run(tmp_path, descriptor, command):
    # The second run reuses the parser and the contours of the first; the
    # two write the same bytes and exit alike.
    _clear_shared_caches()
    codes, trees = [], []
    for sub in ("cold", "warm"):
        codes.append(run(_matrix_argv(command, descriptor) + ["--out", str(tmp_path / sub)]))
        trees.append({f.name: f.read_bytes() for f in sorted((tmp_path / sub).iterdir())})
    assert codes[0] == codes[1]
    assert trees[0] == trees[1]


def test_a_refused_call_leaves_no_state(tmp_path, capsys):
    argv = ["loja", "--domain", "annulus 0 0 0.3 1", "--samples", "100"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--n", "0", "--out", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err.startswith("config error: n = 0")
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("descriptor", ["disc 0 0 1e36", "disc 0 0 1e60"])
def test_loja_on_a_very_large_domain_is_refused(tmp_path, capfd, descriptor):
    # The coefficient distances leave the float range before the fit: one
    # error line, and no LAPACK complaint on the C-level stdout.
    code = run(["loja", "--domain", descriptor, "--n", "5", "--samples", "10",
                "--out", str(tmp_path / "o")])
    out, err = capfd.readouterr()
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "DLASCL" not in out + err


@pytest.mark.parametrize("n", ["2", "5"])
def test_identities_on_a_very_large_domain_warns_nothing(tmp_path, n):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["identities", "--domain", "disc 0 0 1e60", "--n", n, "--samples", "10",
                    "--out", str(out)])
    assert code == 1
    assert _read_report(out)["failures"] == [
        "cauchy_reproduction", "norlund_divided_difference", "pushforward_identity",
        "derivative_factorization", "power_sum_residues", "permutation_invariance"]
