"""Command-line interface: outputs, manifests, and the rerun contract."""

import json
import subprocess
import sys

import jsonschema
import pytest

from obrs import FiniteDist, bimodal_target, single_gaussian
from obrs.cli import _manifest_schema, main


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_manifest(out):
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_generators_command(tmp_path):
    out = tmp_path / "gen"
    assert run_cli("generators", "--u-steps", 11, "--out", out) == 0
    manifest = read_manifest(out)
    jsonschema.validate(manifest, _manifest_schema())
    assert manifest["command"] == "generators"
    assert manifest["seed"] is None
    assert set(manifest["outputs"]) == {"generators.csv", "summary.json"}
    for name in manifest["outputs"]:
        assert (out / name).exists()
    header = (out / "generators.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("generator,u,f")


def test_refine_command(tmp_path):
    out = tmp_path / "refine"
    assert run_cli("refine", "--budget", 2, "--nodes", 1024, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "budgeted"
    assert summary["measured_rate"] == pytest.approx(0.5, abs=1e-5)
    for name in ("densities.csv", "acceptance.csv", "prcurve.csv"):
        assert (out / name).exists()


def test_refine_nan_budget_exits_one(tmp_path, capsys):
    out = tmp_path / "nan"
    assert run_cli("refine", "--budget", "nan", "--nodes", 256, "--out", out) == 1
    assert "budget" in capsys.readouterr().err


def test_refine_rate_is_inverse_budget(tmp_path):
    out = tmp_path / "rate"
    assert run_cli("refine", "--rate", 0.25, "--nodes", 1024, "--out", out) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["budget"] == pytest.approx(4.0)


def test_landscape_command(tmp_path):
    out = tmp_path / "land"
    assert run_cli(
        "landscape", "--budgets", "1,2", "--theta-steps", 9,
        "--theta-min", 0.7, "--theta-max", 1.3, "--nodes", 1024, "--out", out,
    ) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary["local_minima"]) == {"1", "2"}
    assert summary["monotonicity"]["max_excess_2_vs_1"] <= 1e-8
    rows = (out / "landscape.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 2 * 9


def test_fit_command(tmp_path):
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--budgets", "1", "--mu-steps", 3, "--mu-min", -0.5, "--mu-max", 0.5,
        "--sigma-steps", 5, "--sigma-min", 1.5, "--sigma-max", 2.5,
        "--nodes", 1024, "--out", out,
    ) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["argmin"]["1"]["best_mu"] == pytest.approx(0.0)


def test_bounds_command_and_rerun(tmp_path):
    out = tmp_path / "bounds"
    assert run_cli("bounds", "--seed", 7, "--instances", 10, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["general_violations"] == 0
    assert summary["canonical_kl_violated"] is True
    again = tmp_path / "bounds2"
    assert run_cli("rerun", out / "manifest.json", "--out", again) == 0
    for name in ("bounds_general.csv", "bounds_kl.csv", "summary.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()
    assert read_manifest(again)["command"] == "bounds"


def test_grid2d_command_and_rerun(tmp_path):
    out = tmp_path / "g2"
    assert run_cli(
        "grid2d", "--seed", 5, "--repeats", 2, "--samples", 300,
        "--calibration", 2000, "--out", out,
    ) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary["methods"]) == {"baseline", "obrs", "drs"}
    assert summary["methods"]["obrs"]["precision_mean"] >= summary["methods"]["baseline"]["precision_mean"]
    again = tmp_path / "g2b"
    assert run_cli("rerun", out / "manifest.json", "--out", again) == 0
    assert (out / "grid2d.csv").read_bytes() == (again / "grid2d.csv").read_bytes()


def test_sample_command_and_rerun(tmp_path):
    target_file = tmp_path / "t.json"
    model_file = tmp_path / "m.json"
    target_file.write_text(json.dumps(bimodal_target().to_json()), encoding="utf-8")
    model_file.write_text(json.dumps(single_gaussian(0.0, 1.5).to_json()), encoding="utf-8")
    out = tmp_path / "smp"
    assert run_cli(
        "sample", "--target", target_file, "--model", model_file,
        "--budget", 2, "--samples", 200, "--seed", 9, "--calibration", 2000,
        "--out", out,
    ) == 0
    rows = (out / "samples.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 201
    again = tmp_path / "smp2"
    assert run_cli("rerun", out / "manifest.json", "--out", again) == 0
    assert (out / "samples.csv").read_bytes() == (again / "samples.csv").read_bytes()


def test_sample_command_finite_pair(tmp_path):
    target_file = tmp_path / "ft.json"
    model_file = tmp_path / "fm.json"
    target_file.write_text(
        json.dumps(FiniteDist([0, 1], [0.5, 0.5]).to_json()), encoding="utf-8"
    )
    model_file.write_text(
        json.dumps(FiniteDist([0, 1], [0.8, 0.2]).to_json()), encoding="utf-8"
    )
    out = tmp_path / "fs"
    assert run_cli(
        "sample", "--target", target_file, "--model", model_file,
        "--rate", 0.5, "--samples", 100, "--seed", 2, "--out", out,
    ) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "budgeted"
    assert summary["accepted"] == 100


def test_seventeen_digit_floats(tmp_path):
    out = tmp_path / "gen17"
    assert run_cli("generators", "--u-steps", 7, "--out", out) == 0
    lines = (out / "generators.csv").read_text(encoding="utf-8").splitlines()
    # every float field parses back to the exact binary value it came from
    for line in lines[1:3]:
        for fieldtext in line.split(",")[1:3]:
            value = float(fieldtext)
            assert "%.17g" % value == fieldtext


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bounds", "--out", "/tmp/nope"])  # --seed is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    capsys.readouterr()


def test_bad_manifest_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "bounds"}), encoding="utf-8")
    assert main(["rerun", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_sampling_failure_exits_one(tmp_path, capsys):
    target_file = tmp_path / "t.json"
    model_file = tmp_path / "m.json"
    target_file.write_text(json.dumps(bimodal_target().to_json()), encoding="utf-8")
    model_file.write_text(json.dumps(single_gaussian(0.0, 1.5).to_json()), encoding="utf-8")
    code = main([
        "sample", "--target", str(target_file), "--model", str(model_file),
        "--budget", "2", "--samples", "100000", "--seed", "1",
        "--max-draws", "50", "--calibration", "500",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "obrs.cli", "generators", "--u-steps", "3",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
