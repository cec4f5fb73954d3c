"""Command-line interface: outputs, manifests, and the rerun contract."""

import csv
import json
import math
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from obrs import (
    AcceptanceSpec,
    DomainError,
    FiniteDist,
    ObrsError,
    RatioFn,
    bimodal_target,
    gaussian_grid_2d,
    random_instance,
    ratio_of,
    refine,
    refine_with_drs,
    rejection_sample,
    single_gaussian,
)
from obrs.cli import (
    _build_parser,
    _fmt,
    _grid2d_metrics,
    _manifest_schema,
    _write_csv,
    _write_json,
    _write_manifest,
    main,
)
from obrs.dist import GaussianMixture, pair_view


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


def _grid2d_at_rate(tmp_path, rate):
    out = tmp_path / f"rate-{rate}"
    assert run_cli(
        "grid2d", "--seed", 3, "--rate", rate, "--repeats", 2, "--samples", 300,
        "--calibration", 2000, "--out", out,
    ) == 0
    with open(out / "grid2d.csv", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["method"] != "baseline"]
    return (out / "summary.json").read_text(encoding="utf-8"), rows


def test_grid2d_at_rate_one_accepts_every_proposal(tmp_path):
    # budget 1: the unit acceptance, where the rate solve used to exit 1
    text, rows = _grid2d_at_rate(tmp_path, 1)
    summary = json.loads(text)
    assert summary["scale"] is None and summary["gamma"] is None
    assert summary["calibration_rate"] == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert row["accepted"] == row["draws_used"] == "300"
        assert row["ratio_evals"] == "0"


def _grid2d_pair(cfg):
    """The target and jittered surrogate of a grid2d run's config."""
    target = gaussian_grid_2d(cfg["sigma"], cfg["spacing"])
    jitter = np.full(25, cfg["jitter"] / 25.0)
    weights = np.random.default_rng([cfg["seed"], 0xD1]).dirichlet(jitter)
    return target, gaussian_grid_2d(cfg["surrogate_sigma"], cfg["spacing"], weights=weights)


def test_grid2d_rate_below_one_over_m_runs_the_unbudgeted_sampler(tmp_path):
    # budget 1/rate >= M: c = 1 and rate 1/M, not a negative shift at rate 0.05
    text, rows = _grid2d_at_rate(tmp_path, 0.05)
    summary = json.loads(text)
    # drs is matched to that rate on the same calibration draws
    cfg = read_manifest(tmp_path / "rate-0.05")["config"]
    target, surrogate = _grid2d_pair(cfg)
    cal_rng = np.random.default_rng([cfg["seed"], 0xCA])
    view = pair_view(target, surrogate, "sample", cfg["calibration"], rng=cal_rng)
    log_sup = float(np.max(view.lp - view.lq))
    drs = AcceptanceSpec.logistic(ratio_of(target, surrogate), log_sup, summary["gamma"])
    rate = float(np.dot(view.qw, drs.accept_prob(view.points)))
    assert abs(rate - summary["calibration_rate"]) <= 1e-12
    assert summary["scale"] == 1.0
    assert summary["calibration_rate"] == pytest.approx(1 / summary["sup_ratio"], rel=0.2)
    for row in rows:
        assert float(row["measured_rate"]) == pytest.approx(summary["calibration_rate"], rel=0.2)


def test_grid2d_rate_whose_draw_cap_overflows_runs(tmp_path):
    # 1/rate is finite but 50 * samples / rate is not: math.ceil raised OverflowError
    text, rows = _grid2d_at_rate(tmp_path, 1e-306)
    assert json.loads(text)["scale"] == 1.0
    assert {row["accepted"] for row in rows} == {"300"}


@pytest.mark.parametrize("repeats", [1, 3])
def test_grid2d_draws_and_evaluates_each_batch_once(tmp_path, monkeypatch, repeats):
    # one proposal stream per repeat: one model draw and one log-ratio (two
    # log-densities) per batch, besides the calibration sample and its ratio
    calls = {"log_density": 0, "sample": 0}
    for name in calls:
        original = getattr(GaussianMixture, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(GaussianMixture, name, counted)
    assert run_cli(
        "grid2d", "--seed", 2, "--repeats", repeats, "--samples", 300,
        "--calibration", 2000, "--out", tmp_path / "g",
    ) == 0
    assert calls == {"log_density": 2 + 2 * repeats, "sample": 1 + repeats}


def test_grid2d_log_densities_take_no_subnormal_exp():
    # the shifted mixture terms are floored before exp, so neither density
    # underflows on the protocol's proposals (about 3 in 4 terms did)
    cfg = {"seed": 909, "sigma": 0.05, "spacing": 1.0, "surrogate_sigma": 0.1, "jitter": 200.0}
    target, surrogate = _grid2d_pair(cfg)
    x = surrogate.sample(np.random.default_rng([909, 1, 0]), 8192)
    with np.errstate(under="raise"):
        target.log_density(x)
        surrogate.log_density(x)


def test_finite_sample_keeps_proposals_as_atom_indices(tmp_path, monkeypatch):
    # no atom list per batch and no per-draw ratio lookup: the sampler reads
    # the ratio once, at the live atoms, and draws atom indices
    calls = {"sample": [], "log": []}
    for cls, name in ((FiniteDist, "sample"), (RatioFn, "log")):
        original = getattr(cls, name)

        def counted(self, x, *args, _name=name, _original=original):
            calls[_name].append(x)
            return _original(self, x, *args)

        monkeypatch.setattr(cls, name, counted)
    files = []
    target, model = random_instance(np.random.default_rng(3), 64)
    for name, dist in zip(("t.json", "m.json"), (target, model)):
        (tmp_path / name).write_text(json.dumps(dist.to_json()), encoding="utf-8")
        files.append(tmp_path / name)
    out = tmp_path / "s"
    assert run_cli(
        "sample", "--target", files[0], "--model", files[1], "--budget", 2.5,
        "--samples", 5000, "--seed", 4, "--out", out,
    ) == 0
    assert json.loads((out / "summary.json").read_text(encoding="utf-8"))["draws_used"] > 8192
    live = [a for a, p in zip(model.atoms, model.probs) if p > 0]
    assert len(live) == 64
    assert calls == {"sample": [], "log": [live]}


def test_grid2d_rows_match_separate_runs_of_each_method(tmp_path):
    out = tmp_path / "g"
    assert run_cli(
        "grid2d", "--seed", 5, "--repeats", 2, "--samples", 300, "--calibration", 2000,
        "--out", out,
    ) == 0
    cfg = read_manifest(out)["config"]
    target, surrogate = _grid2d_pair(cfg)
    spec, drs, _ = refine_with_drs(
        target, surrogate, 1 / cfg["rate"], mode="sample", n=cfg["calibration"],
        rng=np.random.default_rng([cfg["seed"], 0xCA]),
    )
    assert drs.kind == "logistic"
    methods = {"baseline": AcceptanceSpec.unit(), "obrs": spec, "drs": drs}
    lines = (out / "grid2d.csv").read_text(encoding="utf-8").splitlines()[1:]
    expected = []
    for rep in range(cfg["repeats"]):
        for method, s in methods.items():
            res = rejection_sample(
                surrogate, s, 300, np.random.default_rng([cfg["seed"], 1, rep]),
                max_draws=math.ceil(50 * 300 / cfg["rate"]),
            )
            precision, recall = _grid2d_metrics(res.samples, target.means, 4.0 * cfg["sigma"], 1)
            row = [method, rep, precision, recall, res.accepted, res.draws_used,
                   0 if s.kind == "unit" else res.draws_used, res.rate]
            expected.append(",".join(_fmt(v) for v in row))
    assert sorted(lines) == sorted(expected)


def test_bounds_solves_each_instance_once(tmp_path, monkeypatch):
    # one solve per instance, shared by its five general checks and its KL check
    import obrs.oracle

    calls = []
    refine = obrs.oracle.refine

    def counted(*args, **kwargs):
        calls.append(args)
        return refine(*args, **kwargs)

    monkeypatch.setattr(obrs.oracle, "refine", counted)
    assert run_cli("bounds", "--seed", 1, "--instances", 10, "--out", tmp_path / "b") == 0
    assert len(calls) == 11


def test_bounds_builds_each_witness_once(tmp_path, monkeypatch):
    # per instance: its two distributions, its refined distribution and one
    # mixture witness shared by the five generators (it was built per generator)
    calls = []
    init = FiniteDist.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(FiniteDist, "__init__", counted)
    assert run_cli("bounds", "--seed", 1, "--instances", 10, "--out", tmp_path / "b") == 0
    assert len(calls) == 4 * 11


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


@pytest.mark.parametrize(
    "atoms",
    [[0, 1, 2], [(0, 1), (1, 0), (2, 2)], ["a,b", 'say "x"', "plain", "x\ny"], [True, 2.5, -1]],
)
def test_finite_samples_csv_matches_the_row_path(tmp_path, atoms):
    # each atom's line is formatted once; the bytes are those of one row per sample
    target = FiniteDist(atoms, np.full(len(atoms), 1 / len(atoms)))
    model = FiniteDist(atoms, np.linspace(1, 2, len(atoms)) / np.sum(np.linspace(1, 2, len(atoms))))
    files = []
    for name, dist in (("t.json", target), ("m.json", model)):
        (tmp_path / name).write_text(json.dumps(dist.to_json()), encoding="utf-8")
        files.append(tmp_path / name)
    out = tmp_path / "s"
    assert run_cli(
        "sample", "--target", files[0], "--model", files[1], "--budget", 1.5,
        "--samples", 300, "--seed", 8, "--out", out,
    ) == 0
    spec, _ = refine(target, model, 1.5, mode="exact")
    res = rejection_sample(model, spec, 300, np.random.default_rng([8, 2]))
    _write_csv(tmp_path / "rows.csv", ["sample"], [[a] for a in res.samples])
    assert (out / "samples.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, obrs.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_manifest_with_a_scipy_version_still_reruns(tmp_path):
    # manifests written while scipy was a runtime dependency record its version
    out = tmp_path / "gen"
    assert run_cli("generators", "--u-steps", 3, "--out", out) == 0
    manifest = read_manifest(out)
    assert "scipy" not in manifest["versions"]
    manifest["versions"]["scipy"] = "1.17.1"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest), encoding="utf-8")
    again = tmp_path / "again"
    assert run_cli("rerun", old, "--out", again) == 0
    for name in manifest["outputs"]:
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "obrs.cli", "generators", "--u-steps", "3",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_strict_json(path):
    """Parse JSON as a strict reader would: NaN and Infinity are refused."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _finite_pair_files(tmp_path):
    target_file = tmp_path / "ft.json"
    model_file = tmp_path / "fm.json"
    target_file.write_text(json.dumps(FiniteDist([0, 1], [0.5, 0.5]).to_json()), encoding="utf-8")
    model_file.write_text(json.dumps(FiniteDist([0, 1], [0.8, 0.2]).to_json()), encoding="utf-8")
    return ["--target", target_file, "--model", model_file, "--seed", 1, "--samples", 10]


@pytest.mark.parametrize("rate", ["0", "nan", "-0.5", "1e-310"])
@pytest.mark.parametrize("command", ["refine", "sample", "grid2d"])
def test_rate_outside_unit_interval_exits_one(tmp_path, capsys, command, rate):
    extra = {
        "refine": ["--nodes", 256],
        "sample": _finite_pair_files(tmp_path),
        "grid2d": ["--seed", 1, "--repeats", 1, "--samples", 100, "--calibration", 500],
    }[command]
    out = tmp_path / "o"
    assert run_cli(command, "--rate", rate, *extra, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rate" in err
    assert not out.exists() or list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["refine", "sample"])
def test_infinite_budget_exits_one(tmp_path, capsys, command):
    extra = ["--nodes", 256] if command == "refine" else _finite_pair_files(tmp_path)
    out = tmp_path / "o"
    assert run_cli(command, "--budget", "inf", *extra, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("probs", [[[0.5], [0.5]], ["0.5", "0.5"], [True, False], None])
def test_sample_on_malformed_finite_probs_exits_one(tmp_path, capsys, probs):
    # nested probs died with a TypeError traceback; strings and bools were read as numbers
    flags = _finite_pair_files(tmp_path)
    bad = {"type": "finite", "atoms": [0, 1], "probs": probs}
    flags[1].write_text(json.dumps(bad), encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("sample", *flags, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prob" in err
    assert not out.exists() or list(out.glob("*")) == []


def test_grid2d_single_repeat_writes_standard_json(tmp_path):
    out = tmp_path / "g1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(
            "grid2d", "--seed", 3, "--repeats", 1, "--samples", 200,
            "--calibration", 1000, "--out", out,
        ) == 0
    summary = read_strict_json(out / "summary.json")
    read_strict_json(out / "manifest.json")
    for method in ("baseline", "obrs", "drs"):
        assert summary["methods"][method]["precision_std"] is None


def test_non_finite_output_values_raise_obrs_error(tmp_path):
    with pytest.raises(ObrsError, match="summary.json"):
        _write_json(tmp_path / "summary.json", {"budget": math.inf})
    assert not (tmp_path / "summary.json").exists()
    with pytest.raises(ObrsError, match="manifest.json"):
        # a complete refine config, which the schema accepts, with a NaN budget
        cfg = {"budget": math.nan, "target_mu": 2.0, "target_sigma": 0.5, "model_mu": 0.0,
               "model_sigma": 1.5, "nodes": 256, "span": 8.0, "lambda_steps": 5}
        _write_manifest(tmp_path, "refine", cfg, None, [], 0.1)
    assert not (tmp_path / "manifest.json").exists()


def test_rerun_of_infinite_budget_manifest_exits_one(tmp_path, capsys):
    # json.load accepts Infinity, so a hand-edited manifest can carry one
    out = tmp_path / "r"
    assert run_cli("refine", "--budget", 2, "--nodes", 256, "--out", out) == 0
    text = (out / "manifest.json").read_text(encoding="utf-8")
    bad = tmp_path / "inf.json"
    bad.write_text(text.replace('"budget": 2.0', '"budget": Infinity'), encoding="utf-8")
    again = tmp_path / "again"
    assert run_cli("rerun", bad, "--out", again) == 1
    assert capsys.readouterr().err.startswith("error:")
    # the config is checked before the run: no output at all
    assert list(again.glob("*")) == []


def _edited_grid2d_manifest(tmp_path, edit):
    out = tmp_path / "g"
    assert run_cli(
        "grid2d", "--seed", 1, "--repeats", 1, "--samples", 100, "--calibration", 500, "--out", out
    ) == 0
    manifest = read_manifest(out)
    edit(manifest["config"])
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    return bad


@pytest.mark.parametrize("repeats", [1.5, 2.0])
def test_rerun_of_fractional_count_exits_one(tmp_path, capsys, repeats):
    # JSON Schema reads 2.0 as an integer, but range() does not
    bad = _edited_grid2d_manifest(tmp_path, lambda cfg: cfg.update(repeats=repeats))
    again = tmp_path / "again"
    capsys.readouterr()
    assert run_cli("rerun", bad, "--out", again) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(repeats) in err
    assert not again.exists() or list(again.glob("*")) == []


def test_rerun_of_manifest_missing_a_config_key_exits_one(tmp_path, capsys):
    bad = _edited_grid2d_manifest(tmp_path, lambda cfg: cfg.pop("sigma"))
    again = tmp_path / "again"
    capsys.readouterr()
    assert run_cli("rerun", bad, "--out", again) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sigma" in err
    assert not again.exists() or list(again.glob("*")) == []


@pytest.mark.parametrize("flag", ["--repeats", "--calibration", "--samples"])
def test_grid2d_zero_count_exits_one(tmp_path, capsys, flag):
    counts = {"--repeats": 1, "--calibration": 500, "--samples": 100}
    counts[flag] = 0
    out = tmp_path / "o"
    args = [v for item in counts.items() for v in item]
    assert run_cli("grid2d", "--seed", 1, *args, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:] in err
    assert list(out.glob("*")) == []


def test_sample_one_point_calibration_exits_one(tmp_path, capsys):
    # one calibration draw is its own envelope: rate 1.0 at any budget
    target_file = tmp_path / "t.json"
    model_file = tmp_path / "m.json"
    target_file.write_text(json.dumps(bimodal_target().to_json()), encoding="utf-8")
    model_file.write_text(json.dumps(single_gaussian(0.0, 1.5).to_json()), encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli(
        "sample", "--target", target_file, "--model", model_file, "--budget", 2,
        "--seed", 1, "--samples", 10, "--calibration", 1, "--out", out,
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "calibration" in err
    assert list(out.glob("*")) == []


def test_bad_manifest_message_is_best_match(tmp_path, capsys):
    manifest = {"command": "nope", "config": [], "seed": "x"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(manifest, _manifest_schema())
    assert main(["rerun", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"


def test_grid2d_metrics_match_norm_reference():
    rng = np.random.default_rng(8)
    modes = gaussian_grid_2d().means
    quota = 3
    # exact ties: midway between two modes, and at the center of four
    ties = np.array([[0.5, 0.0], [-0.5, 1.0], [0.5, 0.5], [-1.5, -1.5], [2.0, 1.5], [0.0, 0.0]])
    for n in (1, 17, 2500, 6, 2506):
        samples = rng.normal(scale=1.5, size=(n, 2))
        if n % 500 == 6:
            samples[-6:] = ties
        d = np.linalg.norm(samples[:, None, :] - modes[None, :, :], axis=2)
        nearest = np.argmin(d, axis=1)
        # a radius on a sample's exact distance: one ulp more flips its verdict
        radius = d[0, nearest[0]]
        close = d[np.arange(n), nearest] <= radius
        counts = np.bincount(nearest[close], minlength=len(modes))
        expected = (float(np.mean(close)), float(np.mean(counts >= quota)))
        assert _grid2d_metrics(samples, modes, radius, quota) == expected
        if n % 500 == 6:
            # a tie goes to the first mode in row-major order, as in argmin
            tied = np.argmin(np.linalg.norm(ties[:, None, :] - modes[None], axis=2), axis=1)
            assert tied.tolist() == [12, 8, 12, 0, 23, 12]
            # within 0.5: all but the two at 0.5 * sqrt(2); only mode 12 has 2
            assert _grid2d_metrics(ties, modes, 0.5, 2) == (4 / 6, 1 / 25)


def test_grid2d_metrics_need_modes_on_a_row_major_grid():
    modes = gaussian_grid_2d().means[np.random.default_rng(3).permutation(25)]
    with pytest.raises(DomainError):
        _grid2d_metrics(np.zeros((4, 2)), modes, 0.2, 1)


@pytest.mark.parametrize(
    "command, key, args",
    [
        ("generators", "u_steps", ["--u-steps", 0]),
        ("refine", "lambda_steps", ["--lambda-steps", 0, "--nodes", 256]),
        ("landscape", "theta_steps", ["--theta-steps", 0, "--nodes", 256]),
        ("landscape", "budgets", ["--budgets", ",", "--nodes", 256]),
        ("fit", "mu_steps", ["--mu-steps", 0, "--nodes", 256]),
        ("fit", "sigma_steps", ["--sigma-steps", 0, "--nodes", 256]),
        ("fit", "budgets", ["--budgets", ",", "--nodes", 256]),
        # wrote landscape.csv and summary.json, then failed on the manifest
        ("landscape", "budget", ["--budgets", "1,inf", "--theta-steps", 3, "--nodes", 256]),
    ],
)
def test_empty_count_or_budget_list_exits_one(tmp_path, capsys, command, key, args):
    # these died with a traceback or wrote empty tables and summaries
    out = tmp_path / "o"
    assert run_cli(command, *args, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("key, value", [("theta_steps", 0), ("budgets", [])])
def test_rerun_of_empty_landscape_exits_one(tmp_path, capsys, key, value):
    out = tmp_path / "l"
    assert run_cli("landscape", "--theta-steps", 3, "--nodes", 256, "--out", out) == 0
    manifest = read_manifest(out)
    manifest["config"][key] = value
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    again = tmp_path / "again"
    capsys.readouterr()
    assert run_cli("rerun", bad, "--out", again) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert list(again.glob("*")) == []


@pytest.mark.parametrize("gen", ["pr:nan", "pr:inf", "pr:-1", "pr:0"])
@pytest.mark.parametrize("command, args", [
    ("fit", ["--mu-steps", 2, "--sigma-steps", 2, "--nodes", 256]),
    ("landscape", ["--theta-steps", 3, "--nodes", 256]),
])
def test_pr_threshold_not_finite_and_positive_exits_one_before_output(
    tmp_path, capsys, command, args, gen
):
    # pr:nan and pr:inf wrote a table of nan, then failed on summary.json
    out = tmp_path / "o"
    assert run_cli(command, "--gen", gen, *args, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lam" in err
    assert not out.exists()


def test_float_table_written_in_one_pass_matches_the_row_path(tmp_path):
    table = np.array([
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308],
        [1e308, -1e308, math.nan, math.inf],
        [-math.inf, 3.0, -17.0, 2.0**53],
        [0.1, 1.0 / 3.0, -2.5e-7, 123456789.0],
    ])
    header = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "array.csv", header, table)
    _write_csv(tmp_path / "rows.csv", header, [[float(v) for v in row] for row in table])
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    _write_csv(tmp_path / "empty.csv", header, np.empty((0, 4)))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b,c,d\r\n"


@pytest.mark.parametrize("command, args, cells", [
    ("fit", ["--mu-steps", 3, "--sigma-steps", 3], 9),
    ("landscape", ["--theta-steps", 3], 3),
])
def test_lattice_cell_makes_one_view_for_all_budgets(tmp_path, monkeypatch, command, args, cells):
    # two log-densities per cell, the target's and the model's, at any number of budgets
    calls = []
    log_density = GaussianMixture.log_density

    def counted(self, x):
        calls.append(len(x))
        return log_density(self, x)

    monkeypatch.setattr(GaussianMixture, "log_density", counted)
    assert run_cli(command, *args, "--budgets", "1,2,5", "--nodes", 256,
                   "--out", tmp_path / "o") == 0
    assert calls == [256] * (2 * cells)


def test_reused_parser_still_reports_usage_errors(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as err:
        main(["refine", "--budget", "2", "--rate", "0.5", "--out", str(tmp_path / "bad")])
    assert err.value.code == 2
    capsys.readouterr()
    out = tmp_path / "good"
    assert run_cli("refine", "--nodes", 256, "--lambda-steps", 5, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["budget"] == 2.0  # the default, not the rejected call's value
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    capsys.readouterr()
