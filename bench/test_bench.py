"""Tests of the benchmark itself: inputs, output checks, tracing, short runs.

Run from the repository root with ``python3 -m pytest bench``.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from obrs import (
    AcceptanceSpec,
    FiniteDist,
    check_optimality,
    cli,
    random_instance,
    refine,
    refined_finite,
    rejection_sample,
)
from obrs.fdiv import GENERATOR_PANEL, divergence_finite, max_divergence
from run import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(name: str, seed: int, run_dir: Path, n: int = 12) -> list:
    workload = workloads.WORKLOADS[name](seed, run_dir)
    workload.prepare()
    stream = workload.requests(0, run_dir / "out")
    files = sorted((p.name, p.read_bytes()) for p in run_dir.glob("*.json"))
    reqs = [next(stream) for _ in range(n)]
    return files + [(r.kind, r.units, r.inputs) for r in reqs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) == _inputs(name, 5, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) != _inputs(name, 6, tmp_path)


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + [edit(row) for row in rows[1:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_perturbed_scale_is_rejected(tmp_path):
    target, model = random_instance(np.random.default_rng(1), n_atoms=16)
    spec, sol = refine(target, model, 2.0, mode="exact")
    assert sol.status == "budgeted"
    assert checks.exact_refine_rate(target, model, 2.0) == []
    spec.log_scale += 1e-3
    rate = checks.spec_rate(spec, model.atoms, model.probs)
    assert checks.rate_matches_budget(rate, 2.0, sol.status, checks.RATE_TOL_EXACT)

    out = tmp_path / "refine"
    assert cli.main(["refine", "--budget", "2", "--out", str(out)]) == 0
    assert checks.refine_output(out, 2.0) == []
    # the budgeted acceptance of a scale 1% too large
    _rewrite_csv(out / "acceptance.csv",
                 lambda r: r[:2] + [repr(min(1.0, float(r[2]) * 1.01))])
    assert any("misses 1/K" in m for m in checks.refine_output(out, 2.0))


def test_unit_acceptance_samples_are_rejected(tmp_path):
    target, model = random_instance(np.random.default_rng(2), n_atoms=64)
    for role, dist in (("t", target), ("m", model)):
        (tmp_path / f"{role}.json").write_text(json.dumps(dist.to_json()), encoding="utf-8")
    out = tmp_path / "sample"
    n, budget = 5000, 3.0
    assert cli.main(["sample", "--target", str(tmp_path / "t.json"),
                     "--model", str(tmp_path / "m.json"), "--budget", "3",
                     "--samples", str(n), "--seed", "4", "--out", str(out)]) == 0
    assert checks.sample_finite_output(out, target, model, budget, n) == []

    unit = rejection_sample(model, AcceptanceSpec.unit(), n, np.random.default_rng(9))
    with open(out / "samples.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["sample"]] + [[s] for s in unit.samples])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    summary["draws_used"] = unit.draws_used
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    msgs = checks.sample_finite_output(out, target, model, budget, n)
    assert any("measured acceptance" in m for m in msgs)
    assert any(m.startswith("atom ") for m in msgs)


def test_unit_acceptance_mixture_rate_is_rejected():
    assert checks.rate_within_sigma(5000, 5000, 0.5, 10000)
    assert checks.rate_within_sigma(5000, 10000, 0.5, 10000) == []


def test_loss_rising_with_budget_is_rejected(tmp_path):
    out = tmp_path / "fit"
    assert cli.main(["fit", "--mu-min", "-0.5", "--mu-max", "0.5", "--mu-steps", "2",
                     "--sigma-min", "1", "--sigma-max", "2", "--sigma-steps", "2",
                     "--out", str(out)]) == 0
    assert checks.fit_output(out, 4, (1.0, 2.0)) == []
    _, rows = checks.read_csv(out / "fit.csv")
    top = max(float(r[3]) for r in rows if r[0] == "1")
    # a K=2 column above every K=1 loss: it rises with K
    _rewrite_csv(out / "fit.csv", lambda r: r if r[0] == "1" else r[:3] + [repr(top + 1e-3)])
    assert any("rises" in m for m in checks.fit_output(out, 4, (1.0, 2.0)))

    losses = {1.0: np.array([0.2, 0.1]), 2.0: np.array([0.1, 0.1 + 2e-8])}
    assert checks.nonincreasing_in_budget(losses, "landscape")


def _budgeted_instance(seed):
    rng = np.random.default_rng(seed)
    target, model = random_instance(rng)
    sup = math.exp(max_divergence(target, model))
    return target, model, float(np.exp(rng.uniform(0.0, math.log(sup))))


def test_reference_acceptance_matches_a_tight_library_solve():
    for seed in range(50):
        target, model, budget = _budgeted_instance([9, seed])
        a = checks.optimal_acceptance(target, model, 1.0 / budget)
        assert math.fsum((model.probs * a).tolist()) == pytest.approx(1.0 / budget, abs=1e-14)
        spec, _ = refine(target, model, budget, mode="exact", eps=1e-15)
        np.testing.assert_allclose(refined_finite(model, spec).acceptance, a, atol=1e-12)


def _sweep(target, model, a, shift=0.0):
    sweep = checks.Sweep(len(GENERATOR_PANEL))
    mass = model.probs * a
    z = math.fsum(mass.tolist())
    refined = FiniteDist(model.atoms, mass / z)
    sweep.add(a, z, [divergence_finite(g, target, refined).value + shift
                     for g in GENERATOR_PANEL])
    return sweep


def test_competitor_beating_the_optimum_is_rejected():
    target, model, budget = _budgeted_instance([9, 7])
    best = checks.optimal_acceptance(target, model, 1.0 / budget)
    assert checks.competitors(_sweep(target, model, best), target, model, budget, 1) == []
    # the optimum at a rate 1e-6 too low: off the rate, and better than allowed
    cheat = checks.optimal_acceptance(target, model, 1.0 / budget - 1e-6)
    msgs = checks.competitors(_sweep(target, model, cheat), target, model, budget, 1)
    assert any("misses 1/K" in m for m in msgs)
    assert any("beats the optimum" in m for m in msgs)
    lowered = _sweep(target, model, best, shift=-1e-6)
    msgs = checks.competitors(lowered, target, model, budget, 1)
    assert len(msgs) == len(GENERATOR_PANEL)


@pytest.mark.xfail(strict=True, reason=(
    "known library defect: the exact-mode slack bisection stops at a rate "
    "error of 1e-9, and on this instance the solved acceptance loses to a "
    "same-rate competitor by more than 1e-9 under reverse_kl. Once the "
    "solver is exact this passes; then put check_optimality requests back "
    "into the audit workload."))
def test_check_optimality_on_a_pinned_instance():
    target, model, budget = _budgeted_instance([22, 2, 15])
    report = check_optimality(target, model, budget, trials=200,
                              rng=np.random.default_rng(15))
    assert checks.optimality_report(report, 200, len(GENERATOR_PANEL)) == []


def test_frequency_check_accepts_its_own_law():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(64))
    counts = np.bincount(rng.choice(64, size=5000, p=probs), minlength=64)
    assert checks.frequencies_match(counts, probs, 5000) == []
    assert checks.frequencies_match(counts, np.roll(probs, 1), 5000)


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    value, pct = tail(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert pct == 90.0


def test_benchmark_json_matches_the_harness():
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(tracing.LAYER_METRICS)
    assert BENCHMARK["paths"] == ["bench"]


def test_absent_wrapped_name_is_reported_not_failed(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[1] != "_solve_log_shift"]
    targets.append(("obrs.sampling", "calibrate", "sampling.calibrate", None))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        refine(*random_instance(np.random.default_rng(4)), 2.0)
    finally:
        tracer.uninstall()
    assert "obrs.sampling.calibrate" in tracer.absent
    metrics, absent = tracer.metrics(1.0, 1, 1.0)
    assert {"sampling.solve.calls", "sampling.solve.self_s"} <= set(absent)
    assert "sampling.refine.calls" in metrics


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_passes(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_short_traced_run_accounts_for_wall_time():
    result = _run("lattice", 1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer_self = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k != "bench.self_s")
    assert math.isclose(layer_self + metrics["bench.self_s"], metrics["trace.wall_s"],
                        rel_tol=1e-9)
    assert metrics["sampling.solve.calls"] > 0
    assert metrics["sampling.solve.max_rate_err"] <= checks.RATE_TOL_GRID
