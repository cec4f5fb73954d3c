"""Command-line interface: reproducible refinement experiments.

Every subcommand writes CSV files plus a ``manifest.json`` into --out. The
manifest records the command, its full configuration, the seed, library
versions, the output file list, and wall time, and is validated against the
bundled JSON schema. ``obrs rerun MANIFEST --out DIR`` re-executes any run
from its manifest; with the same seed the CSV and summary outputs are
byte-identical, which is the reproducibility contract the test suite holds
this interface to.

Exit codes: 0 on success, 1 when a run fails or an asserted numerical
invariant is violated, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import platform
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .dist import (
    FiniteDist,
    _row_major_axes,
    bimodal_target,
    dist_from_json,
    gaussian_grid_2d,
    pair_view,
    single_gaussian,
)
from .errors import DomainError, ObrsError
from .fdiv import (
    GENERATOR_PANEL,
    Generator,
    discriminator_from_ratio,
    f_value,
    fstar_value,
    max_divergence,
    ratio_from_discriminator,
)
from .landscape import (
    FIT_MU_GRID_DEFAULT,
    FIT_SIGMA_GRID_DEFAULT,
    THETA_GRID_DEFAULT,
    _fit_grids,
    landscape_1d,
)
from .oracle import _improvement_bounds, _kl_renyi_bound, _solved, random_instance
from .prcurve import _knee_grid, _pr_scan, predict_refined_curve
from .sampling import (
    AcceptanceSpec,
    calibrate,
    refine,
    refine_with_drs,
    rejection_sample,
    rejection_sample_shared,
)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray | str) -> None:
    """Write a header and rows; a float ndarray is formatted in one pass.

    Its ``%.17g`` fields and \\r\\n line ends are what the row path writes
    for the same floats: csv quotes none of them, nan, inf and -0 included.
    A str is the rows already in CSV form (see ``_csv_lines``).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, str):
            fh.write(rows)
        elif isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))
        else:
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


def _csv_lines(values) -> dict:
    """The one-field CSV line of each value, as the row path writes it.

    Each line goes through ``csv.writer`` once, so tuple atoms and labels
    with a comma or a quote keep their quoting.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    lines = {}
    for value in values:
        writer.writerow([_fmt(value)])
        lines[value] = buf.getvalue()
        buf.seek(0)
        buf.truncate()
    return lines


def _write_json(path: Path, payload: dict) -> None:
    """Write standard JSON; NaN and Infinity are an error, not an output."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ObrsError(f"{path.name}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _manifest_schema() -> dict:
    text = resources.files("obrs").joinpath("data/manifest-schema.json").read_text("utf-8")
    return json.loads(text)


@functools.cache
def _manifest_validator():
    """The schema's validator, built once per process.

    Its integers are strict: JSON Schema reads 2.0 as an integer, which no
    count in a run can take. The bundled schema is checked against its
    meta-schema by the tests (``jsonschema.validate`` in ``test_cli.py``),
    not here: with a typed config per command that check costs about 35 ms
    at every process start.
    """
    schema = _manifest_schema()
    cls = jsonschema.validators.validator_for(schema)
    strict = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
    )
    return jsonschema.validators.extend(cls, type_checker=strict)(schema)


def _validate_manifest(manifest: dict) -> None:
    """Same result and message as ``jsonschema.validate`` against the schema."""
    error = jsonschema.exceptions.best_match(_manifest_validator().iter_errors(manifest))
    if error is not None:
        raise error


def _write_manifest(
    out: Path, command: str, config: dict, seed: int | None, outputs: list[str], wall: float
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "obrs": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "outputs": outputs,
        "wall_time_s": wall,
    }
    _validate_manifest(manifest)
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# generators: the panel table
# ---------------------------------------------------------------------------


def run_generators(cfg: dict, out: Path) -> list[str]:
    us = np.linspace(0.0, cfg["u_max"], cfg["u_steps"])
    rows = []
    for gen in GENERATOR_PANEL:
        for u in us:
            u = float(u)
            f = f_value(gen, u)
            if u <= 0:
                rows.append([gen.label, u, f, "", "", "", ""])
                continue
            t = discriminator_from_ratio(gen, u)
            try:
                fst = fstar_value(gen, t)
            except ObrsError:
                fst = None
            if gen.smooth:
                gap = f + fst - u * t
                roundtrip = abs(ratio_from_discriminator(gen, t) - u)
            else:
                gap = roundtrip = None
            rows.append([
                gen.label, u, f, t,
                fst if fst is not None else "",
                gap if gap is not None else "",
                roundtrip if roundtrip is not None else "",
            ])
    _write_csv(
        out / "generators.csv",
        ["generator", "u", "f", "t_opt", "fstar_at_t_opt", "fenchel_gap", "ratio_roundtrip"],
        rows,
    )
    _write_json(out / "summary.json", {
        "f_at_one": {g.label: g.f_at_one for g in GENERATOR_PANEL},
        "smooth": {g.label: g.smooth for g in GENERATOR_PANEL},
    })
    return ["generators.csv", "summary.json"]


# ---------------------------------------------------------------------------
# refine: densities, acceptance, tradeoff curves for the bimodal pair
# ---------------------------------------------------------------------------


def run_refine(cfg: dict, out: Path) -> list[str]:
    budget = cfg["budget"]
    target = bimodal_target(cfg["target_mu"], cfg["target_sigma"])
    model = single_gaussian(cfg["model_mu"], cfg["model_sigma"])
    view = pair_view(target, model, "quadrature", cfg["nodes"], cfg["span"])
    log_r = view.checked_log_r()
    sol = calibrate(log_r, view.qw, budget)
    # c = 1: min(r / M, 1)
    a_unbudgeted = np.exp(dataclasses.replace(sol, log_scale=0.0).log_accept(log_r))
    a_budgeted = np.exp(sol.log_accept(log_r))
    k_eff = 1.0 / sol.rate
    q = np.exp(view.lq)
    refined = q * a_budgeted * k_eff
    _write_csv(
        out / "densities.csv",
        ["x", "target", "model", "refined"],
        np.column_stack([view.points, np.exp(view.lp), q, refined]),
    )
    _write_csv(
        out / "acceptance.csv",
        ["x", "accept_unbudgeted", "accept_budgeted"],
        np.column_stack([view.points, a_unbudgeted, a_budgeted]),
    )
    base = _pr_scan(view.pw, view.qw, _knee_grid(sol, cfg["lambda_steps"]))
    pred = predict_refined_curve(base, k_eff, sol.scale, sol.sup_ratio)
    _write_csv(
        out / "prcurve.csv",
        ["lambda_base", "alpha_base", "beta_base", "lambda_refined", "alpha_refined", "beta_refined"],
        np.column_stack([base.lams, base.alphas, base.betas, pred.lams, pred.alphas, pred.betas]),
    )
    _write_json(out / "summary.json", {
        "budget": budget,
        "status": sol.status,
        "sup_ratio": sol.sup_ratio,
        # budget 1 accepts everything: the slack is infinite, recorded as null
        "scale": sol.scale if sol.status != "unit" else None,
        "measured_rate": sol.rate,
        "effective_budget": k_eff,
    })
    return ["densities.csv", "acceptance.csv", "prcurve.csv", "summary.json"]


# ---------------------------------------------------------------------------
# landscape / fit
# ---------------------------------------------------------------------------


def run_landscape(cfg: dict, out: Path) -> list[str]:
    gen = Generator.parse(cfg["gen"])
    thetas = np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["theta_steps"])
    budgets = tuple(cfg["budgets"])
    surf = landscape_1d(
        gen, thetas, budgets, spacing_target=cfg["spacing_target"],
        n_nodes=cfg["nodes"], span=cfg["span"],
    )
    # budget-major rows
    b, t = np.meshgrid(surf.budgets, surf.thetas, indexing="ij")
    _write_csv(
        out / "landscape.csv", ["budget", "theta", "loss"],
        np.column_stack([b.ravel(), t.ravel(), surf.losses.T.ravel()]),
    )
    counts = surf.minima_counts()
    mono = {}
    for j in range(1, len(surf.budgets)):
        gap = float(np.max(surf.losses[:, j] - surf.losses[:, j - 1]))
        mono[f"max_excess_{surf.budgets[j]:g}_vs_{surf.budgets[j-1]:g}"] = gap
    _write_json(out / "summary.json", {
        "generator": gen.label,
        "local_minima": {f"{b:g}": counts[b] for b in surf.budgets},
        "argmin_theta": {f"{b:g}": surf.argmin_theta(b) for b in surf.budgets},
        "monotonicity": mono,
    })
    return ["landscape.csv", "summary.json"]


def run_fit(cfg: dict, out: Path) -> list[str]:
    gen = Generator.parse(cfg["gen"])
    mus = np.linspace(cfg["mu_min"], cfg["mu_max"], cfg["mu_steps"])
    sigmas = np.linspace(cfg["sigma_min"], cfg["sigma_max"], cfg["sigma_steps"])
    budgets = tuple(cfg["budgets"])
    fits = _fit_grids(gen, budgets, mus, sigmas, cfg["nodes"], cfg["span"])
    # budget-major, then mu, then sigma
    b, m, s = np.meshgrid(budgets, mus, sigmas, indexing="ij")
    losses = np.stack([res.losses for res in fits])
    _write_csv(
        out / "fit.csv", ["budget", "mu", "sigma", "loss"],
        np.column_stack([b.ravel(), m.ravel(), s.ravel(), losses.ravel()]),
    )
    results = {
        f"{res.budget:g}": {
            "best_mu": res.best_mu,
            "best_sigma": res.best_sigma,
            "best_loss": res.best_loss,
        }
        for res in fits
    }
    _write_json(out / "summary.json", {"generator": gen.label, "argmin": results})
    return ["fit.csv", "summary.json"]


# ---------------------------------------------------------------------------
# bounds: canonical + randomized guarantee checks
# ---------------------------------------------------------------------------


def run_bounds(cfg: dict, out: Path) -> list[str]:
    rng = np.random.default_rng(cfg["seed"])
    instances: list[tuple[str, FiniteDist, FiniteDist, float]] = [
        ("canonical", FiniteDist([0, 1], [0.5, 0.5]), FiniteDist([0, 1], [0.8, 0.2]), 2.0)
    ]
    for i in range(cfg["instances"]):
        t, m = random_instance(rng)
        sup = math.exp(max_divergence(t, m))
        budget = float(np.exp(rng.uniform(0.0, math.log(sup))))
        instances.append((f"i{i:04d}", t, m, budget))

    general_rows, kl_rows = [], []
    general_violations = 0
    kl_violations = 0
    canonical_kl_violated = False
    for name, t, m, budget in instances:
        solved = _solved(t, m, budget)
        for rep in _improvement_bounds(GENERATOR_PANEL, t, m, budget, solved):
            if not rep.satisfied or not rep.witness_feasible:
                general_violations += 1
            general_rows.append([
                name, rep.gen_label, budget, rep.lhs, rep.rhs, rep.slack,
                rep.alpha, rep.witness_divergence, rep.witness_feasible, rep.satisfied,
            ])
        kr = _kl_renyi_bound(t, m, budget, solved)
        if not kr.satisfied:
            kl_violations += 1
            if name == "canonical":
                canonical_kl_violated = True
        kl_rows.append([
            name, budget, kr.order, kr.kl, kr.renyi, kr.lhs, kr.rhs,
            kr.satisfied, kr.witness_feasible, kr.witness_max_excess,
            kr.limit_case or "",
        ])
    _write_csv(
        out / "bounds_general.csv",
        ["instance", "generator", "budget", "lhs", "rhs", "slack",
         "alpha", "witness_divergence", "witness_feasible", "satisfied"],
        general_rows,
    )
    _write_csv(
        out / "bounds_kl.csv",
        ["instance", "budget", "order", "kl", "renyi", "lhs", "rhs",
         "satisfied", "witness_feasible", "witness_max_excess", "limit_case"],
        kl_rows,
    )
    _write_json(out / "summary.json", {
        "instances": len(instances),
        "general_checks": len(general_rows),
        "general_violations": general_violations,
        "kl_checks": len(kl_rows),
        "kl_violations": kl_violations,
        "kl_violation_rate": kl_violations / len(kl_rows),
        "canonical_kl_violated": canonical_kl_violated,
    })
    if general_violations:
        raise ObrsError(f"{general_violations} general bound violations (expected none)")
    return ["bounds_general.csv", "bounds_kl.csv", "summary.json"]


# ---------------------------------------------------------------------------
# grid2d: the 25-mode refinement benchmark
# ---------------------------------------------------------------------------


def _grid2d_metrics(
    samples: np.ndarray, modes: np.ndarray, radius: float, quota: int
) -> tuple[float, float]:
    """Precision and recall of samples against modes laid out as the row-major
    product of two axes, as ``gaussian_grid_2d`` lays them out."""
    axes = _row_major_axes(modes)
    if axes is None:
        raise DomainError("grid2d modes must be the row-major product of two axes")
    # squares per axis, (n, nx) and (n, ny), summed by broadcasting:
    # bit-identical to np.linalg.norm of the (n, k, 2) differences
    dx = samples[:, 0:1] - axes[0]
    dy = samples[:, 1:2] - axes[1]
    dx *= dx
    dy *= dy
    d = np.add(dx[:, :, None], dy[:, None, :]).reshape(len(samples), len(modes))
    np.sqrt(d, out=d)
    nearest = np.argmin(d, axis=1)
    close = d[np.arange(len(samples)), nearest] <= radius
    precision = float(np.mean(close))
    counts = np.bincount(nearest[close], minlength=len(modes))
    recall = float(np.mean(counts >= quota))
    return precision, recall


def run_grid2d(cfg: dict, out: Path) -> list[str]:
    rate = cfg["rate"]
    target = gaussian_grid_2d(cfg["sigma"], cfg["spacing"])
    jitter_rng = np.random.default_rng([cfg["seed"], 0xD1])
    weights = jitter_rng.dirichlet(np.full(25, cfg["jitter"] / 25.0))
    surrogate = gaussian_grid_2d(cfg["surrogate_sigma"], cfg["spacing"], weights=weights)
    # obrs at budget 1/rate (a rate at or below 1/M runs at 1/M, c = 1); drs
    # on the same calibration draws, its gamma matched to the obrs rate there
    spec, drs, sol = refine_with_drs(
        target, surrogate, _budget_of_rate(rate), mode="sample",
        n=cfg["calibration"], rng=np.random.default_rng([cfg["seed"], 0xCA]),
    )
    specs = {"baseline": AcceptanceSpec.unit(), "obrs": spec, "drs": drs}

    n = cfg["samples"]
    radius = 4.0 * cfg["sigma"]
    quota = max(1, n // 250)
    modes = target.means
    # beyond float range the cap is no cap: the sampler then runs at 1/M > 0
    max_draws = 50 * n / rate
    max_draws = int(math.ceil(max_draws)) if max_draws < math.inf else None
    rows = []
    for rep in range(cfg["repeats"]):
        # common random numbers: every method thins the same proposal stream
        results = rejection_sample_shared(
            surrogate, tuple(specs.values()), n, np.random.default_rng([cfg["seed"], 1, rep]),
            max_draws=max_draws,
        )
        for (method, spec), result in zip(specs.items(), results):
            precision, recall = _grid2d_metrics(result.samples, modes, radius, quota)
            ratio_evals = 0 if spec.kind == "unit" else result.draws_used
            rows.append([
                method, rep, precision, recall, result.accepted,
                result.draws_used, ratio_evals, result.rate,
            ])
    _write_csv(
        out / "grid2d.csv",
        ["method", "repeat", "precision", "recall", "accepted",
         "draws_used", "ratio_evals", "measured_rate"],
        rows,
    )
    unit = sol.status == "unit"  # rate 1: the slack is infinite, recorded as null
    summary = {
        "target_rate": rate,
        "calibration_rate": sol.rate,
        "sup_ratio": sol.sup_ratio,
        "scale": None if unit else sol.scale,
        "gamma": None if unit else -drs.log_scale,
        "methods": {},
    }
    for method in specs:
        # precision, recall and draws_used over the method's repeats
        p, r, d = zip(*(row[2:4] + row[5:6] for row in rows if row[0] == method))
        summary["methods"][method] = {
            "precision_mean": float(np.mean(p)),
            "precision_std": float(np.std(p, ddof=1)) if len(p) > 1 else None,
            "recall_mean": float(np.mean(r)),
            "recall_min": float(np.min(r)),
            "draws_per_accept_mean": float(np.mean(d) / n),
        }
    _write_json(out / "summary.json", summary)
    return ["grid2d.csv", "summary.json"]


# ---------------------------------------------------------------------------
# sample: refinement of user-supplied distributions
# ---------------------------------------------------------------------------


def run_sample(cfg: dict, out: Path) -> list[str]:
    with open(cfg["target"], encoding="utf-8") as fh:
        target = dist_from_json(json.load(fh))
    with open(cfg["model"], encoding="utf-8") as fh:
        model = dist_from_json(json.load(fh))
    rng = np.random.default_rng([cfg["seed"], 2])
    budget = cfg["budget"]
    if isinstance(model, FiniteDist):
        spec, sol = refine(target, model, budget, mode="exact")
    else:
        cal_rng = np.random.default_rng([cfg["seed"], 3])
        spec, sol = refine(
            target, model, budget, mode="sample", n=cfg["calibration"], rng=cal_rng
        )
    result = rejection_sample(
        model, spec, cfg["samples"], rng, max_draws=cfg["max_draws"]
    )
    if isinstance(result.samples, np.ndarray):
        rows = np.atleast_2d(result.samples.T).T  # (n,) -> (n, 1)
        header = ["x"] if rows.shape[1] == 1 else ["x", "y"]
    else:
        # one line per distinct atom, written out once per draw
        header = ["sample"]
        lines = _csv_lines(dict.fromkeys(result.samples))
        rows = "".join([lines[s] for s in result.samples])
    _write_csv(out / "samples.csv", header, rows)
    _write_json(out / "summary.json", {
        "budget": budget,
        "status": sol.status,
        "solver_rate": sol.rate,
        "accepted": result.accepted,
        "draws_used": result.draws_used,
        "measured_rate": result.rate,
    })
    return ["samples.csv", "summary.json"]


# ---------------------------------------------------------------------------
# Dispatch, manifests, rerun
# ---------------------------------------------------------------------------


_RUNNERS = {
    "generators": run_generators,
    "refine": run_refine,
    "landscape": run_landscape,
    "fit": run_fit,
    "bounds": run_bounds,
    "grid2d": run_grid2d,
    "sample": run_sample,
}


def _execute(command: str, cfg: dict, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs = _RUNNERS[command](cfg, out)
    wall = time.perf_counter() - start
    _write_manifest(out, command, cfg, cfg.get("seed"), outputs, wall)


def run_rerun(manifest_path: str, out_dir: str) -> None:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    _validate_manifest(manifest)
    _check_config(manifest["command"], manifest["config"])
    _execute(manifest["command"], manifest["config"], out_dir)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="obrs",
        description="Budgeted rejection sampling: refinement, bounds, landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generators", help="tabulate the generator panel and its duals")
    p.add_argument("--u-max", type=float, default=5.0)
    p.add_argument("--u-steps", type=int, default=26)
    p.add_argument("--out", required=True)

    p = sub.add_parser("refine", help="refine a wide Gaussian toward a bimodal target")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--budget", type=float, default=None, help="proposals per kept sample")
    group.add_argument("--rate", type=float, default=None, help="target acceptance rate")
    p.add_argument("--target-mu", type=float, default=2.0)
    p.add_argument("--target-sigma", type=float, default=0.5)
    p.add_argument("--model-mu", type=float, default=0.0)
    p.add_argument("--model-sigma", type=float, default=1.5)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--span", type=float, default=8.0)
    p.add_argument("--lambda-steps", type=int, default=201)
    p.add_argument("--out", required=True)

    p = sub.add_parser("landscape", help="loss vs mode spacing across budgets")
    p.add_argument("--gen", default="gan")
    p.add_argument("--budgets", default="1,2,5")
    p.add_argument("--theta-min", type=float, default=float(THETA_GRID_DEFAULT[0]))
    p.add_argument("--theta-max", type=float, default=float(THETA_GRID_DEFAULT[-1]))
    p.add_argument("--theta-steps", type=int, default=len(THETA_GRID_DEFAULT))
    p.add_argument("--spacing-target", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--span", type=float, default=8.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="grid-fit a single Gaussian under budgeted losses")
    p.add_argument("--gen", default="gan")
    p.add_argument("--budgets", default="1,2")
    p.add_argument("--mu-min", type=float, default=float(FIT_MU_GRID_DEFAULT[0]))
    p.add_argument("--mu-max", type=float, default=float(FIT_MU_GRID_DEFAULT[-1]))
    p.add_argument("--mu-steps", type=int, default=len(FIT_MU_GRID_DEFAULT))
    p.add_argument("--sigma-min", type=float, default=float(FIT_SIGMA_GRID_DEFAULT[0]))
    p.add_argument("--sigma-max", type=float, default=float(FIT_SIGMA_GRID_DEFAULT[-1]))
    p.add_argument("--sigma-steps", type=int, default=len(FIT_SIGMA_GRID_DEFAULT))
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--span", type=float, default=8.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bounds", help="randomized improvement-guarantee audit")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--out", required=True)

    p = sub.add_parser("grid2d", help="25-mode 2-d refinement benchmark")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rate", type=float, default=0.4)
    p.add_argument("--samples", type=int, default=2500)
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--surrogate-sigma", type=float, default=0.1)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=200.0)
    p.add_argument("--calibration", type=int, default=10000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="rejection-sample a JSON-specified pair")
    p.add_argument("--target", required=True, help="target distribution JSON file")
    p.add_argument("--model", required=True, help="model distribution JSON file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--budget", type=float, default=None)
    group.add_argument("--rate", type=float, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-draws", type=int, default=None)
    p.add_argument("--calibration", type=int, default=10000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)

    return parser


def _budget_of_rate(rate: float) -> float:
    if not 0 < rate <= 1:  # also rejects NaN
        raise DomainError(f"rate must lie in (0, 1], got {rate!r}")
    if not 1.0 / rate < math.inf:
        raise DomainError(f"rate {rate!r} is too small: its budget 1/rate is not a finite number")
    return 1.0 / rate


# counts a run needs at least one of
_COUNTS = {
    "generators": ("u_steps",),
    "refine": ("lambda_steps",),
    "landscape": ("theta_steps",),
    "fit": ("mu_steps", "sigma_steps"),
    "grid2d": ("samples", "repeats", "calibration"),
    "sample": ("samples", "calibration"),
}


def _check_config(command: str, cfg: dict) -> None:
    """Reject a configuration no run can use, before any output is written."""
    if "gen" in cfg:
        Generator.parse(cfg["gen"])
    if "rate" in cfg:
        _budget_of_rate(cfg["rate"])
    if "budgets" in cfg and not cfg["budgets"]:
        raise DomainError("budgets must list at least one budget")
    for budget in cfg.get("budgets", [cfg["budget"]] if "budget" in cfg else []):
        if not 1 <= budget < math.inf:  # also rejects NaN
            # the library reads budget=inf as unbudgeted, but a run's JSON
            # outputs cannot record a non-finite value
            raise DomainError(f"budget must be a finite number >= 1, got {budget!r}")
    for key in _COUNTS.get(command, ()):
        if not cfg[key] >= 1:
            raise DomainError(f"{key} must be at least 1, got {cfg[key]!r}")


def _config_from_args(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "out", "manifest")}
    if args.command in ("refine", "sample"):
        rate = cfg.pop("rate")
        if cfg["budget"] is None:
            cfg["budget"] = 2.0 if rate is None else _budget_of_rate(rate)
    if args.command in ("landscape", "fit"):
        cfg["budgets"] = [float(b) for b in str(cfg["budgets"]).split(",") if b]
    _check_config(args.command, cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            run_rerun(args.manifest, args.out)
        else:
            _execute(args.command, _config_from_args(args), args.out)
    except ObrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
