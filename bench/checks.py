"""Output checks for benchmark requests.

Every check compares a request's output with an invariant that holds on any
machine: a rate identity recomputed with ``math.fsum``, a monotonicity, a
closed-form bound, an independent reference computation, or a sampling
tolerance derived from the request's own draw counts. None compares against
bytes recorded on one machine. Each check returns a list of failure messages;
an empty list means the output passed.

Tolerances are the acceptance suite's: 1e-9 for exact rates, 1e-6 for grid
and sample calibrations, 1e-8 for monotonicity in the budget, -1e-9 for the
worst optimality gap, and 5 sigma for sampled quantities.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import bdtr, bdtrc, erfc

from obrs import (
    FiniteDist,
    Generator,
    bimodal_target,
    divergence_quadrature,
    refine,
    refined_finite,
    single_gaussian,
    spacing_mismatch_pair,
)
from obrs.fdiv import GENERATOR_PANEL, divergence_finite

RATE_TOL_EXACT = 1e-9
RATE_TOL_GRID = 1e-6
# the solver tests its rate with np.dot; the fsum recomputation may differ
# from that by summation rounding
SUM_ROUNDING = 1e-12
MONOTONE_TOL = 1e-8
GAP_TOL = 1e-9
REFERENCE_TOL = 1e-9
N_SIGMA = 5.0
# two-sided normal tail beyond N_SIGMA: the false-alarm level of one check
TAIL_5_SIGMA = float(erfc(N_SIGMA / math.sqrt(2.0)))
GAN_FLOOR = -math.log(4.0)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Composite-trapezoid weights of a uniform node vector."""
    h = (x[-1] - x[0]) / (len(x) - 1)
    w = np.full(len(x), h)
    w[0] = w[-1] = h / 2
    return w


# ---------------------------------------------------------------------------
# Generic invariants
# ---------------------------------------------------------------------------


def rate_matches_budget(
    rate: float, budget: float, status: str, tol: float, n_calibration: int | None = None
) -> list[str]:
    """The achieved rate is 1/K when budgeted, at least 1/K when unbudgeted.

    Unbudgeted means K >= M, so the rate E[r]/M is at least 1/K. A
    sample-mode calibration estimates E[r] = 1 from n_calibration draws of
    r/M in [0, 1], so there the bound holds to 5 sigma of that mean.
    """
    target = 1.0 / budget
    if status == "budgeted":
        if not abs(rate - target) <= tol + SUM_ROUNDING:
            return [f"rate {rate!r} misses 1/K = {target!r} by more than {tol:g}"]
    elif status == "unbudgeted":
        slack = tol
        if n_calibration:
            slack += N_SIGMA * math.sqrt(rate * (1.0 - rate) / n_calibration)
        if not rate >= target - slack:
            return [f"unbudgeted rate {rate!r} below 1/K = {target!r}"]
    elif status == "unit":
        if budget != 1.0:
            return [f"status unit at budget {budget!r}"]
    else:
        return [f"unknown solver status {status!r}"]
    return []


def nonincreasing_in_budget(losses: dict[float, np.ndarray], what: str) -> list[str]:
    """losses[K] are aligned columns; each must not rise as K grows."""
    budgets = sorted(losses)
    out = []
    for lo, hi in zip(budgets, budgets[1:]):
        excess = float(np.max(losses[hi] - losses[lo]))
        if not excess <= MONOTONE_TOL:
            out.append(f"{what}: loss rises by {excess:.3e} from K={lo:g} to K={hi:g}")
    return out


def gan_range(values: np.ndarray, what: str) -> list[str]:
    """gan divergences lie in [-log 4, 0]."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return [f"{what}: non-finite loss"]
    if not (np.min(v) >= GAN_FLOOR - REFERENCE_TOL and np.max(v) <= REFERENCE_TOL):
        return [f"{what}: gan loss outside [-log 4, 0]: {np.min(v)!r}..{np.max(v)!r}"]
    return []


def rate_within_sigma(
    accepted: int, draws: int, rate: float, n_calibration: int | None = None
) -> list[str]:
    """Measured acceptance accepted/draws lies within 5 sigma of ``rate``.

    sigma comes from the request's own draw count. A sample-mode calibration
    fixes the acceptance from n_calibration model draws, so the true rate
    differs from the calibrated one by that sample's error too; the variance
    of a in [0, 1] with mean rate is at most rate * (1 - rate).
    """
    if draws <= 0:
        return ["no draws recorded"]
    var = rate * (1.0 - rate) / draws
    if n_calibration:
        var += rate * (1.0 - rate) / n_calibration
    measured = accepted / draws
    sigma = math.sqrt(var)
    if not abs(measured - rate) <= N_SIGMA * sigma + SUM_ROUNDING:
        return [f"measured acceptance {measured:.6f} is "
                f"{abs(measured - rate) / sigma:.1f} sigma from {rate:.6f} ({draws} draws)"]
    return []


def frequencies_match(counts: np.ndarray, probs: np.ndarray, n: int) -> list[str]:
    """Per-atom sample counts agree with the refined probabilities.

    Each atom gets an exact two-sided binomial test at the 5-sigma tail level
    divided by the number of atoms (a normal approximation would false-alarm
    on atoms with a handful of expected hits).
    """
    level = TAIL_5_SIGMA / len(probs)
    out = []
    for i, (k, p) in enumerate(zip(counts.tolist(), probs.tolist())):
        if p <= 0.0 or p >= 1.0:
            if k != (n if p >= 1.0 else 0):
                out.append(f"atom {i}: {k} hits at probability {p!r}")
            continue
        lower = float(bdtr(k, n, p))  # P(X <= k)
        upper = float(bdtrc(k - 1, n, p)) if k > 0 else 1.0  # P(X >= k)
        if 2.0 * min(lower, upper) < level:
            out.append(f"atom {i}: {k}/{n} hits, expected {n * p:.2f}")
    return out


def spec_rate(spec, points, weights: np.ndarray) -> float:
    """E_model[a] recomputed with fsum from a returned acceptance spec."""
    a = np.asarray(spec.accept_prob(points), dtype=float)
    return math.fsum((weights * a).tolist())


def exact_refine_rate(target, model, budget: float) -> list[str]:
    """Refine a finite pair and recompute the spec's rate with fsum."""
    spec, sol = refine(target, model, budget, mode="exact")
    rate = spec_rate(spec, model.atoms, model.probs)
    return rate_matches_budget(rate, budget, sol.status, RATE_TOL_EXACT)


# ---------------------------------------------------------------------------
# lattice: fit, landscape, refine
# ---------------------------------------------------------------------------


def _by_budget(rows: list[list[str]], key_cols: int) -> tuple[list[tuple], dict[float, np.ndarray]]:
    """Group ``budget, key..., loss`` rows into aligned per-budget columns."""
    table: dict[float, dict[tuple, float]] = {}
    for row in rows:
        key = tuple(float(v) for v in row[1:1 + key_cols])
        table.setdefault(float(row[0]), {})[key] = float(row[1 + key_cols])
    keys = sorted(next(iter(table.values())))
    return keys, {b: np.array([col[k] for k in keys]) for b, col in table.items()}


def fit_output(out: Path, n_cells: int, budgets: tuple[float, ...]) -> list[str]:
    """``obrs fit`` over a window: monotone in K, in range, K=1 matches D_f."""
    _, rows = read_csv(out / "fit.csv")
    if len(rows) != n_cells * len(budgets):
        return [f"fit.csv has {len(rows)} rows, expected {n_cells * len(budgets)}"]
    keys, losses = _by_budget(rows, 2)
    msgs = nonincreasing_in_budget(losses, "fit")
    msgs += gan_range(np.concatenate(list(losses.values())), "fit")
    if 1.0 in losses:
        gen, target = Generator.gan(), bimodal_target()
        for (mu, sigma), loss in zip(keys, losses[1.0]):
            ref = divergence_quadrature(gen, target, single_gaussian(mu, sigma)).value
            if not abs(loss - ref) <= REFERENCE_TOL:
                msgs.append(f"fit K=1 at ({mu!r}, {sigma!r}): {loss!r} != D_f {ref!r}")
    argmin = read_summary(out)["argmin"]
    for budget, col in losses.items():
        if argmin[f"{budget:g}"]["best_loss"] != float(np.min(col)):
            msgs.append(f"fit summary best_loss at K={budget:g} is not the column minimum")
    return msgs


def landscape_output(out: Path, n_thetas: int, budgets: tuple[float, ...]) -> list[str]:
    """``obrs landscape`` over a window: monotone in K, in range, K=1 matches D_f."""
    _, rows = read_csv(out / "landscape.csv")
    if len(rows) != n_thetas * len(budgets):
        return [f"landscape.csv has {len(rows)} rows, expected {n_thetas * len(budgets)}"]
    keys, losses = _by_budget(rows, 1)
    msgs = nonincreasing_in_budget(losses, "landscape")
    msgs += gan_range(np.concatenate(list(losses.values())), "landscape")
    if 1.0 in losses:
        gen = Generator.gan()
        for (theta,), loss in zip(keys, losses[1.0]):
            ref = divergence_quadrature(gen, *spacing_mismatch_pair(theta)).value
            if not abs(loss - ref) <= REFERENCE_TOL:
                msgs.append(f"landscape K=1 at theta {theta!r}: {loss!r} != D_f {ref!r}")
    mono = read_summary(out)["monotonicity"]
    if not all(v <= MONOTONE_TOL for v in mono.values()):
        msgs.append(f"landscape summary reports a monotonicity excess: {mono}")
    return msgs


def refine_output(out: Path, budget: float) -> list[str]:
    """``obrs refine``: the acceptance column integrates to rate 1/K."""
    summary = read_summary(out)
    _, dens = read_csv(out / "densities.csv")
    _, acc = read_csv(out / "acceptance.csv")
    d = np.array(dens, dtype=float)
    a = np.array(acc, dtype=float)
    x, model, refined = d[:, 0], d[:, 2], d[:, 3]
    w = trapezoid_weights(x)
    rate = math.fsum((w * model * a[:, 2]).tolist())
    msgs = rate_matches_budget(rate, budget, summary["status"], RATE_TOL_GRID)
    if not abs(rate - summary["measured_rate"]) <= SUM_ROUNDING:
        msgs.append(f"refine summary rate {summary['measured_rate']!r} != recomputed {rate!r}")
    if not (np.all(a[:, 1:] >= 0.0) and np.all(a[:, 1:] <= 1.0)):
        msgs.append("refine acceptance outside [0, 1]")
    if not np.all(a[:, 2] >= a[:, 1] - SUM_ROUNDING):
        msgs.append("budgeted acceptance below the unbudgeted one")
    mass = math.fsum((w * refined).tolist())
    if not abs(mass - 1.0) <= REFERENCE_TOL:
        msgs.append(f"refined density integrates to {mass!r}")
    _, pr = read_csv(out / "prcurve.csv")
    p = np.array(pr, dtype=float)
    identity = np.abs(p[:, 1] - p[:, 0] * p[:, 2])
    if not float(np.max(identity / np.maximum(p[:, 1], 1.0))) <= REFERENCE_TOL:
        msgs.append("base PR curve breaks alpha = lambda * beta")
    if not float(np.max(p[:, 4])) <= 1.0 + REFERENCE_TOL:
        msgs.append("refined PR curve has alpha above 1")
    return msgs


# ---------------------------------------------------------------------------
# audit: competitor sweeps, optimality reports and bounds
# ---------------------------------------------------------------------------


def optimal_acceptance(target, model, rate: float) -> np.ndarray:
    """The exact obrs acceptance min(c * r, 1) with E_model[a] = rate.

    An independent reference for the library's bisection: sort the atoms by
    ratio r = p/q, saturate the k largest, and solve the rate equation, which
    is linear in c, for the first k that leaves the next atom unsaturated.
    """
    p, q = target.probs, model.probs
    r = p / q  # random_instance floors every mass, so q > 0
    order = np.argsort(-r)
    q_sat = np.concatenate(([0.0], np.cumsum(q[order])))  # model mass of the k largest
    p_rest = np.concatenate((np.cumsum(p[order][::-1])[::-1], [0.0]))  # target mass of the rest
    for k, rk in enumerate(r[order]):
        c = (rate - q_sat[k]) / p_rest[k]
        if c * rk <= 1.0:
            return np.minimum(c * r, 1.0)
    return np.ones_like(q)


class Sweep:
    """What a competitor sweep keeps: extremes over its scored competitors.

    A competitor is an acceptance vector ``a``, its rate E_model[a] (an
    fsum) and its loss under each generator of the panel.
    """

    def __init__(self, n_gens: int):
        self.count = 0
        self.a_min, self.a_max = math.inf, -math.inf
        self.rate_min, self.rate_max = math.inf, -math.inf
        self.best = [math.inf] * n_gens

    def add(self, a: np.ndarray, rate: float, losses: list[float]) -> None:
        self.count += 1
        self.a_min, self.a_max = min(self.a_min, float(a.min())), max(self.a_max, float(a.max()))
        self.rate_min, self.rate_max = min(self.rate_min, rate), max(self.rate_max, rate)
        self.best = [min(b, loss) for b, loss in zip(self.best, losses)]


def competitors(sweep: Sweep, target, model, budget: float, trials: int) -> list[str]:
    """Random same-rate acceptances: feasible, and none beats the optimum.

    Every competitor's rate must be 1/K to 1e-9. A competitor at rate s
    refines the model into the budget-1/s ball, so under every generator its
    loss is at least the exact optimum over the ball of the lowest rate
    allowed, 1/K - 1e-9, to the worst-gap tolerance. That optimum comes from
    ``optimal_acceptance``, not from the library's solver.
    """
    if sweep.count != trials:
        return [f"{sweep.count} competitors scored, expected {trials}"]
    lowest = optimal_acceptance(target, model, 1.0 / budget - RATE_TOL_EXACT)
    mass = model.probs * lowest
    best = FiniteDist(model.atoms, mass / math.fsum(mass.tolist()))
    msgs = []
    if not (sweep.a_min >= 0.0 and sweep.a_max <= 1.0):
        msgs.append(f"acceptance outside [0, 1]: {sweep.a_min!r}..{sweep.a_max!r}")
    for rate in (sweep.rate_min, sweep.rate_max):
        if not abs(rate - 1.0 / budget) <= RATE_TOL_EXACT + SUM_ROUNDING:
            msgs.append(f"competitor rate {rate!r} misses 1/K = {1.0 / budget!r}")
    for g, loss in zip(GENERATOR_PANEL, sweep.best):
        floor = divergence_finite(g, target, best).value
        if not loss >= floor - GAP_TOL:
            msgs.append(f"a competitor beats the optimum under {g.label}: {loss!r} < {floor!r}")
    return msgs


def optimality_report(report, trials: int, n_gens: int) -> list[str]:
    msgs = []
    if report.trials != trials or len(report.per_gen) != n_gens:
        msgs.append(f"report covers {report.trials} trials x {len(report.per_gen)} generators")
    for label, g in report.per_gen.items():
        if g.violations:
            msgs.append(f"{label}: {g.violations} competitors beat the solved acceptance")
        if not g.min_gap >= -GAP_TOL:
            msgs.append(f"{label}: worst gap {g.min_gap!r} < -1e-9")
    return msgs


def bounds_output(out: Path, instances: int, n_gens: int) -> list[str]:
    """``obrs bounds``: no general violation, canonical KL-Renyi violation flagged."""
    summary = read_summary(out)
    msgs = []
    if summary["general_violations"] != 0:
        msgs.append(f"{summary['general_violations']} general bound violations")
    if summary["canonical_kl_violated"] is not True:
        msgs.append("canonical KL-Renyi violation not flagged")
    header, rows = read_csv(out / "bounds_general.csv")
    if len(rows) != (instances + 1) * n_gens:
        msgs.append(f"bounds_general.csv has {len(rows)} rows")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        lhs, rhs = float(row[col["lhs"]]), float(row[col["rhs"]])
        if row[col["satisfied"]] != "true" or row[col["witness_feasible"]] != "true":
            msgs.append(f"bound row {row[0]}/{row[1]} not satisfied or witness infeasible")
        elif not lhs <= rhs + 1e-10:
            msgs.append(f"bound row {row[0]}/{row[1]}: lhs {lhs!r} > rhs {rhs!r}")
    return msgs


# ---------------------------------------------------------------------------
# sample: grid2d and JSON pairs
# ---------------------------------------------------------------------------


def grid2d_output(out: Path, repeats: int, samples: int, rate: float, n_cal: int) -> list[str]:
    summary = read_summary(out)
    header, rows = read_csv(out / "grid2d.csv")
    col = {name: i for i, name in enumerate(header)}
    msgs = []
    if len(rows) != 3 * repeats:
        msgs.append(f"grid2d.csv has {len(rows)} rows, expected {3 * repeats}")
    if not abs(summary["calibration_rate"] - rate) <= RATE_TOL_EXACT + SUM_ROUNDING:
        msgs.append(f"calibration rate {summary['calibration_rate']!r} misses {rate!r}")
    for row in rows:
        method = row[col["method"]]
        accepted, draws = int(row[col["accepted"]]), int(row[col["draws_used"]])
        if accepted != samples:
            msgs.append(f"{method}: accepted {accepted} of {samples}")
        if method == "baseline":
            if accepted != draws:
                msgs.append("baseline rejected a proposal")
        else:
            msgs += [f"{method}: {m}" for m in rate_within_sigma(accepted, draws, rate, n_cal)]
    methods = summary["methods"]
    if not methods["obrs"]["precision_mean"] > methods["baseline"]["precision_mean"] + 0.05:
        msgs.append("obrs precision not above baseline + 0.05")
    if methods["obrs"]["recall_min"] != 1.0:
        msgs.append(f"obrs recall {methods['obrs']['recall_min']!r} != 1.0")
    return msgs


def sample_finite_output(out: Path, target, model, budget: float, n: int) -> list[str]:
    """``obrs sample`` on a finite pair: exact rate, acceptance, frequencies."""
    summary = read_summary(out)
    spec, sol = refine(target, model, budget, mode="exact")
    rate = spec_rate(spec, model.atoms, model.probs)
    msgs = rate_matches_budget(rate, budget, sol.status, RATE_TOL_EXACT)
    msgs += rate_matches_budget(summary["solver_rate"], budget, summary["status"], RATE_TOL_EXACT)
    _, rows = read_csv(out / "samples.csv")
    if len(rows) != n or summary["accepted"] != n:
        return msgs + [f"samples.csv has {len(rows)} rows, expected {n}"]
    index = {str(a): i for i, a in enumerate(model.atoms)}
    try:
        idx = np.array([index[row[0]] for row in rows])
    except KeyError as exc:
        return msgs + [f"sample {exc.args[0]!r} is not an atom"]
    counts = np.bincount(idx, minlength=len(model.atoms))
    msgs += rate_within_sigma(n, summary["draws_used"], rate)
    msgs += frequencies_match(counts, refined_finite(model, spec).dist.probs, n)
    return msgs


def sample_mixture_output(out: Path, budget: float, n: int, n_cal: int) -> list[str]:
    """``obrs sample`` on the symmetric 1-d pair: rate and a centred mean."""
    summary = read_summary(out)
    msgs = rate_matches_budget(
        summary["solver_rate"], budget, summary["status"], RATE_TOL_GRID, n_cal
    )
    _, rows = read_csv(out / "samples.csv")
    x = np.array(rows, dtype=float).ravel()
    if len(x) != n or summary["accepted"] != n or not np.all(np.isfinite(x)):
        return msgs + [f"samples.csv has {len(x)} finite rows, expected {n}"]
    msgs += rate_within_sigma(n, summary["draws_used"], summary["solver_rate"], n_cal)
    # target and model are both symmetric about 0, so is the refined law
    half_width = N_SIGMA * float(np.std(x)) / math.sqrt(n)
    if not abs(float(np.mean(x))) <= half_width:
        msgs.append(f"sample mean {float(np.mean(x)):.4f} outside +-{half_width:.4f}")
    return msgs
