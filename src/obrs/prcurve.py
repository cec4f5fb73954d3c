"""Precision-recall tradeoff curves between a target and a model.

For a ratio threshold lam in [0, inf], the curve point is

    alpha(lam) = sum_x min(lam * p(x), q(x))      (precision-like)
    beta(lam)  = sum_x min(p(x), q(x) / lam)      (recall-like)

so alpha = lam * beta by construction, alpha(inf) is the model mass on the
target's support and beta(0) the target mass on the model's. The full curve
{(alpha, beta)} is yet another face of the f-divergence family (each lam is
a hinge generator), and it transforms in closed form under budgeted
rejection: ``predict_refined_curve`` maps the base curve to the refined
one and ``check_refined_prediction`` verifies that mapping against a
directly computed refined curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, _count, pair_view, ratio_of
from .errors import DomainError
from .sampling import ScaleSolution, calibrate


@dataclass(frozen=True)
class PRPoint:
    lam: float
    alpha: float
    beta: float
    stderr_alpha: float = 0.0
    stderr_beta: float = 0.0


@dataclass(frozen=True)
class PRCurve:
    lams: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    def __len__(self) -> int:
        return len(self.lams)

    def point(self, i: int) -> PRPoint:
        return PRPoint(float(self.lams[i]), float(self.alphas[i]), float(self.betas[i]))


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------


def _thresholds(lams) -> np.ndarray:
    """The thresholds as floats; NaN and negative values raise DomainError."""
    lams = np.asarray(lams, dtype=float)
    if not np.all(lams >= 0):
        raise DomainError("threshold lam must be a nonnegative number")
    return lams


def _pr_arrays(pw: np.ndarray, qw: np.ndarray, lam: float) -> tuple[float, float]:
    """alpha, beta from nonnegative weight vectors (exact fsum reduction).

    The reference for ``_pr_scan``; ``lam`` must already be validated.
    """
    if lam == 0:
        return 0.0, math.fsum(pw[qw > 0].tolist())
    if math.isinf(lam):
        return math.fsum(qw[pw > 0].tolist()), 0.0
    low = lam * pw <= qw
    alpha = math.fsum(np.where(low, lam * pw, qw).tolist())
    beta = math.fsum(np.where(low, pw, qw / lam).tolist())
    return alpha, beta


def _pr_scan(pw: np.ndarray, qw: np.ndarray, lams) -> PRCurve:
    """The curve at every threshold from one sort of the node ratios.

    Only nodes where both weights are positive contribute at a finite
    lam > 0. Sorted by t = q/p, a threshold splits them at k = #{t < lam}:
    the nodes below contribute q to alpha (q/lam to beta), the rest lam*p
    (p). So with Q the prefix sums of q and P the suffix sums of p,

        alpha = Q[k] + lam * P[k],   beta = Q[k] / lam + P[k].

    lam = 0 and lam = inf keep the exact ``_pr_arrays`` endpoint values.
    """
    lams = _thresholds(lams)
    both = (pw > 0) & (qw > 0)
    p, q = pw[both], qw[both]
    order = np.argsort(q / p)
    p, q = p[order], q[order]
    t = q / p
    q_pre = np.concatenate(([0.0], np.cumsum(q)))
    p_suf = np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))
    k = np.searchsorted(t, lams)
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = q_pre[k] + lams * p_suf[k]
        betas = q_pre[k] / lams + p_suf[k]
    for end in (0.0, math.inf):
        at_end = lams == end
        if np.any(at_end):
            alphas[at_end], betas[at_end] = _pr_arrays(pw, qw, end)
    return PRCurve(lams=lams, alphas=alphas, betas=betas)


def pr_point(
    target: Distribution,
    model: Distribution,
    lam: float,
    mode: str = "exact",
    n_nodes: int = 4096,
    span: float = 8.0,
    n: int = 10000,
    rng: np.random.Generator | None = None,
) -> PRPoint:
    """One tradeoff point. ``exact`` for finite pairs, ``quadrature`` for 1-d
    mixture pairs, ``mc`` for anything with a ratio (adds stderrs; n must be
    an integer >= 2, else DomainError)."""
    lam = float(_thresholds(lam))
    if mode in ("exact", "quadrature"):
        view = pair_view(target, model, mode, n_nodes, span)
        return PRPoint(lam, *_pr_arrays(view.pw, view.qw, lam))
    if mode == "mc":
        if rng is None:
            raise DomainError("mc mode needs an rng")
        n = _count(n, "samples")
        ratio = ratio_of(target, model)
        lr_q = np.asarray(ratio.log(model.sample(rng, n)), dtype=float)
        lr_p = np.asarray(ratio.log(target.sample(rng, n)), dtype=float)
        if lam == 0:
            a_vals = np.zeros(n)
            b_vals = np.ones(n)
        elif math.isinf(lam):
            a_vals = np.ones(n)
            b_vals = np.zeros(n)
        else:
            with np.errstate(over="ignore"):
                a_vals = np.minimum(np.exp(math.log(lam) + lr_q), 1.0)
                b_vals = np.minimum(np.exp(-math.log(lam) - lr_p), 1.0)
        return PRPoint(
            lam,
            float(np.mean(a_vals)),
            float(np.mean(b_vals)),
            stderr_alpha=float(np.std(a_vals, ddof=1) / math.sqrt(n)),
            stderr_beta=float(np.std(b_vals, ddof=1) / math.sqrt(n)),
        )
    raise DomainError(f"unknown pr mode {mode!r}")


def pr_curve(
    target: Distribution,
    model: Distribution,
    lams: np.ndarray,
    mode: str = "exact",
    n_nodes: int = 4096,
    span: float = 8.0,
) -> PRCurve:
    """Evaluate the tradeoff curve on a threshold grid (exact or quadrature).

    All thresholds come from one sort-and-scan of the node ratios
    (``_pr_scan``). Its prefix sums accumulate in order, so it agrees with
    the exact fsum reduction of ``pr_point`` to about n * eps, n being the
    number of atoms or quadrature nodes; lam = 0 and lam = inf are exact.
    NaN or negative thresholds raise ``DomainError``.
    """
    view = pair_view(target, model, mode, n_nodes, span)
    return _pr_scan(view.pw, view.qw, lams)


def default_lambda_grid(center: float, n: int = 201, decades: float = 3.0) -> np.ndarray:
    """Log-spaced thresholds around ``center`` (use scale/sup_ratio: the knee)."""
    if center <= 0 or not math.isfinite(center):
        raise DomainError("grid center must be positive and finite")
    return np.logspace(math.log10(center) - decades, math.log10(center) + decades, n)


def _knee_grid(sol: ScaleSolution, n: int) -> np.ndarray:
    """n log-spaced thresholds around the clipping knee c/M of a calibration.

    At budget 1 the slack is infinite and nothing clips; the grid then
    centres on the unbudgeted knee 1/M.
    """
    log_c = 0.0 if sol.status == "unit" else sol.log_scale
    return default_lambda_grid(math.exp(log_c - sol.log_sup), n=n)


# ---------------------------------------------------------------------------
# Closed-form transform under budgeted rejection
# ---------------------------------------------------------------------------


def predict_refined_curve(
    base: PRCurve, budget: float, scale: float, sup_ratio: float
) -> PRCurve:
    """Map the base curve to the refined distribution's curve, in closed form.

    With acceptance min(scale*r/M, 1) at exact rate 1/budget, the refined
    mass is min(scale*budget/M * p, budget * q), so a base point at
    threshold lam' lands at threshold budget*lam':

    - lam' <= scale/M (no clipping active): alpha -> budget*alpha', beta
      unchanged;
    - lam' > scale/M: the refined curve is saturated: alpha = 1 and beta =
      1/(budget*lam').

    Pass the *measured* budget (1/Z) for an exact identity; at the knee
    lam' = scale/M the base alpha equals exactly 1/budget.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1")
    knee = scale / sup_ratio
    lams = budget * base.lams
    low = base.lams <= knee
    alphas = np.where(low, np.minimum(budget * base.alphas, 1.0), 1.0)
    with np.errstate(divide="ignore"):
        betas = np.where(low, base.betas, 1.0 / lams)
    return PRCurve(lams=lams, alphas=alphas, betas=betas)


@dataclass(frozen=True)
class RefinedPredictionReport:
    """Worst-case gaps between the predicted and directly-computed curves."""

    max_alpha_err: float
    max_beta_err: float
    max_identity_err: float  # |alpha - lam*beta| on the direct refined curve
    n_thresholds: int
    budget: float
    effective_budget: float  # 1 / measured acceptance rate
    scale: float
    sup_ratio: float
    status: str


def check_refined_prediction(
    target: Distribution,
    model: Distribution,
    budget: float,
    lams: np.ndarray | None = None,
    mode: str = "exact",
    n_nodes: int = 4096,
    span: float = 8.0,
) -> RefinedPredictionReport:
    """Verify the closed-form curve transform against direct evaluation.

    Builds the budgeted acceptance for (target, model, budget), computes the
    refined distribution explicitly, and compares its curve with
    ``predict_refined_curve`` threshold by threshold. On finite supports
    both paths are exact sums and agree to float roundoff; on 1-d mixture
    pairs both run on the same quadrature grid. The default thresholds are
    41 around the clipping knee c/M.
    """
    view = pair_view(target, model, mode, n_nodes, span)
    log_r = view.checked_log_r()
    sol = calibrate(log_r, view.qw, budget)
    a = np.exp(sol.log_accept(log_r))
    z = math.fsum((view.qw * a).tolist())
    if z <= 0:
        raise DomainError("acceptance function kills all model mass")
    k_eff = 1.0 / z
    base = _pr_scan(view.pw, view.qw, _knee_grid(sol, 41) if lams is None else lams)
    direct = _pr_scan(view.pw, view.qw * a * k_eff, base.lams * k_eff)
    pred = predict_refined_curve(base, k_eff, sol.scale, sol.sup_ratio)
    identity = np.abs(direct.alphas - direct.lams * direct.betas)
    return RefinedPredictionReport(
        max_alpha_err=float(np.max(np.abs(direct.alphas - pred.alphas))),
        max_beta_err=float(np.max(np.abs(direct.betas - pred.betas))),
        max_identity_err=float(np.max(identity)),
        n_thresholds=len(base),
        budget=budget,
        effective_budget=k_eff,
        scale=sol.scale,
        sup_ratio=sol.sup_ratio,
        status=sol.status,
    )

