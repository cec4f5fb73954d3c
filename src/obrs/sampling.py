"""Budgeted rejection sampling with exact likelihood ratios.

The acceptance functions here all have the clipped-ratio shape

    a(x) = min(s * r(x) / M, 1),        r = target/model,  M >= sup r,

differing only in how the slack factor s is chosen:

- ``unbudgeted``: s = 1, the classical perfect sampler (rate 1/M);
- ``budgeted``: s solves E_model[a] = 1/K for a sampling budget K, i.e. one
  keeps on average one of every K proposals and the refined distribution is
  the best approximation to the target reachable at that cost;
- ``drs``: s = exp(-gamma), the shifted-sigmoid-free variant of
  discriminator rejection sampling with gamma tuned to hit a target rate.

The slack equation is solved by bisection on log s, so proposal families
whose ratios overflow double precision (log-ratios of several hundred) are
handled without special cases. ``unit`` (accept everything) and ``table``
(explicit per-atom acceptance on a finite support) round out the kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dist import Distribution, FiniteDist, GaussianMixture, RatioFn, ratio_of
from .errors import (
    BudgetExhaustedError,
    ConvergenceError,
    DomainError,
    EstimationError,
    OutOfBallError,
)

_LOG_BRACKET_LO = math.log(1e-10)
_LOG_BRACKET_HI = math.log(1e10)
_LOG_BRACKET_CAP = math.log(1e300)
_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Sup-ratio estimation
# ---------------------------------------------------------------------------


def estimate_sup_ratio(
    ratio: RatioFn,
    model: Distribution,
    mode: str = "exact",
    n: int = 10000,
    rng: np.random.Generator | None = None,
    grid: np.ndarray | None = None,
) -> float:
    """Upper envelope M for the likelihood ratio over the model's support.

    ``exact`` maximizes over a finite model's atoms. ``sample`` maximizes
    over n model draws (a lower bound that tightens with n), ``grid`` over
    explicit points. Returns inf when the log-ratio exceeds ~709; callers
    that need such regimes should stay in log space.
    """
    if mode == "exact":
        if not isinstance(model, FiniteDist):
            raise DomainError("exact sup-ratio needs a finite model; use sample or grid")
        lr = np.asarray(ratio.log(model.atoms), dtype=float)
        return float(np.exp(np.max(lr)))
    if mode == "sample":
        if rng is None:
            raise DomainError("sample mode needs an rng")
        xs = model.sample(rng, n)
        lr = np.asarray(ratio.log(xs), dtype=float)
        return float(np.exp(np.max(lr)))
    if mode == "grid":
        if grid is None:
            raise DomainError("grid mode needs grid points")
        lr = np.asarray(ratio.log(grid), dtype=float)
        return float(np.exp(np.max(lr)))
    raise DomainError(f"unknown sup-ratio mode {mode!r}")


# ---------------------------------------------------------------------------
# Acceptance functions
# ---------------------------------------------------------------------------


@dataclass
class AcceptanceSpec:
    """A concrete acceptance function a(x) in [0, 1].

    kind is one of ``unit``, ``unbudgeted``, ``budgeted``, ``drs``,
    ``table``. Ratio-based kinds carry the ratio evaluator plus log-space
    parameters; ``table`` carries explicit per-atom probabilities.
    """

    kind: str
    ratio: RatioFn | None = None
    log_sup: float = 0.0
    log_scale: float = 0.0
    gamma: float = 0.0
    budget: float | None = None
    table: dict | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls) -> "AcceptanceSpec":
        return cls(kind="unit", budget=1.0)

    @classmethod
    def unbudgeted(cls, ratio: RatioFn, sup_ratio: float) -> "AcceptanceSpec":
        return cls(kind="unbudgeted", ratio=ratio, log_sup=_log_of(sup_ratio))

    @classmethod
    def budgeted(
        cls, ratio: RatioFn, sup_ratio: float, scale: float, budget: float
    ) -> "AcceptanceSpec":
        return cls(
            kind="budgeted",
            ratio=ratio,
            log_sup=_log_of(sup_ratio),
            log_scale=_log_of(scale),
            budget=budget,
        )

    @classmethod
    def drs(cls, ratio: RatioFn, sup_ratio: float, gamma: float) -> "AcceptanceSpec":
        return cls(kind="drs", ratio=ratio, log_sup=_log_of(sup_ratio), gamma=gamma)

    @classmethod
    def from_table(cls, table: dict, budget: float | None = None) -> "AcceptanceSpec":
        vals = np.asarray(list(table.values()), dtype=float)
        if np.any(vals < 0) or np.any(vals > 1):
            raise DomainError("table acceptance values must lie in [0, 1]")
        return cls(kind="table", table=dict(table), budget=budget)

    # -- evaluation ----------------------------------------------------------

    @property
    def scale(self) -> float:
        return _exp_or_inf(self.log_scale)

    @property
    def sup_ratio(self) -> float:
        return _exp_or_inf(self.log_sup)

    def _shift(self) -> float:
        if self.kind == "budgeted":
            return self.log_scale
        if self.kind == "drs":
            return -self.gamma
        return 0.0

    def accept_prob(self, x) -> np.ndarray | float:
        """Acceptance probability at x (vectorized over proposal batches).

        Scalars and atom tuples are single proposals; lists and arrays are
        batches (2-d proposals arrive as (n, 2) arrays).
        """
        scalar = np.isscalar(x) or isinstance(x, tuple)
        if self.kind == "unit":
            if scalar:
                return 1.0
            return np.ones(len(x))
        if self.kind == "table":
            if scalar:
                return float(self.table[x])
            return np.array([self.table[a] for a in x], dtype=float)
        lr = self.ratio.log([x] if scalar else x)
        lr = np.atleast_1d(np.asarray(lr, dtype=float))
        g = lr + (self._shift() - self.log_sup)
        with np.errstate(invalid="ignore"):
            a = np.where(np.isneginf(lr), 0.0, np.exp(np.minimum(g, 0.0)))
        return float(a[0]) if scalar else a


def _log_of(value: float) -> float:
    if value <= 0:
        raise DomainError("scale and sup-ratio must be positive")
    return math.log(value)


def _exp_or_inf(x: float) -> float:
    """exp(x), reporting inf instead of raising past float range."""
    return math.exp(x) if x < 709.0 else math.inf


# ---------------------------------------------------------------------------
# Core slack solver (shared by budgeted and drs tuning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleSolution:
    """Solution of E_model[min(scale * r / M, 1)] = 1/budget."""

    scale: float
    log_scale: float
    rate: float
    budget: float
    iterations: int
    status: str  # "unit" | "unbudgeted" | "budgeted"
    bracket: tuple[float, float]  # final log-space bracket


@dataclass(frozen=True)
class GammaSolution:
    """Shift gamma with E_model[min(exp(-gamma) * r / M, 1)] = target rate."""

    gamma: float
    rate: float
    target_rate: float
    iterations: int
    status: str


def _acceptance_rate(log_r: np.ndarray, weights: np.ndarray, log_shift: float) -> float:
    g = log_r + log_shift
    with np.errstate(invalid="ignore"):
        a = np.where(np.isneginf(log_r), 0.0, np.exp(np.minimum(g, 0.0)))
    return float(np.dot(weights, a))


def _solve_log_shift(
    log_r: np.ndarray,
    weights: np.ndarray,
    target_rate: float,
    eps: float,
    max_iter: int = _MAX_ITER,
) -> tuple[float, float, int, tuple[float, float]]:
    """Bisect log-shift so the weighted clipped-exp acceptance hits target_rate.

    log_r here is already relative to the envelope (log r - log M), so the
    acceptance is exp(min(log_r + shift, 0)). The initial bracket covers
    shifts in [1e-10, 1e10]; if the rate is still short at the top, the
    bracket expands (decades in log space) up to the saturation shift — the
    point where every positive-ratio point is fully accepted — since
    proposal pairs with astronomically peaked ratios genuinely need slacks
    far beyond 1e10.
    """
    finite = np.isfinite(log_r) & (weights > 0)
    if np.any(finite):
        saturation = -float(np.min(log_r[finite])) + 1.0
    else:
        saturation = _LOG_BRACKET_CAP
    cap = max(_LOG_BRACKET_CAP, saturation)
    lo, hi = _LOG_BRACKET_LO, _LOG_BRACKET_HI
    rate_hi = _acceptance_rate(log_r, weights, hi)
    while rate_hi < target_rate - eps and hi < cap:
        hi = min(hi + math.log(10.0), cap)
        rate_hi = _acceptance_rate(log_r, weights, hi)
    rate_lo = _acceptance_rate(log_r, weights, lo)
    while rate_lo > target_rate + eps and lo > -cap:
        lo = max(lo - math.log(10.0), -cap)
        rate_lo = _acceptance_rate(log_r, weights, lo)
    if rate_hi < target_rate - eps:
        raise ConvergenceError(
            f"target rate {target_rate} unreachable (max {rate_hi} at bracket top)",
            bracket=(math.exp(lo), math.exp(hi) if hi < 700 else math.inf),
        )
    if rate_lo > target_rate + eps:
        raise ConvergenceError(
            f"target rate {target_rate} below reach (min {rate_lo} at bracket bottom)",
            bracket=(math.exp(lo), math.exp(hi) if hi < 700 else math.inf),
        )
    mid, rate = hi, rate_hi
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        rate = _acceptance_rate(log_r, weights, mid)
        if abs(rate - target_rate) <= eps:
            return mid, rate, it, (lo, hi)
        if rate < target_rate:
            lo = mid
        else:
            hi = mid
    # the bracket has collapsed to float resolution; report the midpoint
    return mid, rate, max_iter, (lo, hi)


def _model_view(
    model: Distribution,
    ratio: RatioFn,
    mode: str,
    n: int,
    rng: np.random.Generator | None,
    grid: np.ndarray | None = None,
    grid_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(log-ratios, model weights) pairs the solver can take expectations over."""
    if mode == "exact":
        if not isinstance(model, FiniteDist):
            raise DomainError("exact mode needs a finite model")
        lr = np.asarray(ratio.log(model.atoms), dtype=float)
        return lr, model.probs.copy()
    if mode == "sample":
        if rng is None:
            raise DomainError("sample mode needs an rng")
        xs = model.sample(rng, n)
        lr = np.asarray(ratio.log(xs), dtype=float)
        return lr, np.full(len(lr), 1.0 / len(lr))
    if mode == "grid":
        if grid is None or grid_weights is None:
            raise DomainError("grid mode needs nodes and weights")
        lr = np.asarray(ratio.log(grid), dtype=float)
        q = np.exp(np.asarray(model.log_density(grid), dtype=float))
        return lr, grid_weights * q
    raise DomainError(f"unknown mode {mode!r}")


def solve_accept_scale(
    ratio: RatioFn,
    model: Distribution,
    sup_ratio: float,
    budget: float,
    mode: str = "exact",
    eps: float | None = None,
    n: int = 10000,
    rng: np.random.Generator | None = None,
    grid: np.ndarray | None = None,
    grid_weights: np.ndarray | None = None,
    max_iter: int = _MAX_ITER,
) -> ScaleSolution:
    """Find the slack c >= 1 with E_model[min(c * r / M, 1)] = 1/budget.

    budget = 1 accepts everything (status ``unit``); budget >= M needs no
    slack beyond the classical sampler (c = 1, status ``unbudgeted``);
    otherwise the rate equation is solved by bisection (status
    ``budgeted``). eps defaults to 1e-9 in exact mode and 1e-6 otherwise.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1 proposal per kept sample")
    if eps is None:
        eps = 1e-9 if mode == "exact" else 1e-6
    log_sup = _log_of(sup_ratio)
    lr, weights = _model_view(model, ratio, mode, n, rng, grid, grid_weights)
    if budget == 1.0:
        rate = float(np.dot(weights, ~np.isneginf(lr)))
        return ScaleSolution(
            scale=math.inf,
            log_scale=math.inf,
            rate=rate,
            budget=1.0,
            iterations=0,
            status="unit",
            bracket=(_LOG_BRACKET_LO, _LOG_BRACKET_CAP),
        )
    if budget >= sup_ratio:
        rate = _acceptance_rate(lr - log_sup, weights, 0.0)
        return ScaleSolution(
            scale=1.0,
            log_scale=0.0,
            rate=rate,
            budget=budget,
            iterations=0,
            status="unbudgeted",
            bracket=(0.0, 0.0),
        )
    log_c, rate, iters, bracket = _solve_log_shift(
        lr - log_sup, weights, 1.0 / budget, eps, max_iter
    )
    return ScaleSolution(
        scale=_exp_or_inf(log_c),
        log_scale=log_c,
        rate=rate,
        budget=budget,
        iterations=iters,
        status="budgeted",
        bracket=bracket,
    )


def drs_gamma_for_rate(
    ratio: RatioFn,
    model: Distribution,
    sup_ratio: float,
    target_rate: float,
    mode: str = "exact",
    eps: float | None = None,
    n: int = 10000,
    rng: np.random.Generator | None = None,
    max_iter: int = _MAX_ITER,
) -> GammaSolution:
    """Tune the drs shift gamma so E_model[min(exp(-gamma) r / M, 1)] = target_rate.

    gamma > 0 throttles acceptance below the classical 1/M sampler; gamma < 0
    spends a budget to accept more. The same bisection core as
    ``solve_accept_scale`` is used with shift = -gamma.
    """
    if not (0 < target_rate <= 1):
        raise DomainError("target rate must lie in (0, 1]")
    if eps is None:
        eps = 1e-9 if mode == "exact" else 1e-6
    log_sup = _log_of(sup_ratio)
    lr, weights = _model_view(model, ratio, mode, n, rng)
    log_c, rate, iters, _ = _solve_log_shift(lr - log_sup, weights, target_rate, eps, max_iter)
    return GammaSolution(
        gamma=-log_c, rate=rate, target_rate=target_rate, iterations=iters, status="converged"
    )


# ---------------------------------------------------------------------------
# Sampling and finite refinement
# ---------------------------------------------------------------------------


@dataclass
class SampleResult:
    """Accepted samples plus the cost accounting of producing them."""

    samples: Any
    accepted: int
    draws_used: int

    @property
    def rate(self) -> float:
        return self.accepted / self.draws_used if self.draws_used else 0.0


def rejection_sample(
    model: Distribution,
    spec: AcceptanceSpec,
    n_target: int,
    rng: np.random.Generator,
    max_draws: int | None = None,
    batch_size: int = 8192,
) -> SampleResult:
    """Draw proposals from the model until n_target pass a(x)-thinning.

    Deterministic given the rng state (and batch_size). Raises
    BudgetExhaustedError, carrying the partial count, if max_draws proposals
    are examined before the quota fills, and DomainError, before any draw,
    if a finite model's exact acceptance rate is 0.
    """
    if n_target <= 0:
        raise DomainError("n_target must be positive")
    if isinstance(model, FiniteDist):
        # the exact acceptance rate; at 0 the loop below would never return
        live = model.probs > 0
        a = spec.accept_prob([x for x, m in zip(model.atoms, live) if m])
        if not np.dot(model.probs[live], a) > 0:
            raise DomainError("acceptance rate is 0 under the model: no proposal can pass")
    kept: list = []
    n_kept = 0
    draws_used = 0
    examined = 0
    while n_kept < n_target:
        batch = batch_size
        if max_draws is not None:
            batch = min(batch, max_draws - examined)
            if batch <= 0:
                raise BudgetExhaustedError(
                    f"max_draws={max_draws} exhausted with {n_kept}/{n_target} accepted",
                    accepted=n_kept,
                    draws_used=examined,
                )
        xs = model.sample(rng, batch)
        a = np.asarray(spec.accept_prob(xs), dtype=float)
        u = rng.random(batch)
        hits = np.flatnonzero(u < a)
        examined += batch
        if hits.size:
            take = hits[: n_target - n_kept]
            if isinstance(xs, np.ndarray):
                kept.append(xs[take])
            else:
                kept.extend(xs[i] for i in take)
            n_kept += len(take)
            if n_kept == n_target:
                draws_used = examined - batch + int(take[-1]) + 1
    if isinstance(model, GaussianMixture):
        samples = np.concatenate(kept) if len(kept) > 1 else kept[0]
    else:
        samples = kept
    return SampleResult(samples=samples, accepted=n_target, draws_used=draws_used)


@dataclass(frozen=True)
class RefinedFinite:
    """Exact refined distribution q*a/Z on a finite support."""

    dist: FiniteDist
    acceptance: np.ndarray
    rate: float  # Z = E_model[a]


def refined_finite(model: FiniteDist, spec: AcceptanceSpec) -> RefinedFinite:
    """Apply an acceptance function to a finite model in closed form."""
    a = np.asarray(spec.accept_prob(model.atoms), dtype=float)
    mass = model.probs * a
    z = math.fsum(mass.tolist())
    if z <= 0:
        raise DomainError("acceptance function kills all model mass")
    return RefinedFinite(dist=FiniteDist(model.atoms, mass / z), acceptance=a, rate=z)


def acceptance_from_target(
    candidate: FiniteDist, model: FiniteDist, budget: float
) -> AcceptanceSpec:
    """Acceptance table realizing ``candidate`` from ``model`` at rate 1/budget.

    Solves candidate = model * a / Z for a with Z = 1/budget. Feasible iff
    the candidate sits inside the budget ball, i.e. candidate <= budget *
    model atomwise; the first violating atom is reported otherwise.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1")
    if not candidate.same_support(model):
        raise OutOfBallError("candidate and model must share an atom list", atom_index=-1)
    c, q = candidate.probs, model.probs
    orphan = np.flatnonzero((q == 0) & (c > 0))
    if orphan.size:
        i = int(orphan[0])
        raise OutOfBallError(
            f"candidate mass at atom index {i} ({candidate.atoms[i]!r}) "
            "outside the model support",
            atom_index=i,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(q > 0, c / (budget * np.where(q > 0, q, 1.0)), 0.0)
    over = np.flatnonzero(a > 1.0 + 1e-12)
    if over.size:
        i = int(over[0])
        raise OutOfBallError(
            f"candidate needs acceptance {a[i]:.6g} > 1 at atom index {i} "
            f"({candidate.atoms[i]!r}): outside the budget-{budget:g} ball",
            atom_index=i,
        )
    table = {atom: float(min(ai, 1.0)) for atom, ai in zip(model.atoms, a)}
    return AcceptanceSpec.from_table(table, budget=budget)


def refine(
    target: Distribution,
    model: Distribution,
    budget: float,
    mode: str = "exact",
    eps: float | None = None,
    n: int = 10000,
    rng: np.random.Generator | None = None,
    grid: np.ndarray | None = None,
    grid_weights: np.ndarray | None = None,
) -> tuple[AcceptanceSpec, ScaleSolution]:
    """One-call pipeline: ratio, envelope, slack, acceptance spec.

    The envelope and the slack solver share one view of the model (its
    atoms in exact mode, a single calibration sample in sample mode, the
    quadrature grid in grid mode), so a seeded run is fully reproducible.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1 proposal per kept sample")
    if eps is None:
        eps = 1e-9 if mode == "exact" else 1e-6
    ratio = ratio_of(target, model)
    lr, weights = _model_view(model, ratio, mode, n, rng, grid, grid_weights)
    live = weights > 0
    if not np.any(live):
        raise EstimationError("model view carries no mass")
    log_sup = float(np.max(lr[live]))
    if budget == 1.0:
        rate = float(np.dot(weights, ~np.isneginf(lr)))
        sol = ScaleSolution(
            scale=math.inf, log_scale=math.inf, rate=rate, budget=1.0,
            iterations=0, status="unit", bracket=(_LOG_BRACKET_LO, _LOG_BRACKET_CAP),
        )
        return AcceptanceSpec.unit(), sol
    if math.log(budget) >= log_sup:
        rate = _acceptance_rate(lr - log_sup, weights, 0.0)
        sol = ScaleSolution(
            scale=1.0, log_scale=0.0, rate=rate, budget=budget,
            iterations=0, status="unbudgeted", bracket=(0.0, 0.0),
        )
        return AcceptanceSpec(kind="unbudgeted", ratio=ratio, log_sup=log_sup), sol
    log_c, rate, iters, bracket = _solve_log_shift(lr - log_sup, weights, 1.0 / budget, eps)
    sol = ScaleSolution(
        scale=_exp_or_inf(log_c), log_scale=log_c, rate=rate, budget=budget,
        iterations=iters, status="budgeted", bracket=bracket,
    )
    spec = AcceptanceSpec(
        kind="budgeted", ratio=ratio, log_sup=log_sup, log_scale=log_c, budget=budget
    )
    return spec, sol
