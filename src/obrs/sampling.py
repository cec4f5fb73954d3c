"""Budgeted rejection sampling with exact likelihood ratios.

The calibrated acceptance has the clipped-ratio shape

    a(x) = min(c * r(x) / M, 1),        r = target/model,  M = sup r,

with the slack c chosen by ``calibrate`` for a sampling budget K:

- ``unit`` (K = 1): accept everything, c = inf;
- ``unbudgeted`` (K >= M): c = 1, the classical perfect sampler (rate 1/M);
- ``budgeted``: c solves E_model[a] = 1/K, i.e. one keeps on average one of
  every K proposals and the refined distribution is the best approximation
  to the target reachable at that cost.

The rate is concave and piecewise linear in c, so the slack equation (the
water-filling step of simplex projection) is solved exactly, in log space:
Newton steps from the left of the root reach its segment in a few passes
over the view, and a sort-and-scan solves small views, a view that Newton
leaves unsolved after a capped number of steps, and one whose Newton root
misses the target rate. Proposal families whose ratios overflow double
precision (log-ratios of several hundred) need no special cases.
Acceptance functions are ``unit``, ``clipped`` (the shape above, with
log_scale = log c), ``logistic`` and ``table`` (explicit per-atom acceptance
on a finite support). ``logistic`` is the published discriminator rejection
sampling acceptance (DRS: Azadi et al., ICLR 2019, arXiv:1810.06758) on the
same ratio and envelope, a = sigmoid(F) with

    F = log r - log(1 - exp(log r - log M - eps)) - gamma,

saturating at 1 where log r - log M >= eps (proposals above a sample
envelope); ``refine_with_drs`` solves its shift gamma to the rate of the
calibrated acceptance on the same view. ``rejection_sample_shared`` thins
one proposal stream with several acceptances at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .dist import (
    _LOG_FLOOR,
    Distribution,
    FiniteDist,
    RatioFn,
    _count,
    pair_view,
    ratio_of,
)
from .errors import (
    BudgetExhaustedError,
    ConvergenceError,
    DomainError,
    EstimationError,
    OutOfBallError,
    SupportMismatchError,
)

_BATCH = 8192  # proposals drawn per round of rejection sampling
_DRS_EPS = 1e-6  # the DRS envelope margin eps: F is finite below log M + eps
_RATE_TOL = 1e-12  # how far a Newton slack solve or the DRS rate may miss its target
_SORT_POINTS = 1024  # a slack solve on at most this many live points is a sort-and-scan
_NEWTON_PASSES = 8  # Newton steps of the slack solve before the sort-and-scan finishes it


# ---------------------------------------------------------------------------
# Acceptance functions
# ---------------------------------------------------------------------------


def _log_accept(log_r, log_shift: float):
    """log a = min(log_r + log_shift, 0) for log-ratios relative to the envelope.

    log_shift = +inf is the unit acceptance, a = 1 everywhere: fmin drops the
    NaN of -inf + inf where r = 0. At a finite shift, r = 0 gives a = 0.
    """
    with np.errstate(invalid="ignore"):
        return np.fmin(log_r + log_shift, 0.0)


def _drs_logit(rel, log_sup: float):
    """F at gamma = 0 for log-ratios rel relative to the envelope log_sup.

    F = rel + log_sup - log(1 - exp(rel - eps)) below rel = eps and +inf
    (acceptance 1) from there; r = 0 gives -inf (acceptance 0).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = rel + log_sup - np.log(-np.expm1(rel - _DRS_EPS))
    return np.where(rel < _DRS_EPS, f, np.inf)


def _log_sigmoid(x):
    """log sigmoid(x) = -log(1 + exp(-x)), exact at both tails."""
    return -np.logaddexp(0.0, -x)


class _LogScaled:
    """The slack c and envelope M (inf past float range) and the clipped acceptance they make."""

    def log_accept(self, log_r):
        """log a = min(log c + log r - log M, 0) at log-ratios log_r."""
        return _log_accept(log_r - self.log_sup, self.log_scale)

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale) if self.log_scale < 709.0 else math.inf

    @property
    def sup_ratio(self) -> float:
        return math.exp(self.log_sup) if self.log_sup < 709.0 else math.inf


@dataclass
class AcceptanceSpec(_LogScaled):
    """A concrete acceptance function a(x) in [0, 1].

    kind is one of ``unit``, ``clipped``, ``logistic``, ``table``.
    ``clipped`` carries the ratio evaluator plus the log envelope and log
    slack of min(exp(log_scale) * r / exp(log_sup), 1); ``logistic`` carries
    the same ratio and envelope, with log_scale = -gamma, for the DRS
    acceptance sigmoid(F); ``table`` carries explicit per-atom probabilities.
    """

    kind: str
    ratio: RatioFn | None = None
    log_sup: float = 0.0
    log_scale: float = 0.0
    table: dict | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls) -> "AcceptanceSpec":
        return cls(kind="unit")

    @classmethod
    def clipped(cls, ratio: RatioFn, log_sup: float, log_scale: float = 0.0) -> "AcceptanceSpec":
        """A NaN in either parameter, a non-finite log_sup or a slack
        exp(log_scale) that underflows to 0 (log_scale below about -745, or
        -inf) raises DomainError: such a spec accepts every proposal, or none
        with r <= M. The slack solve never goes below log(1/K) > -710.
        log_scale = +inf is the unit acceptance."""
        # both checks are written to fail on NaN
        if not abs(log_sup) < math.inf:
            raise DomainError(f"log envelope must be finite, got {log_sup!r}")
        if not math.exp(min(log_scale, 0.0)) > 0:
            raise DomainError(f"log slack {log_scale!r} leaves no acceptance above 0")
        return cls(kind="clipped", ratio=ratio, log_sup=log_sup, log_scale=log_scale)

    @classmethod
    def logistic(cls, ratio: RatioFn, log_sup: float, gamma: float) -> "AcceptanceSpec":
        """The DRS acceptance sigmoid(F) at shift gamma; a NaN or non-finite
        log_sup or gamma raises DomainError."""
        if not (abs(log_sup) < math.inf and abs(gamma) < math.inf):  # fails on NaN
            raise DomainError(f"DRS needs a finite envelope and shift, got {log_sup!r}, {gamma!r}")
        return cls(kind="logistic", ratio=ratio, log_sup=log_sup, log_scale=-gamma)

    @classmethod
    def from_table(cls, table: dict) -> "AcceptanceSpec":
        vals = np.asarray(list(table.values()), dtype=float)
        if not np.all((vals >= 0) & (vals <= 1)):  # also rejects NaN
            raise DomainError("table acceptance values must lie in [0, 1]")
        return cls(kind="table", table=dict(table))

    # -- evaluation ----------------------------------------------------------

    def accept_prob(self, x) -> np.ndarray | float:
        """Acceptance probability at x (vectorized over proposal batches).

        Scalars and atom tuples are single proposals; lists and arrays are
        batches (2-d proposals arrive as (n, 2) arrays). An atom that a table
        or a finite ratio has no entry for raises DomainError.
        """
        scalar = np.isscalar(x) or isinstance(x, tuple)
        if self.kind == "unit":
            if scalar:
                return 1.0
            return np.ones(len(x))
        if self.kind == "table":
            try:
                if scalar:
                    return float(self.table[x])
                return np.array([self.table[a] for a in x], dtype=float)
            except KeyError as missing:
                atom = missing.args[0]
                raise DomainError(f"acceptance table has no entry for atom {atom!r}") from None
        a = self._of_log_ratio(self.ratio.log([x] if scalar else x))
        return float(a[0]) if scalar else a

    def _of_log_ratio(self, lr) -> np.ndarray:
        """A ratio-based acceptance from log-ratios already evaluated."""
        lr = np.atleast_1d(np.asarray(lr, dtype=float))
        if self.kind == "clipped":
            return np.exp(self.log_accept(lr))
        return np.exp(_log_sigmoid(_drs_logit(lr - self.log_sup, self.log_sup) + self.log_scale))


# ---------------------------------------------------------------------------
# Calibration: the exact slack solve and the budget policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleSolution(_LogScaled):
    """The calibrated acceptance min(scale * r / M, 1) and its rate E_model[a].

    log_sup = log M is the envelope over the model view; log_scale = log c
    is +inf for ``unit``, 0 for ``unbudgeted`` and solved for ``budgeted``.
    """

    log_scale: float
    log_sup: float
    rate: float
    budget: float
    status: str  # "unit" | "unbudgeted" | "budgeted"


def _acceptance_rate(log_r: np.ndarray, weights: np.ndarray, log_shift: float) -> float:
    return float(np.dot(weights, np.exp(_log_accept(log_r, log_shift))))


def _solve_log_shift(
    log_r: np.ndarray, weights: np.ndarray, target_rate: float
) -> tuple[float, float]:
    """Exact log-shift s with sum_i w_i min(exp(log_r_i + s), 1) = target_rate.

    log_r is relative to the envelope. Over the live points (w > 0, r > 0)
    the rate in t = e^s is W_S + t U_S, S the points saturated at s, W_S
    their mass and U_S the sum of w e^l over the rest: concave and piecewise
    linear, so a Newton step started left of the root lands left of it,
    one or more segments nearer. The start s0 = log(target) - log sum w e^l
    is left of the root, since min(x, 1) <= x. A step that saturates no new
    point lies on the segment it was solved on and is the root in closed
    form. A view of at most ``_SORT_POINTS`` live points, one still
    unsolved after ``_NEWTON_PASSES`` steps, and one whose Newton root
    measures more than ``_RATE_TOL`` from the target go to
    ``_sort_and_scan``. Returns (s, the rate measured at s); a target
    outside (0, live mass] raises ConvergenceError.
    """
    live = (weights > 0) & (log_r > -np.inf)
    lr, w = log_r[live], weights[live]
    if len(lr) > _SORT_POINTS and 0 < target_rate < float(np.sum(w)):
        log_shift = _newton_from_left(lr, w, target_rate)
        if log_shift is not None:
            rate = _acceptance_rate(log_r, weights, log_shift)
            if abs(rate - target_rate) <= _RATE_TOL:
                return log_shift, rate
    log_shift = _sort_and_scan(lr, w, target_rate)
    return log_shift, _acceptance_rate(log_r, weights, log_shift)


def _newton_from_left(lr: np.ndarray, w: np.ndarray, target_rate: float) -> float | None:
    """s at the root, or None after ``_NEWTON_PASSES`` steps or a step that
    rounding put past the root."""
    l_max = float(np.max(lr))
    # sum w e^(l - l_max), raised by the floor: s only starts further left
    unclipped = float(w @ np.exp(np.maximum(lr - l_max, _LOG_FLOOR)))
    s = math.log(target_rate) - l_max - math.log(unclipped)
    n_sat, mass, log_rest = _split_at(lr, w, s)
    for _ in range(_NEWTON_PASSES):
        gap = target_rate - mass
        if not (gap > 0 and log_rest > -math.inf):
            return None
        step = s + math.log(gap) - log_rest
        n_step, mass, log_rest = _split_at(lr, w, step)
        # saturated sets are nested, so an equal count means the same set:
        # the step lies on the segment it was solved on
        if n_step == n_sat:
            return step
        s, n_sat = step, n_step
    return None


def _split_at(lr: np.ndarray, w: np.ndarray, log_shift: float) -> tuple[int, float, float]:
    """(saturated count, saturated mass, log of sum w e^(l + s) over the rest) at s.

    The rest's exponents are shifted by their largest and raised to
    _LOG_FLOOR, so exp stays off its slow subnormal path: a point more than
    700 below the largest adds at most e^-700 of its weight against the
    largest's whole weight. The saturated points, sent to the floor with
    them, are taken out again as their mass times e^-700.
    """
    x = lr + log_shift
    sat = x >= 0
    n_sat, mass = int(np.count_nonzero(sat)), float(w @ sat)
    x[sat] = -np.inf
    top = float(x.max())
    if top == -math.inf:
        return n_sat, mass, -math.inf
    x -= top
    np.maximum(x, _LOG_FLOOR, out=x)
    rest = float(w @ np.exp(x, out=x)) - mass * math.exp(_LOG_FLOOR)
    return n_sat, mass, top + math.log(rest) if rest > 0 else -math.inf


def _sort_and_scan(lr: np.ndarray, w: np.ndarray, target_rate: float) -> float:
    """The log-shift by a full sort of live points (w > 0, lr > -inf).

    Sort by decreasing log-ratio l_1 >= l_2 >= ...; for s between -l_k and
    -l_(k+1) the first k are saturated and the rate is W_k + e^s T_(k+1),
    W the prefix sums of w and T the suffix sums of w e^l (kept in log
    space). The rates at the knots s = -l_k bracket the target in one
    segment, where s has a closed form.
    """
    order = np.argsort(-lr)
    lr = lr[order]
    w = w[order]
    saturated = np.cumsum(w)
    log_tail = np.logaddexp.accumulate((np.log(w) + lr)[::-1])[::-1]
    # the rate at knot k, where point k is just saturated
    knots = saturated - w + np.exp(log_tail - lr)
    top = float(knots[-1]) if len(knots) else 0.0
    if not 0 < target_rate <= top:
        raise ConvergenceError(f"target rate {target_rate} outside the reachable (0, {top}]")
    k = int(np.searchsorted(knots, target_rate))
    # on the segment ending at knot k, points 0..k-1 are saturated; the
    # closed form re-sums both sides pairwise, which the running sums are not
    gap = target_rate - float(np.sum(w[:k]))
    tail = float(np.sum(w[k:] * np.exp(lr[k:] - lr[k])))
    log_shift = math.log(gap / tail) - float(lr[k]) if gap > 0 else -math.inf
    log_shift = min(log_shift, -float(lr[k]))
    if k:
        log_shift = max(log_shift, -float(lr[k - 1]))
    return log_shift


def calibrate(log_r, weights, budget: float) -> ScaleSolution:
    """Calibrate min(c * r / M, 1) to rate 1/budget on a weighted model view.

    log_r are log-ratios log(target/model) at the view's points and weights
    their model masses. The envelope M is the largest ratio among points of
    positive weight. budget = 1 accepts everything (status ``unit``);
    budget >= M needs no slack beyond the classical sampler (c = 1, status
    ``unbudgeted``); otherwise c is solved exactly (status ``budgeted``).
    The returned rate is E[a] measured at the solution. A budget below 1 or
    NaN, negative or NaN weights, and NaN or +inf log-ratios at points of
    positive weight raise DomainError; a view with no target mass raises
    EstimationError.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1 proposal per kept sample")
    log_r = np.asarray(log_r, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if log_r.shape != weights.shape or not np.all(weights >= 0):
        raise DomainError("weights must be nonnegative, one per log-ratio")
    live = weights > 0
    if not np.all(live):
        log_r, weights = log_r[live], weights[live]
    if not len(log_r):
        raise EstimationError("model view carries no mass")
    log_sup = float(np.max(log_r))
    if math.isnan(log_sup) or log_sup == math.inf:
        raise DomainError("log-ratios must be below +inf and not NaN where the model has mass")
    if log_sup == -math.inf:
        raise EstimationError("target has no mass on the model view")
    rel = log_r - log_sup
    if budget == 1.0:
        status, log_scale = "unit", math.inf
    elif math.log(budget) >= log_sup:
        status, log_scale = "unbudgeted", 0.0
    else:
        log_scale, rate = _solve_log_shift(rel, weights, 1.0 / budget)
        return ScaleSolution(log_scale, log_sup, rate, budget, "budgeted")
    rate = _acceptance_rate(rel, weights, log_scale)
    return ScaleSolution(log_scale, log_sup, rate, budget, status)


def _match_gamma(
    logit: np.ndarray, weights: np.ndarray, target_rate: float, start: float
) -> tuple[float, float]:
    """The DRS shift gamma with sum_i w_i sigmoid(F_i - gamma) = target_rate.

    logit are the F_i at gamma = 0 (``_drs_logit``). The rate falls strictly
    in gamma, from the mass W of the live points (w > 0, F > -inf) to 0, so a
    target in (0, W) has one root. Every sigmoid is at least t/W at
    gamma = min F - logit(t/W) and at most t/W at max F - logit(t/W): that
    brackets it. Newton starts at start, clamped into the bracket, and a
    step that leaves the bracket falls back to bisection. Returns (gamma, the
    rate measured at gamma); a target outside (0, W), or a rate that ends
    more than 1e-12 from it, raises ConvergenceError.
    """
    live = (weights > 0) & (logit > -np.inf)
    f, w = logit[live], weights[live]
    mass = float(np.sum(w))
    if not 0 < target_rate < mass:
        raise ConvergenceError(f"target rate {target_rate} outside the reachable (0, {mass})")
    p = target_rate / mass
    shift = math.log(p) - math.log1p(-p)
    lo, hi = float(np.min(f)) - shift, float(np.max(f)) - shift
    gamma = min(max(start, lo), hi)
    best = (math.inf, gamma, math.nan)
    for _ in range(200):  # Newton takes a few passes; bisection alone, about 60
        a = np.exp(_log_sigmoid(f - gamma))
        rate = float(np.dot(w, a))
        best = min(best, (abs(rate - target_rate), gamma, rate))
        if rate == target_rate:
            break
        if rate > target_rate:
            lo = gamma
        else:
            hi = gamma
        slope = float(np.dot(w, a * (1.0 - a)))  # -d rate / d gamma
        step = gamma + (rate - target_rate) / slope if slope > 0 else math.nan
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if nxt == gamma:
            break
        gamma = nxt
    err, gamma, rate = best
    if not err <= _RATE_TOL:
        raise ConvergenceError(
            f"DRS rate {rate!r} misses {target_rate!r} by more than {_RATE_TOL:g}"
        )
    return gamma, rate


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
) -> SampleResult:
    """Draw proposals from the model until n_target pass a(x)-thinning.

    Deterministic given the rng state. Raises
    BudgetExhaustedError, carrying the partial count, if max_draws proposals
    are examined before the quota fills. Before any draw it raises
    DomainError if n_target is not an integer >= 1, max_draws not None or an
    integer >= 0, the spec cannot read a live atom of a finite model or its
    exact rate there is 0, and SupportMismatchError if the spec's table or
    ratio is of the other family than the model.
    """
    return rejection_sample_shared(model, (spec,), n_target, rng, max_draws)[0]


def rejection_sample_shared(
    model: Distribution,
    specs: Sequence[AcceptanceSpec],
    n_target: int,
    rng: np.random.Generator,
    max_draws: int | None = None,
) -> list[SampleResult]:
    """Thin one proposal stream with every spec, each to its own quota.

    Each batch of proposals and of uniforms is drawn once. On a finite model
    each spec's acceptance is resolved once per live atom before any draw,
    with one ``ratio.log`` per ratio evaluator, and a batch of atom indices
    reads it; on a mixture model a batch's log-ratios are evaluated once per
    ratio evaluator while a spec that uses it still needs samples. Result i
    is bit for bit what ``rejection_sample(model, specs[i], n_target, rng,
    max_draws)`` returns from the same rng state, and the rng ends where the
    spec that draws longest leaves it. When max_draws run out, the
    BudgetExhaustedError is that of the first spec still short of its quota.
    Before any draw, bad counts, an atom a spec cannot read and an exact
    rate 0 under a finite model raise DomainError; a table, finite or
    mixture acceptance on a model of the other family raises
    SupportMismatchError.
    """
    n_target = _count(n_target, "samples to keep", 1)
    if max_draws is not None:
        max_draws = _count(max_draws, "proposals to examine", 0)
    finite = isinstance(model, FiniteDist)
    family = "finite" if finite else "mixture"
    for spec in specs:
        kind = "finite" if spec.kind == "table" else spec.ratio and spec.ratio.kind
        if kind in ("finite", "mixture") and kind != family:
            raise SupportMismatchError(f"a {kind} acceptance cannot thin {model!r}")
    if finite:
        live = np.flatnonzero(model.probs > 0)
        atoms, log_r = model._atoms_at(live), {}
        per_atom = [np.zeros(len(model)) for _ in specs]  # 0 at zero-mass atoms
        for a, spec in zip(per_atom, specs):
            a[live] = _accept_at(spec, atoms, log_r)
            # the exact acceptance rate; at 0 the loop below would never return
            if not np.dot(model.probs[live], a[live]) > 0:
                raise DomainError("acceptance rate is 0 under the model: no proposal can pass")
    kept: list[list] = [[] for _ in specs]
    n_kept = [0] * len(specs)
    draws_used = [0] * len(specs)
    active = list(range(len(specs)))
    examined = 0
    while active:
        batch = _BATCH
        if max_draws is not None:
            batch = min(batch, max_draws - examined)
            if batch <= 0:
                short = n_kept[active[0]]
                raise BudgetExhaustedError(
                    f"max_draws={max_draws} exhausted with {short}/{n_target} accepted",
                    accepted=short,
                    draws_used=examined,
                )
        # draws: mixture points, or a finite model's atom indices
        draws = model._draw(rng, batch) if finite else model.sample(rng, batch)
        u = rng.random(batch)
        examined += batch
        log_r = {}
        for i in list(active):
            a = per_atom[i][draws] if finite else _accept_at(specs[i], draws, log_r)
            hits = np.flatnonzero(u < a)
            if not hits.size:
                continue
            take = hits[: n_target - n_kept[i]]
            kept[i].append(draws[take])
            n_kept[i] += len(take)
            if n_kept[i] == n_target:
                draws_used[i] = examined - batch + int(take[-1]) + 1
                active.remove(i)
    results = []
    for samples, used in zip(kept, draws_used):
        samples = np.concatenate(samples) if len(samples) > 1 else samples[0]
        if finite:
            samples = model._atoms_at(samples)
        results.append(SampleResult(samples=samples, accepted=n_target, draws_used=used))
    return results


def _accept_at(spec: AcceptanceSpec, xs, log_r: dict) -> np.ndarray:
    """spec's acceptance at the proposals xs; log_r caches their log-ratios
    by evaluator identity, so specs that share an evaluator share one call."""
    if spec.ratio is None:
        return np.asarray(spec.accept_prob(xs), dtype=float)
    key = id(spec.ratio)
    if key not in log_r:
        log_r[key] = spec.ratio.log(xs)
    return spec._of_log_ratio(log_r[key])


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
    model atomwise; otherwise OutOfBallError carries the first violating
    atom. A candidate on another atom list raises SupportMismatchError.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1")
    if not candidate.same_support(model):
        raise SupportMismatchError("candidate and model must share one atom list")
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
    return AcceptanceSpec.from_table(table)


def _refined(target, model, budget, mode, eps, n, rng) -> tuple:
    """(ratio, view, sol, spec): ``refine`` with the view it calibrated on."""
    ratio = ratio_of(target, model)
    view = pair_view(target, model, mode, n, rng=rng)
    sol = calibrate(view.checked_log_r(), view.qw, budget)
    if sol.status == "unit":
        return ratio, view, sol, AcceptanceSpec.unit()
    if sol.status == "budgeted" and not abs(sol.rate - 1.0 / budget) <= eps:
        raise ConvergenceError(
            f"rate {sol.rate!r} misses 1/K = {1.0 / budget!r} by more than {eps:g}"
        )
    return ratio, view, sol, AcceptanceSpec.clipped(ratio, sol.log_sup, sol.log_scale)


def refine(
    target: Distribution,
    model: Distribution,
    budget: float,
    mode: str = "exact",
    eps: float = 1e-12,
    n: int = 4096,
    rng: np.random.Generator | None = None,
) -> tuple[AcceptanceSpec, ScaleSolution]:
    """One-call pipeline: ratio, model view, ``calibrate``, acceptance spec.

    The envelope and the slack are calibrated on one ``pair_view`` of the
    model: its atoms in exact mode, an n-node trapezoid grid of a 1-d
    mixture pair in quadrature mode, or one calibration sample of n >= 2
    model draws with rng in sample mode (a single draw is its own
    envelope), so a seeded run is fully reproducible. A budgeted rate more
    than eps from 1/budget raises ConvergenceError.
    """
    _, _, sol, spec = _refined(target, model, budget, mode, eps, n, rng)
    return spec, sol


def refine_with_drs(
    target: Distribution,
    model: Distribution,
    budget: float,
    mode: str = "exact",
    n: int = 4096,
    rng: np.random.Generator | None = None,
) -> tuple[AcceptanceSpec, AcceptanceSpec, ScaleSolution]:
    """``refine`` plus the rate-matched DRS acceptance: (spec, drs, sol).

    drs is the ``logistic`` acceptance on the same ratio and envelope, its
    gamma solved so that its rate on the same view is sol.rate within 1e-12:
    no second view and no further ratio evaluation. The obrs rate is held
    to 1/budget at the same 1e-12, so the call has one tolerance. At status
    ``unit`` both accept everything.
    """
    ratio, view, sol, spec = _refined(target, model, budget, mode, _RATE_TOL, n, rng)
    if sol.status == "unit":
        return spec, spec, sol
    logit = _drs_logit(view.log_r - sol.log_sup, sol.log_sup)
    # sigmoid(F) ~ e^F = r e^-gamma where r is small: the clipped c r / M
    gamma, _ = _match_gamma(logit, view.qw, sol.rate, sol.log_sup - sol.log_scale)
    return spec, AcceptanceSpec.logistic(ratio, sol.log_sup, gamma), sol
