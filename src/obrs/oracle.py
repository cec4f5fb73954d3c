"""Independent checks: brute-force optimality, improvement bounds, ball tests.

Everything here verifies the budgeted sampler from the outside. The
optimality sweep throws random feasible acceptance functions at a finite
instance and confirms none does better than the solved one for any
generator in the panel. The bound checks compare the refined divergence
against its closed-form guarantees, constructing the mixture witnesses
explicitly so a failure names the offending atom instead of just a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import FiniteDist, _count, pair_view
from .errors import DomainError, OutOfBallError
from .fdiv import (
    GENERATOR_PANEL,
    Generator,
    _acceptance_loss,
    _logsumexp,
    divergence_finite,
    renyi_divergence,
)
from .sampling import AcceptanceSpec, acceptance_from_target, refine, refined_finite

_FLOOR = 1e-4  # least mass of an atom in a random instance
_ACCEPT_FLOOR = 1e-6  # least acceptance of a random competitor
_RATE_TOL = 1e-9  # how far a random competitor's rate may miss 1/K
_BOUND_TOL = 1e-10  # slack allowed on a bound's inequality


# ---------------------------------------------------------------------------
# Random instances and feasible competitors
# ---------------------------------------------------------------------------


def random_instance(
    rng: np.random.Generator, n_atoms: int | None = None
) -> tuple[FiniteDist, FiniteDist]:
    """A random finite target/model pair on a shared support.

    Both probability vectors are Dirichlet draws floored at 1e-4 and
    renormalized, so every atom carries mass on both sides and all ratios
    stay in [1e-4-ish, 1e4-ish].
    """
    n = int(n_atoms) if n_atoms is not None else int(rng.integers(3, 33))
    atoms = list(range(n))
    dists = []
    for _ in range(2):
        v = np.maximum(rng.dirichlet(np.ones(n)), _FLOOR)
        dists.append(FiniteDist(atoms, v / math.fsum(v.tolist())))
    return dists[0], dists[1]


def random_feasible_acceptance(
    model: FiniteDist, budget: float, rng: np.random.Generator
) -> np.ndarray:
    """A random acceptance vector in [1e-6, 1] with E_model[a] = 1/budget to 1e-9.

    Starts from uniform noise, pulls it onto the rate constraint
    multiplicatively, then finishes with exact water-filling moves (raising
    everything toward 1 or lowering toward the 1e-6 floor proportionally to
    the available headroom), which hit the constraint in one or two passes.
    """
    if not budget >= 1:  # also rejects NaN
        raise DomainError("budget must be at least 1")
    q = model.probs
    tau = 1.0 / budget
    if tau < _ACCEPT_FLOOR:
        raise DomainError("budget too large for the acceptance floor")
    a = rng.uniform(_ACCEPT_FLOOR, 1.0, len(q))
    for _ in range(3):  # in place; np.clip, minus its overhead
        a *= tau / float(np.dot(q, a))
        np.maximum(a, _ACCEPT_FLOOR, out=a)
        np.minimum(a, 1.0, out=a)
    for _ in range(4):
        s = math.fsum((q * a).tolist())
        delta = tau - s
        if abs(delta) <= _RATE_TOL:
            return a
        if delta > 0:
            head = 1.0 - a
            head *= delta / float(np.dot(q, head))
            a += head
        else:
            head = a - _ACCEPT_FLOOR
            head *= -delta / float(np.dot(q, head))
            a -= head
    s = math.fsum((q * a).tolist())
    if abs(s - tau) > _RATE_TOL:
        raise DomainError(f"could not hit rate {tau} (got {s})")
    return a


# ---------------------------------------------------------------------------
# Optimality sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenOptimality:
    """One generator's verdict from an optimality sweep."""

    gen_label: str
    refined_loss: float
    best_competitor_loss: float
    min_gap: float  # best competitor minus refined (negative = beaten)
    violations: int  # competitors beating the solved acceptance by > tol


@dataclass(frozen=True)
class OptimalityReport:
    budget: float
    trials: int
    tol: float
    per_gen: dict[str, GenOptimality] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(g.violations == 0 for g in self.per_gen.values())


def check_optimality(
    target: FiniteDist,
    model: FiniteDist,
    budget: float,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> OptimalityReport:
    """Throw ``trials`` random same-rate acceptances at every generator at once.

    The solved acceptance is computed once; each random competitor is
    evaluated under every generator of ``GENERATOR_PANEL``, so a single
    sweep tests that one acceptance function is simultaneously optimal for
    all of them. The competitors are drawn one by one and scored as one
    (trials, atoms) matrix, a loss per row as exact as a call per trial.
    trials must be an integer >= 1, else DomainError.
    """
    if rng is None:
        raise DomainError("check_optimality needs an rng")
    trials = _count(trials, "trials", 1)
    _, ref = _solved(target, model, budget)
    view = pair_view(target, model, "exact")
    log_a = np.log([random_feasible_acceptance(model, budget, rng) for _ in range(trials)])
    per_gen = {}
    for g in GENERATOR_PANEL:
        refined_loss = divergence_finite(g, target, ref.dist).value
        losses = _acceptance_loss(g, view, log_a).ravel()
        best = min(math.inf, *losses.tolist())
        per_gen[g.label] = GenOptimality(
            gen_label=g.label,
            refined_loss=refined_loss,
            best_competitor_loss=best,
            min_gap=best - refined_loss,
            violations=int(np.count_nonzero(losses < refined_loss - tol)),
        )
    return OptimalityReport(budget=budget, trials=trials, tol=tol, per_gen=per_gen)


# ---------------------------------------------------------------------------
# Improvement bounds
# ---------------------------------------------------------------------------


def _solved(target: FiniteDist, model: FiniteDist, budget: float) -> tuple:
    """(ScaleSolution, RefinedFinite) of a finite pair: one solve for all its checks."""
    spec, sol = refine(target, model, budget, mode="exact")
    return sol, refined_finite(model, spec)


@dataclass(frozen=True)
class BoundReport:
    """Refined divergence against its closed-form improvement guarantee.

    Divergences are shifted by -f(1) (a no-op except for gan) so both sides
    are nonnegative and the contraction factor applies cleanly.
    """

    gen_label: str
    budget: float
    lhs: float  # shifted refined divergence
    rhs: float  # contraction factor times shifted base divergence
    base: float  # shifted divergence before refinement
    alpha: float  # mixing weight of the witness, min(1, (budget-1)/sup_ratio)
    witness_divergence: float  # shifted divergence of the mixture witness
    witness_feasible: bool  # witness inside the budget ball, atom by atom
    witness_max_excess: float  # max over atoms of witness - budget*model
    satisfied: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def check_improvement_bound(
    gen: Generator,
    target: FiniteDist,
    model: FiniteDist,
    budget: float,
    tol: float = _BOUND_TOL,
) -> BoundReport:
    """Verify: refined divergence <= (1 - min(1, (K-1)/M)) * base divergence.

    The guarantee holds for every generator because the mixture witness
    p_a = model + a*(target - model) with a = min(1, (K-1)/M) lies inside
    the budget-K ball, and the refined distribution is at least as good as
    any ball member. Both the bound and the witness chain are evaluated.
    """
    solved = _solved(target, model, budget)
    return _improvement_bounds((gen,), target, model, budget, solved, tol)[0]


def _improvement_bounds(gens, target, model, budget, solved, tol=_BOUND_TOL) -> list[BoundReport]:
    """``check_improvement_bound`` for each of gens on an instance already
    ``_solved``; the witness depends on the instance alone and is built once."""
    sol, ref = solved
    sup = math.exp(sol.log_sup)
    alpha = min(1.0, (budget - 1.0) / sup)
    witness = model.probs + alpha * (target.probs - model.probs)
    witness_dist = FiniteDist(model.atoms, witness / math.fsum(witness.tolist()))
    max_excess = float(np.max(witness - budget * model.probs))
    reports = []
    for gen in gens:
        shift = -gen.f_at_one
        base = divergence_finite(gen, target, model).value + shift
        lhs = divergence_finite(gen, target, ref.dist).value + shift
        rhs = (1.0 - alpha) * base
        reports.append(BoundReport(
            gen_label=gen.label,
            budget=budget,
            lhs=lhs,
            rhs=rhs,
            base=base,
            alpha=alpha,
            witness_divergence=divergence_finite(gen, target, witness_dist).value + shift,
            witness_feasible=max_excess <= 1e-12,
            witness_max_excess=max_excess,
            satisfied=bool(lhs <= rhs + tol),
        ))
    return reports


@dataclass(frozen=True)
class KLRenyiReport:
    """The Renyi-interpolation form of the improvement guarantee for KL.

    This variant is *reported, never asserted*: its published derivation
    leans on an order comparison that runs the wrong way, and instances
    violating the stated inequality are easy to construct (the two-point
    canonical instance is one). ``satisfied`` records what happened.
    """

    budget: float
    order: float  # log(budget)/log(sup_ratio), the interpolation order
    kl: float
    renyi: float
    lhs: float  # KL(target || refined)
    rhs: float  # (1 - order) * (kl - renyi)
    satisfied: bool
    witness_feasible: bool
    witness_max_excess: float
    limit_case: str | None  # "unit_budget" | "budget_covers_ratio" | None


def check_kl_renyi_bound(target: FiniteDist, model: FiniteDist, budget: float) -> KLRenyiReport:
    """Evaluate the KL-specific bound (1-b)*(KL - Renyi_b), b = logK/logM.

    The geometric-mixture witness proportional to p^b * q^(1-b) is also
    checked against the ball constraint; its infeasibility is precisely why
    the inequality can fail, so the report carries the witness excess.
    """
    return _kl_renyi_bound(target, model, budget, _solved(target, model, budget))


def _kl_renyi_bound(target, model, budget, solved) -> KLRenyiReport:
    """``check_kl_renyi_bound`` on an instance already ``_solved``."""
    sol, ref = solved
    kl_gen = Generator.kl()
    kl = divergence_finite(kl_gen, target, model).value
    lhs = divergence_finite(kl_gen, target, ref.dist).value
    p, q = target.probs, model.probs
    live = (p > 0) & (q > 0)
    limit_case = None
    if sol.status == "unit":
        # order -> 0 limit: Renyi_0 is -log of the model mass on the target support
        order = 0.0
        renyi = -math.log(math.fsum(q[p > 0].tolist()))
        rhs = kl - renyi
        limit_case = "unit_budget"
        witness = np.where(live, q, 0.0)
    elif sol.status == "unbudgeted":
        order = 1.0
        renyi = kl
        rhs = 0.0
        limit_case = "budget_covers_ratio"
        witness = np.where(live, p, 0.0)
    else:
        order = math.log(budget) / sol.log_sup
        renyi = renyi_divergence(order, target, model)
        rhs = (1.0 - order) * (kl - renyi)
        lw = order * np.log(np.where(live, p, 1.0)) + (1.0 - order) * np.log(
            np.where(live, q, 1.0)
        )
        lw = np.where(live, lw, -np.inf)
        witness = np.exp(lw - _logsumexp(lw))
    excess = witness - budget * q
    return KLRenyiReport(
        budget=budget,
        order=order,
        kl=kl,
        renyi=renyi,
        lhs=lhs,
        rhs=rhs,
        satisfied=bool(lhs <= rhs + _BOUND_TOL),
        witness_feasible=bool(np.max(excess) <= 1e-12),
        witness_max_excess=float(np.max(excess)),
        limit_case=limit_case,
    )


# ---------------------------------------------------------------------------
# Budget-ball membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallReport:
    """Is a candidate reachable from the model within a sampling budget?"""

    member: bool
    max_log_ratio: float  # log sup candidate/model
    log_budget: float
    witness_atom: int | None  # first atom exceeding the ball, if any
    acceptance: AcceptanceSpec | None  # realizing table when member


def check_ball_membership(candidate: FiniteDist, model: FiniteDist, budget: float) -> BallReport:
    """Exact membership test for the budget ball around the model.

    A candidate is a member iff candidate <= budget * model atomwise
    (equivalently its max-divergence from the model is at most log budget),
    which ``acceptance_from_target`` decides: membership comes with the
    acceptance table that realizes it at rate exactly 1/budget, and the
    witness of a non-member is the first atom that table cannot reach.
    """
    try:
        spec, witness = acceptance_from_target(candidate, model, budget), None
    except OutOfBallError as exc:
        spec, witness = None, exc.atom_index
    view = pair_view(candidate, model, "exact")
    return BallReport(
        member=spec is not None,
        max_log_ratio=float(np.max(view.log_r[view.pw > 0])),  # inf at an orphan atom
        log_budget=math.log(budget),
        witness_atom=witness,
        acceptance=spec,
    )
