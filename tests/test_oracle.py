"""Brute-force optimality checks and the improvement guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obrs import (
    FiniteDist,
    acceptance_from_target,
    check_ball_membership,
    check_improvement_bound,
    check_kl_renyi_bound,
    check_optimality,
    divergence_finite,
    random_feasible_acceptance,
    random_instance,
    refine,
    refine_with_drs,
    refined_finite,
)
from obrs.dist import pair_view
from obrs.errors import DomainError, SupportMismatchError
from obrs.fdiv import GENERATOR_PANEL, Generator, _acceptance_loss, max_divergence
from obrs.oracle import GenOptimality, OptimalityReport, _solved


# ---------------------------------------------------------------------------
# Random instance and acceptance generators
# ---------------------------------------------------------------------------


def test_random_instance_is_valid(rng):
    for _ in range(50):
        target, model = random_instance(rng)
        assert target.same_support(model)
        assert 3 <= len(target.atoms) <= 32
        # floored at 1e-4 before renormalizing, so the effective floor is
        # 1e-4 / (1 + 32e-4)
        floor = 1e-4 / 1.0032
        assert np.all(target.probs >= floor)
        assert np.all(model.probs >= floor)
        assert math.fsum(target.probs.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_random_feasible_acceptance_hits_rate(rng):
    for _ in range(50):
        _, model = random_instance(rng)
        budget = float(rng.uniform(1.0, 5.0))
        a = random_feasible_acceptance(model, budget, rng)
        assert np.all(a >= 1e-6 - 1e-15)
        assert np.all(a <= 1.0 + 1e-15)
        rate = float(np.dot(model.probs, a))
        assert abs(rate - 1.0 / budget) <= 1e-9


def _out_of_place_feasible_acceptance(model, budget, rng):
    """random_feasible_acceptance as it was written before it worked in
    place: every pass builds a new array."""
    q = model.probs
    tau = 1.0 / budget
    a = rng.uniform(1e-6, 1.0, len(q))
    for _ in range(3):
        s = float(np.dot(q, a))
        a = np.minimum(np.maximum(a * (tau / s), 1e-6), 1.0)
    for _ in range(4):
        s = math.fsum((q * a).tolist())
        delta = tau - s
        if abs(delta) <= 1e-9:
            return a
        if delta > 0:
            head = 1.0 - a
            room = float(np.dot(q, head))
            a = a + head * (delta / room)
        else:
            head = a - 1e-6
            room = float(np.dot(q, head))
            a = a - head * (-delta / room)
    s = math.fsum((q * a).tolist())
    if abs(s - tau) > 1e-9:
        raise DomainError(f"could not hit rate {tau} (got {s})")
    return a


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_atoms=st.integers(1, 40),
    budget=st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 1e6)),
)
def test_random_feasible_acceptance_keeps_its_bits(seed, n_atoms, budget):
    # criterion 2's sweeps read these draws: working in place changed no bit
    _, model = random_instance(np.random.default_rng(seed), n_atoms)
    outcomes = []
    for draw in (random_feasible_acceptance, _out_of_place_feasible_acceptance):
        try:
            outcomes.append(draw(model, budget, np.random.default_rng(seed)).tobytes())
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Optimality of the budgeted acceptance
# ---------------------------------------------------------------------------


def test_no_feasible_competitor_wins(rng):
    target, model = random_instance(rng)
    sup = math.exp(max_divergence(target, model))
    budget = float(rng.uniform(1.0, sup))
    report = check_optimality(target, model, budget, trials=300, rng=rng)
    assert report.all_pass
    assert set(report.per_gen) == {g.label for g in GENERATOR_PANEL}
    for gen_report in report.per_gen.values():
        assert gen_report.violations == 0
        # the winner's margin over the field is nonnegative
        assert gen_report.min_gap >= -report.tol


@pytest.mark.parametrize("trials", [0, -1, 2.5, math.nan])
def test_check_optimality_needs_a_trial(two_point, trials):
    # with no trial the sweep reported all_pass = True
    with pytest.raises(DomainError):
        check_optimality(*two_point, 2.0, trials=trials, rng=np.random.default_rng(0))


def test_two_point_competitors_tie_at_best(two_point, rng):
    # with two atoms the feasible set is a segment whose endpoint is the
    # optimum, so random competitors can tie to solver precision -- but
    # never win by more than the tolerance
    target, model = two_point
    report = check_optimality(target, model, 2.0, trials=500, rng=rng)
    assert report.all_pass
    for gen_report in report.per_gen.values():
        assert gen_report.min_gap >= -report.tol
        assert gen_report.best_competitor_loss >= gen_report.refined_loss - report.tol


def _per_trial_report(target, model, budget, trials, rng, tol):
    """check_optimality as one _acceptance_loss call per trial and generator."""
    _, ref = _solved(target, model, budget)
    view = pair_view(target, model, "exact")
    refined = {g.label: divergence_finite(g, target, ref.dist).value for g in GENERATOR_PANEL}
    losses = {g.label: [] for g in GENERATOR_PANEL}
    for _ in range(trials):
        log_a = np.log(random_feasible_acceptance(model, budget, rng))
        for g in GENERATOR_PANEL:
            losses[g.label].append(_acceptance_loss(g, view, log_a))
    per_gen = {}
    for label, values in losses.items():
        best = min(values)
        per_gen[label] = GenOptimality(
            label, refined[label], best, best - refined[label],
            sum(v < refined[label] - tol for v in values),
        )
    return OptimalityReport(budget=budget, trials=trials, tol=tol, per_gen=per_gen)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_batched_sweep_equals_the_per_trial_loop(seed):
    rng = np.random.default_rng(seed)
    target, model = random_instance(rng)
    sup = math.exp(max_divergence(target, model))
    budget = float(np.exp(rng.uniform(0.0, math.log(sup))))
    state = rng.bit_generator.state
    batched = check_optimality(target, model, budget, trials=200, rng=rng)
    after = rng.random()
    rng.bit_generator.state = state
    assert _per_trial_report(target, model, budget, 200, rng, 1e-9) == batched
    assert rng.random() == after  # the same draws, in the same order


@given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.98))
def test_obrs_beats_the_published_drs_at_the_same_rate(seed, log_budget_share):
    # the paper's optimality claim against its named competitor: DRS, its
    # gamma matched to the exact rate 1/K, loses under every generator
    target, model = random_instance(np.random.default_rng(seed))
    budget = math.exp(log_budget_share * max_divergence(target, model))
    spec, drs, sol = refine_with_drs(target, model, budget)
    assert sol.status == "budgeted" and drs.kind == "logistic"
    obrs_ref, drs_ref = refined_finite(model, spec), refined_finite(model, drs)
    assert drs_ref.rate == pytest.approx(1 / budget, abs=1e-11)
    for gen in GENERATOR_PANEL:
        obrs_loss = divergence_finite(gen, target, obrs_ref.dist).value
        assert divergence_finite(gen, target, drs_ref.dist).value >= obrs_loss - 1e-9, gen.label


# ---------------------------------------------------------------------------
# General improvement bound (shifted form)
# ---------------------------------------------------------------------------


def test_two_point_kl_bound_values(two_point):
    target, model = two_point
    rep = check_improvement_bound(Generator.kl(), target, model, 2.0)
    assert rep.satisfied
    assert rep.alpha == pytest.approx(0.4, abs=1e-12)  # (K-1)/M = 1/2.5
    assert rep.base == pytest.approx(0.22314355131420976, abs=1e-12)
    assert rep.rhs == pytest.approx(0.13388613078852585, abs=1e-12)
    assert rep.lhs == pytest.approx(0.020410997260127565, abs=1e-7)
    assert rep.witness_feasible
    assert rep.witness_divergence == pytest.approx(0.06940120144022944, abs=1e-12)
    # the witness interpolation also respects the bound ordering
    assert rep.lhs <= rep.witness_divergence <= rep.rhs


def test_two_point_gan_bound_shifted_form(two_point):
    target, model = two_point
    rep = check_improvement_bound(Generator.gan(), target, model, 2.0)
    # gan divergences are negative; the bound is asserted in shifted form
    assert rep.lhs >= 0 and rep.rhs >= 0
    assert rep.satisfied
    assert rep.witness_feasible


def test_bound_across_panel_random_instances(rng):
    for _ in range(25):
        target, model = random_instance(rng)
        sup = math.exp(max_divergence(target, model))
        budget = float(np.exp(rng.uniform(0.0, math.log(sup))))
        for gen in GENERATOR_PANEL:
            rep = check_improvement_bound(gen, target, model, budget)
            assert rep.satisfied, (gen.label, budget)
            assert rep.witness_feasible
            assert rep.witness_max_excess <= 1e-12


def test_bound_trivial_at_unit_budget(two_point):
    target, model = two_point
    rep = check_improvement_bound(Generator.kl(), target, model, 1.0)
    # alpha = 0: the guarantee degenerates to lhs <= base
    assert rep.alpha == 0.0
    assert rep.rhs == pytest.approx(rep.base, abs=1e-12)
    assert rep.satisfied


def test_bound_zero_rhs_when_budget_covers(two_point):
    target, model = two_point
    rep = check_improvement_bound(Generator.kl(), target, model, 4.0)
    assert rep.alpha == 1.0
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.lhs <= 1e-9
    assert rep.satisfied


# ---------------------------------------------------------------------------
# KL--Renyi bound: reported, never asserted
# ---------------------------------------------------------------------------


def test_kl_renyi_two_point_is_violated(two_point):
    target, model = two_point
    rep = check_kl_renyi_bound(target, model, 2.0)
    assert rep.order == pytest.approx(0.7564707973660301, abs=1e-12)
    assert rep.renyi == pytest.approx(0.16491711522618544, abs=1e-12)
    assert rep.rhs == pytest.approx(0.014179837552734374, abs=1e-12)
    assert rep.lhs == pytest.approx(0.020410997260127565, abs=1e-7)
    assert not rep.satisfied  # lhs > rhs: the stated bound fails here
    assert not rep.witness_feasible
    assert rep.witness_max_excess > 0
    assert rep.limit_case is None


def test_kl_renyi_unit_budget_limit(two_point):
    target, model = two_point
    rep = check_kl_renyi_bound(target, model, 1.0)
    assert rep.limit_case == "unit_budget"
    assert rep.order == 0.0
    assert rep.lhs == pytest.approx(0.22314355131420976, abs=1e-9)


def test_kl_renyi_budget_covers_limit(two_point):
    target, model = two_point
    rep = check_kl_renyi_bound(target, model, 3.0)
    assert rep.limit_case == "budget_covers_ratio"
    assert rep.rhs == 0.0
    assert rep.satisfied  # lhs is ~0 here, so the degenerate bound holds


def test_kl_renyi_violation_rate_is_substantial(rng):
    # the stated bound fails on a sizable share of random instances,
    # which is why it is reported rather than asserted
    violations = 0
    checks = 0
    for _ in range(100):
        target, model = random_instance(rng)
        sup = math.exp(max_divergence(target, model))
        budget = float(np.exp(rng.uniform(0.0, math.log(sup))))
        rep = check_kl_renyi_bound(target, model, budget)
        checks += 1
        violations += 0 if rep.satisfied else 1
    assert checks == 100
    assert violations > 5


# ---------------------------------------------------------------------------
# Ball membership via max-divergence
# ---------------------------------------------------------------------------


def test_refined_distribution_is_on_ball_boundary(two_point):
    target, model = two_point
    spec, _ = refine(target, model, 2.0, mode="exact")
    refined = refined_finite(model, spec).dist
    rep = check_ball_membership(refined, model, 2.0)
    assert rep.member
    # the unclipped atom sits exactly at the K * model envelope
    assert rep.max_log_ratio == pytest.approx(math.log(2.0), abs=1e-7)
    assert rep.acceptance is not None


def test_target_outside_small_ball(two_point):
    target, model = two_point
    rep = check_ball_membership(target, model, 2.0)
    assert not rep.member
    assert rep.max_log_ratio == pytest.approx(math.log(2.5), abs=1e-12)
    assert rep.witness_atom == 1
    rep_wide = check_ball_membership(target, model, 2.5)
    assert rep_wide.member


def test_orphan_candidate_is_never_member():
    model = FiniteDist([0, 1], [1.0, 0.0])
    candidate = FiniteDist([0, 1], [0.5, 0.5])
    rep = check_ball_membership(candidate, model, 100.0)
    assert not rep.member
    assert rep.max_log_ratio == math.inf
    assert rep.witness_atom == 1


def test_membership_matches_bound_feasibility(rng):
    # p_alpha = q + alpha (p - q) with alpha = (K-1)/M always sits in the ball;
    # cross-check the two oracles against each other
    for _ in range(20):
        target, model = random_instance(rng)
        sup = math.exp(max_divergence(target, model))
        budget = float(rng.uniform(1.0, sup))
        alpha = min(1.0, (budget - 1.0) / sup)
        mix = model.probs + alpha * (target.probs - model.probs)
        witness = FiniteDist(model.atoms, mix / math.fsum(mix.tolist()))
        rep = check_ball_membership(witness, model, budget * (1 + 1e-9))
        assert rep.member, (budget, rep.max_log_ratio)


@pytest.mark.parametrize(
    "candidate",
    [
        FiniteDist([0, 1, 2], [0.2, 0.3, 0.5]),  # another length: numpy raised a bare ValueError
        FiniteDist(["a", "b"], [0.5, 0.5]),  # same length, other labels
    ],
)
def test_candidate_on_another_atom_list_is_a_support_mismatch(candidate):
    model = FiniteDist([0, 1], [0.5, 0.5])
    with pytest.raises(SupportMismatchError):
        check_ball_membership(candidate, model, 2.0)
    with pytest.raises(SupportMismatchError):
        acceptance_from_target(candidate, model, 2.0)
