"""Acceptance functions, the scale solver, and rejection sampling."""

import contextlib
import dataclasses
import math
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obrs import (
    AcceptanceSpec,
    BudgetExhaustedError,
    DomainError,
    FiniteDist,
    ObrsError,
    OutOfBallError,
    RatioFn,
    SampleResult,
    SupportMismatchError,
    acceptance_from_target,
    bimodal_target,
    budgeted_loss,
    calibrate,
    check_ball_membership,
    gaussian_grid_2d,
    pr_curve,
    predict_refined_curve,
    random_feasible_acceptance,
    random_instance,
    ratio_of,
    refine,
    refine_with_drs,
    refined_finite,
    rejection_sample,
    rejection_sample_shared,
    single_gaussian,
)
from obrs.dist import pair_view
from obrs.errors import ConvergenceError
from obrs.fdiv import Generator
from obrs.sampling import _DRS_EPS, _drs_logit, _match_gamma, _solve_log_shift


def _exact_view(target, model):
    """Log-ratios and model weights over a finite model's atoms."""
    return ratio_of(target, model).log(model.atoms), model.probs


# ---------------------------------------------------------------------------
# Envelope estimation
# ---------------------------------------------------------------------------


def test_sup_ratio_exact(two_point):
    sol = calibrate(*_exact_view(*two_point), budget=2.0)
    assert sol.sup_ratio == pytest.approx(2.5, abs=1e-12)


def test_sup_ratio_modes_agree(mixture_pair, rng):
    # quadrature and sample calibration both probe the same envelope; with a dense
    # grid and a big sample they agree to a percent (either can sit closer
    # to the true maximizer)
    target, model = mixture_pair
    grid_sup = refine(target, model, 2.0, mode="quadrature")[1].sup_ratio
    sample_sup = refine(target, model, 2.0, mode="sample", n=5000, rng=rng)[1].sup_ratio
    assert sample_sup == pytest.approx(grid_sup, rel=0.01)


# ---------------------------------------------------------------------------
# The scale solver
# ---------------------------------------------------------------------------


def test_two_point_scale(two_point):
    sol = calibrate(*_exact_view(*two_point), budget=2.0)
    assert sol.status == "budgeted"
    assert abs(sol.rate - 0.5) <= 1e-9
    assert sol.scale == pytest.approx(1.5, abs=1e-7)


def test_unit_budget_status(two_point):
    sol = calibrate(*_exact_view(*two_point), budget=1.0)
    assert sol.status == "unit"
    assert sol.rate == pytest.approx(1.0)
    assert sol.scale == math.inf


def test_budget_covering_ratio_status(two_point):
    sol = calibrate(*_exact_view(*two_point), budget=3.0)
    assert sol.status == "unbudgeted"
    assert sol.scale == 1.0
    # classical rejection rate: 1/M
    assert sol.rate == pytest.approx(1.0 / 2.5, abs=1e-12)


def test_budget_below_one_rejected(two_point):
    with pytest.raises(DomainError):
        calibrate(*_exact_view(*two_point), budget=0.5)


def test_nan_budget_rejected(two_point, mixture_pair, rng):
    # NaN passes a "budget < 1" guard and then solves for a meaningless rate
    target, model = two_point
    calls = [
        lambda b: calibrate(*_exact_view(target, model), budget=b),
        lambda b: refine(target, model, b, mode="exact"),
        lambda b: acceptance_from_target(target, model, b),
        lambda b: random_feasible_acceptance(model, b, rng),
        lambda b: check_ball_membership(target, model, b),
        lambda b: budgeted_loss(Generator.gan(), *mixture_pair, b, mode="quadrature", n_nodes=64),
        lambda b: predict_refined_curve(pr_curve(target, model, [1.0]), b, 1.0, 2.5),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="budget"):
            call(math.nan)


def test_infinite_budget_is_unbudgeted(two_point):
    target, model = two_point
    spec, sol = refine(target, model, math.inf, mode="exact")
    assert sol.status == "unbudgeted"
    assert sol.rate == pytest.approx(1.0 / 2.5, abs=1e-12)
    sol = calibrate(*_exact_view(target, model), budget=math.inf)
    assert sol.status == "unbudgeted"


def test_rate_hits_target_across_budgets(two_point):
    view = _exact_view(*two_point)
    for budget in (1.1, 1.5, 2.0, 2.4):
        sol = calibrate(*view, budget=budget)
        assert abs(sol.rate - 1.0 / budget) <= 1e-9, budget


def test_extreme_mismatch_saturates_but_solves():
    # far-off narrow model: the required scale overflows float range, the
    # log-space solution is still exact
    target = bimodal_target()
    model = single_gaussian(3.0, 0.2)
    spec, sol = refine(target, model, 2.0, mode="quadrature", eps=1e-9)
    assert abs(sol.rate - 0.5) <= 1e-9
    assert math.isfinite(spec.log_scale) or spec.scale == math.inf


# ---------------------------------------------------------------------------
# Acceptance functions
# ---------------------------------------------------------------------------


def test_two_point_acceptance_values(two_point):
    target, model = two_point
    spec, sol = refine(target, model, 2.0, mode="exact")
    a = spec.accept_prob(model.atoms)
    np.testing.assert_allclose(a, [0.375, 1.0], atol=1e-7)
    assert spec.accept_prob(0) == pytest.approx(0.375, abs=1e-7)


def test_refined_two_point_distribution(two_point):
    target, model = two_point
    spec, sol = refine(target, model, 2.0, mode="exact")
    ref = refined_finite(model, spec)
    np.testing.assert_allclose(ref.dist.probs, [0.6, 0.4], atol=1e-7)
    assert ref.rate == pytest.approx(0.5, abs=1e-9)


def test_unit_spec_accepts_everything():
    spec = AcceptanceSpec.unit()
    assert spec.accept_prob(3.7) == 1.0
    np.testing.assert_array_equal(spec.accept_prob(np.zeros(5)), np.ones(5))


def test_unbudgeted_spec_is_classical_thinning(two_point):
    target, model = two_point
    spec = AcceptanceSpec.clipped(ratio_of(target, model), math.log(2.5))
    a = spec.accept_prob(model.atoms)
    np.testing.assert_allclose(a, [0.625 / 2.5, 1.0], atol=1e-12)


def test_acceptance_clips_at_one(mixture_pair):
    target, model = mixture_pair
    spec, _ = refine(target, model, 2.0, mode="quadrature")
    xs = np.linspace(-6, 6, 201)
    a = spec.accept_prob(xs)
    assert np.all(a <= 1.0) and np.all(a >= 0.0)
    assert np.max(a) == pytest.approx(1.0)


def test_drs_matched_rate_equals_budgeted(two_point):
    target, model = two_point
    r = ratio_of(target, model)
    spec, sol = refine(target, model, 2.0, mode="exact")
    log_c, _ = _solve_log_shift(r.log(model.atoms) - math.log(2.5), model.probs, 0.5)
    gamma = -log_c
    drs = AcceptanceSpec.clipped(r, math.log(2.5), -gamma)
    np.testing.assert_allclose(
        drs.accept_prob(model.atoms), spec.accept_prob(model.atoms), atol=1e-9
    )
    assert gamma == pytest.approx(-math.log(1.5), abs=1e-7)


def test_drs_gamma_zero_is_classical(two_point):
    target, model = two_point
    r = ratio_of(target, model)
    log_c, _ = _solve_log_shift(r.log(model.atoms) - math.log(2.5), model.probs, 1.0 / 2.5)
    assert -log_c == pytest.approx(0.0, abs=1e-7)


# ---------------------------------------------------------------------------
# refine() calibration modes
# ---------------------------------------------------------------------------


def test_refine_sample_mode_tracks_exact(mixture_pair, rng):
    target, model = mixture_pair
    spec, sol = refine(target, model, 2.0, mode="sample", n=20000, rng=rng)
    assert sol.status == "budgeted"
    assert abs(sol.rate - 0.5) <= 1e-6
    gspec, gsol = refine(target, model, 2.0, mode="quadrature")
    # calibration noise only: the two acceptance functions roughly agree
    xs = np.linspace(-4, 4, 9)
    np.testing.assert_allclose(spec.accept_prob(xs), gspec.accept_prob(xs), rtol=0.2)


@pytest.mark.parametrize("n", [0, 1])
def test_refine_sample_mode_needs_two_points(mixture_pair, n):
    # one draw is its own envelope: it would read unbudgeted at rate 1.0
    target, model = mixture_pair
    with pytest.raises(DomainError, match="calibration"):
        refine(target, model, 2.0, mode="sample", n=n, rng=np.random.default_rng(0))


@pytest.mark.parametrize("budget", [1.0, 1.7, 3.0, 40.0])
@pytest.mark.parametrize("pair", [
    random_instance(np.random.default_rng(5), n_atoms=40),
    (bimodal_target(), single_gaussian(0.0, 1.5)),
    (gaussian_grid_2d(0.05), gaussian_grid_2d(0.1, weights=np.full(25, 0.04))),
], ids=["finite", "1-d", "2-d"])
def test_refine_sample_mode_is_calibrate_on_the_ratio_at_model_draws(pair, budget):
    # sample mode is calibrate on the log-ratios at n model draws, weighted 1/n
    target, model = pair
    n = 3000
    _, sol = refine(target, model, budget, mode="sample", n=n, rng=np.random.default_rng(31))
    lr = ratio_of(target, model).log(model.sample(np.random.default_rng(31), n))
    assert sol == calibrate(lr, np.full(n, 1.0 / n), budget)


def test_refine_exact_needs_finite_model(mixture_pair):
    target, model = mixture_pair
    with pytest.raises(DomainError):
        refine(target, model, 2.0, mode="exact")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_rejection_sample_deterministic(mixture_pair):
    target, model = mixture_pair
    spec, _ = refine(target, model, 2.0, mode="sample", n=5000,
                     rng=np.random.default_rng(1))
    a = rejection_sample(model, spec, 500, np.random.default_rng(42))
    b = rejection_sample(model, spec, 500, np.random.default_rng(42))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.draws_used == b.draws_used
    assert a.accepted == 500


def test_rejection_sample_rate_tracks_budget(mixture_pair):
    target, model = mixture_pair
    spec, sol = refine(target, model, 2.0, mode="sample", n=20000,
                       rng=np.random.default_rng(2))
    res = rejection_sample(model, spec, 20000, np.random.default_rng(3))
    assert res.rate == pytest.approx(0.5, abs=0.02)


def test_rejection_sample_improves_target_fit(mixture_pair):
    target, model = mixture_pair
    spec, _ = refine(target, model, 3.0, mode="sample", n=20000,
                     rng=np.random.default_rng(4))
    raw = model.sample(np.random.default_rng(5), 4000)
    ref = rejection_sample(model, spec, 4000, np.random.default_rng(5)).samples
    # target puts ~95% of its mass in |x| in [1, 3]; refinement must help
    def band(xs):
        xs = np.abs(np.asarray(xs))
        return float(np.mean((xs >= 1.0) & (xs <= 3.0)))

    assert band(ref) > band(raw) + 0.2


def test_budget_exhaustion_carries_partial_counts(two_point):
    target, model = two_point
    spec, _ = refine(target, model, 2.0, mode="exact")
    with pytest.raises(BudgetExhaustedError) as err:
        rejection_sample(model, spec, 10_000, np.random.default_rng(0), max_draws=50)
    assert err.value.draws_used == 50
    assert 0 < err.value.accepted < 10_000


def test_rejection_sample_finite_atoms(two_point):
    target, model = two_point
    spec, _ = refine(target, model, 2.0, mode="exact")
    res = rejection_sample(model, spec, 2000, np.random.default_rng(7))
    freq1 = np.mean([x == 1 for x in res.samples])
    # refined mass at atom 1 is 0.4 (vs 0.2 for the raw model)
    assert freq1 == pytest.approx(0.4, abs=0.05)


# ---------------------------------------------------------------------------
# Table acceptances and the feasibility ball
# ---------------------------------------------------------------------------


def test_acceptance_from_target_recovers_refined(two_point):
    target, model = two_point
    candidate = FiniteDist([0, 1], [0.6, 0.4])
    spec = acceptance_from_target(candidate, model, 2.0)
    assert spec.kind == "table"
    np.testing.assert_allclose(spec.accept_prob(model.atoms), [0.375, 1.0], atol=1e-12)


def test_acceptance_from_target_outside_ball(two_point):
    target, model = two_point
    # the target itself needs acceptance 1.25 at atom 1: out of the K=2 ball
    with pytest.raises(OutOfBallError) as err:
        acceptance_from_target(target, model, 2.0)
    assert err.value.atom_index == 1


def test_acceptance_from_target_orphan_atom():
    model = FiniteDist([0, 1], [1.0, 0.0])
    candidate = FiniteDist([0, 1], [0.5, 0.5])
    with pytest.raises(OutOfBallError):
        acceptance_from_target(candidate, model, 4.0)


@contextlib.contextmanager
def _time_limit(seconds):
    """Turn a hang into a test failure instead of a stuck suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "model, table",
    [
        (FiniteDist([0, 1], [0.5, 0.5]), {0: 0.0, 1: 0.0}),
        # the only positive acceptance sits on an atom the model never draws
        (FiniteDist([0, 1, 2], [0.5, 0.5, 0.0]), {0: 0.0, 1: 0.0, 2: 1.0}),
    ],
)
def test_rejection_sample_zero_rate_raises(model, table):
    spec = AcceptanceSpec.from_table(table)
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    with _time_limit(5.0), pytest.raises(DomainError, match="rate"):
        rejection_sample(model, spec, 10, rng)
    assert rng.bit_generator.state == state


def test_rejection_sample_positive_rate_table_on_zero_mass_atom():
    # a table may leave out atoms the model never draws
    model = FiniteDist([0, 1, 2], [0.5, 0.5, 0.0])
    spec = AcceptanceSpec.from_table({0: 0.25, 1: 1.0})
    with _time_limit(5.0):
        res = rejection_sample(model, spec, 200, np.random.default_rng(12))
    assert res.accepted == 200
    assert set(res.samples) <= {0, 1}


@given(
    st.one_of(st.floats(), st.integers(max_value=0), st.booleans()),
    st.one_of(st.floats(), st.integers(max_value=-1), st.booleans()),
)
def test_rejection_sample_rejects_a_bad_count_before_drawing(n_target, max_draws):
    # floats, NaN and inf raised TypeError or, after drawing, IndexError;
    # True kept one sample and capped the draws at one
    model, spec = single_gaussian(0.0, 1.0), AcceptanceSpec.unit()
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        rejection_sample(model, spec, n_target, rng)
    with pytest.raises(DomainError):
        rejection_sample(model, spec, 10, rng, max_draws=max_draws)
    assert rng.bit_generator.state == state


def _unreadable_atom_calls():
    """Calls whose spec cannot read a live atom of the model; each raised a
    bare KeyError."""
    model = FiniteDist([0, 1, 2], [0.5, 0.25, 0.25])
    table = AcceptanceSpec.from_table({0: 0.5, 1: 1.0})
    other = ratio_of(*(FiniteDist([5, 6, 7], d.probs) for d in (model, model)))
    foreign = AcceptanceSpec.clipped(other, 0.0)
    return {
        "table": lambda rng: rejection_sample(model, table, 10, rng),
        "ratio on other atoms": lambda rng: rejection_sample(model, foreign, 10, rng),
        "refined table": lambda rng: refined_finite(model, table),
        "accept_prob": lambda rng: AcceptanceSpec.from_table({0: 0.5}).accept_prob(3),
    }


@pytest.mark.parametrize("case", list(_unreadable_atom_calls()))
def test_atom_a_spec_cannot_read_raises_domain_error(case):
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="is not an atom|has no entry for atom"):
        _unreadable_atom_calls()[case](rng)
    assert rng.bit_generator.state == state


def test_finite_specs_on_one_evaluator_read_it_once_at_the_live_atoms():
    # several batches, two specs, one evaluation at the two live atoms
    target = FiniteDist(["a", "b", "c"], [0.25, 0.75, 0.0])
    model = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
    ratio = ratio_of(target, model)
    log_sup = math.log(1.5)
    specs = [AcceptanceSpec.clipped(ratio, log_sup), AcceptanceSpec.logistic(ratio, log_sup, 0.0)]
    rejection_sample_shared(model, specs, 20000, np.random.default_rng(19))
    assert ratio.calls == 2


def _mixture_spec():
    return refine(bimodal_target(), single_gaussian(0.0, 1.5), 2.0, mode="quadrature")[0]


def _finite_spec():
    target, model = random_instance(np.random.default_rng(17), n_atoms=3)
    return AcceptanceSpec.clipped(ratio_of(target, model), 0.0)


@pytest.mark.parametrize(
    "model, spec",
    [
        # sampled at rate 0.77 from mixture densities at the atom labels
        (FiniteDist([0, 1, 2], [0.25, 0.5, 0.25]), _mixture_spec()),
        # the next two raised a bare KeyError at the first batch
        (single_gaussian(0.0, 1.5), _finite_spec()),
        (single_gaussian(0.0, 1.5), AcceptanceSpec.from_table({0: 0.5, 1: 1.0})),
    ],
    ids=["mixture ratio on finite model", "finite ratio on mixture", "table on mixture"],
)
def test_spec_of_the_other_family_raises_before_drawing(model, spec):
    rng = np.random.default_rng(18)
    state = rng.bit_generator.state
    with pytest.raises(SupportMismatchError):
        rejection_sample_shared(model, [AcceptanceSpec.unit(), spec], 10, rng)
    assert rng.bit_generator.state == state


@given(
    st.sampled_from(["clipped", "logistic"]),
    st.floats(),
    st.floats(),
    st.one_of(st.integers(-3, 50), st.floats(), st.booleans()),
    st.one_of(st.integers(-3, 3 * 8192), st.floats(), st.booleans()),
    st.integers(0, 2**32 - 1),
)
def test_mixture_sampler_raises_typed_errors_or_returns(
    kind, log_sup, shape, n_target, max_draws, seed
):
    # shape is log_scale for clipped and gamma for logistic. max_draws=None
    # would draw until the quota fills, however small the rate, so every run
    # here is bounded; a count or parameter error comes before any draw
    model = single_gaussian(0.0, 1.5)
    ratio = ratio_of(bimodal_target(), model)
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    try:
        make = AcceptanceSpec.clipped if kind == "clipped" else AcceptanceSpec.logistic
        spec = make(ratio, log_sup, shape)
        with _time_limit(20.0):
            res = rejection_sample(model, spec, n_target, rng, max_draws)
    except BudgetExhaustedError as exc:
        assert exc.draws_used == max_draws and exc.accepted < n_target
        return
    except ObrsError:
        assert rng.bit_generator.state == state
        return
    assert res.accepted == n_target == len(res.samples)
    assert res.draws_used <= max_draws and np.all(np.isfinite(res.samples))


@pytest.mark.parametrize("value", [math.nan, -0.25, 1.5])
def test_table_acceptance_outside_the_unit_interval_raises(value):
    with pytest.raises(DomainError):
        AcceptanceSpec.from_table({0: 0.5, 1: value})


@pytest.mark.parametrize(
    "log_sup, log_scale",
    [
        (math.nan, 0.0),  # accepted every proposal
        (0.0, math.nan),  # accepted every proposal
        (math.inf, 0.0),  # accepted none
        (-math.inf, 0.0),
        (0.0, -math.inf),  # accepted none
    ],
)
def test_clipped_spec_rejects_parameters_that_cannot_be_right(mixture_pair, log_sup, log_scale):
    ratio = ratio_of(*mixture_pair)
    with pytest.raises(DomainError):
        AcceptanceSpec.clipped(ratio, log_sup, log_scale)


def test_mixture_sampling_with_a_never_accepting_spec_stops():
    # a mixture model has no exact rate to check, so such a spec looped forever
    target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    rng = np.random.default_rng(13)
    with _time_limit(5.0), pytest.raises(DomainError):
        spec = AcceptanceSpec.clipped(ratio_of(target, model), 0.0, -math.inf)
        rejection_sample(model, spec, 10, rng)


@pytest.mark.parametrize("log_scale", [-1e6, -746.0])
def test_mixture_sampling_with_an_underflowing_slack_stops(log_scale):
    # exp(log_scale) is 0: no proposal with r <= M can pass, and the mixture
    # loop has no exact rate to check, so it looped forever
    target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    rng = np.random.default_rng(14)
    with _time_limit(5.0), pytest.raises(DomainError):
        spec = AcceptanceSpec.clipped(ratio_of(target, model), 0.0, log_scale)
        rejection_sample(model, spec, 10, rng)


def test_clipped_spec_keeps_the_smallest_solved_slack(mixture_pair):
    # the slack solve never goes below log(1/K), which is above -709.8 at any finite K
    spec = AcceptanceSpec.clipped(ratio_of(*mixture_pair), 0.0, -math.log(1.7e308))
    assert spec.scale > 0


def test_clipped_spec_keeps_infinite_slack_as_accept_all(mixture_pair):
    spec = AcceptanceSpec.clipped(ratio_of(*mixture_pair), 1.0, math.inf)
    np.testing.assert_array_equal(spec.accept_prob(np.linspace(-5, 5, 11)), np.ones(11))


# ---------------------------------------------------------------------------
# The published DRS acceptance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", [1.5, 2.5, 4.0, 40.0])
def test_drs_gamma_matches_the_calibrated_rate_on_its_view(budget):
    # the rate at the solved gamma, measured through the spec on the same
    # calibration draws, is the obrs rate there (1/K, or 1/M past the envelope)
    target = gaussian_grid_2d(0.05, 1.0)
    model = gaussian_grid_2d(0.1, 1.0)
    spec, drs, sol = refine_with_drs(
        target, model, budget, mode="sample", n=4000, rng=np.random.default_rng(5)
    )
    view = pair_view(target, model, "sample", 4000, rng=np.random.default_rng(5))
    assert drs.kind == "logistic" and drs.log_sup == sol.log_sup
    assert abs(float(np.dot(view.qw, drs.accept_prob(view.points))) - sol.rate) <= 1e-12
    assert abs(float(np.dot(view.qw, spec.accept_prob(view.points))) - sol.rate) <= 1e-12


def test_drs_on_a_finite_pair_keeps_the_exact_rate(two_point):
    target, model = two_point
    _, drs, sol = refine_with_drs(target, model, 2.0)
    assert refined_finite(model, drs).rate == pytest.approx(0.5, abs=1e-12)
    # the unit budget accepts everything under both
    spec, drs, sol = refine_with_drs(target, model, 1.0)
    assert spec.kind == drs.kind == "unit" and sol.status == "unit"


def test_drs_saturates_above_the_envelope_and_rejects_zero_ratio():
    target = FiniteDist([0, 1, 2], [0.0, 0.5, 0.5])
    model = FiniteDist([0, 1, 2], [0.2, 0.4, 0.4])
    r = ratio_of(target, model)
    log_m = math.log(1.25)
    # ratios 2 eps above the envelope are accepted whatever gamma; r = 0 never is
    drs = AcceptanceSpec.logistic(r, log_m - 2 * _DRS_EPS, 3.0)
    a = drs.accept_prob(model.atoms)
    assert a[0] == 0.0 and np.all(a[1:] == 1.0)
    a = AcceptanceSpec.logistic(r, log_m + 1.0, 3.0).accept_prob(model.atoms)
    assert a[0] == 0.0 and np.all((0 < a[1:]) & (a[1:] < 1))


def test_drs_logit_is_the_published_formula():
    rel = np.array([-np.inf, -30.0, -2.0, -1e-3, 0.0, _DRS_EPS / 2, _DRS_EPS, 1.0])
    f = _drs_logit(rel, 0.7)
    with np.errstate(divide="ignore"):
        ref = rel[:6] + 0.7 - np.log(1.0 - np.exp(rel[:6] - _DRS_EPS))
    np.testing.assert_allclose(f[1:6], ref[1:], rtol=1e-9)
    assert f[0] == -np.inf and np.all(f[6:] == np.inf)


@pytest.mark.parametrize(
    "log_sup, gamma", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
)
def test_logistic_spec_rejects_non_finite_parameters(mixture_pair, log_sup, gamma):
    with pytest.raises(DomainError):
        AcceptanceSpec.logistic(ratio_of(*mixture_pair), log_sup, gamma)


def test_drs_gamma_outside_the_reachable_rates_raises():
    logit = np.array([-np.inf, 0.0, 1.0])
    weights = np.full(3, 1 / 3)
    with pytest.raises(ConvergenceError):
        _match_gamma(logit, weights, 2 / 3, 0.0)  # the live mass: only gamma = -inf reaches it
    gamma, rate = _match_gamma(logit, weights, 0.25, 0.0)
    assert abs(rate - 0.25) <= 1e-12


# ---------------------------------------------------------------------------
# One proposal stream for several acceptances
# ---------------------------------------------------------------------------


def _permuted(dist, order):
    return FiniteDist([dist.atoms[i] for i in order], dist.probs[order])


def _specs_for(model, target, kinds, rng):
    """Acceptances of the given kinds over a pair; ratio-based ones split
    between two evaluators of the same ratio. On a finite pair, ``table`` is
    an explicit per-atom acceptance and ``permuted`` a clipped one whose
    ratio was built on the atoms in another order."""
    ratios = [ratio_of(target, model), ratio_of(target, model)]
    mode = "exact" if isinstance(model, FiniteDist) else "quadrature"
    log_sup = refine(target, model, 1.5, mode=mode)[1].log_sup
    specs = []
    for i, kind in enumerate(kinds):
        r = ratios[i % 2]
        if kind == "unit":
            specs.append(AcceptanceSpec.unit())
        elif kind == "clipped":
            specs.append(AcceptanceSpec.clipped(r, log_sup, float(rng.uniform(-2.0, 0.5))))
        elif kind == "logistic":
            specs.append(AcceptanceSpec.logistic(r, log_sup, float(rng.uniform(-2.0, 3.0))))
        elif kind == "table":
            values = rng.uniform(0.05, 1.0, size=len(model))
            specs.append(AcceptanceSpec.from_table(dict(zip(model.atoms, values.tolist()))))
        else:
            order = rng.permutation(len(model))
            r = ratio_of(_permuted(target, order), _permuted(model, order))
            specs.append(AcceptanceSpec.clipped(r, log_sup, float(rng.uniform(-2.0, 0.5))))
    return specs


def _with_label_lookup(specs):
    """The specs with each ratio evaluator swapped for a fresh evaluator of
    the same log_fn, one copy per evaluator, which looks atoms up by label."""
    copies = {}
    out = []
    for spec in specs:
        if spec.ratio is not None:
            r = copies.setdefault(id(spec.ratio), RatioFn(spec.ratio.log_fn, kind=spec.ratio.kind))
            spec = dataclasses.replace(spec, ratio=r)
        out.append(spec)
    return out, copies


def _reference_sample(model, spec, n_target, rng, max_draws):
    """The one-spec batch loop, written out: the reference for the shared stream."""
    kept, n_kept, examined = [], 0, 0
    while n_kept < n_target:
        batch = 8192 if max_draws is None else min(8192, max_draws - examined)
        if batch <= 0:
            raise BudgetExhaustedError(
                f"max_draws={max_draws} exhausted with {n_kept}/{n_target} accepted",
                accepted=n_kept, draws_used=examined,
            )
        xs = model.sample(rng, batch)
        a = np.asarray(spec.accept_prob(xs), dtype=float)
        hits = np.flatnonzero(rng.random(batch) < a)
        examined += batch
        take = hits[: n_target - n_kept]
        kept.extend(xs[take] if isinstance(xs, np.ndarray) else [xs[i] for i in take])
        n_kept += len(take)
        if n_kept == n_target:
            draws_used = examined - batch + int(take[-1]) + 1
    samples = np.array(kept) if isinstance(xs, np.ndarray) else kept
    return SampleResult(samples=samples, accepted=n_target, draws_used=draws_used)


def _outcome(run):
    """A run's result, or its BudgetExhaustedError as a comparable tuple."""
    try:
        return run()
    except BudgetExhaustedError as exc:
        return ("exhausted", str(exc), exc.accepted, exc.draws_used)


def _same_result(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    samples_equal = (
        a.samples.tobytes() == b.samples.tobytes()
        if isinstance(a.samples, np.ndarray) else a.samples == b.samples
    )
    return samples_equal and (a.accepted, a.draws_used) == (b.accepted, b.draws_used)


_ATOM_LABELS = {
    "int": lambda i: i,
    "tuple": lambda i: (i, -i),
    "str": lambda i: f"atom,{i}",
}


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, *_ATOM_LABELS]),  # a finite model's atom labels; None: mixture
    st.data(),
    st.integers(1, 4000),
    st.one_of(st.none(), st.integers(0, 20000)),
)
def test_shared_stream_equals_separate_runs(seed, labels, data, n_target, max_draws):
    rng = np.random.default_rng(seed)
    kinds = ["unit", "clipped", "logistic"]
    if labels is None:
        target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    else:
        kinds += ["table", "permuted"]
        label = _ATOM_LABELS[labels]
        target, model = (
            FiniteDist([label(a) for a in d.atoms], d.probs)
            for d in random_instance(rng, n_atoms=12)
        )
    kinds = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    specs = _specs_for(model, target, kinds, rng)
    state = rng.bit_generator.state

    def separate(sampler, spec):
        rng.bit_generator.state = state
        return _outcome(lambda: sampler(model, spec, n_target, rng, max_draws)), rng.bit_generator.state

    alone = [separate(_reference_sample, spec) for spec in specs]
    one = separate(rejection_sample, specs[0])
    assert _same_result(one[0], alone[0][0]) and one[1] == alone[0][1]
    calls = {id(spec.ratio): spec.ratio.calls for spec in specs if spec.ratio}
    rng.bit_generator.state = state
    shared = _outcome(lambda: rejection_sample_shared(model, specs, n_target, rng, max_draws))
    if isinstance(shared, tuple):
        # the error is that of the first spec short of its quota
        first = next(i for i, (res, _) in enumerate(alone) if isinstance(res, tuple))
        assert shared == alone[first][0]
    else:
        assert len(shared) == len(specs)
        assert all(_same_result(a, b) for a, b in zip(shared, (res for res, _ in alone)))
    if labels is not None:
        # finite proposals stay atom indices; with every ratio looked up by
        # atom label instead, nothing observable changes, the ratio counts
        # and the rng's end state included
        end = rng.bit_generator.state
        lookup, copies = _with_label_lookup(specs)
        rng.bit_generator.state = state
        looked_up = _outcome(lambda: rejection_sample_shared(model, lookup, n_target, rng, max_draws))
        assert rng.bit_generator.state == end
        if isinstance(shared, tuple):
            assert looked_up == shared
        else:
            assert all(_same_result(a, b) for a, b in zip(shared, looked_up))
        for spec in specs:
            if spec.ratio:
                assert spec.ratio.calls - calls[id(spec.ratio)] == copies[id(spec.ratio)].calls
