"""Properties of the calibration core: ``calibrate`` and the exact slack solve."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

from obrs import (
    ConvergenceError,
    DomainError,
    EstimationError,
    FiniteDist,
    bimodal_target,
    budgeted_loss,
    calibrate,
    check_ball_membership,
    ratio_of,
    single_gaussian,
)
from obrs import sampling
from obrs.dist import pair_view
from obrs.fdiv import GENERATOR_PANEL
from obrs.sampling import _SORT_POINTS, _log_accept, _solve_log_shift

RATE_TOL = 1e-12

# log-ratios of several hundred, r = 0, and a few values that tie often
_log_ratio = st.one_of(
    st.floats(-800.0, 800.0),
    st.just(-math.inf),
    st.sampled_from([0.0, -1.0, 2.5]),
)
_weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def _views(draw):
    """A normalized model view (log r, w) with E_w[r] = 1, as a real pair has."""
    n = draw(st.integers(1, 40))
    lr = np.array(draw(st.lists(_log_ratio, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(_weight, min_size=n, max_size=n)))
    i = draw(st.integers(0, n - 1))  # one point with mass on both sides
    w[i] = w[i] or 1.0
    lr[i] = lr[i] if math.isfinite(lr[i]) else 0.0
    w = w / math.fsum(w.tolist())
    live = (w > 0) & (lr > -math.inf)
    lr = lr - logsumexp(lr[live] + np.log(w[live]))
    return lr, w


def _live_mass(lr, w):
    return math.fsum(w[lr > -math.inf].tolist())


def _acceptance(lr, sol):
    return np.exp(_log_accept(lr - sol.log_sup, sol.log_scale))


def _budget(lr, w, u):
    """A budget log-uniform in [1, min(M, e^700)] at position u in [0, 1]."""
    log_sup = float(np.max(lr[w > 0]))
    return math.exp(u * min(log_sup, 700.0))


def _rate_reference(lr, w, s):
    """E_w[min(e^(lr + s), 1)] summed exactly, independent of the library."""
    return math.fsum((w * np.exp(np.minimum(lr + s, 0.0))).tolist())


@settings(max_examples=300)
@given(_views(), st.floats(0.0, 1.0))
def test_rate_is_inverse_budget_and_acceptance_in_unit_interval(view, u):
    lr, w = view
    budget = _budget(lr, w, u)
    live = _live_mass(lr, w)
    assume(abs(1.0 / budget - live) > 1e-9 * live)
    if 1.0 < budget and 1.0 / budget > live and math.log(budget) < np.max(lr[w > 0]):
        # r = 0 points are never accepted: the rate cannot pass the live mass
        with pytest.raises(ConvergenceError):
            calibrate(lr, w, budget)
        return
    sol = calibrate(lr, w, budget)
    a = _acceptance(lr, sol)
    assert np.all((a >= 0.0) & (a <= 1.0))
    rate = math.fsum((w * a).tolist())
    assert abs(rate - sol.rate) <= RATE_TOL
    if sol.status == "budgeted":
        assert abs(rate - 1.0 / budget) <= RATE_TOL


@settings(max_examples=300)
@given(_views(), st.floats(0.0, 1.0))
def test_refined_pair_lies_in_the_budget_ball(view, u):
    lr, w = view
    budget = _budget(lr, w, u)
    assume(1.0 / budget < _live_mass(lr, w) * (1 - 1e-9) or budget == 1.0)
    sol = calibrate(lr, w, budget)
    mass = w * _acceptance(lr, sol)
    atoms = list(range(len(w)))
    refined = FiniteDist(atoms, mass / math.fsum(mass.tolist()))
    assert check_ball_membership(refined, FiniteDist(atoms, w), budget).member


@settings(max_examples=100)
@given(_views(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
def test_panel_loss_does_not_increase_in_budget(view, us):
    lr, w = view
    atoms = list(range(len(w)))
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.where(w > 0, w * np.exp(lr), 0.0)
    target, model = FiniteDist(atoms, p / math.fsum(p.tolist())), FiniteDist(atoms, w)
    # the pair's own view: target masses that underflowed are r = 0 here
    lr = ratio_of(target, model).log(atoms)
    live = _live_mass(lr, w)
    budgets = sorted({1.0} | {_budget(lr, w, u) for u in us})
    budgets = [k for k in budgets if k == 1.0 or 1.0 / k < live * (1 - 1e-9)]
    for gen in GENERATOR_PANEL:
        losses = [budgeted_loss(gen, target, model, k) for k in budgets]
        for lo, hi in zip(losses, losses[1:]):
            assert hi <= lo + 1e-12 * max(1.0, abs(lo)), (gen.label, budgets, losses)


@settings(max_examples=300)
@given(_views())
def test_status_unit_at_one_and_unbudgeted_from_the_envelope(view):
    lr, w = view
    unit = calibrate(lr, w, 1.0)
    assert unit.status == "unit" and unit.log_scale == math.inf
    assert unit.rate == pytest.approx(math.fsum(w.tolist()), abs=RATE_TOL)
    assert np.all(_acceptance(lr, unit) == 1.0)
    sup = math.exp(min(unit.log_sup, 700.0))
    budgets = [math.inf] if unit.log_sup > 700.0 else [sup * (1 + 1e-12), 10 * sup, math.inf]
    for budget in budgets:
        sol = calibrate(lr, w, budget)
        assert sol.status == "unbudgeted" and sol.log_scale == 0.0
        assert sol.log_sup == unit.log_sup


@settings(max_examples=300)
@given(_views(), st.floats(1e-9, 1.0))
def test_unreachable_rate_raises(view, excess):
    lr, w = view
    rel = lr - np.max(lr[w > 0])
    live = _live_mass(lr, w)
    for rate in (live * (1 + excess), 0.0, -excess, math.nan):
        with pytest.raises(ConvergenceError):
            _solve_log_shift(rel, w, rate)


def _assert_exact_root(rel, w, rate):
    """_solve_log_shift meets rate and finds the root that brentq finds on
    ``_rate_reference``."""
    live = (w > 0) & (rel > -math.inf)
    s, measured = _solve_log_shift(rel, w, rate)
    assert abs(measured - rate) <= RATE_TOL
    assert abs(_rate_reference(rel, w, s) - rate) <= RATE_TOL
    lo = math.log(rate / 2) - float(logsumexp(rel[live] + np.log(w[live])))
    hi = -float(np.min(rel[live]))
    ref = brentq(lambda x: _rate_reference(rel, w, x) - rate, lo, hi, xtol=1e-14, maxiter=500)
    # the rate's slope in s at the root is the unsaturated mass
    slope = math.fsum((w * np.exp(np.minimum(rel + ref, 0.0)) * (rel + ref < 0)).tolist())
    assert abs(s - ref) <= 1e-11 * (1 + abs(ref)) + 1e-13 / slope


@settings(max_examples=300)
@given(_views(), st.floats(1e-6, 1.0 - 1e-6))
def test_shift_matches_brentq_root(view, fraction):
    lr, w = view
    rel = lr - np.max(lr[w > 0])
    live = (w > 0) & (lr > -math.inf)
    _assert_exact_root(rel, w, fraction * math.fsum(w[live].tolist()))


@st.composite
def _large_views(draw):
    """A view of 64 to 5000 points, on layouts where Newton steps are slow
    or rounding is tight: log-ratios uniform over a span of up to 900,
    Gaussian, on a few tied values, or on two tied values more than 700
    apart; weights equal, Pareto-tailed or with some zero."""
    # as many views that the sort solves alone as views that take Newton steps
    n = draw(st.one_of(st.integers(64, _SORT_POINTS), st.integers(_SORT_POINTS + 1, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.floats(1.0, 900.0))
    lr = {
        "uniform": lambda: rng.uniform(-span, 0.0, n),
        "gaussian": lambda: rng.normal(0.0, span / 6, n),
        "ties": lambda: rng.choice(-span * np.array([0.0, 0.1, 0.5, 1.0]), n),
        "far": lambda: rng.choice([0.0, -700.0 - span], n),
    }[draw(st.sampled_from(["uniform", "gaussian", "ties", "far"]))]()
    w = {
        "equal": lambda: np.ones(n),
        "pareto": lambda: rng.pareto(0.5, n) + 1e-12,
        "zeros": lambda: np.where(rng.random(n) < 0.3, 0.0, rng.random(n)),
    }[draw(st.sampled_from(["equal", "pareto", "zeros"]))]()
    w[0] = 1.0  # at least one live point
    w = w / math.fsum(w.tolist())
    return lr - np.max(lr[w > 0]), w


@settings(max_examples=150)
@given(_large_views(), st.floats(1e-6, 1.0 - 1e-6))
def test_large_view_shift_matches_brentq_root(view, fraction):
    rel, w = view
    _assert_exact_root(rel, w, fraction * math.fsum(w.tolist()))


def _forbid_sort(monkeypatch):
    def no_sort(lr, w, target_rate):
        raise AssertionError(f"{len(lr)} points handed to the sort-and-scan")

    monkeypatch.setattr(sampling, "_sort_and_scan", no_sort)


def test_tied_groups_more_than_700_apart_take_newton_to_the_root(monkeypatch):
    # the start saturates the heavy group at 0; the light group's rate
    # there, 0.1 e^-705, is below e^-700, and the step that takes it as
    # e^-700 falls 7.2 short of the root and saturates nothing new
    rel = np.concatenate([np.zeros(1100), np.full(100, -705.0)])
    w = np.concatenate([np.full(1100, 0.9 / 1100), np.full(100, 0.1 / 100)])
    _forbid_sort(monkeypatch)
    s, rate = _solve_log_shift(rel, w, 0.95)
    assert abs(s - (705.0 - math.log(2.0))) <= 1e-12
    assert abs(rate - 0.95) <= RATE_TOL


def test_newton_root_that_misses_the_rate_goes_to_the_sort(monkeypatch):
    # a Newton result is kept only when the rate measured at it meets the target
    rel = np.concatenate([np.zeros(1100), np.full(100, -705.0)])
    w = np.concatenate([np.full(1100, 0.9 / 1100), np.full(100, 0.1 / 100)])
    monkeypatch.setattr(sampling, "_newton_from_left", lambda lr, w, target_rate: 697.0)
    _assert_exact_root(rel, w, 0.95)


def _replicated(lr, w, copies):
    """The same rate function on copies x the points, each with 1/copies of the weight."""
    return np.repeat(np.asarray(lr), copies), np.repeat(np.asarray(w), copies) / copies


@pytest.mark.parametrize("copies", [1, _SORT_POINTS])  # the sort alone, then Newton steps
def test_shift_just_left_of_a_knot_is_on_its_own_segment(monkeypatch, copies):
    # the root sits 0.067 left of the knot of the second point; a solve that
    # counts it saturated there measures 0.7893
    lr, w = [1.0986122886681098, -34.90138771, -35.90138771], [1 / 3] * 3
    if copies > 1:
        _forbid_sort(monkeypatch)
    sol = calibrate(*_replicated(lr, w, copies), 1.3160740129524917)
    assert sol.status == "budgeted"
    assert abs(sol.rate - 0.75983568565159) <= RATE_TOL


def test_lattice_corner_with_log_ratios_of_several_hundred():
    # mu = -3, sigma = 0.2: an envelope above e^700, and log-ratios that fall
    # more than 700 below it, where exp leaves the normal range
    view = pair_view(bimodal_target(), single_gaussian(-3.0, 0.2), "quadrature", 4096, 8.0)
    log_r = view.checked_log_r()
    sol = calibrate(log_r, view.qw, 2.0)
    assert sol.status == "budgeted" and sol.log_sup > 700.0
    assert abs(sol.rate - 0.5) <= RATE_TOL
    _assert_exact_root(log_r - sol.log_sup, view.qw, 0.5)


@pytest.mark.parametrize(
    "mu, sigma", [(-3.0, 0.2), (0.0, 0.2), (3.0, 0.2), (2.0, 0.5), (0.0, 0.8), (1.5, 3.0)]
)
@pytest.mark.parametrize("budget", [2.0, 5.0])
def test_lattice_cells_solve_without_the_full_sort(monkeypatch, mu, sigma, budget):
    view = pair_view(bimodal_target(), single_gaussian(mu, sigma), "quadrature", 4096, 8.0)
    _forbid_sort(monkeypatch)
    sol = calibrate(view.checked_log_r(), view.qw, budget)
    assert sol.status == "budgeted" and abs(sol.rate - 1.0 / budget) <= RATE_TOL


@pytest.mark.parametrize(
    "log_r, weights, error",
    [
        ([0.0, math.nan], [0.5, 0.5], DomainError),
        ([0.0, math.inf], [0.5, 0.5], DomainError),
        ([0.0, 1.0], [0.5, -0.5], DomainError),
        ([0.0, 1.0], [0.5, math.nan], DomainError),
        ([0.0], [0.5, 0.5], DomainError),
        ([0.0, 1.0], [0.0, 0.0], EstimationError),
        ([-math.inf, -math.inf], [0.5, 0.5], EstimationError),
    ],
)
def test_degenerate_views_raise(log_r, weights, error):
    with pytest.raises(error):
        calibrate(log_r, weights, 2.0)


def test_zero_weight_points_are_ignored():
    # NaN and +inf ratios where the model has no mass do not reach the solve
    sol = calibrate([math.nan, 0.0, math.inf, math.log(2.0)], [0.0, 0.5, 0.0, 0.5], 1.5)
    assert sol.status == "budgeted" and sol.sup_ratio == pytest.approx(2.0)
    assert sol.rate == pytest.approx(1.0 / 1.5, abs=RATE_TOL)
