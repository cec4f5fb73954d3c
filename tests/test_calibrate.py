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
    budgeted_loss,
    calibrate,
    check_ball_membership,
    ratio_of,
)
from obrs.fdiv import GENERATOR_PANEL
from obrs.sampling import _log_accept, _solve_log_shift

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


@settings(max_examples=300)
@given(_views(), st.floats(1e-6, 1.0 - 1e-6))
def test_shift_matches_brentq_root(view, fraction):
    lr, w = view
    rel = lr - np.max(lr[w > 0])
    live = (w > 0) & (lr > -math.inf)
    rate = fraction * math.fsum(w[live].tolist())
    s, measured = _solve_log_shift(rel, w, rate)
    assert abs(measured - rate) <= RATE_TOL
    lo = math.log(rate / 2) - float(logsumexp(rel[live] + np.log(w[live])))
    hi = -float(np.min(rel[live]))
    ref = brentq(lambda x: _rate_reference(rel, w, x) - rate, lo, hi, xtol=1e-14, maxiter=500)
    # the rate's slope in s at the root is the unsaturated mass
    slope = math.fsum((w * np.exp(np.minimum(rel + ref, 0.0)) * (rel + ref < 0)).tolist())
    assert abs(s - ref) <= 1e-11 * (1 + abs(ref)) + 1e-13 / slope


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
