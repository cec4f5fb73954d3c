"""Precision/recall tradeoff curves and the refined-curve transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obrs import (
    DomainError,
    FiniteDist,
    bimodal_target,
    check_refined_prediction,
    default_lambda_grid,
    pr_curve,
    pr_point,
    prcurve,
    predict_refined_curve,
    ratio_of,
    refine,
    single_gaussian,
    trapezoid_grid,
)
from obrs.fdiv import max_divergence
from obrs.oracle import random_instance
from obrs.prcurve import _pr_arrays

# the scan accumulates prefix sums in order, so it agrees with the exact
# fsum reference to about n * eps; 1e-13 covers the 4096-node grid
SCAN_TOL = 1e-13


def test_two_point_balanced_threshold(two_point):
    target, model = two_point
    pt = pr_point(target, model, 1.0)
    assert pt.alpha == pytest.approx(0.7, abs=1e-15)
    assert pt.beta == pytest.approx(0.7, abs=1e-15)


def test_alpha_is_lam_times_beta(two_point):
    target, model = two_point
    for lam in (0.25, 0.5, 1.0, 2.0, 7.0):
        pt = pr_point(target, model, lam)
        assert pt.alpha == pytest.approx(lam * pt.beta, abs=1e-14)


def test_endpoints(two_point):
    target, model = two_point
    zero = pr_point(target, model, 0.0)
    assert zero.alpha == 0.0
    assert zero.beta == 1.0  # target mass on the model's support
    inf = pr_point(target, model, math.inf)
    assert inf.alpha == 1.0  # model mass on the target's support
    assert inf.beta == 0.0


def test_endpoints_partial_overlap():
    target = FiniteDist([0, 1, 2], [0.5, 0.5, 0.0])
    model = FiniteDist([0, 1, 2], [0.0, 0.5, 0.5])
    zero = pr_point(target, model, 0.0)
    inf = pr_point(target, model, math.inf)
    assert zero.beta == pytest.approx(0.5)  # only atom 1 is visible to the model
    assert inf.alpha == pytest.approx(0.5)


def test_alpha_monotone_in_lam(two_point, rng):
    target, model = random_instance(rng)
    lams = np.sort(rng.uniform(0.0, 10.0, size=50))
    curve = pr_curve(target, model, lams)
    assert np.all(np.diff(curve.alphas) >= -1e-14)
    assert np.all(np.diff(curve.betas) <= 1e-14)


def test_nan_and_negative_thresholds_rejected(two_point, rng):
    target, model = two_point
    for lam in (math.nan, -0.5):
        for mode in ("exact", "mc"):
            with pytest.raises(DomainError, match="threshold"):
                pr_point(target, model, lam, mode=mode, n=10, rng=rng)
        with pytest.raises(DomainError, match="threshold"):
            pr_curve(target, model, [1.0, lam])
        with pytest.raises(DomainError, match="threshold"):
            check_refined_prediction(target, model, 2.0, lams=[lam])


def _assert_matches_reference(curve, pw, qw):
    for lam, alpha, beta in zip(curve.lams, curve.alphas, curve.betas):
        ref_alpha, ref_beta = _pr_arrays(pw, qw, float(lam))
        assert abs(alpha - ref_alpha) <= SCAN_TOL, (lam, alpha, ref_alpha)
        assert abs(beta - ref_beta) <= SCAN_TOL, (lam, beta, ref_beta)


_mass = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))


@st.composite
def _finite_pair_and_thresholds(draw):
    n = draw(st.integers(1, 40))
    p = np.array(draw(st.lists(_mass, min_size=n, max_size=n)))
    q = np.array(draw(st.lists(_mass, min_size=n, max_size=n)))
    if p.sum() == 0:
        p[0] = 1.0
    if q.sum() == 0:
        q[-1] = 1.0
    target, model = FiniteDist(range(n), p / p.sum()), FiniteDist(range(n), q / q.sum())
    both = (target.probs > 0) & (model.probs > 0)
    ties = model.probs[both] / target.probs[both]  # where lam * p == q
    lams = np.concatenate((
        [0.0, math.inf], ties, 1.0 / ties,
        draw(st.lists(st.floats(1e-6, 1e6), max_size=20)),
    ))
    return target, model, np.sort(lams)


@settings(max_examples=300)
@given(_finite_pair_and_thresholds())
def test_scan_matches_fsum_reference(case):
    target, model, lams = case
    pw, qw = target.probs, model.probs
    curve = pr_curve(target, model, lams)
    _assert_matches_reference(curve, pw, qw)
    # endpoints keep their exact fsum values
    assert curve.alphas[0] == 0.0
    assert curve.betas[0] == math.fsum(pw[qw > 0].tolist())
    assert curve.alphas[-1] == math.fsum(qw[pw > 0].tolist())
    assert curve.betas[-1] == 0.0
    inner = slice(1, -1)
    np.testing.assert_allclose(
        curve.alphas[inner], curve.lams[inner] * curve.betas[inner], rtol=0, atol=SCAN_TOL
    )
    assert np.all(np.diff(curve.alphas) >= -1e-14)
    assert np.all(np.diff(curve.betas) <= 1e-14)


@pytest.mark.parametrize("budget", [1.5, 2.0, 5.0])
def test_scan_matches_fsum_reference_on_refine_grid(budget):
    # the obrs refine defaults: bimodal pair, 4096 nodes, 201 thresholds at the knee
    target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    x, w = trapezoid_grid([target, model], n_nodes=4096, span=8.0)
    spec, sol = refine(target, model, budget, mode="quadrature")
    log_scale = spec.log_scale if sol.status == "budgeted" else 0.0
    lams = default_lambda_grid(math.exp(log_scale - spec.log_sup), n=201)
    curve = pr_curve(target, model, lams, mode="quadrature")
    pw = w * np.exp(target.log_density(x))
    qw = w * np.exp(model.log_density(x))
    _assert_matches_reference(curve, pw, qw)


def test_identical_distributions_curve(two_point):
    target, _ = two_point
    pt = pr_point(target, target, 1.0)
    assert pt.alpha == pytest.approx(1.0)
    assert pt.beta == pytest.approx(1.0)


def test_default_lambda_grid_properties():
    grid = default_lambda_grid(2.0, n=11, decades=1.0)
    assert len(grid) == 11
    assert grid[0] == pytest.approx(0.2)
    assert grid[-1] == pytest.approx(20.0)
    assert grid[5] == pytest.approx(2.0)
    with pytest.raises(DomainError):
        default_lambda_grid(0.0)
    with pytest.raises(DomainError):
        default_lambda_grid(math.inf)


def test_mc_point_has_stderr(two_point, rng):
    target, model = two_point
    pt = pr_point(target, model, 1.0, mode="mc", n=50_000, rng=rng)
    assert pt.stderr_alpha > 0
    assert abs(pt.alpha - 0.7) < 5 * pt.stderr_alpha


# ---------------------------------------------------------------------------
# The closed-form refined-curve transform
# ---------------------------------------------------------------------------


def test_predicted_curve_matches_direct_two_point(two_point):
    target, model = two_point
    rep = check_refined_prediction(target, model, 2.0, mode="exact")
    assert rep.status == "budgeted"
    assert rep.max_alpha_err <= 1e-12
    assert rep.max_beta_err <= 1e-12
    assert rep.max_identity_err <= 1e-12


def test_predicted_curve_random_instances(rng):
    for _ in range(20):
        target, model = random_instance(rng)
        sup = math.exp(max_divergence(target, model))
        budget = float(rng.uniform(1.0, sup))
        rep = check_refined_prediction(target, model, budget, mode="exact")
        assert rep.max_alpha_err <= 1e-10, (budget, rep)
        assert rep.max_beta_err <= 1e-10
        assert rep.max_identity_err <= 1e-10


def test_predicted_curve_quadrature(mixture_pair):
    target, model = mixture_pair
    rep = check_refined_prediction(target, model, 2.0, mode="quadrature")
    assert rep.max_alpha_err <= 1e-4
    assert rep.max_beta_err <= 1e-4
    assert rep.max_identity_err <= 1e-4


@pytest.mark.parametrize("budget", [200.0, 1.0])
def test_default_thresholds_straddle_the_knee(monkeypatch, budget):
    # M = 500 and, at K = 200, c = 4 put the knee c/M at 8e-3; a grid
    # centred on M/c = 125 starts at 0.125 and compares only the saturated
    # branch. At K = 1 the knee is taken at the unbudgeted 1/M.
    target = FiniteDist([0, 1], [0.5, 0.5])
    model = FiniteDist([0, 1], [0.999, 0.001])
    seen = []
    predict = prcurve.predict_refined_curve

    def spy(base, k_eff, scale, sup_ratio):
        seen.append(base.lams)
        return predict(base, k_eff, scale, sup_ratio)

    monkeypatch.setattr(prcurve, "predict_refined_curve", spy)
    rep = check_refined_prediction(target, model, budget)
    knee = (1.0 if rep.status == "unit" else rep.scale) / rep.sup_ratio
    (lams,) = seen
    assert np.any(lams < knee) and np.any(lams > knee)
    assert max(rep.max_alpha_err, rep.max_beta_err) <= 1e-12


def test_unit_budget_prediction_is_identity(two_point):
    target, model = two_point
    rep = check_refined_prediction(target, model, 1.0, mode="exact")
    assert rep.status == "unit"
    assert rep.max_alpha_err <= 1e-12
    assert rep.scale == math.inf


def test_unbudgeted_prediction(two_point):
    target, model = two_point
    rep = check_refined_prediction(target, model, 2.5, mode="exact")
    assert rep.status == "unbudgeted"
    assert rep.max_alpha_err <= 1e-10
    assert rep.scale == 1.0


def test_knee_alpha_is_inverse_budget(two_point):
    # at the knee threshold scale/M, the base curve's alpha equals exactly
    # the acceptance rate 1/K_eff
    target, model = two_point
    from obrs import refine, refined_finite

    spec, sol = refine(target, model, 2.0, mode="exact")
    k_eff = 1.0 / refined_finite(model, spec).rate
    knee = spec.scale / spec.sup_ratio
    base = pr_curve(target, model, np.array([knee]))
    assert base.alphas[0] == pytest.approx(1.0 / k_eff, abs=1e-12)


def test_saturated_branch_identity(two_point):
    target, model = two_point
    from obrs import refine, refined_finite

    spec, sol = refine(target, model, 2.0, mode="exact")
    k_eff = 1.0 / refined_finite(model, spec).rate
    knee = spec.scale / spec.sup_ratio
    lams = np.array([2 * knee, 10 * knee])
    pred = predict_refined_curve(
        pr_curve(target, model, lams), k_eff, spec.scale, spec.sup_ratio
    )
    np.testing.assert_allclose(pred.alphas, 1.0)
    np.testing.assert_allclose(pred.betas, 1.0 / pred.lams)


# ---------------------------------------------------------------------------
# Non-finite and degenerate Monte Carlo counts
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(n=st.one_of(st.integers(max_value=1), st.floats(allow_nan=True)))
def test_mc_point_rejects_counts_below_two_or_not_integers(n):
    # n = 0 gave an all-nan point, n = 1 nan stderrs, a float count a bare TypeError
    target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    with pytest.raises(DomainError):
        pr_point(target, model, 1.0, mode="mc", n=n, rng=np.random.default_rng(0))
