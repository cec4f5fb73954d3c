"""Budgeted training loss and the spacing/fit landscapes."""

import math

import numpy as np
import pytest

from obrs import (
    DomainError,
    FiniteDist,
    bimodal_target,
    budgeted_loss,
    divergence_finite,
    fit_grid,
    landscape_1d,
    local_minima_count,
    primal_identity_check,
    refine,
    refined_finite,
    single_gaussian,
    spacing_mismatch_pair,
)
from obrs.dist import pair_view
from obrs.fdiv import GENERATOR_PANEL, Generator, _fdiv_terms, max_divergence
from obrs.landscape import _budgeted_losses, _fit_grids
from obrs.oracle import random_instance
from obrs.sampling import calibrate


# ---------------------------------------------------------------------------
# The budgeted loss and its primal identity
# ---------------------------------------------------------------------------


def test_two_point_loss_is_refined_divergence(two_point):
    target, model = two_point
    loss = budgeted_loss(Generator.kl(), target, model, 2.0, mode="exact")
    assert loss == pytest.approx(0.020410997260127565, abs=1e-7)


def test_loss_collapses_when_budget_covers(two_point):
    target, model = two_point
    # budget 3 > M = 2.5: the refined distribution equals the target exactly
    for gen in GENERATOR_PANEL:
        loss = budgeted_loss(gen, target, model, 3.0, mode="exact")
        assert loss == pytest.approx(gen.f_at_one, abs=1e-12), gen.label


def test_primal_identity_random_instances(rng):
    worst = 0.0
    for _ in range(20):
        target, model = random_instance(rng)
        sup = math.exp(max_divergence(target, model))
        budget = float(np.exp(rng.uniform(0.0, math.log(sup))))
        for gen in (Generator.kl(), Generator.gan()):
            worst = max(worst, primal_identity_check(gen, target, model, budget))
    assert worst <= 1e-10


def test_loss_quadrature_collapse_on_mixtures(mixture_pair):
    target, model = mixture_pair
    # budget 5 exceeds the ~4.08 ratio envelope: quadrature loss lands on f(1)
    loss = budgeted_loss(Generator.gan(), target, model, 5.0, mode="quadrature")
    assert loss == pytest.approx(-math.log(4.0), abs=1e-6)


def test_loss_monotone_in_budget_exact(two_point):
    target, model = two_point
    losses = [
        budgeted_loss(Generator.kl(), target, model, k, mode="exact")
        for k in (1.0, 1.3, 1.7, 2.0, 2.5)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    # unit budget: no refinement at all, the plain divergence
    assert losses[0] == pytest.approx(0.22314355131420976, abs=1e-12)


def test_exact_loss_survives_an_underflowing_refined_mass():
    # at K >= M the refined mass q * a of atom 0 underflows to 0 while the
    # target keeps the smallest subnormal mass there; log-space terms keep
    # kl at its f(1) = 0 instead of inf
    target = FiniteDist([0, 1, 2], [5e-324, 1.0, 0.0])
    model = FiniteDist([0, 1, 2], [0.4, 0.4, 0.2])
    for gen in GENERATOR_PANEL:
        losses = [budgeted_loss(gen, target, model, k) for k in (1.0, 2.0, 2.5, 3.0)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), (gen.label, losses)
        assert losses[-1] == pytest.approx(gen.f_at_one, abs=1e-12), gen.label


def test_loss_rejects_sub_unit_budget(two_point):
    target, model = two_point
    with pytest.raises(DomainError):
        budgeted_loss(Generator.kl(), target, model, 0.9, mode="exact")


def test_all_budgets_from_one_view_match_each_budget_alone(two_point, mixture_pair):
    budgets = (1.0, 1.5, 2.0, 5.0)
    for (target, model), mode in ((two_point, "exact"), (mixture_pair, "quadrature")):
        for gen in GENERATOR_PANEL:
            losses = _budgeted_losses(gen, target, model, budgets, mode, 1024, 8.0)
            alone = [budgeted_loss(gen, target, model, k, mode, n_nodes=1024) for k in budgets]
            assert losses == alone, (gen.label, mode)


def _fsum(values):
    return math.fsum(values.tolist())


@pytest.mark.parametrize("mode, total", [("exact", _fsum), ("quadrature", np.sum)])
def test_loss_sums_exact_views_with_fsum_and_grids_with_np_sum(mode, total):
    # the fit and landscape CSVs hold np.sum's bits over each grid; fsum
    # there would change them, and np.sum on atoms would lose exactness
    if mode == "exact":
        target, model = random_instance(np.random.default_rng(3), n_atoms=32)
    else:
        target, model = bimodal_target(), single_gaussian(0.5, 1.2)
    for gen in GENERATOR_PANEL:
        view = pair_view(target, model, mode, 512)
        log_a = calibrate(view.log_r, view.qw, 2.0).log_accept(view.log_r)
        qa = view.qw * np.exp(log_a)
        z = total(qa)
        with np.errstate(all="ignore"):
            log_u = view.lp - (view.lq + log_a - math.log(z))
            want = float(total(_fdiv_terms(gen, view.pw, qa / z, log_u)))
        assert budgeted_loss(gen, target, model, 2.0, mode, n_nodes=512) == want, gen.label


def test_landscape_and_fit_lattices_match_the_per_budget_loss():
    gen = Generator.precision_recall(2.0)
    budgets = (1.0, 2.0, 5.0)
    thetas = np.array([0.6, 1.0, 1.7])
    surf = landscape_1d(gen, thetas, budgets, n_nodes=512)
    for i, theta in enumerate(thetas):
        target, model = spacing_mismatch_pair(float(theta))
        for j, k in enumerate(budgets):
            loss = budgeted_loss(gen, target, model, k, "quadrature", n_nodes=512)
            assert surf.losses[i, j] == loss
    mus, sigmas = np.array([-0.5, 0.0, 1.0]), np.array([0.7, 1.5])
    fits = _fit_grids(gen, budgets, mus, sigmas, 512, 8.0)
    for k, res in zip(budgets, fits):
        alone = fit_grid(gen, k, mus, sigmas, n_nodes=512)
        assert np.array_equal(res.losses, alone.losses)
        assert (res.best_mu, res.best_sigma, res.best_loss) == (
            alone.best_mu, alone.best_sigma, alone.best_loss)
        for i, mu in enumerate(mus):
            for j, sigma in enumerate(sigmas):
                model = single_gaussian(float(mu), float(sigma))
                loss = budgeted_loss(gen, bimodal_target(), model, k, "quadrature", n_nodes=512)
                assert res.losses[i, j] == loss


# ---------------------------------------------------------------------------
# Local minima counting
# ---------------------------------------------------------------------------


def test_local_minima_count_synthetic():
    assert local_minima_count(np.array([3.0, 1.0, 2.0, 0.0, 5.0])) == 2
    assert local_minima_count(np.array([1.0, 2.0, 3.0])) == 0
    assert local_minima_count(np.array([3.0, 2.0, 1.0])) == 0
    assert local_minima_count(np.array([2.0, 1.0, 2.0])) == 1
    # plateaus do not count as strict minima
    assert local_minima_count(np.array([2.0, 1.0, 1.0, 2.0])) == 0


# ---------------------------------------------------------------------------
# The spacing landscape (reduced grids: the full default runs in acceptance)
# ---------------------------------------------------------------------------


def test_landscape_small_grid_monotone_in_budget():
    thetas = np.linspace(0.5, 1.5, 21)
    surf = landscape_1d(thetas=thetas, budgets=(1.0, 2.0), n_nodes=2048)
    assert surf.losses.shape == (21, 2)
    assert np.max(surf.losses[:, 1] - surf.losses[:, 0]) <= 1e-8
    assert surf.gen_label == "gan"
    # matched spacing is the best column entry at unit budget
    assert abs(surf.argmin_theta(1.0) - 1.0) <= 0.1


def test_landscape_column_lookup():
    thetas = np.linspace(0.8, 1.2, 5)
    surf = landscape_1d(thetas=thetas, budgets=(1.0,), n_nodes=1024)
    np.testing.assert_array_equal(surf.column(1.0), surf.losses[:, 0])
    counts = surf.minima_counts()
    assert set(counts) == {1.0}


# ---------------------------------------------------------------------------
# Fit grids (reduced: the full default lattice runs in acceptance)
# ---------------------------------------------------------------------------


def test_fit_grid_small_lattice():
    mus = np.linspace(-1.0, 1.0, 5)
    sigmas = np.linspace(1.0, 3.0, 9)
    res = fit_grid(budget=1.0, mus=mus, sigmas=sigmas, n_nodes=1024)
    assert res.losses.shape == (5, 9)
    i, j = np.unravel_index(np.argmin(res.losses), res.losses.shape)
    assert res.best_mu == mus[i]
    assert res.best_sigma == sigmas[j]
    assert res.best_loss == res.losses[i, j]
    # symmetric target: the best center is the middle of the grid
    assert res.best_mu == pytest.approx(0.0)


def test_fit_budget_widens_optimum_small():
    mus = np.array([0.0])
    sigmas = np.linspace(0.8, 3.0, 23)
    res1 = fit_grid(budget=1.0, mus=mus, sigmas=sigmas, n_nodes=2048)
    res2 = fit_grid(budget=2.0, mus=mus, sigmas=sigmas, n_nodes=2048)
    assert res2.best_sigma > res1.best_sigma
    assert res2.best_loss < res1.best_loss


@pytest.mark.parametrize("lattice", [{"mus": []}, {"sigmas": []}])
def test_fit_grid_rejects_an_empty_axis(lattice):
    # raised a bare ValueError from argmin
    with pytest.raises(DomainError):
        fit_grid(n_nodes=64, **lattice)
