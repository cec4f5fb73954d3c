"""Training objectives under a sampling budget, and their landscapes.

The budgeted loss of a model q against a target p is the f-divergence that
remains after optimal budgeted rejection:

    loss_K(q) = D_f( p || q * a / Z ),   a = min(c * r / M, 1), Z = E_q[a],

with c solved so Z = 1/K. Training against loss_K rewards proposals that
are easy to *refine* rather than pointwise accurate, which reshapes the
loss surface: sweeping a mode-spacing family shows spurious local minima
flattening out as the budget grows, and fitting a single Gaussian to a
bimodal target shows the optimal proposal widening with the budget.

All continuous losses are quadrature proxies on a trapezoid grid with a
fixed node count that spans each (target, model) pair's own support, so
the nodes move with the model. Within one loss evaluation the same grid
feeds the slack solver and the divergence, and a given pair gets the same
grid at every budget, so comparisons across budgets are internally
consistent. Exact and quadrature losses share one path:
``dist.pair_view`` gives the weighted view of the pair with its log-ratio,
``sampling.calibrate`` the acceptance on it at every budget, and the single
f-divergence kernel ``fdiv._fdiv_terms`` the integrand, evaluated from
log-densities, which keeps lattice corners with log-ratios of several
hundred finite. A landscape or fit lattice builds one view per cell, with
its two log-densities, and calibrates it once per budget; ``budgeted_loss``
and ``fit_grid`` are the one-budget case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, bimodal_target, pair_view, single_gaussian, spacing_mismatch_pair
from .errors import DomainError
from .fdiv import Generator, _acceptance_loss, divergence_finite
from .sampling import calibrate, refine, refined_finite

THETA_GRID_DEFAULT = np.linspace(0.1, 2.5, 241)
FIT_MU_GRID_DEFAULT = np.linspace(-3.0, 3.0, 121)
FIT_SIGMA_GRID_DEFAULT = np.linspace(0.2, 3.0, 141)
BUDGETS_DEFAULT = (1.0, 2.0, 5.0)


def budgeted_loss(
    gen: Generator,
    target,
    model,
    budget: float,
    mode: str = "exact",
    n_nodes: int = 4096,
    span: float = 8.0,
) -> float:
    """D_f of the target from the optimally refined model at the given budget.

    Computed in expectation-under-model form, normalizing by the *measured*
    acceptance rate Z rather than the nominal 1/K — so budget >= sup r
    collapses exactly to f(1) and the value agrees with the divergence of
    the explicitly refined distribution to float precision
    (``primal_identity_check`` asserts that agreement).

    ``exact`` handles finite pairs; ``quadrature`` handles 1-d mixture
    pairs on a shared trapezoid grid. Note the quadrature form only sees
    the model's support: generators that diverge where the model vanishes
    under target mass (kl, reverse_kl) are truncated there by the grid,
    while bounded ones (gan, tv, pr) are represented faithfully.
    """
    return _budgeted_losses(gen, target, model, (budget,), mode, n_nodes, span)[0]


def _budgeted_losses(
    gen: Generator,
    target,
    model,
    budgets: tuple[float, ...],
    mode: str,
    n_nodes: int,
    span: float,
) -> list[float]:
    """``budgeted_loss`` at each budget, from one view of the pair.

    The log-densities computed once feed every calibration and integrand:
    this body runs tens of thousands of times across a fit lattice.
    """
    view = pair_view(target, model, mode, n_nodes, span)
    log_r = view.checked_log_r()
    sols = [calibrate(log_r, view.qw, budget) for budget in budgets]
    return [_acceptance_loss(gen, view, sol.log_accept(log_r)) for sol in sols]


def primal_identity_check(
    gen: Generator, target: FiniteDist, model: FiniteDist, budget: float
) -> float:
    """|budgeted_loss - D_f(target || explicitly refined model)|, exact case."""
    loss = budgeted_loss(gen, target, model, budget, mode="exact")
    spec, _ = refine(target, model, budget, mode="exact")
    ref = refined_finite(model, spec)
    return abs(loss - divergence_finite(gen, target, ref.dist).value)


# ---------------------------------------------------------------------------
# Mode-spacing landscape
# ---------------------------------------------------------------------------


def local_minima_count(values: np.ndarray) -> int:
    """Strict interior local minima of a 1-d sequence."""
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        return 0
    mid = v[1:-1]
    return int(np.sum((mid < v[:-2]) & (mid < v[2:])))


@dataclass(frozen=True)
class LossSurface:
    """Loss over a spacing sweep, one column per budget."""

    gen_label: str
    thetas: np.ndarray
    budgets: tuple[float, ...]
    losses: np.ndarray  # shape (len(thetas), len(budgets))
    spacing_target: float

    def column(self, budget: float) -> np.ndarray:
        return self.losses[:, self.budgets.index(budget)]

    def minima_counts(self) -> dict[float, int]:
        return {b: local_minima_count(self.losses[:, j]) for j, b in enumerate(self.budgets)}

    def argmin_theta(self, budget: float) -> float:
        return float(self.thetas[int(np.argmin(self.column(budget)))])


def landscape_1d(
    gen: Generator | None = None,
    thetas: np.ndarray | None = None,
    budgets: tuple[float, ...] = BUDGETS_DEFAULT,
    spacing_target: float = 1.0,
    n_nodes: int = 4096,
    span: float = 8.0,
) -> LossSurface:
    """Sweep the mode-spacing family: loss_K(model(theta)) for each budget.

    A larger budget can only help (the feasible ball grows with K), so
    columns are pointwise nonincreasing in K; the interesting output is how
    many spurious local minima each column has.
    """
    gen = gen or Generator.gan()
    thetas = THETA_GRID_DEFAULT if thetas is None else np.asarray(thetas, dtype=float)
    losses = np.empty((len(thetas), len(budgets)))
    for i, theta in enumerate(thetas):
        target, model = spacing_mismatch_pair(float(theta), spacing_target)
        losses[i] = _budgeted_losses(gen, target, model, budgets, "quadrature", n_nodes, span)
    return LossSurface(
        gen_label=gen.label,
        thetas=thetas,
        budgets=tuple(budgets),
        losses=losses,
        spacing_target=spacing_target,
    )


# ---------------------------------------------------------------------------
# Single-Gaussian fit to a bimodal target
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Grid fit of a single Gaussian proposal under a budgeted loss."""

    gen_label: str
    budget: float
    mus: np.ndarray
    sigmas: np.ndarray
    losses: np.ndarray  # shape (len(mus), len(sigmas))
    best_mu: float
    best_sigma: float
    best_loss: float


def fit_grid(
    gen: Generator | None = None,
    budget: float = 1.0,
    mus: np.ndarray | None = None,
    sigmas: np.ndarray | None = None,
    n_nodes: int = 4096,
    span: float = 8.0,
) -> FitResult:
    """Exhaustive (mu, sigma) lattice search for the best single-Gaussian
    proposal to the ``bimodal_target`` at a given budget. Ties resolve to the
    lowest flat index (mu-major, then sigma)."""
    return _fit_grids(gen, (budget,), mus, sigmas, n_nodes, span)[0]


def _fit_grids(
    gen: Generator | None,
    budgets: tuple[float, ...],
    mus: np.ndarray | None,
    sigmas: np.ndarray | None,
    n_nodes: int,
    span: float,
) -> list[FitResult]:
    """``fit_grid`` at each budget, from one view per lattice cell."""
    gen = gen or Generator.gan()
    target = bimodal_target()
    mus = FIT_MU_GRID_DEFAULT if mus is None else np.asarray(mus, dtype=float)
    sigmas = FIT_SIGMA_GRID_DEFAULT if sigmas is None else np.asarray(sigmas, dtype=float)
    if not (len(mus) and len(sigmas)):
        raise DomainError("a fit lattice needs at least one mu and one sigma")
    losses = np.empty((len(budgets), len(mus), len(sigmas)))
    for i, mu in enumerate(mus):
        for j, sigma in enumerate(sigmas):
            model = single_gaussian(float(mu), float(sigma))
            losses[:, i, j] = _budgeted_losses(
                gen, target, model, budgets, "quadrature", n_nodes, span
            )
    results = []
    for budget, grid in zip(budgets, losses):
        i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
        results.append(FitResult(
            gen_label=gen.label,
            budget=budget,
            mus=mus,
            sigmas=sigmas,
            losses=grid,
            best_mu=float(mus[i]),
            best_sigma=float(sigmas[j]),
            best_loss=float(grid[i, j]),
        ))
    return results
