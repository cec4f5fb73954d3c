"""Optimal budgeted rejection sampling on exactly verifiable distributions."""

from .dist import (
    FiniteDist,
    GaussianMixture,
    RatioFn,
    bimodal_target,
    dist_from_json,
    gaussian_grid_2d,
    ratio_of,
    single_gaussian,
    spacing_mismatch_pair,
    trapezoid_grid,
)
from .errors import (
    AbsoluteContinuityError,
    BudgetExhaustedError,
    ConvergenceError,
    DomainError,
    EstimationError,
    ObrsError,
    OutOfBallError,
    SupportMismatchError,
    UnsupportedGeneratorError,
)
from .fdiv import (
    GENERATOR_PANEL,
    DivergenceEstimate,
    Generator,
    discriminator_from_ratio,
    divergence_finite,
    divergence_mc,
    divergence_quadrature,
    dual_value,
    f_value,
    fstar_value,
    max_divergence,
    ratio_from_discriminator,
    renyi_divergence,
)
from .landscape import (
    FitResult,
    LossSurface,
    budgeted_loss,
    fit_grid,
    landscape_1d,
    local_minima_count,
    primal_identity_check,
)
from .oracle import (
    BallReport,
    BoundReport,
    KLRenyiReport,
    OptimalityReport,
    check_ball_membership,
    check_improvement_bound,
    check_kl_renyi_bound,
    check_optimality,
    random_feasible_acceptance,
    random_instance,
)
from .prcurve import (
    PRCurve,
    PRPoint,
    check_refined_prediction,
    default_lambda_grid,
    pr_curve,
    pr_point,
    predict_refined_curve,
)
from .sampling import (
    AcceptanceSpec,
    RefinedFinite,
    SampleResult,
    ScaleSolution,
    acceptance_from_target,
    calibrate,
    refine,
    refine_with_drs,
    refined_finite,
    rejection_sample,
    rejection_sample_shared,
)

__version__ = "0.2.0"

__all__ = [name for name in dir() if not name.startswith("_")]
