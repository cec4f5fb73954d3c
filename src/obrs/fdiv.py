"""f-divergences: generators, convex conjugates, and estimators.

A divergence between target P and model Q is written as an expectation under
the model, D_f(P || Q) = E_Q[f(r)] with r = p/q, for a convex generator f
normalized so the minimum is at u = 1. Five generators are supported:

============  ==========================================  =============
label         f(u)                                        f(1)
============  ==========================================  =============
kl            u log u                                     0
reverse_kl    -log u                                      0
tv            |u - 1| / 2                                 0
gan           u log u - (u+1) log(u+1)                    -log 4
pr            max(lam*u, 1) - max(lam, 1)                 0
============  ==========================================  =============

The gan generator keeps its textbook offset (f(1) = -log 4) rather than
being re-normalized, so gan divergences live in [-log 4, 0]. The pr family
is parameterized by lam > 0 and its divergence is the hinge gap between the
two distributions at that ratio threshold.

Conjugates f*(t) = sup_u (ut - f(u)) are provided for the variational
(dual) form, along with the gradient maps in both directions:
``discriminator_from_ratio`` = f'(r) and ``ratio_from_discriminator`` =
(f*)'(t). For smooth generators these are inverse bijections and the
Fenchel-Young identity f(u) + f*(f'(u)) = u f'(u) holds exactly.

Every exact and quadrature divergence starts from ``dist.pair_view``, the
weighted (target, model) view, and sums the terms of one kernel,
``_fdiv_terms``, which works from the two weights and the view's log-ratio.
``f_value`` is the pointwise map, kept for Monte Carlo estimates and the
generator table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import Distribution, FiniteDist, GaussianMixture, PairView, RatioFn, _count, pair_view
from .errors import (
    AbsoluteContinuityError,
    DomainError,
    EstimationError,
    SupportMismatchError,
    UnsupportedGeneratorError,
)

_KINDS = ("kl", "reverse_kl", "tv", "gan", "pr")
_SMOOTH = ("kl", "reverse_kl", "gan")


@dataclass(frozen=True)
class Generator:
    """A convex generator f for an f-divergence; ``lam`` only applies to pr."""

    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedGeneratorError(f"unknown generator kind {self.kind!r}")
        if self.kind == "pr":
            if self.lam is None or not 0 < self.lam < math.inf:  # also rejects NaN
                raise DomainError(f"pr generator needs a finite lam > 0, got {self.lam!r}")
        elif self.lam is not None:
            raise DomainError(f"{self.kind} takes no lam parameter")

    # -- constructors -------------------------------------------------------

    @classmethod
    def kl(cls) -> "Generator":
        return cls("kl")

    @classmethod
    def reverse_kl(cls) -> "Generator":
        return cls("reverse_kl")

    @classmethod
    def total_variation(cls) -> "Generator":
        return cls("tv")

    @classmethod
    def gan(cls) -> "Generator":
        return cls("gan")

    @classmethod
    def precision_recall(cls, lam: float) -> "Generator":
        return cls("pr", float(lam))

    @classmethod
    def parse(cls, text: str) -> "Generator":
        """Parse a CLI label: ``kl``, ``rkl``, ``tv``, ``gan``, or ``pr:LAM``."""
        text = text.strip().lower()
        if text in ("kl",):
            return cls.kl()
        if text in ("rkl", "reverse_kl"):
            return cls.reverse_kl()
        if text in ("tv",):
            return cls.total_variation()
        if text in ("gan",):
            return cls.gan()
        if text.startswith("pr:"):
            try:
                lam = float(text[3:])
            except ValueError:
                raise UnsupportedGeneratorError(f"bad pr threshold in {text!r}") from None
            return cls.precision_recall(lam)
        raise UnsupportedGeneratorError(f"unknown generator {text!r}")

    # -- properties ---------------------------------------------------------

    @property
    def label(self) -> str:
        return f"pr:{self.lam:g}" if self.kind == "pr" else self.kind

    @property
    def smooth(self) -> bool:
        return self.kind in _SMOOTH

    @property
    def f_at_one(self) -> float:
        """f(1): 0 for all generators except gan, whose offset is -log 4."""
        return -math.log(4.0) if self.kind == "gan" else 0.0

    def __str__(self) -> str:
        return self.label


# ---------------------------------------------------------------------------
# Pointwise maps
# ---------------------------------------------------------------------------


def f_value(gen: Generator, u):
    """Evaluate f(u) elementwise for u >= 0 (right-limit conventions at 0).

    At u = 0: kl -> 0, gan -> 0, tv -> 1/2, pr -> 1 - max(lam, 1),
    reverse_kl -> +inf. A negative or NaN u raises DomainError.
    """
    arr = np.asarray(u, dtype=float)
    if not np.all(arr >= 0):  # also rejects NaN
        raise DomainError("generator argument must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        if gen.kind == "kl":
            out = np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0)
        elif gen.kind == "reverse_kl":
            out = np.where(arr > 0, -np.log(np.where(arr > 0, arr, 1.0)), np.inf)
        elif gen.kind == "tv":
            out = 0.5 * np.abs(arr - 1.0)
        elif gen.kind == "gan":
            # u log u - (u+1) log(u+1); log1p keeps the second term accurate.
            out = np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0) - (
                arr + 1.0
            ) * np.log1p(arr)
        else:  # pr
            out = np.maximum(gen.lam * arr, 1.0) - max(gen.lam, 1.0)
    return float(out) if np.isscalar(u) else out


def fstar_value(gen: Generator, t):
    """Convex conjugate f*(t), on each generator's dual domain.

    kl: exp(t-1) on all of R; gan: -log(1 - e^t) for t < 0;
    reverse_kl: -1 - log(-t) for t < 0; pr: t / lam.
    tv has no useful conjugate here and raises; a NaN t raises DomainError.
    """
    if gen.kind == "tv":
        raise UnsupportedGeneratorError("tv conjugate is degenerate; not supported")
    arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("conjugate argument is NaN")
    if gen.kind == "kl":
        out = np.exp(arr - 1.0)
    elif gen.kind == "gan":
        if not np.all(arr < 0):
            raise DomainError("gan conjugate needs t < 0")
        out = -np.log(-np.expm1(arr))
    elif gen.kind == "reverse_kl":
        if not np.all(arr < 0):
            raise DomainError("reverse_kl conjugate needs t < 0")
        out = -1.0 - np.log(-arr)
    else:  # pr
        out = arr / gen.lam
    return float(out) if np.isscalar(t) else out


def discriminator_from_ratio(gen: Generator, r):
    """Optimal dual variable at ratio r, i.e. f'(r) (a subgradient for tv/pr).

    kl: 1 + log r; gan: log(r / (1+r)) (the log-sigmoid convention);
    reverse_kl: -1/r; tv: sign(r-1)/2; pr: lam * sign(r-1). A ratio that is
    not positive, NaN included, raises DomainError.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(arr > 0):  # also rejects NaN
        raise DomainError("ratio must be positive")
    if gen.kind == "kl":
        out = 1.0 + np.log(arr)
    elif gen.kind == "gan":
        out = np.log(arr) - np.log1p(arr)
    elif gen.kind == "reverse_kl":
        out = -1.0 / arr
    elif gen.kind == "tv":
        out = 0.5 * np.sign(arr - 1.0)
    else:  # pr
        out = gen.lam * np.sign(arr - 1.0)
    return float(out) if np.isscalar(r) else out


def ratio_from_discriminator(gen: Generator, t):
    """Invert the dual map: (f*)'(t). Only smooth generators are invertible.

    kl: exp(t-1); gan: e^t / (1 - e^t) for t < 0; reverse_kl: -1/t for t < 0.
    A NaN t raises DomainError.
    """
    if not gen.smooth:
        raise UnsupportedGeneratorError(f"{gen.label} has no single-valued ratio recovery")
    arr = np.asarray(t, dtype=float)
    if gen.kind == "kl":
        if np.any(np.isnan(arr)):
            raise DomainError("kl discriminator value is NaN")
        out = np.exp(arr - 1.0)
    elif gen.kind == "gan":
        if not np.all(arr < 0):  # also rejects NaN
            raise DomainError("gan discriminator values must be negative")
        out = np.exp(arr) / (-np.expm1(arr))
    else:  # reverse_kl
        if not np.all(arr < 0):  # also rejects NaN
            raise DomainError("reverse_kl discriminator values must be negative")
        out = -1.0 / arr
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# Divergence estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceEstimate:
    """A divergence value with sampling metadata (stderr = 0 means exact)."""

    value: float
    stderr: float = 0.0
    n: int = 0

    def __float__(self) -> float:
        return self.value


def divergence_finite(gen: Generator, target: FiniteDist, model: FiniteDist) -> DivergenceEstimate:
    """Exact D_f(target || model) on a shared finite support.

    Atoms where both masses vanish contribute nothing. A model-null atom
    carrying target mass breaks absolute continuity: tv and pr remain finite
    by their u -> inf limits, every other generator raises.
    """
    view = pair_view(target, model, "exact")
    p, q = view.pw, view.qw
    if not (target._zero_mass or model._zero_mass):
        # full support: every log ratio is finite and no limit applies
        return DivergenceEstimate(value=_fsum(_fdiv_terms(gen, p, q, view.log_r, zeros=False)))
    if model._zero_mass and gen.kind not in ("tv", "pr"):
        heavy = np.flatnonzero((q == 0) & (p > 0))
        if heavy.size:
            i = int(heavy[0])
            raise AbsoluteContinuityError(
                f"model mass vanishes at atom index {i} ({target.atoms[i]!r}) "
                "where target mass is positive"
            )
    with np.errstate(all="ignore"):
        terms = _fdiv_terms(gen, p, q, view.log_r)
    return DivergenceEstimate(value=_fsum(terms))


def divergence_quadrature(
    gen: Generator,
    target: GaussianMixture,
    model: GaussianMixture,
    n_nodes: int = 4096,
    span: float = 8.0,
) -> DivergenceEstimate:
    """Trapezoid-rule D_f(target || model) for 1-d mixture pairs."""
    view = pair_view(target, model, "quadrature", n_nodes, span)
    with np.errstate(all="ignore"):
        terms = _fdiv_terms(gen, view.pw, view.qw, view.log_r)
    return DivergenceEstimate(value=_fsum(terms))


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def _fsum_rows(values: np.ndarray) -> np.ndarray:
    """``_fsum`` of each row of a 2-d array, as a column."""
    return np.fromiter(map(math.fsum, values.tolist()), float, len(values))[:, None]


def _fdiv_terms(
    gen: Generator, pw: np.ndarray, qw: np.ndarray, log_u: np.ndarray, zeros: bool = True
) -> np.ndarray:
    """Stable per-point contributions qw * f(exp(log_u)) with pw = qw * u.

    The one f-divergence kernel: every exact and quadrature divergence and
    every budgeted loss sums its terms. Works directly from target weight,
    model weight, and the log ratio, so log-ratios of hundreds never
    round-trip through exp(). qw may be an acceptance-reweighted model
    weight. Where qw = 0 under target mass, tv and pr take their u -> inf
    limits; where both weights vanish every term is 0. The arrays broadcast.

    zeros says some weight may be zero (or log_u may not be finite). Only
    then are those limits masked in, and the caller runs the kernel under
    ``np.errstate(all="ignore")``. With zeros false every weight is positive
    and every log_u finite, where each mask would pick the plain formula:
    it is taken directly, with the same bits, in the caller's error state.
    Only underflow can occur there, at subnormal weights, and numpy ignores
    it by default.
    """
    if gen.kind == "kl":
        # qw * u log u = pw * log u
        return np.where(pw > 0, pw * log_u, 0.0) if zeros else pw * log_u
    if gen.kind == "reverse_kl":
        if not zeros:
            return -qw * log_u
        terms = np.where(qw > 0, -qw * log_u, 0.0)
        if np.any((qw > 0) & (pw == 0)):
            terms = np.where((qw > 0) & (pw == 0), np.inf, terms)
        return terms
    if gen.kind == "tv":
        return 0.5 * np.abs(pw - qw)
    if gen.kind == "gan":
        # qw [u log u - (u+1) log(u+1)] = pw log u - (pw + qw) log(u+1)
        log1pu = np.logaddexp(log_u, 0.0)
        if not zeros:
            return pw * log_u - (pw + qw) * log1pu
        terms = np.where(pw > 0, pw * log_u, 0.0) - (pw + qw) * log1pu
        # the one formula that gives 0 * nan where both weights vanish, or
        # where a vanished model weight under target mass has limit 0
        return np.where((qw == 0) & ((pw == 0) | ~np.isfinite(log_u)), 0.0, terms)
    # pr
    return np.maximum(gen.lam * pw, qw) - max(gen.lam, 1.0) * qw


def _acceptance_loss(gen: Generator, view: PairView, log_a: np.ndarray) -> float | np.ndarray:
    """D_f(target || q a / Z) on a pair view, from log a at each point.

    Z = total(q a) is the measured rate and total sums the terms too: it is
    ``_fsum`` on exact views and ``np.sum`` on grids and samples. log u =
    log(p / refined) stays finite where the refined mass underflows.

    log_a may also be a (trials, points) matrix, one acceptance per row,
    summed by ``_fsum_rows``: the losses then come back as a column, each
    row's bits those of its own call on an exact view.
    """
    batch = log_a.ndim == 2
    total = _fsum_rows if batch else _fsum if view.mode == "exact" else np.sum
    qa = view.qw * np.exp(log_a)
    z = total(qa)
    rates = z.ravel().tolist() if batch else [float(z)]
    if min(rates) <= 0:
        raise DomainError("acceptance kills all model mass")
    if batch:
        log_z = np.fromiter(map(math.log, rates), float, len(rates))[:, None]
    else:
        log_z = math.log(rates[0])
    with np.errstate(all="ignore"):
        log_u = view.lp - (view.lq + log_a - log_z)
        terms = _fdiv_terms(gen, view.pw, qa / z, log_u)
    return total(terms) if batch else float(total(terms))


def divergence_mc(
    gen: Generator,
    ratio: RatioFn,
    model: Distribution,
    n: int,
    rng: np.random.Generator,
) -> DivergenceEstimate:
    """Monte Carlo E_model[f(r)] with a normal-approximation stderr.

    A draw count that is not an integer >= 2 raises DomainError.
    """
    n = _count(n, "samples")
    xs = model.sample(rng, n)
    lr = np.asarray(ratio.log(xs), dtype=float)
    vals = f_value(gen, np.exp(lr))
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise EstimationError(
            "non-finite generator value in Monte Carlo estimate", offending_value=float(lr[bad])
        )
    return DivergenceEstimate(
        value=float(np.mean(vals)), stderr=float(np.std(vals, ddof=1) / math.sqrt(n)), n=n
    )


def dual_value(
    gen: Generator,
    t_fn: Callable[[np.ndarray], np.ndarray],
    target: Distribution,
    model: Distribution,
    n_nodes: int = 4096,
    span: float = 8.0,
) -> float:
    """Variational value E_target[t(x)] - E_model[f*(t(x))] for a dual function t.

    Equals the divergence when t is the optimal discriminator; any other t
    gives a lower bound. Finite pairs are summed exactly, 1-d mixture pairs
    integrated by quadrature. Points where neither distribution has mass
    contribute nothing; a t that is NaN or infinite anywhere else raises
    DomainError.
    """
    if isinstance(target, FiniteDist) and isinstance(model, FiniteDist):
        mode = "exact"
    elif isinstance(target, GaussianMixture) and isinstance(model, GaussianMixture):
        mode = "quadrature"
    else:
        raise SupportMismatchError("dual_value needs two finite or two mixture distributions")
    view = pair_view(target, model, mode, n_nodes, span)
    live = (view.pw > 0) | (view.qw > 0)
    pw, qw = view.pw[live], view.qw[live]
    t = np.broadcast_to(np.asarray(t_fn(view.points), dtype=float), live.shape)[live]
    if not np.all(np.isfinite(t)):
        raise DomainError("the dual function must be finite wherever either distribution has mass")
    return _fsum(pw * t) - _fsum(qw * fstar_value(gen, t))


# ---------------------------------------------------------------------------
# Renyi and max divergences
# ---------------------------------------------------------------------------


def renyi_divergence(order: float, target: FiniteDist, model: FiniteDist) -> float:
    """Renyi divergence of the given order on a shared finite support.

    Computed as logsumexp(order*log p + (1-order)*log q) / (order - 1).
    Orders <= 0, NaN and exactly 1 are rejected; orders > 1 require the
    model to dominate the target. Very large orders approach the max
    divergence, which order +inf returns.
    """
    if not order > 0:  # also rejects NaN
        raise DomainError(f"Renyi order must be positive, got {order!r}")
    if order == 1.0:
        raise DomainError("order 1 is the KL limit; use divergence_finite with kl")
    if order == math.inf:
        return max_divergence(target, model)
    view = pair_view(target, model, "exact")
    if order > 1:
        bad = np.flatnonzero(view.log_r == np.inf)
        if bad.size:
            raise AbsoluteContinuityError(
                f"order {order} needs model support to cover the target "
                f"(fails at atom index {int(bad[0])})"
            )
    live = (view.pw > 0) & (view.qw > 0)
    if not np.any(live):
        raise DomainError("distributions share no support")
    return _logsumexp(order * view.lp[live] + (1.0 - order) * view.lq[live]) / (order - 1.0)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a nonempty 1-d array, bit for bit as
    ``scipy.special.logsumexp`` computes it.

    The maximum m is split off: with k entries equal to m and s the sum of
    exp(a - m) over the others, the result is log1p(s/k) + log(k) + m,
    evaluated on one-element arrays as scipy evaluates it. Where that is not
    finite (an all -inf, a +inf or a NaN entry) it is log(sum(exp(a))).
    """
    top = np.max(a, keepdims=True)
    at_top = a == top
    count = np.sum(at_top, dtype=float, keepdims=True)
    with np.errstate(all="ignore"):
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), keepdims=True)
        s = np.where(s == 0, s, s / count)
        out = float((np.log1p(s) + np.log(count) + top)[0])
        if not math.isfinite(out):
            out = float(np.log(np.sum(np.exp(a))))
    return out


def max_divergence(target: Distribution, model: Distribution) -> float:
    """log sup_x target(x)/model(x): exact on finite supports, the sup over
    the default ``pair_view`` grid for 1-d mixtures (2-d ones raise DomainError)."""
    if isinstance(target, FiniteDist) and isinstance(model, FiniteDist):
        view = pair_view(target, model, "exact")
        bad = np.flatnonzero(view.log_r == np.inf)
        if bad.size:
            raise AbsoluteContinuityError(
                f"model mass vanishes at atom index {int(bad[0])} under target mass"
            )
        live = view.pw > 0
        if not np.any(live):
            raise DomainError("target has no mass")
        return float(np.max(view.log_r[live]))
    if isinstance(target, GaussianMixture) and isinstance(model, GaussianMixture):
        return float(np.max(pair_view(target, model, "quadrature").log_r))
    raise SupportMismatchError("max_divergence needs two finite or two mixture distributions")


GENERATOR_PANEL: tuple[Generator, ...] = (
    Generator.kl(),
    Generator.reverse_kl(),
    Generator.total_variation(),
    Generator.gan(),
    Generator.precision_recall(2.0),
)
"""The default panel used by optimality sweeps and the CLI table."""
