"""Distributions with exact likelihood ratios.

Two concrete families, chosen so every downstream quantity is exactly
verifiable:

- ``FiniteDist``: explicit atoms and probabilities (exact sums).
- ``GaussianMixture``: diagonal Gaussian mixtures in 1 or 2 dimensions
  (analytic densities; expectations via quadrature or Monte Carlo).

``ratio_of`` builds the likelihood-ratio evaluator r(x) = p(x)/q(x) used by
all acceptance functions. Mixture ratios are evaluated in log space so that
deep tails (log-ratios of several hundred) never overflow prematurely.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, EstimationError, SupportMismatchError

_PROB_TOL = 1e-12
# shifted mixture terms are raised to this before exp: from about -708 down,
# np.exp leaves its vectorized path for subnormal and underflowing results
_LOG_FLOOR = -700.0
# how far a quadrature view's target or model mass may miss 1
_MASS_TOL = 1e-2


# ---------------------------------------------------------------------------
# Finite distributions
# ---------------------------------------------------------------------------


class FiniteDist:
    """A distribution on an explicit finite set of atoms.

    Atoms may be any hashable labels (ints, strings, coordinate tuples);
    probabilities must be a flat vector of real numbers (ints or floats;
    not bools, strings or nested lists), nonnegative and summing to 1
    within 1e-12. Anything else raises DomainError. ``probs`` is a
    read-only float copy of the vector given, so the distribution cannot
    change after it was validated. The log masses (-inf at zero mass) and
    the atom indices that exact pair views read are taken once, here.
    """

    def __init__(self, atoms: Sequence[Any], probs: Sequence[float]):
        atoms = list(atoms)
        try:
            index = {a: i for i, a in enumerate(atoms)}
        except TypeError:
            raise DomainError("atoms must be hashable") from None
        # an ndarray is checked in O(1), from its shape and dtype
        try:
            given = probs if isinstance(probs, np.ndarray) else np.asarray(probs)
        except (TypeError, ValueError):  # a ragged nesting, say
            given = None
        if given is None or given.ndim != 1 or given.dtype.kind not in "fiu":
            raise DomainError("probabilities must be a flat vector of ints or floats")
        probs = given.astype(float)
        if len(atoms) != len(probs):
            raise DomainError("atoms and probs must have equal length")
        if len(index) != len(atoms):
            raise DomainError("atoms must be distinct")
        # both checks are written to fail on NaN, which min propagates
        least = probs.min(initial=math.inf)
        if not least >= 0:
            raise DomainError("probabilities must be nonnegative")
        total = math.fsum(probs.tolist())
        if not abs(total - 1.0) <= _PROB_TOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        zero_mass = bool(least == 0)  # some atom carries no mass
        if zero_mass:
            log_probs = np.log(probs, out=np.full(len(probs), -np.inf), where=probs > 0)
        else:
            log_probs = np.log(probs)
        positions = np.arange(len(probs))
        for view in (probs, log_probs, positions):
            view.setflags(write=False)
        self.atoms = atoms
        self.probs = probs
        self._zero_mass = zero_mass
        self._index = index
        self._log_view = positions, log_probs  # read by exact pair views

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"FiniteDist({len(self)} atoms)"

    def index(self, atom: Any) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise DomainError(f"{atom!r} is not an atom of this distribution") from None

    def density(self, x: Any) -> float:
        """Probability mass at atom ``x`` (error if x is not an atom)."""
        return float(self.probs[self.index(x)])

    def sample(self, rng: np.random.Generator, n: int) -> list:
        return self._atoms_at(self._draw(rng, n))

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws as atom indices: the rng stream of ``sample``."""
        return rng.choice(len(self.atoms), size=n, p=self.probs)

    def _atoms_at(self, index: np.ndarray) -> list:
        atoms = self.atoms
        return [atoms[i] for i in index.tolist()]

    def same_support(self, other: "FiniteDist") -> bool:
        return self.atoms == other.atoms

    def to_json(self) -> dict:
        return {"type": "finite", "atoms": _jsonable(self.atoms), "probs": self.probs.tolist()}


def _jsonable(atoms: list) -> list:
    out = []
    for a in atoms:
        if isinstance(a, tuple):
            out.append(list(a))
        elif isinstance(a, (np.integer,)):
            out.append(int(a))
        elif isinstance(a, (np.floating,)):
            out.append(float(a))
        else:
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# Gaussian mixtures (diagonal covariance, dim 1 or 2)
# ---------------------------------------------------------------------------


class GaussianMixture:
    """Mixture of axis-aligned Gaussians in 1 or 2 dimensions."""

    def __init__(self, weights: Sequence[float], means: Sequence, stds: Sequence):
        weights = np.asarray(weights, dtype=float)
        means = np.atleast_2d(np.asarray(means, dtype=float))
        if means.shape[0] == 1 and len(weights) > 1:
            means = means.T  # a flat list of 1-d means came in as one row
        stds = np.asarray(stds, dtype=float)
        k, dim = means.shape
        if dim not in (1, 2):
            raise DomainError(f"only dim 1 or 2 supported, got {dim}")
        if stds.ndim == 0:
            stds = np.full((k, dim), float(stds))
        elif stds.ndim == 1:
            if stds.shape[0] == k:
                stds = np.repeat(stds[:, None], dim, axis=1)
            else:
                raise DomainError("stds must be scalar or per-component")
        if stds.shape != (k, dim):
            raise DomainError(f"stds shape {stds.shape} incompatible with {k} components of dim {dim}")
        if len(weights) != k:
            raise DomainError("weights and means must have equal length")
        # every check is written to fail on NaN
        if not (np.all(weights >= 0) and abs(math.fsum(weights.tolist()) - 1.0) <= _PROB_TOL):
            raise DomainError("weights must be a probability vector")
        if not np.all(np.isfinite(means)):
            raise DomainError("means must be finite")
        if not np.all((stds > 0) & np.isfinite(stds)):
            raise DomainError("standard deviations must be positive and finite")
        self.weights = weights
        self.means = means
        self.stds = stds
        self.dim = dim
        log_w = np.log(weights, out=np.full_like(weights, -np.inf), where=weights > 0)
        log_norm = -np.sum(np.log(stds), axis=1) - 0.5 * dim * math.log(2 * math.pi)
        self._log_base = log_w + log_norm  # log(w_j) plus the normalizer of component j
        # a 2-d grid (gaussian_grid_2d's layout) as its per-axis (mean, std) columns
        axes = _row_major_axes(np.stack([means, stds], axis=2)) if dim == 2 else None
        self._grid = None if axes is None else tuple((a[:, 0:1], a[:, 1:2]) for a in axes)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"GaussianMixture(k={self.n_components}, dim={self.dim})"

    def _points(self, x) -> np.ndarray:
        """x as an (n, dim) array. A 1-d mixture reads a scalar, an (n,) or an
        (n, 1) array; a 2-d one a single (2,) point or an (n, 2) array. Any
        other shape raises DomainError."""
        pts = np.asarray(x, dtype=float)
        if self.dim == 1 and (pts.ndim < 2 or pts.shape[1:] == (1,)):
            return pts.reshape(-1, 1)
        if self.dim == 2 and pts.shape[-1:] == (2,) and pts.ndim <= 2:
            return pts.reshape(-1, 2)
        raise DomainError(f"a {self.dim}-d mixture cannot read points of shape {pts.shape}")

    def log_density(self, x) -> np.ndarray | float:
        """Log density; exact in log space even deep in the tails.

        Works axis by axis on component-major (k, n) arrays: no (n, k, dim)
        temporaries, and every reduction runs over the long axis. A 2-d
        mixture whose components are the row-major product of per-axis
        (mean, std) lists, as ``gaussian_grid_2d`` builds them, takes each
        axis's squares once per distinct pair and forms the (k, n) sum by
        broadcasting. The elementwise ops are those of the (n, k) formula
        and the rows are summed in its order, so the bits are the same on
        either path. The points x are only read.
        """
        pts = self._points(x)  # (n, dim)
        if self._grid is not None:
            (mx, sx), (my, sy) = self._grid
            zx = _axis_squares(pts[:, 0], mx, sx)  # (nx, n)
            zy = _axis_squares(pts[:, 1], my, sy)  # (ny, n)
            sq = np.add(zx[:, None, :], zy[None, :, :]).reshape(len(self._log_base), -1)
        else:
            sq = _axis_squares(pts[:, 0], self.means[:, 0:1], self.stds[:, 0:1])
            if self.dim == 2:
                sq += _axis_squares(pts[:, 1], self.means[:, 1:2], self.stds[:, 1:2])
        sq *= 0.5
        comp = np.subtract(self._log_base[:, None], sq, out=sq)
        if len(comp) == 1:
            out = comp[0]
        else:
            m = np.max(comp, axis=0)
            # a row of -inf terms has density 0; its max shift is -inf - -inf
            dead = np.flatnonzero(m == -np.inf)
            m[dead] = 0.0
            comp -= m
            # Each point's largest term is now exactly 0, so its row sum holds
            # exp(0) = 1. A term below _LOG_FLOOR was under 1e-304 and stays
            # at most exp(-700) ~ 1e-304 when raised to the floor: it moves
            # only partial sums far below half an ulp of the one holding the
            # 1, so the pairwise sum keeps every bit, while exp stays off its
            # slow subnormal and underflow path. NaN passes through maximum.
            np.maximum(comp, _LOG_FLOOR, out=comp)
            np.exp(comp, out=comp)
            s = _pairwise_row_sum(comp)  # a row of comp's own storage
            out = np.add(m, np.log(s, out=s), out=m)
            out[dead] = -np.inf
        return _match_shape(out, x, self.dim)

    def density(self, x) -> np.ndarray | float:
        ld = self.log_density(x)
        return np.exp(ld) if isinstance(ld, np.ndarray) else math.exp(ld)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        out = self.means[comps] + eps * self.stds[comps]
        return out[:, 0] if self.dim == 1 else out

    def support_box(self, span: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box: union of component mean ± span·std intervals."""
        lo = np.min(self.means - span * self.stds, axis=0)
        hi = np.max(self.means + span * self.stds, axis=0)
        return lo, hi

    def to_json(self) -> dict:
        return {
            "type": "gaussian_mixture",
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }


def _axis_squares(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """((x - mean) / std)**2 as a (len(mean), n) array, for (k, 1) columns."""
    z = x - mean
    z /= std
    z *= z
    return z


def _row_major_axes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Two lists xs, ys with keys[i * len(ys) + j] == (xs[i], ys[j]) for every
    i, j, read off the (k, 2, ...) array keys; None if keys are laid out
    otherwise."""
    x, y = keys[:, 0], keys[:, 1]
    k = len(x)
    first = (x == x[0]).reshape(k, -1).all(axis=1)
    run = k if first.all() else int(np.argmin(first))  # x[0]'s leading run
    # len(ys) is at most that run; a repeated x pair can make it shorter
    for ny in range(run, 0, -1):
        if k % ny:
            continue
        xs, ys = x[::ny], y[:ny]
        grid = (k // ny, ny) + x.shape[1:]
        if np.all(x.reshape(grid) == xs[:, None]) and np.all(y.reshape(grid) == ys[None]):
            return xs, ys
    return None


def _pairwise_row_sum(a: np.ndarray) -> np.ndarray:
    """The rows of a (k, n) array summed as ``np.sum(a.T, axis=1)`` sums them.

    numpy adds a contiguous run of k values in pairwise order: below 8 one
    after another; up to 128 in 8 strided accumulators, combined as a fixed
    tree, then the remainder; above 128 as two halves split at a multiple of
    8. Each step here is that step applied to whole rows at once. From k = 8
    the sums accumulate in a's own rows, which they overwrite; the result is
    then a view of one of them.
    """
    k = len(a)
    if k < 8:
        return np.sum(a, axis=0)  # sequential over axis 0
    if k > 128:
        half = k // 2 - k // 2 % 8
        s = _pairwise_row_sum(a[:half])
        s += _pairwise_row_sum(a[half:])
        return s
    top = k - k % 8
    r = a[:8]
    for i in range(8, top, 8):
        r += a[i:i + 8]
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    r[0::2] += r[1::2]
    r[0::4] += r[2::4]
    r[0] += r[4]
    s = r[0]
    for i in range(top, k):
        s += a[i]
    return s


def _match_shape(out: np.ndarray, x, dim: int):
    """Return a scalar for scalar-ish input, else the flat array."""
    arr = np.asarray(x)
    if dim == 1 and arr.ndim == 0:
        return float(out[0])
    if dim == 2 and arr.ndim == 1:
        return float(out[0])
    return out


Distribution = FiniteDist | GaussianMixture


def dist_from_json(obj: dict) -> Distribution:
    kind = obj.get("type")
    if kind == "finite":
        atoms = [tuple(a) if isinstance(a, list) else a for a in obj["atoms"]]
        return FiniteDist(atoms, obj["probs"])
    if kind == "gaussian_mixture":
        return GaussianMixture(obj["weights"], obj["means"], obj["stds"])
    raise DomainError(f"unknown distribution type {kind!r}")


# ---------------------------------------------------------------------------
# Likelihood ratios
# ---------------------------------------------------------------------------


@dataclass
class RatioFn:
    """Likelihood-ratio evaluator r(x) = target(x) / model(x).

    ``log`` evaluates log r(x); ``__call__`` exponentiates it. Keeping the
    log form public matters: mixture pairs can have log-ratios of several
    hundred where exp() would overflow. ``kind`` names the family the ratio
    reads (``finite`` atoms or ``mixture`` points; ``analytic`` for one
    built by hand), ``calls`` counts the points evaluated, and ``bound_fn``,
    where given, returns a closed-form upper bound on sup log r.
    """

    log_fn: Callable[[Any], np.ndarray | float]
    kind: str = "analytic"
    calls: int = field(default=0, compare=False)  # points evaluated, not batches
    bound_fn: Callable[[], float] | None = field(default=None, compare=False, repr=False)

    def log_sup_bound(self) -> float:
        """An upper bound on sup log r; +inf where none is known."""
        return math.inf if self.bound_fn is None else self.bound_fn()

    def log(self, x) -> np.ndarray | float:
        if np.isscalar(x) or isinstance(x, tuple):
            self.calls += 1
        else:
            self.calls += len(x)
        return self.log_fn(x)

    def __call__(self, x) -> np.ndarray | float:
        lr = self.log(x)
        return np.exp(lr) if isinstance(lr, np.ndarray) else math.exp(lr)


def ratio_of(target: Distribution, model: Distribution) -> RatioFn:
    """Exact likelihood ratio of two distributions of the same family.

    Finite/finite pairs must share the atom list; an atom with model mass 0
    and target mass > 0 is a zero-denominator error. A finite ratio read at
    a label that is not one of its atoms raises DomainError.
    """
    if isinstance(target, FiniteDist) and isinstance(model, FiniteDist):
        view = pair_view(target, model, "exact")
        log_table = np.where(view.pw > 0, view.checked_log_r(), -np.inf)

        def log_fn(x):
            if isinstance(x, (list, np.ndarray)) and not np.isscalar(x):
                return log_table[[model.index(a) for a in x]]
            return float(log_table[model.index(x)])

        return RatioFn(log_fn, kind="finite")

    if isinstance(target, GaussianMixture) and isinstance(model, GaussianMixture):
        if target.dim != model.dim:
            raise SupportMismatchError("mixture dimensions differ")

        def log_fn(x):
            return target.log_density(x) - model.log_density(x)

        bound = functools.cache(lambda: _log_ratio_bound(target, model))  # taken once, if asked
        return RatioFn(log_fn, kind="mixture", bound_fn=bound)

    raise SupportMismatchError("ratio_of needs two finite or two mixture distributions")


def _log_ratio_bound(target: GaussianMixture, model: GaussianMixture) -> float:
    """A closed-form U >= sup_x log p(x)/q(x) for two mixtures of one dimension.

    p/q <= sum_j min_k w_j N_j / (v_k N'_k) over the target components j of
    weight w_j > 0 and the model components k of weight v_k. Per axis,
    sup_x log N(x; mu, s) / N(x; nu, t) is log(t/s) + (mu - nu)^2 / (2 (t^2 -
    s^2)) for t > s, 0 for t = s and mu = nu, and +inf otherwise. So U is
    finite when every weighted target component has a model component of
    positive weight that is wider on every axis (or equal to it there).
    """
    live = target.weights > 0
    mu, s = target.means[live, None, :], target.stds[live, None, :]  # (J, 1, dim)
    nu, t = model.means[None], model.stds[None]  # (1, K, dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        wider = np.log(t / s) + (mu - nu) ** 2 / (2.0 * (t - s) * (t + s))
        gap = np.where(t > s, wider, np.where((t == s) & (mu == nu), 0.0, np.inf))
        terms = np.log(target.weights[live])[:, None] - np.log(model.weights) + gap.sum(axis=2)
    return float(np.logaddexp.reduce(np.min(terms, axis=1)))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _count(n, what: str, least: int = 2) -> int:
    """A count of nodes, draws or trials as an int; anything but an integer
    >= least (a float, NaN, inf, a bool or less) raises DomainError."""
    try:
        count = least - 1 if isinstance(n, bool) else operator.index(n)
    except TypeError:
        count = least - 1
    if count < least:
        raise DomainError(f"need an integer count of at least {least} {what}, got {n!r}")
    return count


def trapezoid_grid(
    dists: Sequence[GaussianMixture], n_nodes: int = 4096, span: float = 8.0
) -> tuple[np.ndarray, np.ndarray]:
    """Composite-trapezoid nodes/weights covering every mixture's support.

    The domain is the union of all component mean ± span·std intervals of
    all the 1-d mixtures given. For smooth, rapidly decaying integrands the
    rule converges superalgebraically, so 4096 nodes are effectively exact.
    A span that is not a finite positive number or stretches the domain
    beyond float range, or a node count that is not an integer >= 2, raises
    DomainError.
    """
    if not 0 < span < math.inf:  # also rejects NaN
        raise DomainError(f"span must be a finite positive number, got {span!r}")
    n_nodes = _count(n_nodes, "nodes")
    los, his = [], []
    for d in dists:
        if d.dim != 1:
            raise DomainError("trapezoid_grid handles 1-d mixtures only")
        lo, hi = d.support_box(span)
        los.append(lo[0])
        his.append(hi[0])
    lo, hi = min(los), max(his)
    if not math.isfinite(float(hi) - float(lo)):
        raise DomainError(f"span {span!r} puts the grid's ends beyond float range")
    x = np.linspace(lo, hi, n_nodes)
    h = (hi - lo) / (n_nodes - 1)
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2
    return x, w


class PairView(NamedTuple):
    """The weighted view of a (target, model) pair that ``pair_view`` builds:
    the log-densities lp, lq at the points, the log-ratio log_r = lp - lq
    (NaN where both masses vanish, +inf where only the model's does), and
    the target and model weights pw, qw whose sums are the expectations."""

    mode: str
    points: np.ndarray
    lp: np.ndarray
    lq: np.ndarray
    log_r: np.ndarray
    pw: np.ndarray
    qw: np.ndarray

    def checked_log_r(self) -> np.ndarray:
        """log_r for a calibration: target mass where the model has none is a
        zero-denominator DomainError."""
        bad = np.flatnonzero(self.log_r == np.inf)
        if bad.size:
            raise DomainError(f"zero-denominator: model mass is 0 at atom index {bad[0]} "
                              "where target mass is positive")
        return self.log_r


def pair_view(
    target: Distribution, model: Distribution, mode: str, n_nodes: int = 4096, span: float = 8.0,
    rng: np.random.Generator | None = None,
) -> PairView:
    """The ``PairView`` of a (target, model) pair in one of three modes.

    ``exact`` takes two finite distributions on one atom list: the points
    are the atom indices, lp and lq the log masses (-inf at zero mass) and
    pw, qw the masses, all read-only arrays the distributions keep.
    ``quadrature`` takes two 1-d mixtures: the points are the
    ``trapezoid_grid`` nodes and, with w their weights, pw = w * exp(lp)
    and qw = w * exp(lq); either sum more than 1e-2 from 1 raises
    EstimationError. ``sample`` takes n_nodes model draws with rng from a
    finite pair (as atom indices, refused like a calibration where the
    model misses target mass) or a mixture pair: qw = 1/n_nodes and
    pw = qw * exp(log_r), the importance weights. A missing rng or a count
    that is not an integer >= 2 raises DomainError, as do other families in
    the other modes; different atom lists, families or dimensions raise
    SupportMismatchError.
    """
    if mode == "sample":
        if rng is None:
            raise DomainError("sample mode needs an rng")
        n = _count(n_nodes, "calibration draws")
        if isinstance(target, FiniteDist) and isinstance(model, FiniteDist):
            full = pair_view(target, model, "exact")
            full.checked_log_r()
            x = model._draw(rng, n)
            lp, lq = full.lp[x], full.lq[x]
        elif isinstance(target, GaussianMixture) and isinstance(model, GaussianMixture):
            if target.dim != model.dim:
                raise SupportMismatchError("mixture dimensions differ")
            x = model.sample(rng, n)
            lp, lq = target.log_density(x), model.log_density(x)
        else:
            raise SupportMismatchError("sample mode needs two finite or two mixture distributions")
        qw = np.full(n, 1.0 / n)
        with np.errstate(invalid="ignore", over="ignore"):  # a ratio past float range weighs inf
            log_r = lp - lq
            return PairView(mode, x, lp, lq, log_r, qw * np.exp(log_r), qw)
    if mode == "exact":
        if not (isinstance(target, FiniteDist) and isinstance(model, FiniteDist)):
            raise DomainError("exact mode needs two finite distributions")
        if not target.same_support(model):
            raise SupportMismatchError("the two distributions must share one atom list")
        index, lp = target._log_view
        lq = model._log_view[1]
        if not (target._zero_mass and model._zero_mass):
            return PairView(mode, index, lp, lq, lp - lq, target.probs, model.probs)
        with np.errstate(invalid="ignore"):  # -inf - -inf where both masses vanish
            return PairView(mode, index, lp, lq, lp - lq, target.probs, model.probs)
    if mode == "quadrature":
        if not (isinstance(target, GaussianMixture) and isinstance(model, GaussianMixture)):
            raise DomainError("quadrature mode needs two mixtures")
        x, w = trapezoid_grid([target, model], n_nodes=n_nodes, span=span)
        lp = np.asarray(target.log_density(x), dtype=float)
        lq = np.asarray(model.log_density(x), dtype=float)
        pw, qw = w * np.exp(lp), w * np.exp(lq)
        mass = np.array([np.sum(pw), np.sum(qw)])
        if not np.max(np.abs(mass - 1.0)) <= _MASS_TOL:  # also fails on NaN
            raise EstimationError(f"a {len(x)}-node grid at span {span!r} holds target and model "
                                  f"masses {mass.tolist()}, not 1: it cannot resolve the pair")
        with np.errstate(invalid="ignore"):
            return PairView(mode, x, lp, lq, lp - lq, pw, qw)
    raise DomainError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Named experiment families
# ---------------------------------------------------------------------------


def spacing_mismatch_pair(
    theta: float, spacing_target: float = 1.0
) -> tuple[GaussianMixture, GaussianMixture]:
    """Ten equal 1-d modes: target at spacing ``spacing_target``, model at ``theta``.

    Both mixtures are centered at 0. The target has component variance 0.3,
    the model 0.4, so sweeping theta traces how mode-spacing mismatch moves
    divergence landscapes.
    """
    if theta <= 0:
        raise DomainError("spacing theta must be positive")
    offsets = np.arange(10) - 4.5
    target = GaussianMixture(
        np.full(10, 0.1), (offsets * spacing_target)[:, None], math.sqrt(0.3)
    )
    model = GaussianMixture(np.full(10, 0.1), (offsets * theta)[:, None], math.sqrt(0.4))
    return target, model


def bimodal_target(mu: float = 2.0, sigma: float = 0.5) -> GaussianMixture:
    """Equal two-mode 1-d mixture at ±mu."""
    return GaussianMixture([0.5, 0.5], [[-mu], [mu]], sigma)


def single_gaussian(mu: float, sigma: float) -> GaussianMixture:
    return GaussianMixture([1.0], [[mu]], sigma)


def gaussian_grid_2d(
    sigma: float = 0.05, spacing: float = 1.0, weights: Sequence[float] | None = None
) -> GaussianMixture:
    """5×5 lattice of 2-d Gaussians centered on {−2s..2s}², equal weights by default."""
    axis = spacing * (np.arange(5) - 2.0)
    means = np.array([(a, b) for a in axis for b in axis])
    if weights is None:
        weights = np.full(25, 1.0 / 25.0)
    return GaussianMixture(weights, means, sigma)
