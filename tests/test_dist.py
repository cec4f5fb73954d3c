"""Distribution containers, ratio evaluators, and the named families."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from obrs import (
    AbsoluteContinuityError,
    DomainError,
    FiniteDist,
    GaussianMixture,
    Generator,
    SupportMismatchError,
    bimodal_target,
    budgeted_loss,
    check_refined_prediction,
    dist_from_json,
    divergence_finite,
    divergence_quadrature,
    dual_value,
    gaussian_grid_2d,
    max_divergence,
    pr_curve,
    pr_point,
    random_instance,
    ratio_of,
    refine,
    single_gaussian,
    spacing_mismatch_pair,
    trapezoid_grid,
)
from obrs.dist import pair_view
from obrs.fdiv import GENERATOR_PANEL


# ---------------------------------------------------------------------------
# FiniteDist
# ---------------------------------------------------------------------------


def test_finite_dist_validation():
    with pytest.raises(DomainError):
        FiniteDist([0, 1], [0.5])
    with pytest.raises(DomainError):
        FiniteDist([0, 0], [0.5, 0.5])
    with pytest.raises(DomainError):
        FiniteDist([0, 1], [-0.1, 1.1])
    with pytest.raises(DomainError):
        FiniteDist([0, 1], [0.6, 0.6])
    # zero-probability atoms are allowed
    d = FiniteDist([0, 1, 2], [0.5, 0.5, 0.0])
    assert d.density(2) == 0.0


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 1.0]])
def test_finite_dist_rejects_non_finite_probs(probs):
    # NaN fails both the "< 0" test and the "sum off by more than tol" test
    with pytest.raises(DomainError):
        FiniteDist([0, 1], probs)


@pytest.mark.parametrize(
    "atoms, probs",
    [
        ([[0], [1]], [0.5, 0.5]),  # unhashable atoms: a bare TypeError
        ([0, 1], None),  # no vector: len() of unsized object
        ([0], 1.0),
        ([0], np.float64(1.0)),
        ([0, 1], [[0.5], [0.5]]),  # nested: a TypeError from fsum
        ([0, 1], np.array([[0.5], [0.5]])),
        ([0, 1], [[0.5], 0.5]),  # ragged
        ([0, 1], ["0.5", "0.5"]),  # strings that numpy would parse
        ([0, 1], np.array(["0.5", "0.5"])),
        ([0, 1], [True, False]),  # bools read as 1 and 0
        ([0, 1], np.array([True, False])),
        ([0, 1], [0.5, None]),
        ([0, 1], [0.5 + 0j, 0.5]),
    ],
)
def test_finite_dist_rejects_malformed_input_with_a_typed_error(atoms, probs):
    with pytest.raises(DomainError):
        FiniteDist(atoms, probs)


@pytest.mark.parametrize(
    "probs", [[1, 0], (0.25, 0.75), np.array([1, 0], dtype=np.int32), np.array([0.5, 0.5], np.float32)]
)
def test_finite_dist_takes_integer_and_float_vectors(probs):
    d = FiniteDist(["a", "b"], probs)
    assert d.probs.dtype == np.float64
    assert d.probs.tolist() == np.asarray(probs, dtype=float).tolist()


def test_finite_dist_lookup(two_point):
    target, _ = two_point
    assert target.density(0) == 0.5
    assert target.index(1) == 1
    with pytest.raises(DomainError):
        target.index(7)


def test_finite_dist_sampling_is_seed_deterministic(two_point):
    target, _ = two_point
    a = target.sample(np.random.default_rng(5), 100)
    b = target.sample(np.random.default_rng(5), 100)
    assert a == b
    freq = np.mean([x == 0 for x in a])
    assert 0.3 < freq < 0.7


def test_finite_dist_json_roundtrip():
    d = FiniteDist([(0, 0), (0, 1), (1, 0)], [0.2, 0.3, 0.5])
    back = dist_from_json(json.loads(json.dumps(d.to_json())))
    assert isinstance(back, FiniteDist)
    assert back.same_support(d)
    np.testing.assert_allclose(back.probs, d.probs)


# ---------------------------------------------------------------------------
# GaussianMixture
# ---------------------------------------------------------------------------


def test_single_gaussian_density_matches_scipy():
    g = single_gaussian(0.7, 1.3)
    xs = np.linspace(-4, 6, 50)
    np.testing.assert_allclose(g.density(xs), stats.norm.pdf(xs, 0.7, 1.3), rtol=1e-12)
    np.testing.assert_allclose(
        g.log_density(xs), stats.norm.logpdf(xs, 0.7, 1.3), atol=1e-12
    )


def test_mixture_density_is_weighted_sum():
    m = GaussianMixture(
        weights=[0.3, 0.7], means=[[-1.0], [2.0]], stds=[[0.5], [1.5]]
    )
    xs = np.linspace(-5, 7, 40)
    manual = 0.3 * stats.norm.pdf(xs, -1, 0.5) + 0.7 * stats.norm.pdf(xs, 2, 1.5)
    np.testing.assert_allclose(m.density(xs), manual, rtol=1e-12)


def test_mixture_2d_density():
    m = GaussianMixture(weights=[1.0], means=[[1.0, -1.0]], stds=[[0.5, 2.0]])
    pts = np.array([[1.0, -1.0], [0.0, 0.0], [2.0, 1.0]])
    manual = stats.norm.pdf(pts[:, 0], 1, 0.5) * stats.norm.pdf(pts[:, 1], -1, 2.0)
    np.testing.assert_allclose(m.density(pts), manual, rtol=1e-12)


def test_mixture_2d_multi_component_density():
    weights = [0.2, 0.5, 0.3]
    means = [[1.0, -1.0], [-2.0, 0.5], [0.0, 3.0]]
    stds = [[0.5, 2.0], [1.0, 0.25], [1.5, 1.5]]
    m = GaussianMixture(weights, means, stds)
    pts = np.random.default_rng(4).normal(scale=2.0, size=(50, 2))
    manual = sum(
        w * stats.norm.pdf(pts[:, 0], mu[0], sd[0]) * stats.norm.pdf(pts[:, 1], mu[1], sd[1])
        for w, mu, sd in zip(weights, means, stds)
    )
    np.testing.assert_allclose(m.density(pts), manual, rtol=1e-12)


def _broadcast_terms(m, x):
    """The (n, k) log terms log w_j + log N_j(x) of the broadcast formula."""
    pts = m._points(x)
    log_w = np.log(m.weights, out=np.full_like(m.weights, -np.inf), where=m.weights > 0)
    log_norm = -np.sum(np.log(m.stds), axis=1) - 0.5 * m.dim * math.log(2 * math.pi)
    z = (pts[:, None, :] - m.means[None, :, :]) / m.stds[None, :, :]
    return log_w + log_norm - 0.5 * np.sum(z * z, axis=2)


def _broadcast_log_density(m, x):
    """The (n, k, dim) broadcast formula that ``log_density`` must match bit
    for bit: no floor, exp of every shifted term as it is, and -inf on a row
    whose every term is -inf."""
    comp = _broadcast_terms(m, x)
    if comp.shape[1] == 1:
        return comp[:, 0]
    mx = np.max(comp, axis=1)
    with np.errstate(invalid="ignore"):
        out = mx + np.log(np.sum(np.exp(comp - mx[:, None]), axis=1))
    return np.where(mx == -np.inf, -np.inf, out)


@st.composite
def _mixture_and_points(draw):
    dim = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 25))
    raw = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=k, max_size=k))
    if sum(raw) == 0:
        raw[0] = 1.0
    weights = np.asarray(raw) / sum(raw)
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    means = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                   min_size=k, max_size=k)))
    stds = np.array(draw(st.lists(st.lists(st.floats(0.01, 5.0), min_size=dim, max_size=dim),
                                  min_size=k, max_size=k)))
    m = GaussianMixture(weights, means, stds)
    # points near the modes and 50 sigma out along every axis
    j = draw(st.integers(0, k - 1))
    far = means[j] + 50.0 * stds[j] * draw(st.sampled_from([-1.0, 1.0]))
    n = draw(st.integers(1, 40))
    batch = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                   min_size=n, max_size=n)))
    batch = np.vstack([batch, far])
    if dim == 1:
        inputs = [float(far[0]), batch[:, 0]]
    else:
        inputs = [tuple(float(v) for v in far), far, batch]
    return m, inputs


@settings(max_examples=300)
@given(_mixture_and_points())
def test_log_density_is_bit_identical_to_broadcast_formula(case):
    m, inputs = case
    for x in inputs:
        got = m.log_density(x)
        ref = _broadcast_log_density(m, x)
        if np.ndim(x) == 0 or isinstance(x, tuple) or (m.dim == 2 and np.ndim(x) == 1):
            assert isinstance(got, float)
            assert np.array_equal(np.array([got]), ref)
        else:
            assert np.array_equal(got, ref)


def _wide_mixture(k: int) -> GaussianMixture:
    rng = np.random.default_rng(k)
    return GaussianMixture(np.full(k, 1.0 / k), rng.normal(scale=5.0, size=(k, 1)),
                           rng.uniform(0.05, 2.0, size=(k, 1)))


def _product_grid(xs, ys, weights=None):
    """The mixture whose component i * len(ys) + j has the per-axis (mean,
    std) pairs xs[i] and ys[j]: gaussian_grid_2d's layout."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    k = len(xs) * len(ys)
    x, y = np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))
    if weights is None:
        weights = np.full(k, 1.0 / k)
    return GaussianMixture(weights, np.stack([x[:, 0], y[:, 0]], axis=1),
                           np.stack([x[:, 1], y[:, 1]], axis=1))


def _jittered_surrogate():
    """grid2d's surrogate at its defaults, with 5 of its 25 modes emptied."""
    weights = np.random.default_rng([7, 0xD1]).dirichlet(np.full(25, 200.0 / 25.0))
    weights[[0, 6, 12, 13, 24]] = 0.0
    return gaussian_grid_2d(0.1, weights=weights / weights.sum())


@pytest.mark.parametrize(
    "case",
    ["spacing", "grid2d", "k130", "surrogate", "unequal", "k144", "1x5", "repeated", "permuted"],
)
def test_log_density_is_bit_identical_on_the_lattice_and_grid_inputs(case):
    # the component-major rows must be summed in numpy's pairwise order:
    # 8 accumulators from k = 8, two halves past k = 128. A 2-d grid in
    # row-major order takes its squares per axis; any other order may not
    x = np.random.default_rng(25).uniform(-2.5, 2.5, size=(8192, 2))
    if case == "spacing":
        m = spacing_mismatch_pair(1.3)[0]  # k = 10
        x, _ = trapezoid_grid(list(spacing_mismatch_pair(1.3)), n_nodes=4096)
    elif case == "grid2d":
        m = gaussian_grid_2d()  # k = 25
    elif case == "k130":
        m = _wide_mixture(130)
        x = np.linspace(-20.0, 20.0, 4096)
    elif case == "surrogate":
        m = _jittered_surrogate()
    elif case == "unequal":
        axis = np.arange(5) - 2.0
        m = _product_grid(np.stack([axis, np.full(5, 0.05)], 1),
                          np.stack([0.5 * axis, [0.02, 0.3, 0.1, 0.3, 0.07]], 1))
    elif case == "k144":
        axis = np.linspace(-2.2, 2.2, 12)
        m = _product_grid(np.stack([axis, np.full(12, 0.1)], 1), np.stack([axis, np.full(12, 0.15)], 1))
    elif case == "1x5":
        m = _product_grid([[0.3, 0.2]], np.stack([np.arange(5) - 2.0, np.full(5, 0.1)], 1))
    elif case == "repeated":  # x pairs A, A, B: a 3x2 grid, though A's run is 4 long
        m = _product_grid([[0.0, 1.0], [0.0, 1.0], [2.0, 0.5]], [[0.0, 0.5], [1.0, 0.5]])
    else:
        order = np.random.default_rng(5).permutation(25)
        grid = gaussian_grid_2d()
        m = GaussianMixture(grid.weights[order], grid.means[order], grid.stds[order])
    assert (getattr(m, "_grid", None) is not None) == (m.dim == 2 and case != "permuted")
    assert np.array_equal(m.log_density(x), _broadcast_log_density(m, x))


@st.composite
def _product_grid_and_points(draw):
    nx, ny = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    # a few fixed values make repeated per-axis pairs common
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-10.0, 10.0, allow_nan=False))
    sd = st.one_of(st.sampled_from([0.5]), st.floats(0.01, 5.0))
    xs = draw(st.lists(st.tuples(coord, sd), min_size=nx, max_size=nx))
    ys = draw(st.lists(st.tuples(coord, sd), min_size=ny, max_size=ny))
    raw = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=nx * ny, max_size=nx * ny))
    if sum(raw) == 0:
        raw[0] = 1.0
    m = _product_grid(xs, ys, np.asarray(raw) / sum(raw))
    n = draw(st.integers(1, 40))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    # points 50 sigma out along both axes of one component
    j = draw(st.integers(0, nx * ny - 1))
    far = m.means[j] + 50.0 * m.stds[j] * draw(st.sampled_from([-1.0, 1.0]))
    return m, np.vstack([np.asarray(pts), far])


@settings(max_examples=200)
@given(_product_grid_and_points())
def test_log_density_on_product_grids_is_bit_identical_to_broadcast_formula(case):
    m, x = case
    assert m._grid is not None
    assert np.array_equal(m.log_density(x), _broadcast_log_density(m, x))


@pytest.mark.parametrize("m", [bimodal_target(), spacing_mismatch_pair(1.3)[0],
                               _wide_mixture(130), gaussian_grid_2d(), _jittered_surrogate()],
                         ids=["k2", "k10", "k130", "grid2d", "surrogate"])
def test_log_density_leaves_its_points_alone_and_repeats_its_bits(m):
    # the row sum accumulates in log_density's own working rows, never in x
    rng = np.random.default_rng(9)
    x = rng.uniform(-3.0, 3.0, size=(4096,) if m.dim == 1 else (4096, 2))
    kept = x.copy()
    first = m.log_density(x)
    assert np.array_equal(x, kept)
    x.setflags(write=False)
    again = m.log_density(x)
    assert np.array_equal(x, kept)
    assert first.tobytes() == again.tobytes() == _broadcast_log_density(m, kept).tobytes()
    assert first is not again and not np.shares_memory(first, x)


def _banded_mixture_and_points(k, dim, seed):
    """A k-component mixture whose components lie 680 to 820 log units below
    each other near their means, with points near every mean: the shifted
    terms fall in the band where exp is subnormal, [-745.2, -700), and past
    it, where exp underflows to 0. A third of the components carry no weight.
    Non-finite and huge coordinates close the batch."""
    rng = np.random.default_rng(seed)
    depth = rng.uniform(680.0, 820.0, size=k)
    direction = rng.normal(size=(k, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    std = 0.5
    means = std * np.sqrt(2.0 * depth)[:, None] * direction
    means[0] = 0.0
    weights = rng.choice([0.0, 1.0, 2.0], size=k)
    weights[0] = 1.0
    m = GaussianMixture(weights / weights.sum(), means, std)
    near = means[rng.integers(k, size=4000)] + rng.normal(scale=0.3, size=(4000, dim))
    odd = np.full((6, dim), 0.0)
    odd[:, 0] = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300]
    pts = np.vstack([near, odd])
    return m, pts[:, 0] if dim == 1 else pts


@pytest.mark.parametrize("k", [2, 7, 8, 25, 129, 300])
@pytest.mark.parametrize("dim", [1, 2])
def test_log_density_floor_keeps_every_bit_in_the_subnormal_and_underflow_bands(k, dim):
    m, x = _banded_mixture_and_points(k, dim, seed=k * dim)
    with np.errstate(over="ignore", invalid="ignore"):
        comp = _broadcast_terms(m, x)
        shifted = comp - np.max(comp, axis=1, keepdims=True)
        ref = _broadcast_log_density(m, x)
        got = m.log_density(x)
    assert np.any((shifted >= -745.2) & (shifted < -700.0))  # subnormal exp
    assert np.any((shifted < -745.2) & (shifted > -np.inf))  # exp underflows to 0
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.isnan(got[-6])  # a NaN coordinate gives NaN
    assert np.all(got[-5:-1] == -np.inf)  # +-inf and +-1e300 have density 0


def test_log_density_is_minus_inf_where_every_term_is():
    # every shifted term was -inf at these points, and -inf - -inf gave NaN
    target = bimodal_target()
    with np.errstate(over="ignore", invalid="raise"):  # 1e300 squared overflows
        got = target.log_density([1e300, 1e10, math.inf, -math.inf, math.nan, 0.0])
    assert got[0] == got[2] == got[3] == -math.inf
    assert got[1] == pytest.approx(-2e20, rel=1e-9)
    assert math.isnan(got[4]) and math.isfinite(got[5])
    with np.errstate(all="raise"):
        assert target.log_density(math.inf) == -math.inf
        np.testing.assert_array_equal(target.log_density([math.inf, -math.inf]), -math.inf)
        grid = gaussian_grid_2d().log_density(np.array([[math.inf, 0.0], [0.0, -math.inf]]))
        np.testing.assert_array_equal(grid, -math.inf)


@settings(max_examples=200)
@given(st.sampled_from([1, 2]), st.lists(st.integers(0, 3), max_size=3))
def test_log_density_reads_only_shapes_its_dimension_can(dim, shape):
    # a 1-d mixture reads a scalar, (n,) or (n, 1); a 2-d one (2,) or (n, 2)
    m = bimodal_target() if dim == 1 else gaussian_grid_2d()
    x = np.zeros(shape)
    if dim == 1:
        n = 1 if not shape else shape[0] if len(shape) == 1 or shape[1:] == [1] else None
    else:
        n = 1 if shape == [2] else shape[0] if len(shape) == 2 and shape[1] == 2 else None
    if n is None:
        with pytest.raises(DomainError):
            m.log_density(x)
    else:
        assert np.size(m.log_density(x)) == n


def test_log_density_rejects_points_of_the_other_dimension():
    with pytest.raises(DomainError):
        bimodal_target().log_density(np.zeros((3, 2)))  # was 6 densities
    with pytest.raises(DomainError):
        gaussian_grid_2d().log_density(np.zeros(4))  # was a bare ValueError


def test_log_density_far_tail_stays_finite():
    g = single_gaussian(0.0, 0.1)
    ld = g.log_density(np.array([50.0]))
    assert np.isfinite(ld).all()
    assert ld[0] < -1e5


def test_mixture_validation():
    with pytest.raises(DomainError):
        GaussianMixture(weights=[0.5, 0.6], means=[[0.0], [1.0]], stds=[[1.0], [1.0]])
    with pytest.raises(DomainError):
        GaussianMixture(weights=[1.0], means=[[0.0]], stds=[[0.0]])
    with pytest.raises(DomainError):
        GaussianMixture(weights=[1.0], means=[[0.0, 0.0, 0.0]], stds=[[1.0, 1.0, 1.0]])


@pytest.mark.parametrize(
    "weights, means, stds",
    [
        ([1.0], [[math.nan]], [[1.0]]),
        ([1.0], [[math.inf]], [[1.0]]),
        ([0.5, 0.5], [[0.0, 1.0], [math.nan, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
        ([1.0], [[0.0]], [[math.nan]]),
        ([1.0], [[0.0]], [[math.inf]]),
        ([math.nan, 1.0], [[0.0], [1.0]], [[1.0], [1.0]]),
    ],
)
def test_mixture_rejects_non_finite_parameters(weights, means, stds):
    with pytest.raises(DomainError):
        GaussianMixture(weights=weights, means=means, stds=stds)


def test_mixture_sampling_moments(rng):
    m = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], stds=[[0.5], [0.5]])
    xs = m.sample(rng, 200_000)
    assert xs.shape == (200_000,)
    assert abs(np.mean(xs)) < 0.02
    assert abs(np.var(xs) - (4.0 + 0.25)) < 0.05


def test_mixture_2d_sample_shape(rng):
    m = gaussian_grid_2d()
    xs = m.sample(rng, 1000)
    assert xs.shape == (1000, 2)


def test_mixture_json_roundtrip():
    m = bimodal_target()
    back = dist_from_json(json.loads(json.dumps(m.to_json())))
    assert isinstance(back, GaussianMixture)
    xs = np.linspace(-4, 4, 20)
    np.testing.assert_allclose(back.log_density(xs), m.log_density(xs), atol=1e-14)


def test_dist_from_json_rejects_unknown():
    with pytest.raises(DomainError):
        dist_from_json({"type": "dirichlet"})


# ---------------------------------------------------------------------------
# Ratio evaluators
# ---------------------------------------------------------------------------


def test_ratio_finite_values(two_point):
    target, model = two_point
    r = ratio_of(target, model)
    assert r(0) == pytest.approx(0.625)
    assert r(1) == pytest.approx(2.5)
    np.testing.assert_allclose(r.log([0, 1]), [math.log(0.625), math.log(2.5)])


def test_ratio_finite_rejects_orphan_target_mass():
    target = FiniteDist([0, 1], [0.5, 0.5])
    model = FiniteDist([0, 1], [1.0, 0.0])
    with pytest.raises(DomainError):
        ratio_of(target, model)


def test_ratio_counts_calls(two_point):
    target, model = two_point
    r = ratio_of(target, model)
    assert r.calls == 0
    r([0, 1, 0])
    r(1)
    assert r.calls == 4


def test_ratio_mixture_log_values(mixture_pair):
    target, model = mixture_pair
    r = ratio_of(target, model)
    xs = np.array([-2.0, 0.0, 2.0])
    expected = target.log_density(xs) - model.log_density(xs)
    np.testing.assert_allclose(r.log(xs), expected, atol=1e-14)
    # mode of the target should be favored, the trough disfavored
    assert r(2.0) > 1.0 > r(0.0)


# ---------------------------------------------------------------------------
# Quadrature grid and the named families
# ---------------------------------------------------------------------------


def test_trapezoid_grid_normalizes_density(mixture_pair):
    target, model = mixture_pair
    x, w = trapezoid_grid([target, model])
    assert math.isclose(float(np.dot(w, target.density(x))), 1.0, abs_tol=1e-10)
    assert math.isclose(float(np.dot(w, model.density(x))), 1.0, abs_tol=1e-10)


def test_trapezoid_grid_covers_both(mixture_pair):
    target, model = mixture_pair
    x, _ = trapezoid_grid([target, model], span=8.0)
    assert x[0] <= -2 - 8 * 0.5
    assert x[-1] >= 2 + 8 * 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"span": math.nan},
        {"span": math.inf},
        {"span": 0.0},
        {"span": -1.0},
        {"n_nodes": 4096.5},
        {"n_nodes": 4096.0},
        {"n_nodes": 1},
    ],
)
def test_trapezoid_grid_rejects_bad_span_and_node_count(mixture_pair, kwargs):
    with pytest.raises(DomainError):
        trapezoid_grid(list(mixture_pair), **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [{"span": math.nan}, {"span": math.inf}, {"span": 0.0}, {"span": -1.0}, {"n_nodes": 4096.5}],
)
def test_quadrature_entry_points_reject_bad_grids(mixture_pair, kwargs):
    # these returned nan, plausible wrong values, or a bare TypeError
    target, model = mixture_pair
    gen = Generator.gan()
    calls = [
        lambda: divergence_quadrature(gen, target, model, **kwargs),
        lambda: dual_value(gen, lambda x: -np.ones_like(x), target, model, **kwargs),
        lambda: pr_point(target, model, 1.0, mode="quadrature", **kwargs),
        lambda: pr_curve(target, model, [0.5, 1.0], mode="quadrature", **kwargs),
        lambda: budgeted_loss(gen, target, model, 2.0, mode="quadrature", **kwargs),
        lambda: check_refined_prediction(target, model, 2.0, mode="quadrature", **kwargs),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_trapezoid_grid_takes_numpy_integer_node_count(mixture_pair):
    x, w = trapezoid_grid(list(mixture_pair), n_nodes=np.int64(64))
    assert len(x) == len(w) == 64


@pytest.mark.parametrize(
    "pair, n_nodes, span",
    [
        ((bimodal_target(), single_gaussian(0.0, 1.5)), 4096, 8.0),
        (spacing_mismatch_pair(0.4), 1000, 6.5),
        ((bimodal_target(), single_gaussian(3.0, 0.2)), 257, 12.0),
    ],
)
def test_pair_view_quadrature_is_the_inline_formula(pair, n_nodes, span):
    target, model = pair
    x, w = trapezoid_grid([target, model], n_nodes=n_nodes, span=span)
    lp = target.log_density(x)
    lq = model.log_density(x)
    view = pair_view(target, model, "quadrature", n_nodes, span)
    assert view.mode == "quadrature"
    fields = (view.points, view.lp, view.lq, view.log_r, view.pw, view.qw)
    for got, want in zip(fields, (x, lp, lq, lp - lq, w * np.exp(lp), w * np.exp(lq))):
        np.testing.assert_array_equal(got, want)


def test_pair_view_exact_is_log_masses():
    target = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
    model = FiniteDist(["a", "b", "c"], [0.25, 0.0, 0.75])
    view = pair_view(target, model, "exact")
    assert view.mode == "exact"
    np.testing.assert_array_equal(view.points, [0, 1, 2])
    np.testing.assert_array_equal(view.lp, [math.log(0.5), math.log(0.5), -math.inf])
    np.testing.assert_array_equal(view.lq, [math.log(0.25), -math.inf, math.log(0.75)])
    np.testing.assert_array_equal(view.log_r, [math.log(2.0), math.inf, -math.inf])
    assert view.pw is target.probs and view.qw is model.probs


def test_pair_view_exact_reuses_read_only_log_masses(two_point):
    target, model = two_point
    first, again = pair_view(target, model, "exact"), pair_view(target, model, "exact")
    for name in _KEPT_FIELDS:
        a, b = getattr(first, name), getattr(again, name)
        assert a is b
        assert not a.flags.writeable


def _mass_lists(n):
    masses = st.lists(st.one_of(st.just(0), st.integers(1, 1000)), min_size=n, max_size=n)
    return st.tuples(*[masses.filter(lambda c: sum(c) > 0)] * 2)


# the arrays an exact view reads from its two distributions, the same on every call
_KEPT_FIELDS = ("points", "lp", "lq", "pw", "qw")


@settings(max_examples=100)
@given(counts=st.integers(1, 32).flatmap(_mass_lists))
def test_pair_view_exact_log_masses_are_taken_once(counts):
    # read-only log masses, -inf exactly at zero mass, the same arrays on every call
    atoms = list(range(len(counts[0])))
    dists = [FiniteDist(atoms, np.asarray(c, dtype=float) / sum(c)) for c in counts]
    first = pair_view(*dists, "exact")
    for log_mass, d in zip((first.lp, first.lq), dists):
        assert not log_mass.flags.writeable
        with np.errstate(divide="ignore"):
            assert log_mass.tolist() == np.log(d.probs).tolist()
        assert np.array_equal(log_mass == -np.inf, d.probs == 0)
    again = pair_view(*dists, "exact")
    for name in _KEPT_FIELDS:
        assert getattr(first, name) is getattr(again, name)


def test_finite_dist_keeps_a_read_only_copy():
    # the caller's vector could be changed after validation
    probs = np.array([0.5, 0.25, 0.25])
    target = FiniteDist([0, 1, 2], probs)
    model = FiniteDist([0, 1, 2], [0.2, 0.3, 0.5])
    before = [divergence_finite(g, target, model).value for g in GENERATOR_PANEL]
    probs[:] = [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(target.probs, [0.5, 0.25, 0.25])
    assert [divergence_finite(g, target, model).value for g in GENERATOR_PANEL] == before
    with pytest.raises(ValueError):
        target.probs[0] = 0.0


_SAMPLED_PAIRS = [
    random_instance(np.random.default_rng(5), n_atoms=40),
    (bimodal_target(), single_gaussian(0.0, 1.5)),
    (gaussian_grid_2d(0.05), gaussian_grid_2d(0.1, weights=np.full(25, 0.04))),
]


@pytest.mark.parametrize("pair", _SAMPLED_PAIRS, ids=["finite", "1-d", "2-d"])
def test_pair_view_sample_is_the_ratio_at_model_draws(pair):
    target, model = pair
    view = pair_view(target, model, "sample", 500, rng=np.random.default_rng(8))
    draws = model.sample(np.random.default_rng(8), 500)
    assert view.mode == "sample"
    np.testing.assert_array_equal(view.lp - view.lq, ratio_of(target, model).log(draws))
    np.testing.assert_array_equal(view.log_r, ratio_of(target, model).log(draws))
    if isinstance(model, FiniteDist):
        np.testing.assert_array_equal(view.points, [model.index(a) for a in draws])
    else:
        np.testing.assert_array_equal(view.points, draws)
    np.testing.assert_array_equal(view.qw, np.full(500, 1 / 500))
    np.testing.assert_array_equal(view.pw, view.qw * np.exp(view.lp - view.lq))


@st.composite
def _view_pairs(draw):
    """A finite pair on one atom list, zero masses on either side included,
    or a pair of 1-d mixtures."""
    if draw(st.booleans()):
        counts = draw(st.integers(1, 12).flatmap(_mass_lists))
        atoms = list(range(len(counts[0])))
        return [FiniteDist(atoms, np.asarray(c, dtype=float) / sum(c)) for c in counts]
    pair = []
    for _ in range(2):
        k = draw(st.integers(1, 4))
        weights = np.asarray(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), float)
        means = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
        stds = draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k))
        pair.append(GaussianMixture(weights / weights.sum(), np.asarray(means)[:, None], stds))
    return pair


@settings(max_examples=100, deadline=None)
@given(pair=_view_pairs(), seed=st.integers(0, 2**32 - 1))
def test_pair_view_log_r_is_lp_minus_lq_in_every_mode(pair, seed):
    target, model = pair
    finite = isinstance(model, FiniteDist)
    orphan = finite and bool(np.any((model.probs == 0) & (target.probs > 0)))
    for mode in ("exact", "sample") if finite else ("quadrature", "sample"):
        if mode == "sample" and orphan:
            # a calibration sample of a pair the model does not cover is refused
            with pytest.raises(DomainError):
                pair_view(target, model, mode, 64, rng=np.random.default_rng(seed))
            continue
        view = pair_view(target, model, mode, 512 if mode == "quadrature" else 64,
                         rng=np.random.default_rng(seed))
        with np.errstate(invalid="ignore"):
            assert view.log_r.tobytes() == (view.lp - view.lq).tobytes()
        if mode == "exact":
            p, q = target.probs, model.probs
            assert np.array_equal(np.isnan(view.log_r), (p == 0) & (q == 0))
            assert np.array_equal(view.log_r == np.inf, (p > 0) & (q == 0))


@pytest.mark.parametrize("n, rng", [
    (500, None), (0, np.random.default_rng(0)), (1, np.random.default_rng(0)),
    (2.5, np.random.default_rng(0)), (math.nan, np.random.default_rng(0)),
])
def test_pair_view_sample_needs_an_rng_and_two_draws(mixture_pair, n, rng):
    with pytest.raises(DomainError):
        pair_view(*mixture_pair, "sample", n, rng=rng)


_VANISHING = (FiniteDist([0, 1], [0.5, 0.5]), FiniteDist([0, 1], [1.0, 0.0]))
_MISMATCHED = (FiniteDist([0, 1], [0.5, 0.5]), FiniteDist([0, 2], [0.5, 0.5]))
_MIXTURES = (bimodal_target(), single_gaussian(0.0, 1.5))
_KL = Generator.kl()


@pytest.mark.parametrize(
    "call, error",
    [
        # a model that vanishes under target mass
        (lambda: budgeted_loss(_KL, *_VANISHING, 2.0), DomainError),
        (lambda: check_refined_prediction(*_VANISHING, 2.0), DomainError),
        (lambda: refine(*_VANISHING, 2.0), DomainError),
        (lambda: divergence_finite(_KL, *_VANISHING), AbsoluteContinuityError),
        # different atom lists
        (lambda: budgeted_loss(_KL, *_MISMATCHED, 2.0), SupportMismatchError),
        (lambda: check_refined_prediction(*_MISMATCHED, 2.0), SupportMismatchError),
        (lambda: refine(*_MISMATCHED, 2.0), SupportMismatchError),
        (lambda: divergence_finite(_KL, *_MISMATCHED), SupportMismatchError),
        (lambda: pr_point(*_MISMATCHED, 1.0), SupportMismatchError),
        (lambda: pr_curve(*_MISMATCHED, [1.0]), SupportMismatchError),
        (lambda: dual_value(_KL, np.zeros_like, *_MISMATCHED), SupportMismatchError),
        # families the mode does not take
        (lambda: budgeted_loss(_KL, *_MIXTURES, 2.0), DomainError),
        (lambda: budgeted_loss(_KL, *_VANISHING, 2.0, mode="quadrature"), DomainError),
        (lambda: check_refined_prediction(*_MIXTURES, 2.0), DomainError),
        (lambda: refine(*_MIXTURES, 2.0), DomainError),
        (lambda: pr_point(*_MIXTURES, 1.0), DomainError),
        (lambda: pr_curve(*_MIXTURES, [1.0]), DomainError),
        (lambda: dual_value(_KL, np.zeros_like, _VANISHING[0], _MIXTURES[1]), SupportMismatchError),
        (lambda: max_divergence(_VANISHING[0], _MIXTURES[1]), SupportMismatchError),
        (lambda: pair_view(_VANISHING[0], _MIXTURES[1], "sample", rng=np.random.default_rng(0)),
         SupportMismatchError),
        (lambda: pair_view(_MIXTURES[0], gaussian_grid_2d(), "sample", rng=np.random.default_rng(0)),
         SupportMismatchError),
    ],
)
def test_pair_view_callers_keep_their_error_types(call, error):
    with pytest.raises(error):
        call()


def test_bimodal_target_mass_between_modes():
    # mass of the right mode's central band [1, 3]: half of ~95.45% plus a
    # negligible left-mode tail
    target = bimodal_target()
    expected = 0.5 * (stats.norm.cdf(2) - stats.norm.cdf(-2)) + 0.5 * (
        stats.norm.cdf(10) - stats.norm.cdf(6)
    )
    assert expected == pytest.approx(0.4772499, abs=5e-7)
    x, w = trapezoid_grid([target], n_nodes=8192)
    band = (x >= 1.0) & (x <= 3.0)
    got = float(np.dot(w[band], target.density(x[band])))
    assert got == pytest.approx(expected, abs=1e-4)


def test_spacing_mismatch_pair_structure():
    target, model = spacing_mismatch_pair(0.7)
    assert target.n_components == 10
    assert model.n_components == 10
    np.testing.assert_allclose(np.diff(target.means[:, 0]), 1.0)
    np.testing.assert_allclose(np.diff(model.means[:, 0]), 0.7)
    np.testing.assert_allclose(target.stds, math.sqrt(0.3))
    np.testing.assert_allclose(model.stds, math.sqrt(0.4))
    assert float(np.mean(target.means)) == pytest.approx(0.0)
    assert float(np.mean(model.means)) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        spacing_mismatch_pair(0.0)


def test_gaussian_grid_2d_structure():
    grid = gaussian_grid_2d(sigma=0.05, spacing=1.0)
    assert grid.n_components == 25
    np.testing.assert_allclose(grid.weights, 1.0 / 25)
    xs = sorted(set(grid.means[:, 0]))
    assert xs == [-2.0, -1.0, 0.0, 1.0, 2.0]
    custom = gaussian_grid_2d(weights=np.full(25, 1.0 / 25))
    np.testing.assert_allclose(custom.weights, grid.weights)
    with pytest.raises(DomainError):
        gaussian_grid_2d(weights=np.full(10, 0.1))
