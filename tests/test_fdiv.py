"""Generators, conjugates, and divergence evaluation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp

from obrs import (
    DomainError,
    FiniteDist,
    ObrsError,
    UnsupportedGeneratorError,
    bimodal_target,
    divergence_finite,
    divergence_mc,
    divergence_quadrature,
    dual_value,
    max_divergence,
    random_instance,
    ratio_of,
    renyi_divergence,
    single_gaussian,
)
from obrs.errors import AbsoluteContinuityError, EstimationError
from obrs.fdiv import (
    GENERATOR_PANEL,
    Generator,
    _logsumexp,
    discriminator_from_ratio,
    f_value,
    fstar_value,
    ratio_from_discriminator,
)

LOG4 = math.log(4.0)


# ---------------------------------------------------------------------------
# Generator table
# ---------------------------------------------------------------------------


def test_parse_roundtrips_labels():
    for gen in GENERATOR_PANEL:
        assert Generator.parse(gen.label) == gen
    assert Generator.parse("pr:0.5").lam == 0.5
    with pytest.raises(UnsupportedGeneratorError):
        Generator.parse("hellinger")
    with pytest.raises(DomainError):
        Generator.parse("pr:-1")


def test_f_at_one():
    assert f_value(Generator.kl(), 1.0) == 0.0
    assert f_value(Generator.reverse_kl(), 1.0) == 0.0
    assert f_value(Generator.total_variation(), 1.0) == 0.0
    assert f_value(Generator.gan(), 1.0) == pytest.approx(-LOG4, abs=1e-15)
    assert f_value(Generator.precision_recall(2.0), 1.0) == 0.0
    for gen in GENERATOR_PANEL:
        assert gen.f_at_one == pytest.approx(f_value(gen, 1.0), abs=1e-15)


def test_f_at_zero_limits():
    assert f_value(Generator.kl(), 0.0) == 0.0
    assert f_value(Generator.reverse_kl(), 0.0) == math.inf
    assert f_value(Generator.total_variation(), 0.0) == 0.5
    assert f_value(Generator.gan(), 0.0) == 0.0
    assert f_value(Generator.precision_recall(2.0), 0.0) == pytest.approx(1.0 - 2.0)
    assert f_value(Generator.precision_recall(0.5), 0.0) == 0.0


def test_f_convexity_spot_checks(rng):
    us = rng.uniform(0.01, 10.0, size=(200, 2))
    ts = rng.uniform(0.0, 1.0, size=200)
    for gen in GENERATOR_PANEL:
        a, b = us[:, 0], us[:, 1]
        mid = ts * a + (1 - ts) * b
        lhs = f_value(gen, mid)
        rhs = ts * f_value(gen, a) + (1 - ts) * f_value(gen, b)
        assert np.all(lhs <= rhs + 1e-12)


def test_f_rejects_negative_ratio():
    for gen in GENERATOR_PANEL:
        with pytest.raises(DomainError):
            f_value(gen, -0.1)



# ---------------------------------------------------------------------------
# Conjugates and the discriminator maps
# ---------------------------------------------------------------------------


def test_fenchel_young_equality_smooth(rng):
    # f(u) + f*(t_opt(u)) = u * t_opt(u) wherever the dual map is a gradient
    us = rng.uniform(0.05, 20.0, size=500)
    for gen in GENERATOR_PANEL:
        if not gen.smooth:
            continue
        t = discriminator_from_ratio(gen, us)
        gap = f_value(gen, us) + fstar_value(gen, t) - us * t
        assert np.max(np.abs(gap)) < 1e-10, gen.label


def test_pr_dual_map_conventions(rng):
    # the pr dual variable is lam*sign(r-1) and its conjugate drops additive
    # constants, so the Fenchel-Young gap is the constant 1 - max(lam, 1) on
    # the upper branch (and the pinned example value holds on the lower one)
    gen = Generator.precision_recall(2.0)
    assert discriminator_from_ratio(gen, 0.5) == -2.0
    us = rng.uniform(1.0, 20.0, size=200)
    t = discriminator_from_ratio(gen, us)
    gap = f_value(gen, us) + fstar_value(gen, t) - us * t
    assert np.max(np.abs(gap - (1.0 - 2.0))) < 1e-12


def test_ratio_discriminator_roundtrip(rng):
    us = rng.uniform(0.05, 20.0, size=500)
    for gen in GENERATOR_PANEL:
        if not gen.smooth:
            continue
        t = discriminator_from_ratio(gen, us)
        back = ratio_from_discriminator(gen, t)
        assert np.max(np.abs(back - us) / us) < 1e-12, gen.label


def test_gan_discriminator_is_log_sigmoid():
    # convention: the optimal statistic is log(r / (1 + r)), always negative
    r = np.array([0.1, 1.0, 10.0])
    t = discriminator_from_ratio(Generator.gan(), r)
    assert np.all(t < 0)
    assert t[1] == pytest.approx(math.log(0.5))


def test_conjugate_domains():
    with pytest.raises(UnsupportedGeneratorError):
        fstar_value(Generator.total_variation(), 0.0)
    with pytest.raises(DomainError):
        fstar_value(Generator.gan(), 0.0)  # needs t < 0
    with pytest.raises(DomainError):
        fstar_value(Generator.reverse_kl(), 0.5)
    with pytest.raises(UnsupportedGeneratorError):
        ratio_from_discriminator(Generator.total_variation(), 0.3)


def test_tv_discriminator_is_sign():
    gen = Generator.total_variation()
    assert discriminator_from_ratio(gen, 2.0) == 0.5
    assert discriminator_from_ratio(gen, 0.5) == -0.5


# ---------------------------------------------------------------------------
# Exact finite divergences (worked two-point instance)
# ---------------------------------------------------------------------------


def test_two_point_divergences(two_point):
    target, model = two_point
    cases = {
        "kl": 0.22314355131420976,  # = log(5/4)
        "reverse_kl": 0.19274475702175753,
        "tv": 0.3,
        "gan": -1.2849506871487589,
        "pr:2": 0.0,
    }
    for label, expected in cases.items():
        got = float(divergence_finite(Generator.parse(label), target, model))
        assert got == pytest.approx(expected, abs=1e-12), label


def test_divergence_self_is_f_at_one(two_point):
    target, _ = two_point
    for gen in GENERATOR_PANEL:
        got = float(divergence_finite(gen, target, target))
        assert got == pytest.approx(gen.f_at_one, abs=1e-15)


def test_orphan_atom_conventions():
    target = FiniteDist([0, 1], [0.5, 0.5])
    model = FiniteDist([0, 1], [1.0, 0.0])
    # mass where the model has none: only tv and pr stay finite
    assert float(divergence_finite(Generator.total_variation(), target, model)) == pytest.approx(0.5)
    got = float(divergence_finite(Generator.precision_recall(2.0), target, model))
    assert got == pytest.approx(0.0)
    for label in ("kl", "gan"):
        with pytest.raises(AbsoluteContinuityError):
            divergence_finite(Generator.parse(label), target, model)
    # the reverse direction is defined: f(0) = +inf, so the value is +inf
    got = float(divergence_finite(Generator.reverse_kl(), model, target))
    assert got == math.inf


def test_divergence_support_mismatch():
    a = FiniteDist([0, 1], [0.5, 0.5])
    b = FiniteDist([0, 2], [0.5, 0.5])
    from obrs.errors import SupportMismatchError

    with pytest.raises(SupportMismatchError):
        divergence_finite(Generator.kl(), a, b)


def _u_form_reference(gen, p, q):
    """sum_x q f(p/q) through the pointwise map, with the tv/pr u -> inf limits."""
    terms = []
    for pi, qi in zip(p.tolist(), q.tolist()):
        if qi > 0:
            terms.append(qi * f_value(gen, pi / qi))
        elif pi > 0:
            terms.append(0.5 * pi if gen.kind == "tv" else gen.lam * pi)
    return math.fsum(terms)


_generators = st.sampled_from(["kl", "reverse_kl", "tv", "gan", "pr"]).flatmap(
    lambda kind: st.floats(0.05, 20.0).map(Generator.precision_recall)
    if kind == "pr" else st.just(Generator(kind))
)


@st.composite
def _finite_pairs(draw):
    # integer masses, zero half the time on either side; ratios up to about 1e4
    n = draw(st.integers(1, 12))
    mass = st.one_of(st.just(0), st.integers(1, 1000))
    counts = st.lists(mass, min_size=n, max_size=n).filter(lambda c: sum(c) > 0)
    p, q = (np.asarray(draw(counts), dtype=float) for _ in range(2))
    atoms = list(range(n))
    return FiniteDist(atoms, p / p.sum()), FiniteDist(atoms, q / q.sum())


_HEAVY = (FiniteDist([0, 1, 2], [0.5, 0.5, 0.0]), FiniteDist([0, 1, 2], [0.0, 0.25, 0.75]))


@settings(max_examples=300)
@given(gen=_generators, pair=_finite_pairs())
@example(gen=Generator.total_variation(), pair=_HEAVY)
@example(gen=Generator.precision_recall(3.0), pair=_HEAVY)
@example(gen=Generator.kl(), pair=_HEAVY)
@example(gen=Generator.reverse_kl(), pair=_HEAVY)
@example(gen=Generator.gan(), pair=_HEAVY)
def test_kernel_divergence_matches_u_form_reference(gen, pair):
    target, model = pair
    p, q = target.probs, model.probs
    if gen.kind not in ("tv", "pr") and np.any((q == 0) & (p > 0)):
        with pytest.raises(AbsoluteContinuityError):
            divergence_finite(gen, target, model)
        return
    got = divergence_finite(gen, target, model).value
    ref = _u_form_reference(gen, p, q)
    assert got == ref or abs(got - ref) <= 1e-14, (got, ref)


def _masked_reference(gen, p, q):
    """D_f(p || q) with every zero-weight limit masked in at every atom, as
    the kernel computed each exact divergence before it took the plain
    formula on full-support pairs; the AbsoluteContinuityError class where
    the divergence raises."""
    if gen.kind not in ("tv", "pr") and np.any((q == 0) & (p > 0)):
        return AbsoluteContinuityError
    with np.errstate(all="ignore"):
        log_u = np.log(p) - np.log(q)
        if gen.kind == "kl":
            terms = np.where(p > 0, p * log_u, 0.0)
        elif gen.kind == "reverse_kl":
            terms = np.where(q > 0, -q * log_u, 0.0)
            terms = np.where((q > 0) & (p == 0), np.inf, terms)
        elif gen.kind == "tv":
            terms = 0.5 * np.abs(p - q)
        elif gen.kind == "gan":
            terms = np.where(p > 0, p * log_u, 0.0) - (p + q) * np.logaddexp(log_u, 0.0)
            terms = np.where((q == 0) & ((p == 0) | ~np.isfinite(log_u)), 0.0, terms)
        else:
            terms = np.maximum(gen.lam * p, q) - max(gen.lam, 1.0) * q
    return math.fsum(terms.tolist())


# per atom: which side carries mass, and whether a live mass is ordinary or subnormal
_ATOM = st.tuples(
    st.sampled_from(["both", "target", "model", "neither"]),
    st.tuples(st.booleans(), st.booleans()),
)


@st.composite
def _zero_and_subnormal_pairs(draw):
    kinds = draw(st.lists(_ATOM, min_size=1, max_size=32))
    sides = []
    for side, live_on in enumerate((("both", "target"), ("both", "model"))):
        masses = np.zeros(len(kinds))
        for i, (where, subnormal) in enumerate(kinds):
            if where in live_on:
                masses[i] = (draw(st.floats(5e-324, 2e-308)) if subnormal[side]
                             else draw(st.integers(1, 1000)))
        ordinary = masses >= 1.0
        if not np.any(ordinary):
            masses[draw(st.integers(0, len(kinds) - 1))] = 1.0
            ordinary = masses >= 1.0
        # ordinary masses are normalized; subnormal ones move the sum by < 1e-300
        masses[ordinary] /= math.fsum(masses[ordinary].tolist())
        sides.append(masses)
    atoms = list(range(len(kinds)))
    return FiniteDist(atoms, sides[0]), FiniteDist(atoms, sides[1])


@settings(max_examples=300)
@given(pair=_zero_and_subnormal_pairs())
@example(pair=_HEAVY)
@example(pair=(FiniteDist([0, 1], [5e-324, 1.0]), FiniteDist([0, 1], [1.0, 5e-324])))
@example(pair=(FiniteDist([0], [1.0]), FiniteDist([0], [1.0])))
def test_exact_divergence_keeps_the_masked_kernel_bits(pair):
    target, model = pair
    for gen in GENERATOR_PANEL:
        ref = _masked_reference(gen, target.probs, model.probs)
        if ref is AbsoluteContinuityError:
            with pytest.raises(AbsoluteContinuityError):
                divergence_finite(gen, target, model)
        else:
            assert divergence_finite(gen, target, model).value == ref, gen.label


def test_full_support_pairs_score_without_floating_point_events():
    # a full-support pair takes the plain formula with numpy's error state
    # untouched: nothing overflows, underflows or divides by zero there
    rng = np.random.default_rng(17)
    for _ in range(20):
        target, model = random_instance(rng)
        with np.errstate(all="raise"):
            for gen in GENERATOR_PANEL:
                assert math.isfinite(divergence_finite(gen, target, model).value)


# ---------------------------------------------------------------------------
# Quadrature and Monte Carlo estimators
# ---------------------------------------------------------------------------


def test_quadrature_matches_gaussian_closed_form():
    # KL(N(0,1) || N(1,1.5)) has a closed form
    p = single_gaussian(0.0, 1.0)
    q = single_gaussian(1.0, 1.5)
    s1, s2, dm = 1.0, 1.5, 1.0
    expected = math.log(s2 / s1) + (s1**2 + dm**2) / (2 * s2**2) - 0.5
    got = float(divergence_quadrature(Generator.kl(), p, q))
    assert got == pytest.approx(expected, abs=1e-10)


def test_quadrature_self_divergence_is_f_at_one(mixture_pair):
    target, _ = mixture_pair
    for gen in GENERATOR_PANEL:
        got = float(divergence_quadrature(gen, target, target))
        assert got == pytest.approx(gen.f_at_one, abs=1e-9)


def test_quadrature_handles_heavy_tails():
    # narrow model under a wide target: log-ratios reach hundreds
    p = single_gaussian(0.0, 3.0)
    q = single_gaussian(0.0, 0.1)
    got = float(divergence_quadrature(Generator.gan(), p, q))
    assert math.isfinite(got)
    # rkl(p||q) = E_q[log(q/p)] is finite even though kl(p||q) explodes
    got = float(divergence_quadrature(Generator.reverse_kl(), p, q))
    assert math.isfinite(got) and got > 0


@given(
    st.one_of(st.integers(-3, 5000), st.floats(), st.booleans()),
    st.floats(),
)
@example(4096, 1e308)  # returned nan: the grid's width overflows
@example(4096, 1e150)  # returned 0.0: no node resolves either density
@example(3, 1e150)  # returned -3.2e147
def test_quadrature_grid_inputs_raise_typed_errors_or_give_a_number(n_nodes, span):
    target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    try:
        with np.errstate(all="ignore"):
            got = divergence_quadrature(Generator.gan(), target, model, n_nodes, span).value
    except ObrsError:
        return
    # gan's range is [-log 4, 0]; a view whose masses miss 1 by up to 1e-2
    # can reach about 0.014 below it
    assert -math.log(4.0) - 0.02 <= got <= 0.0


@pytest.mark.parametrize("n_nodes", [3, 4096])
def test_quadrature_view_that_misses_the_mass_raises(n_nodes):
    target, model = bimodal_target(), single_gaussian(0.0, 1.5)
    with pytest.raises(EstimationError):
        divergence_quadrature(Generator.gan(), target, model, n_nodes, span=1e150)


def test_mc_estimate_tracks_exact(mixture_pair, rng):
    target, model = mixture_pair
    exact = float(divergence_quadrature(Generator.gan(), target, model))
    est = divergence_mc(Generator.gan(), ratio_of(target, model), model, n=200_000, rng=rng)
    assert est.stderr > 0
    assert est.n == 200_000
    assert abs(est.value - exact) < 5 * est.stderr


def test_mc_requires_two_samples(mixture_pair, rng):
    target, model = mixture_pair
    with pytest.raises(DomainError):
        divergence_mc(Generator.kl(), ratio_of(target, model), model, n=1, rng=rng)


# ---------------------------------------------------------------------------
# The variational (dual) form
# ---------------------------------------------------------------------------


def test_dual_at_optimum_attains_divergence(two_point):
    target, model = two_point
    for gen in GENERATOR_PANEL:
        if not gen.smooth:
            continue
        primal = float(divergence_finite(gen, target, model))
        ratio = target.probs / model.probs

        def t_opt(x, gen=gen, ratio=ratio, model=model):
            idx = [model.index(a) for a in np.atleast_1d(x)]
            return discriminator_from_ratio(gen, ratio[idx])

        dual = dual_value(gen, t_opt, target, model)
        assert dual == pytest.approx(primal, abs=1e-10), gen.label


def test_dual_is_a_lower_bound(two_point, rng):
    target, model = two_point
    for _ in range(25):
        vals = rng.normal(size=2)

        def t_fn(x, vals=vals, model=model):
            idx = [model.index(a) for a in np.atleast_1d(x)]
            return vals[idx]

        primal = float(divergence_finite(Generator.kl(), target, model))
        assert dual_value(Generator.kl(), t_fn, target, model) <= primal + 1e-12


# ---------------------------------------------------------------------------
# Renyi and max-divergence
# ---------------------------------------------------------------------------


def test_renyi_two_point_value(two_point):
    target, model = two_point
    order = math.log(2.0) / math.log(2.5)
    assert order == pytest.approx(0.7564707973660301, abs=1e-15)
    got = renyi_divergence(order, target, model)
    assert got == pytest.approx(0.16491711522618544, abs=1e-12)


def test_renyi_large_order_approaches_max_divergence(two_point):
    target, model = two_point
    md = max_divergence(target, model)
    assert md == pytest.approx(math.log(2.5), abs=1e-15)
    assert renyi_divergence(1e6, target, model) == pytest.approx(md, abs=1e-3)


def test_renyi_domain():
    t = FiniteDist([0, 1], [0.5, 0.5])
    m = FiniteDist([0, 1], [0.8, 0.2])
    for bad in (0.0, -1.0, 1.0, math.nan, -math.inf):  # NaN returned NaN
        with pytest.raises(DomainError):
            renyi_divergence(bad, t, m)
    orphan = FiniteDist([0, 1], [1.0, 0.0])
    # below order 1 no absolute continuity is needed
    assert math.isfinite(renyi_divergence(0.5, t, orphan))
    with pytest.raises(AbsoluteContinuityError):
        renyi_divergence(2.0, t, orphan)


def test_renyi_order_inf_is_the_max_divergence(two_point):
    # returned NaN
    target, model = two_point
    assert renyi_divergence(math.inf, target, model) == max_divergence(target, model)
    orphan = FiniteDist([0, 1], [1.0, 0.0])
    with pytest.raises(AbsoluteContinuityError):
        renyi_divergence(math.inf, target, orphan)


_log_terms = st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0))


@settings(max_examples=500)
@given(a=st.lists(_log_terms, min_size=1, max_size=40), ties=st.integers(0, 3))
@example(a=[-math.inf, -math.inf, -math.inf], ties=0)
@example(a=[1.5, 1.5, -math.inf, 0.25], ties=0)
def test_logsumexp_matches_scipy_bit_for_bit(a, ties):
    a = np.asarray(a)
    a[:ties] = a.max()  # ties at the maximum
    got, want = _logsumexp(a), float(logsumexp(a))
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


def test_max_divergence_mixtures(mixture_pair):
    target, model = mixture_pair
    md = max_divergence(target, model)
    assert 1.0 < math.exp(md) < 10.0


# ---------------------------------------------------------------------------
# Non-finite and degenerate inputs
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(lam=st.one_of(st.just(math.nan), st.just(math.inf), st.floats(max_value=0.0)))
def test_pr_generator_rejects_lam_that_is_not_finite_and_positive(lam):
    # nan and inf were accepted: lam <= 0 is False for nan
    with pytest.raises(DomainError):
        Generator.precision_recall(lam)
    with pytest.raises(DomainError):
        Generator.parse(f"pr:{lam!r}")


_nan_among = st.lists(st.floats(0.01, 100.0), max_size=6).flatmap(
    lambda xs: st.integers(0, len(xs)).map(lambda i: xs[:i] + [math.nan] + xs[i:])
)


@settings(max_examples=200)
@given(gen=_generators, values=_nan_among, scalar=st.booleans())
def test_pointwise_maps_reject_nan(gen, values, scalar):
    # f_value(kl, nan) was 0.0 and f_value(reverse_kl, nan) inf; the dual
    # maps returned nan: their "< 0" guards let NaN through
    arg = math.nan if scalar else np.asarray(values)
    with pytest.raises(DomainError):
        f_value(gen, arg)
    with pytest.raises(DomainError):
        discriminator_from_ratio(gen, arg)
    if gen.smooth:
        with pytest.raises(DomainError):
            ratio_from_discriminator(gen, -arg)
    if gen.kind != "tv":
        with pytest.raises(DomainError):
            fstar_value(gen, -arg)


_MC_PAIR = (single_gaussian(0.0, 1.0), single_gaussian(0.5, 1.5))
_bad_draw_counts = st.one_of(st.integers(max_value=1), st.floats(allow_nan=True))


@settings(max_examples=100)
@given(n=_bad_draw_counts)
@example(n=2.5)
@example(n=math.nan)
def test_mc_divergence_rejects_counts_below_two_or_not_integers(n):
    # a float count raised a bare TypeError from the sampler
    target, model = _MC_PAIR
    with pytest.raises(DomainError):
        divergence_mc(Generator.kl(), ratio_of(target, model), model, n=n,
                      rng=np.random.default_rng(0))


_dual_gens = st.sampled_from([Generator.kl(), Generator.reverse_kl(), Generator.gan(),
                              Generator.precision_recall(2.0)])


@settings(max_examples=200)
@given(gen=_dual_gens, pair=_finite_pairs(), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       data=st.data())
def test_dual_value_rejects_non_finite_dual_where_mass_lives(gen, pair, bad, data):
    # returned nan
    target, model = pair
    live = np.flatnonzero((target.probs > 0) | (model.probs > 0)).tolist()
    t = np.full(len(model), -1.0)
    t[data.draw(st.sampled_from(live))] = bad
    with pytest.raises(DomainError):
        dual_value(gen, lambda idx: t[idx], target, model)


@settings(max_examples=200)
@given(gen=_dual_gens, pair=_finite_pairs(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_dual_value_ignores_the_dual_where_no_mass_lives(gen, pair, bad):
    target, model = pair
    dead = (target.probs == 0) & (model.probs == 0)
    t = np.where(dead, bad, -1.0)
    value = dual_value(gen, lambda idx: t[idx], target, model)
    live = ~dead
    expected = math.fsum((target.probs[live] * -1.0).tolist()) - math.fsum(
        (model.probs[live] * fstar_value(gen, t[live])).tolist()
    )
    assert value == expected


def test_dual_value_rejects_non_finite_dual_on_a_mixture_grid(mixture_pair):
    target, model = mixture_pair
    with pytest.raises(DomainError):
        dual_value(Generator.gan(), lambda x: np.where(x > 1.0, np.nan, -1.0), target, model)
