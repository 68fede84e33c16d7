"""Threshold-batched value core against the scalar formulas it replaced.

The ``ref_*`` functions below restate, in scalar Python, the
per-threshold implementation the batched core replaced and serve as the
reference: scalar CDFs and truncated means, recursive adaptive Simpson,
posterior, effects, acceptance region, and the two value routes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoval as rv
from recoval import _quadrature
from recoval.core import posterior_probs, version_buy_probabilities
from recoval.errors import ModelError

LO, HI = -0.5, 0.5
EPS = np.finfo(float).eps
# numpy's vectorized power may differ from Python's ** by an ulp; allow
# 64 ulps of float64 around the O(1) values of the model
POWER_TOL = 64 * EPS


# -- scalar reference -------------------------------------------------------


def ref_cdf(dist, i):
    if isinstance(dist, rv.PowerTypes):
        return min(max(i + 0.5, 0.0), 1.0) ** dist.a
    if isinstance(dist, rv.UniformTypes):
        return min(max(i + 0.5, 0.0), 1.0)
    if isinstance(dist, rv.PiecewiseSymmetricTypes):
        k = dist.r_ref - 0.5
        xs, fs = [LO, -k, k, HI], [0.0, dist.beta_target, 1.0 - dist.beta_target, 1.0]
    else:
        xs, fs = [p[0] for p in dist.points], [p[1] for p in dist.points]
    return float(np.interp(min(max(i, LO), HI), xs, fs))


def ref_simpson(f, a, b, tol=1e-10, max_depth=40):
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _ref_step(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _ref_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _ref_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _ref_step(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def ref_partial_expectation(dist, lo, hi):
    lo, hi = max(lo, LO), min(hi, HI)
    if isinstance(dist, rv.PowerTypes):
        a = dist.a

        def anti(i):
            return (i + 0.5) ** a * (a * i - 0.5) / (a + 1.0)

        return anti(hi) - anti(lo)
    if isinstance(dist, rv.UniformTypes):
        return 0.5 * (hi * hi - lo * lo)
    if isinstance(dist, rv.PiecewiseSymmetricTypes):
        k = dist.r_ref - 0.5
        xs, fs = [LO, -k, k, HI], [0.0, dist.beta_target, 1.0 - dist.beta_target, 1.0]
        total = 0.0
        for j in range(1, 4):
            a, b = max(lo, xs[j - 1]), min(hi, xs[j])
            if b > a:
                slope = (fs[j] - fs[j - 1]) / (xs[j] - xs[j - 1])
                total += slope * 0.5 * (b * b - a * a)
        return total
    if hi <= lo:
        return 0.0

    def cdf(i):
        return ref_cdf(dist, i)

    return hi * cdf(hi) - lo * cdf(lo) - ref_simpson(cdf, lo, hi)


def ref_posterior(system, buy):
    q, dist, r = system.quality, system.sender_types, system.threshold
    phi_1, phi_2 = 1.0 - ref_cdf(dist, r - 0.5), ref_cdf(dist, 0.5 - r)
    pi_buy = q.q_h + q.q_1 * phi_1 + q.q_2 * phi_2
    if buy:
        return (q.q_h / pi_buy, q.q_1 * phi_1 / pi_buy, q.q_2 * phi_2 / pi_buy, 0.0)
    pi_dont = 1.0 - pi_buy
    return (
        0.0,
        q.q_1 * (1.0 - phi_1) / pi_dont,
        q.q_2 * (1.0 - phi_2) / pi_dont,
        q.q_l / pi_dont,
    )


def ref_effects(system, buy):
    p, q = ref_posterior(system, buy), system.quality
    objective = (p[0] - q.q_h) + 0.5 * (p[1] - q.q_1) + 0.5 * (p[2] - q.q_2)
    return objective, (p[2] - q.q_2) - (p[1] - q.q_1)


def ref_region(d_o, d_s):
    if abs(d_s) <= 2.0 * d_o + 1e-12:
        return "all", None
    cutoff = d_o / d_s
    if d_s < 0.0:
        return ("all", None) if cutoff <= -0.5 else ("upper", cutoff)
    return ("all", None) if cutoff >= 0.5 else ("lower", cutoff)


def ref_value(system):
    """(value, pi_buy, region, cutoff, integral) by the replaced scalar code."""
    q, dist = system.quality, system.receiver_types
    sender, r = system.sender_types, system.threshold
    phi_1, phi_2 = 1.0 - ref_cdf(sender, r - 0.5), ref_cdf(sender, 0.5 - r)
    pi_buy = q.q_h + q.q_1 * phi_1 + q.q_2 * phi_2
    pi_dont = 1.0 - pi_buy
    o_b, s_b = ref_effects(system, True)
    accept = (pi_buy * o_b, -pi_buy * s_b)
    reject = (0.0, 0.0)
    if pi_dont > 0.0:
        o_d, s_d = ref_effects(system, False)
        reject = (pi_dont * o_d, -pi_dont * s_d)
    kind, c = ref_region(o_b, s_b)
    if kind == "all":
        pieces = [(LO, HI, *accept)]
    elif kind == "upper":
        pieces = [(LO, c, *reject), (c, HI, *accept)]
    else:
        pieces = [(LO, c, *accept), (c, HI, *reject)]
    value, integral = 0.0, 0.0
    for a, b, const, slope in pieces:
        if b <= a:
            continue
        f_a, f_b = ref_cdf(dist, a), ref_cdf(dist, b)
        value += const * (f_b - f_a) + slope * ref_partial_expectation(dist, a, b)
        tail = ref_simpson(lambda i: ref_cdf(dist, i), a, b)
        integral += const * (f_b - f_a) + slope * (b * f_b - a * f_a - tail)
    return value, pi_buy, kind, c, integral


# -- strategies --------------------------------------------------------------

unit = st.floats(0.02, 0.98)
grids = st.lists(unit, min_size=1, max_size=6)


@st.composite
def qualities(draw):
    w = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
    total = sum(w) + draw(st.floats(0.05, 1.0))
    q_h, q_1, q_2 = (x / total for x in w)
    return rv.QualityDistribution(q_h, q_1, q_2, 1.0 - (q_h + q_1 + q_2))


@st.composite
def tabulated(draw):
    n = draw(st.integers(1, 6))
    knots = st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n, unique=True)
    shares = st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n, unique=True)
    xs, fs = sorted(draw(knots)), sorted(draw(shares))
    if any(b - a < 1e-3 for a, b in zip([LO] + xs, xs + [HI])):
        xs, fs = [], []
    return rv.TabulatedTypes(points=((LO, 0.0), *zip(xs, fs), (HI, 1.0)))


exact_families = st.one_of(
    st.just(rv.UniformTypes()),
    st.builds(rv.PiecewiseSymmetricTypes, st.floats(0.0, 0.5), st.floats(0.55, 0.95)),
    tabulated(),
)
power_family = st.builds(rv.PowerTypes, st.floats(0.3, 4.0))


def _batch_and_reference(quality, sender, receiver, thresholds):
    system = rv.RecommendationSystem(quality, sender, 0.5, receiver_types=receiver)
    batch = rv.system_values(system, thresholds)
    refs = [ref_value(system.with_threshold(r)) for r in thresholds]
    return batch, refs


def _kind(batch, k):
    return rv.AcceptanceRegion.from_arrays(batch.region, batch.cutoff, k)


# -- properties --------------------------------------------------------------


@given(qualities(), exact_families, st.none() | exact_families, grids)
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar_reference_bit_for_bit(
    quality, sender, receiver, thresholds
):
    batch, refs = _batch_and_reference(quality, sender, receiver, thresholds)
    for k, (value, pi_buy, kind, cutoff, integral) in enumerate(refs):
        region = _kind(batch, k)
        assert (region.kind, region.cutoff) == (kind, cutoff)
        assert batch.value[k] == value
        assert batch.pi_buy[k] == pi_buy
        assert batch.integral[k] == integral


@given(qualities(), power_family, grids)
@settings(max_examples=40, deadline=None)
def test_power_batch_matches_reference_within_float64_tolerance(
    quality, sender, thresholds
):
    batch, refs = _batch_and_reference(quality, sender, None, thresholds)
    for k, (value, pi_buy, kind, cutoff, integral) in enumerate(refs):
        assert _kind(batch, k).kind == kind
        assert batch.value[k] == pytest.approx(value, rel=POWER_TOL, abs=POWER_TOL)
        assert batch.pi_buy[k] == pytest.approx(pi_buy, rel=POWER_TOL, abs=POWER_TOL)
        assert batch.integral[k] == pytest.approx(
            integral, rel=POWER_TOL, abs=POWER_TOL
        )


@given(qualities(), exact_families | power_family, grids, st.data())
@settings(max_examples=40, deadline=None)
def test_batch_of_one_equals_its_element_in_a_larger_batch(
    quality, sender, thresholds, data
):
    system = rv.RecommendationSystem(quality, sender, 0.5)
    batch = rv.system_values(system, thresholds)
    k = data.draw(st.integers(0, len(thresholds) - 1))
    one = rv.system_values(system, thresholds[k])
    assert one.report(0) == batch.report(k)
    assert one.integral[0] == batch.integral[k]


@given(qualities(), exact_families | power_family, grids, st.data())
@settings(max_examples=40, deadline=None)
def test_scalar_api_matches_its_element_in_a_batch(quality, sender, thresholds, data):
    system = rv.RecommendationSystem(quality, sender, 0.5)
    batch = rv.system_values(system, thresholds)
    k = data.draw(st.integers(0, len(thresholds) - 1))
    one = system.with_threshold(thresholds[k])
    report, integral = rv.system_value(one), rv.integral_system_value(one)
    if isinstance(sender, rv.PowerTypes):
        assert report.region.kind == batch.report(k).region.kind
        assert report.value == pytest.approx(batch.value[k], rel=POWER_TOL, abs=POWER_TOL)
        assert integral == pytest.approx(batch.integral[k], rel=POWER_TOL, abs=POWER_TOL)
    else:
        assert report == batch.report(k)
        assert integral == batch.integral[k]


@given(qualities(), exact_families | power_family, grids)
@settings(max_examples=60, deadline=None)
def test_batched_posteriors_are_probability_vectors(quality, sender, thresholds):
    phi_1, phi_2 = version_buy_probabilities(sender, np.array(thresholds))
    for rec in (rv.Recommendation.BUY, rv.Recommendation.DONT_BUY):
        probs = posterior_probs(quality, phi_1, phi_2, rec)
        assert probs.shape == (4, len(thresholds))
        assert (probs >= 0.0).all()
        assert np.allclose(probs.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


@given(qualities(), exact_families, unit)
@settings(max_examples=40, deadline=None)
def test_scalar_api_matches_reference(quality, sender, threshold):
    system = rv.RecommendationSystem(quality, sender, threshold)
    for buy in (True, False):
        rec = rv.Recommendation.BUY if buy else rv.Recommendation.DONT_BUY
        assert rv.posterior(system, rec).probs == ref_posterior(system, buy)
        eff = rv.effects(system, rec)
        assert (eff.objective, eff.subjective) == ref_effects(system, buy)
    region = rv.acceptance_region(system)
    assert (region.kind, region.cutoff) == ref_region(*ref_effects(system, True))


bounds = st.floats(-0.6, 0.6)


@given(
    tabulated() | power_family,
    st.lists(st.tuples(bounds, bounds), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_batched_simpson_equals_recursive_reference(dist, intervals):
    a = np.array([lo for lo, _ in intervals])
    b = np.array([hi for _, hi in intervals])
    got = _quadrature.adaptive_simpson(dist.cdf, a, b)
    for k, (lo, hi) in enumerate(intervals):
        want = ref_simpson(lambda i: ref_cdf(dist, i), lo, hi)
        if isinstance(dist, rv.TabulatedTypes):
            assert got[k] == want
        else:
            assert got[k] == pytest.approx(want, rel=POWER_TOL, abs=POWER_TOL)


# -- checks on every element --------------------------------------------------


class OffByOnePoint(rv.UniformTypes):
    """Uniform types whose truncated mean is wrong on one piece of a batch."""

    def partial_expectation(self, lo, hi):
        out = np.array(super().partial_expectation(lo, hi), dtype=float)
        if out.size > 5:
            out.flat[5] += 1e-6
        return out


def test_one_wrong_truncated_mean_fails_the_whole_batch():
    # unequal controversial shares, so the truncated mean enters the value
    quality = rv.QualityDistribution(0.3, 0.4, 0.1, 0.2)
    system = rv.RecommendationSystem(quality, OffByOnePoint(), 0.5)
    rv.system_value(system)  # a single threshold is untouched by the double
    with pytest.raises(ModelError, match="disagrees with integral"):
        rv.system_values(system, np.linspace(0.1, 0.9, 9))


def test_unreachable_buy_in_one_element_fails_the_batch():
    # no good products and a flat piecewise CDF: at high thresholds no
    # sender recommends buying
    quality = rv.QualityDistribution(0.0, 0.5, 0.5, 0.0)
    system = rv.RecommendationSystem(quality, rv.PiecewiseSymmetricTypes(0.0, 0.6), 0.5)
    rv.system_values(system, [0.3, 0.5])
    with pytest.raises(rv.UnreachableRecommendationError):
        rv.system_values(system, [0.3, 0.5, 0.95])


def test_threshold_outside_the_design_space_fails_the_batch():
    quality = rv.QualityDistribution(0.4, 0.2, 0.2, 0.2)
    system = rv.RecommendationSystem(quality, rv.UniformTypes(), 0.5)
    with pytest.raises(ModelError, match="outside"):
        rv.system_values(system, [0.5, 1.0])


# -- bounded quadrature ---------------------------------------------------------


def test_quadrature_rejects_a_nan_integrand():
    def broken(x):
        return np.where(x > 0.1, np.nan, x)

    with pytest.raises(ModelError, match="not finite"):
        _quadrature.adaptive_simpson(broken, [-0.5], [0.5])


def test_quadrature_rejects_infinite_bounds():
    with pytest.raises(ModelError, match="finite"):
        _quadrature.adaptive_simpson(np.abs, [-np.inf], [0.5])


def test_quadrature_stops_at_its_evaluation_budget(monkeypatch):
    # an oscillating integrand at a tight tolerance needs far more than 50
    monkeypatch.setattr(_quadrature, "MAX_EVALS", 50)

    def wavy(x):
        return np.sin(40.0 * x) ** 2

    with pytest.raises(ModelError, match="evaluations per interval"):
        _quadrature.adaptive_simpson(wavy, [-0.5], [0.5], tol=1e-14)


def test_quadrature_results_do_not_depend_on_chunking(monkeypatch):
    dist = rv.PowerTypes(0.55)
    a = np.linspace(-0.5, 0.4, 37)
    b = a + np.linspace(0.05, 0.1, 37)
    whole = _quadrature.adaptive_simpson(dist.cdf, a, b)
    monkeypatch.setattr(_quadrature, "CHUNK", 3)
    chunked = _quadrature.adaptive_simpson(dist.cdf, a, b)
    assert np.array_equal(whole, chunked)
    assert whole[5] == _quadrature.adaptive_simpson(dist.cdf, a[5:6], b[5:6])[0]


def test_empty_and_reversed_intervals_integrate_to_zero():
    out = _quadrature.adaptive_simpson(np.cos, [0.2, 0.3, -0.1], [0.2, 0.1, 0.1])
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(2.0 * math.sin(0.1), abs=1e-10)


# -- array input on the distributions ------------------------------------------------


@pytest.mark.parametrize(
    "dist",
    [
        rv.UniformTypes(),
        rv.PowerTypes(2.5),
        rv.PiecewiseSymmetricTypes(0.2, 0.7),
        rv.TabulatedTypes(points=((-0.5, 0.0), (-0.1, 0.3), (0.2, 0.8), (0.5, 1.0))),
    ],
)
def test_distributions_accept_arrays_and_return_floats_for_scalars(dist):
    xs = np.linspace(-0.7, 0.7, 15)
    cdf = dist.cdf(xs)
    pe = dist.partial_expectation(np.full(15, -0.5), np.clip(xs, -0.5, 0.5))
    assert isinstance(dist.cdf(0.1), float)
    assert isinstance(dist.partial_expectation(-0.2, 0.3), float)
    for k, x in enumerate(xs):
        assert cdf[k] == pytest.approx(dist.cdf(float(x)), rel=POWER_TOL, abs=POWER_TOL)
        assert pe[k] == pytest.approx(
            dist.partial_expectation(-0.5, float(np.clip(x, -0.5, 0.5))), abs=1e-12
        )
