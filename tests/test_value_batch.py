"""Threshold-batched value core against the scalar formulas it replaced.

The ``ref_*`` functions below restate, in scalar Python, the
per-threshold implementation the batched core replaced and serve as the
reference: scalar CDFs, per-segment truncated means of the
piecewise-linear CDFs, recursive adaptive Simpson (on each part of a
piece between the CDF's knots), posterior, effects, acceptance region,
and the two value routes.
"""

import contextlib
import io
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import any_types, probability_vectors, random_symmetric_tabulated

import recoval as rv
from recoval import _quadrature
from recoval.cli import Scenario, _sweep_controversial_odds, _sweep_rows, main
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


def ref_knots(dist):
    """Interior knots of a piecewise-linear CDF, none for the others."""
    if isinstance(dist, rv.PiecewiseSymmetricTypes):
        return [0.5 - dist.r_ref, dist.r_ref - 0.5]
    if isinstance(dist, rv.TabulatedTypes):
        return [p[0] for p in dist.points[1:-1]]
    return []


def ref_cdf_integral(dist, a, b):
    """Simpson on each part of [a, b] between the knots inside it, summed
    left to right."""
    edges = [a, *(x for x in ref_knots(dist) if a < x < b), b]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        total += ref_simpson(lambda i: ref_cdf(dist, i), lo, hi)
    return total


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
    else:
        xs, fs = [p[0] for p in dist.points], [p[1] for p in dist.points]
    total = 0.0
    for j in range(1, len(xs)):
        a, b = max(lo, xs[j - 1]), min(hi, xs[j])
        if b > a:
            slope = (fs[j] - fs[j - 1]) / (xs[j] - xs[j - 1])
            total += slope * 0.5 * (b * b - a * a)
    return total


def ref_posterior(system, buy):
    q, dist, r = system.quality, system.sender_types, system.threshold
    phi_1, phi_2 = 1.0 - ref_cdf(dist, r - 0.5), ref_cdf(dist, 0.5 - r)
    pi_buy = q.q_h + q.q_1 * phi_1 + q.q_2 * phi_2
    if buy:
        return (q.q_h / pi_buy, q.q_1 * phi_1 / pi_buy, q.q_2 * phi_2 / pi_buy, 0.0)
    # normalized by the weights' own sum: 1 - pi_buy cancels when pi_buy is near 1
    weights = (0.0, q.q_1 * (1.0 - phi_1), q.q_2 * (1.0 - phi_2), q.q_l)
    return tuple(w / sum(weights) for w in weights)


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
        tail = ref_cdf_integral(dist, a, b)
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


# -- the closed-form vs integral gate on valid input ---------------------------------


def test_kinks_of_a_fine_table_pass_the_gate():
    # 101 even knots of F(i) = (i + 1/2)^1.5: adaptive Simpson over whole
    # pieces once missed the kinks and failed most of these thresholds
    xs = np.linspace(LO, HI, 101)
    table = rv.TabulatedTypes(tuple(zip(xs, (xs + 0.5) ** 1.5)))
    rng = np.random.default_rng(0)
    grid = np.linspace(0.05, 0.95, 19)
    for k in range(100):
        quality = rv.QualityDistribution(*rng.dirichlet([0.7] * 4))
        system = rv.RecommendationSystem(quality, rv.UniformTypes(), 0.5, table)
        batch = rv.system_values(system, grid)
        if k % 10 == 0:
            for j, r in enumerate(grid):
                one = rv.system_value(system.with_threshold(float(r)))
                assert one == batch.report(j)


@st.composite
def gate_cases(draw):
    """A valid system whose tabulated receivers sample a smooth CDF at
    3-201 knots, evenly or randomly spaced, one of them next to the region
    cutoff of each threshold."""
    quality, sender = draw(qualities()), draw(exact_families | power_family)
    thresholds = draw(grids)
    n = draw(st.integers(3, 201))
    if draw(st.booleans()):
        xs = np.linspace(LO, HI, n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        xs = rng.uniform(LO, HI, n - 2)
    offsets = st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5])
    for r in thresholds:
        cutoff = rv.acceptance_region(rv.RecommendationSystem(quality, sender, r)).cutoff
        if cutoff is not None:
            xs = np.append(xs, cutoff + draw(offsets))
    xs = np.unique(np.append(np.clip(xs, LO + 1e-6, HI - 1e-6), (LO, HI)))
    e, s_shaped = draw(st.floats(0.4, 3.0)), draw(st.booleans())
    fs = (xs + 0.5) ** e
    if s_shaped:
        fs = fs / (fs + (0.5 - xs) ** e)
    # F must rise strictly: of knots too close to tell apart keep the last
    keep = np.diff(fs, append=2.0) > 0.0
    xs, fs = xs[keep], fs[keep]
    points = tuple(zip(xs.tolist(), fs.tolist()))
    return rv.RecommendationSystem(quality, sender, 0.5, rv.TabulatedTypes(points)), thresholds


@given(gate_cases())
@settings(max_examples=150, deadline=None)
def test_a_valid_system_passes_the_gate(tmp_path_factory, case):
    system, thresholds = case
    rv.system_values(system, thresholds)
    doc = {
        "quality": dict(zip(("qH", "q1", "q2", "qL"), system.quality.as_tuple())),
        "sender_types": system.sender_types.spec(),
        "receiver_types": system.receiver_types.spec(),
        "threshold": thresholds[0],
    }
    path = tmp_path_factory.mktemp("gate") / "scenario.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["evaluate", "--scenario", str(path)]) == 0
    assert "error:" not in err.getvalue()


@pytest.mark.parametrize("q_h, rest", [(0.999999, 1e-6), (1 - 1e-8, 1e-8), (1 - 1e-9, 1e-9)])
def test_dont_buy_posterior_with_buy_probability_near_one(tmp_path, q_h, rest):
    # 1 - pi_buy cancels here; the posterior divides by its weights' sum
    masses = (q_h, rest / 3, rest / 3, 1.0 - q_h - 2 * rest / 3)
    system = rv.RecommendationSystem(rv.QualityDistribution(*masses), rv.UniformTypes(), 0.5)
    probs = rv.posterior(system, rv.Recommendation.DONT_BUY).probs
    assert probs == pytest.approx((0.0, 0.25, 0.25, 0.5), abs=1e-6)
    report = rv.system_value(system)
    assert rv.system_values(system, [0.5]).value[0] == report.value
    assert report.dont_effects.objective == pytest.approx(-0.75, abs=1e-6)
    doc = {
        "quality": dict(zip(("qH", "q1", "q2", "qL"), masses)),
        "sender_types": {"kind": "uniform"},
        "threshold": 0.5,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["evaluate", "--scenario", str(path)]) == 0
    assert err.getvalue() == ""
    assert json.loads(out.getvalue())["delta_O_D"] == pytest.approx(-0.75, abs=1e-6)


# -- extreme but valid qualities ------------------------------------------------

# q_1 = 1e-323 and q_2 = 0: the buy subjective effect is about -1e-323, and
# dividing the objective effect by it overflowed
SUBNORMAL = rv.RecommendationSystem(
    rv.quality_from_params(5e-324, 1.0, 4.0), rv.UniformTypes(), 0.25
)
# (phi_1 and 1 - phi_2 round to 1 and 0 here)
NEAR_STEP = rv.TabulatedTypes(((-0.5, 0.0), (-0.3, 1e-300), (0.3, 1 - 1e-16), (0.5, 1.0)))
# every sender recommends buying, and q_L = 0: every dont-buy weight is 0,
# though the masses sum to 1 - 1.1e-16 and so 1 - pi_buy is 1.1e-16
ALWAYS_BUY = rv.RecommendationSystem(
    rv.QualityDistribution(0.15252794647499454, 0.23353278450004372, 0.6139392690249617, 0.0),
    NEAR_STEP,
    0.1,
)


def run_cli(tmp_path_factory, system, *argv):
    """Exit status, stdout and stderr of one CLI command on ``system``."""
    doc = {
        "quality": dict(zip(("qH", "q1", "q2", "qL"), system.quality.as_tuple())),
        "sender_types": system.sender_types.spec(),
        "receiver_types": system.receiver_types.spec(),
        "threshold": system.threshold,
    }
    path = tmp_path_factory.mktemp("edge") / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--scenario", str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def test_a_subnormal_buy_effect_collapses_to_all_without_overflow(tmp_path_factory):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = rv.system_values(SUBNORMAL, [0.25])
        report = rv.system_value(SUBNORMAL)
        assert batch.report(0) == report
        assert report.region.kind == "all"
        # a Q sweep of masses (1, 1, 0.25, 1) / 3.25 whose one point is SUBNORMAL
        masses = rv.QualityDistribution(*(m / 3.25 for m in (1.0, 1.0, 0.25, 1.0)))
        scenario = rv.RecommendationSystem(masses, rv.UniformTypes(), 0.25)
        sweep = ("sweep", "--param", "Q", "--from", "5e-324", "--to", "0", "--steps", "1")
        code, out, err = run_cli(tmp_path_factory, scenario, *sweep)
    assert (code, err) == (0, "")
    assert json.loads(out) == [
        {"param": 5e-324, "value": float(f"{report.value:.12g}"), "pi_buy": 0.5, "region": "all"}
    ]


def test_an_unreachable_dont_buy_report_gives_the_all_buy_value(tmp_path_factory):
    report = rv.system_value(ALWAYS_BUY)
    assert report.dont_effects is None
    assert (report.region.kind, report.rejecting_contribution) == ("all", 0.0)
    assert rv.system_values(ALWAYS_BUY, [0.1]).report(0) == report
    u_0 = rv.value_no_rec(0.2, ALWAYS_BUY.quality)
    assert rv.value_rejecting(ALWAYS_BUY, 0.2) == u_0
    code, out, err = run_cli(tmp_path_factory, ALWAYS_BUY, "evaluate")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["delta_O_D"], record["delta_S_D"]) == (None, None)
    assert record["value"] == float(f"{report.value:.12g}")


def test_a_zero_subjective_effect_lets_every_type_accept(tmp_path_factory):
    # the masses sum to 1 + 9e-13 and every sender recommends buying: the buy
    # effects are rounding, the subjective one exactly 0 and the objective one
    # below -REGION_EPS / 2, so the all-accept test alone does not pass them
    quality = rv.QualityDistribution(0.5 + 9e-13, 0.25, 0.25, 0.0)
    system = rv.RecommendationSystem(quality, NEAR_STEP, 0.05)
    report = rv.system_value(system)  # no scalar cutoff: it would divide by 0
    assert report.buy_effects.subjective == 0.0
    assert report.buy_effects.objective < -rv.receiver.REGION_EPS / 2
    assert report.region.kind == "all"
    assert rv.system_values(system, [0.05]).report(0) == report
    code, _, err = run_cli(tmp_path_factory, system, "evaluate")
    assert (code, err) == (0, "")


@st.composite
def edge_qualities(draw):
    """Valid priors at the edges: zero or subnormal masses (q_H or q_L often
    0), and masses whose float sum misses 1 by up to three ulps."""
    tiny = st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-17])
    masses = [draw(tiny | st.floats(0.01, 1.0)) for _ in range(4)]
    if draw(st.booleans()):
        masses[draw(st.sampled_from([0, 3]))] = 0.0
    big = [k for k, m in enumerate(masses) if m >= 0.01] or [draw(st.integers(0, 3))]
    small = sum(m for k, m in enumerate(masses) if k not in big)
    total = sum(max(masses[k], 0.01) for k in big)
    for k in big:
        masses[k] = max(masses[k], 0.01) * (1.0 - small) / total
    k = max(big, key=masses.__getitem__)
    for toward in draw(st.lists(st.sampled_from([0.0, 2.0]), max_size=3)):
        masses[k] = float(np.nextafter(masses[k], toward))
    return rv.QualityDistribution(*masses)


edge_types = any_types | st.just(NEAR_STEP)
edge_thresholds = st.floats(0.01, 0.99) | st.sampled_from([1e-9, 0.05, 0.1, 0.25, 0.5, 1 - 1e-9])
EDGE_COMMANDS = [
    ("evaluate",),
    ("sweep", "--param", "Q", "--from", "5e-324", "--to", "0.49", "--steps", "3"),
    ("sweep", "--param", "R", "--steps", "3"),
]


@given(edge_qualities(), edge_types, st.none() | edge_types, edge_thresholds)
@settings(max_examples=60, deadline=None)
@example(SUBNORMAL.quality, SUBNORMAL.sender_types, None, 0.25)
@example(ALWAYS_BUY.quality, NEAR_STEP, None, 0.1)
@example(rv.QualityDistribution(0.5 + 9e-13, 0.25, 0.25, 0.0), NEAR_STEP, None, 0.05)
def test_edge_qualities_end_in_a_value_or_a_model_error(
    tmp_path_factory, quality, sender, receiver, threshold
):
    system = rv.RecommendationSystem(quality, sender, threshold, receiver)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (
            lambda: rv.system_value(system).value,
            lambda: rv.system_values(system, [threshold]).value[0],
        ):
            try:
                assert math.isfinite(value())
            except ModelError:
                pass
        for argv in EDGE_COMMANDS:
            code, _, err = run_cli(tmp_path_factory, system, *argv)
            if code == 0:
                assert err == ""
            else:
                assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


# -- one implementation per rule of the value ---------------------------------------


def test_a_wrong_closed_form_fails_both_routes_with_one_message(monkeypatch):
    closed = rv.value._closed
    monkeypatch.setattr(rv.value, "_closed", lambda *args: closed(*args) + 1e-8)
    quality = rv.QualityDistribution(0.3, 0.4, 0.1, 0.2)
    system = rv.RecommendationSystem(quality, rv.UniformTypes(), 0.3)
    with pytest.raises(ModelError) as scalar:
        rv.system_value(system)
    with pytest.raises(ModelError) as batch:
        rv.system_values(system, [0.3])
    assert str(scalar.value) == str(batch.value)
    gate = r"closed-form value \S+ disagrees with integral \S+ at threshold 0\.3"
    assert re.fullmatch(gate, str(scalar.value))


def parent_acceptance_region(d_o, d_s):
    """The branches ``acceptance_region`` ran before it became
    ``region_arrays`` on one effect pair."""
    if abs(d_s) <= 2.0 * d_o + rv.receiver.REGION_EPS or d_s == 0.0:
        return "all", None
    cutoff = d_o / d_s
    if d_s < 0.0:
        return ("all", None) if cutoff <= -0.5 else ("upper", cutoff)
    return ("all", None) if cutoff >= 0.5 else ("lower", cutoff)


tiny_effects = st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-13])
signed_effects = (tiny_effects | st.floats(1e-6, 2.0)).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@given(signed_effects, signed_effects, st.booleans())
@settings(max_examples=200, deadline=None)
@example(0.25, -0.5 - 1e-12, True)
@example(0.0, 5e-324, False)
@example(1e-13, -1e-13, False)
@example(-1e-6, 5e-324, False)
def test_region_rule_on_one_pair_equals_the_scalar_branches(d_o, d_s, on_edge):
    if on_edge:  # |s| = 2o + 1e-12: the all-accept test's boundary
        d_s = math.copysign(2.0 * abs(d_o) + 1e-12, d_s)
    pair = rv.EffectPair(d_o, d_s, rv.Recommendation.BUY)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rv.receiver, "effects", lambda system, rec: pair)
        # a negative objective over a subnormal subjective effect overflows
        # to an infinite cutoff in both rules; numpy also warns
        with np.errstate(over="ignore"):
            region = rv.acceptance_region(SUBNORMAL)
    assert (region.kind, region.cutoff) == parent_acceptance_region(d_o, d_s)


def parent_controversial_gain_integral(quality, dist):
    """``extensions._controversial_gain_integral`` before it called
    ``value._closed``."""
    q = quality
    both = q.q_1 + q.q_2
    if both <= 0.0:
        return 0.0
    const = 0.5 * (q.q_l - q.q_h)
    slope = (1.0 - both) * (q.q_1 - q.q_2) / both
    cutoff = min(max(rv.neutral_indifferent_type(quality), LO), HI)
    lo, hi = (cutoff, HI) if q.q_1 >= q.q_2 else (LO, cutoff)
    if hi <= lo:
        return 0.0
    mass = dist.cdf(hi) - dist.cdf(lo)
    return const * mass + slope * dist.partial_expectation(lo, hi)


def extension_values(quality, dist, pair):
    values = [rv.infinite_learning_value(quality, dist)]
    if dist.symmetric:
        values.append(rv.two_threshold_value(quality, dist, pair))
        values.extend(rv.two_threshold_partials(quality, dist, pair))
    return values


symmetric_tabulated = st.integers(0, 2**32 - 1).map(
    lambda seed: random_symmetric_tabulated(np.random.default_rng(seed))
)
even_splits = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.5)).map(
    lambda t: ((1.0 - 2.0 * t[1]) * t[0], t[1], t[1], (1.0 - 2.0 * t[1]) * (1.0 - t[0]))
)


@given(
    probability_vectors | even_splits,
    any_types | symmetric_tabulated | st.just(rv.PowerTypes(1.0)),
    st.floats(0.02, 0.98),
    st.floats(0.0, 0.9),
)
@settings(max_examples=120, deadline=None)
@example((0.5, 0.1, 0.4, 0.0), rv.UniformTypes(), 0.3, 0.5)  # no buyers: +0.0, not -0.0
def test_extension_values_equal_the_parent_gain_integral(masses, dist, low, width):
    quality = rv.QualityDistribution(*masses)
    pair = rv.ThresholdPair(low, low + width * (1.0 - low))
    got = extension_values(quality, dist, pair)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            rv.extensions, "_controversial_gain_integral", parent_controversial_gain_integral
        )
        want = extension_values(quality, dist, pair)
    if isinstance(dist, rv.PowerTypes):
        assert got == pytest.approx(want, rel=POWER_TOL, abs=POWER_TOL)
    else:
        assert list(map(repr, got)) == list(map(repr, want))  # the sign of 0 too


# -- sweeps of Q, sigma and the sender exponent ---------------------------------


def reference_sweep_points(scenario, param, grid):
    """(x, system) of every point of a Q, sigma or a sweep, built in grid
    order: the per-point part of the loop CLI sweeps ran before they became
    one value-core call."""
    points = []
    for x in map(float, grid):
        if param == "a":
            variant = replace(scenario, sender_types=rv.PowerTypes(x))
        else:
            lam = _sweep_controversial_odds(scenario.quality)
            prevalence = x if param == "Q" else scenario.quality.prevalence
            sigma = scenario.quality.good_odds if param == "Q" else x
            quality = rv.quality_from_params(prevalence, sigma, lam)
            variant = replace(scenario, quality=quality)
        points.append((x, variant.system()))
    return points


SWEEP_RANGES = {"Q": (0.0, 0.5), "sigma": (0.01, 100.0), "a": (0.1, 8.0)}


@given(
    masses=probability_vectors,
    sender=any_types,
    receiver=st.none() | any_types,
    threshold=st.floats(0.02, 0.98),
    param=st.sampled_from(sorted(SWEEP_RANGES)),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_sweeps_equal_a_per_point_reference(
    masses, sender, receiver, threshold, param, data
):
    quality = rv.QualityDistribution(*masses)
    scenario = Scenario(quality, sender, receiver or sender, threshold)
    ends, steps = st.floats(*SWEEP_RANGES[param]), st.integers(1, 12)
    grid = np.linspace(data.draw(ends), data.draw(ends), data.draw(steps))
    try:
        points = reference_sweep_points(scenario, param, grid)
    except ModelError as exc:  # an invalid point: the same error line
        with pytest.raises(type(exc)) as raised:
            _sweep_rows(scenario, param, grid)
        assert str(raised.value) == str(exc)
        return
    try:
        reports = [(x, rv.system_value(system)) for x, system in points]
    except ModelError:  # the batch may report another failing point first
        with pytest.raises(ModelError):
            _sweep_rows(scenario, param, grid)
        return
    want = [(x, r.value, r.pi_buy, r.region.kind) for x, r in reports]
    got = _sweep_rows(scenario, param, grid)
    powers = [scenario.receiver_types] + ([sender] if param != "a" else [])
    if not any(isinstance(d, rv.PowerTypes) for d in powers):
        assert got == want
        return
    for (x, value, pi_buy, region), ref in zip(got, want):
        assert (x, region) == (ref[0], ref[3])
        assert value == pytest.approx(ref[1], rel=POWER_TOL, abs=POWER_TOL)
        assert pi_buy == pytest.approx(ref[2], rel=POWER_TOL, abs=POWER_TOL)
