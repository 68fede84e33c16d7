"""Type-distribution families: CDFs, means, truncated means, quantiles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recoval as rv
from recoval import _quadrature
from recoval.errors import EmptyIntervalError, ModelError

from conftest import (
    any_types,
    piecewise_types,
    random_symmetric_tabulated,
    reference_quantile,
    tabulated_types,
)

ALL_FAMILIES = [
    rv.UniformTypes(),
    rv.PowerTypes(0.5),
    rv.PowerTypes(2.0),
    rv.PiecewiseSymmetricTypes(beta_target=0.3, r_ref=0.75),
    rv.PiecewiseSymmetricTypes(beta_target=0.0, r_ref=0.75),
    rv.TabulatedTypes(points=((-0.5, 0.0), (-0.1, 0.25), (0.2, 0.7), (0.5, 1.0))),
]


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_cdf_anchors_and_monotonicity(dist):
    assert dist.cdf(-0.5) == pytest.approx(0.0, abs=1e-12)
    assert dist.cdf(0.5) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(-0.5, 0.5, 401)
    values = [dist.cdf(float(i)) for i in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_power_cdf_exact_form():
    dist = rv.PowerTypes(2.0)
    for i in (-0.5, -0.2, 0.0, 0.3, 0.5):
        assert dist.cdf(i) == pytest.approx((i + 0.5) ** 2, abs=0)


def test_uniform_is_power_one():
    uniform = rv.UniformTypes()
    power = rv.PowerTypes(1.0)
    for i in np.linspace(-0.5, 0.5, 11):
        assert uniform.cdf(float(i)) == pytest.approx(power.cdf(float(i)), abs=1e-15)
    assert power.symmetric


def test_power_mean_closed_form():
    # mean of the power family is (a - 1) / (2 (a + 1))
    for a in (0.5, 1.0, 2.0, 5.0):
        assert rv.PowerTypes(a).mean() == pytest.approx(
            (a - 1.0) / (2.0 * (a + 1.0)), abs=1e-14
        )
    assert rv.PowerTypes(2.0).mean() == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_uniform_mean_and_conditional():
    uniform = rv.UniformTypes()
    assert uniform.mean() == pytest.approx(0.0, abs=1e-15)
    assert uniform.conditional_mean(0.0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_conditional_mean_empty_interval():
    dist = rv.PiecewiseSymmetricTypes(beta_target=0.0, r_ref=0.75)
    # no mass on the flat outer segment
    with pytest.raises(EmptyIntervalError):
        dist.conditional_mean(-0.5, -0.3)


def test_quantile_examples():
    assert rv.UniformTypes().quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert rv.PowerTypes(2.0).quantile(0.25) == pytest.approx(0.0, abs=1e-12)
    for dist in ALL_FAMILIES:
        assert dist.quantile(0.0) == pytest.approx(-0.5, abs=1e-9)
        # the top quantile reaches the smallest type with full CDF mass
        assert dist.cdf(dist.quantile(1.0)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_quantile_inverts_cdf(dist):
    u = np.linspace(0.001, 0.999, 97)
    i = dist.quantile(u)
    back = np.array([dist.cdf(float(x)) for x in i])
    np.testing.assert_allclose(back, u, atol=1e-9)


def test_quantile_vectorized_matches_scalar():
    dist = rv.PiecewiseSymmetricTypes(beta_target=0.2, r_ref=0.8)
    u = np.array([0.0, 0.1, 0.2, 0.5, 0.8, 1.0])
    vec = dist.quantile(u)
    scalars = [dist.quantile(float(x)) for x in u]
    np.testing.assert_allclose(vec, scalars, atol=1e-12)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
@pytest.mark.parametrize(
    "u", [float("nan"), [0.5, float("nan")], [float("nan"), 0.5], [[0.1], [float("nan")]]]
)
def test_quantile_rejects_nan(dist, u):
    with pytest.raises(ModelError, match=r"quantile argument must lie in \[0, 1\]"):
        dist.quantile(u)


@pytest.mark.parametrize("dist", ALL_FAMILIES)
def test_quantile_of_no_draws_is_empty(dist):
    q = dist.quantile(np.empty(0))
    assert isinstance(q, np.ndarray) and q.shape == (0,)


def test_tabulated_matches_uniform_on_linear_points():
    dist = rv.TabulatedTypes(points=((-0.5, 0.0), (0.0, 0.5), (0.5, 1.0)))
    assert dist.symmetric
    assert dist.mean() == pytest.approx(0.0, abs=1e-9)
    assert dist.conditional_mean(0.0, 0.5) == pytest.approx(0.25, abs=1e-8)
    assert dist.quantile(0.73) == pytest.approx(0.23, abs=1e-10)


def test_tabulated_partial_expectation_quadrature():
    # quadrature route must agree with the closed form of the same shape
    dist = rv.TabulatedTypes(
        points=((-0.5, 0.0), (-0.25, 0.3), (0.25, 0.7), (0.5, 1.0))
    )
    pw = rv.PiecewiseSymmetricTypes(beta_target=0.3, r_ref=0.75)
    for lo, hi in ((-0.5, 0.5), (-0.3, 0.2), (0.0, 0.5)):
        assert dist.partial_expectation(lo, hi) == pytest.approx(
            pw.partial_expectation(lo, hi), abs=1e-9
        )


def test_piecewise_symmetric_shape():
    dist = rv.PiecewiseSymmetricTypes(beta_target=0.3, r_ref=0.75)
    assert dist.cdf(-0.25) == pytest.approx(0.3, abs=1e-15)
    assert dist.cdf(0.25) == pytest.approx(0.7, abs=1e-15)
    assert dist.mean() == pytest.approx(0.0, abs=1e-15)
    assert dist.symmetric


def test_symmetry_detection_tabulated():
    rng = np.random.default_rng(7)
    assert random_symmetric_tabulated(rng).symmetric
    skewed = rv.TabulatedTypes(points=((-0.5, 0.0), (-0.1, 0.8), (0.5, 1.0)))
    assert not skewed.symmetric


def test_invalid_parameters_raise():
    with pytest.raises(ModelError):
        rv.PowerTypes(0.0)
    with pytest.raises(ModelError):
        rv.PiecewiseSymmetricTypes(beta_target=0.6, r_ref=0.75)
    with pytest.raises(ModelError):
        rv.PiecewiseSymmetricTypes(beta_target=0.2, r_ref=0.4)
    with pytest.raises(ModelError):
        rv.TabulatedTypes(points=((-0.5, 0.0), (0.5, 0.9)))
    with pytest.raises(ModelError):
        rv.TabulatedTypes(points=((-0.5, 0.0), (0.0, 0.5), (0.0, 0.6), (0.5, 1.0)))
    with pytest.raises(ModelError):
        rv.UniformTypes().quantile(1.5)


@given(
    a=st.floats(min_value=0.2, max_value=6.0),
    lo=st.floats(min_value=-0.5, max_value=0.4),
    width=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_conditional_mean_stays_inside_interval(a, lo, width):
    dist = rv.PowerTypes(a)
    hi = min(lo + width, 0.5)
    mean = dist.conditional_mean(lo, hi)
    assert lo - 1e-12 <= mean <= hi + 1e-12


def test_spec_round_trip():
    for dist in ALL_FAMILIES:
        rebuilt = rv.distribution_from_spec(dist.spec())
        grid = np.linspace(-0.5, 0.5, 21)
        for i in grid:
            assert rebuilt.cdf(float(i)) == pytest.approx(dist.cdf(float(i)), abs=0)


# -- the piecewise-linear family -------------------------------------------------


def walk_quantile(dist, u):
    """The segment walk that ``PiecewiseSymmetricTypes.quantile`` replaced."""
    k = dist.r_ref - 0.5
    x = np.array([-0.5, -k, k, 0.5])
    f = np.array([0.0, dist.beta_target, 1.0 - dist.beta_target, 1.0])
    out = np.empty_like(u)
    prev_f, prev_x = f[0], x[0]
    filled = np.zeros(u.shape, dtype=bool)
    for j in range(1, len(x)):
        if f[j] > prev_f:
            sel = (~filled) & (u <= f[j])
            out[sel] = prev_x + (u[sel] - prev_f) * (x[j] - prev_x) / (f[j] - prev_f)
            filled |= sel
            prev_f, prev_x = f[j], x[j]
        else:
            prev_x = x[j]
    out[~filled] = 0.5
    out[u == 0.0] = -0.5
    return out


def bisect_quantile(dist, u):
    """The bisection that ``TabulatedTypes.quantile`` replaced."""
    xs, fs = (np.array(c) for c in zip(*dist.points))
    lo, hi = np.full(u.shape, -0.5), np.full(u.shape, 0.5)
    while np.max(hi - lo) > 1e-12:
        mid = 0.5 * (lo + hi)
        take_hi = np.interp(mid, xs, fs) >= u
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


probabilities = st.lists(
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=20
)


@given(piecewise_types | tabulated_types(), probabilities, st.floats(-0.5, 0.5))
@settings(max_examples=200, deadline=None)
def test_quantile_is_the_generalized_inverse(dist, us, x):
    u = np.array(us)
    q = dist.quantile(u)
    # the segment formula may round an ulp past the top knot
    assert ((q >= -0.5) & (q <= 0.5 + 1e-15)).all()
    assert (dist.cdf(q) >= u - 1e-12).all()
    # inf{i : F(i) >= u}: no type below q reaches u
    reaches = dist.cdf(x) >= u + 1e-12
    assert (q[reaches] <= x + 1e-12).all()
    assert (q[u == 0.0] == -0.5).all()


@pytest.mark.parametrize("r_ref", [0.6, 0.75, 0.9])
def test_quantile_takes_flat_segments_to_their_left_end(r_ref):
    k = r_ref - 0.5
    outer_flat = rv.PiecewiseSymmetricTypes(beta_target=0.0, r_ref=r_ref)
    assert outer_flat.quantile(1.0) == pytest.approx(k, abs=1e-15)
    inner_flat = rv.PiecewiseSymmetricTypes(beta_target=0.5, r_ref=r_ref)
    assert inner_flat.quantile(0.5) == pytest.approx(-k, abs=1e-15)


@given(tabulated_types(), probabilities)
@settings(max_examples=100, deadline=None)
def test_tabulated_quantile_is_within_the_old_bisection_tolerance(dist, us):
    u = np.array(us)
    np.testing.assert_allclose(dist.quantile(u), bisect_quantile(dist, u), rtol=0, atol=1e-12)


@given(piecewise_types, probabilities)
@settings(max_examples=100, deadline=None)
def test_piecewise_quantile_equals_the_segment_walk_bit_for_bit(dist, us):
    u = np.array(us)
    assert np.array_equal(dist.quantile(u), walk_quantile(dist, u))


@st.composite
def clustered_tabulated(draw):
    """Tabulated CDFs with 2-200 knots whose F gaps run from 1e-12 up, so
    that many knots can share one guide-table bucket."""
    n = draw(st.integers(2, 200))
    gap = st.sampled_from([1e-12, 1e-10, 1e-7, 1e-4]) | st.floats(1e-4, 1.0)
    gaps = np.array(draw(st.lists(gap, min_size=n - 1, max_size=n - 1)))
    fs = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    fs[-1] = 1.0
    xs = np.linspace(-0.5, 0.5, n)
    return rv.TabulatedTypes(points=tuple(zip(xs.tolist(), fs.tolist())))


def knot_draws(dist, us):
    """``us``, 0 and 1, and every knot's F with both of its neighbours,
    all in [0, 1]."""
    f = dist._f
    u = np.concatenate([us, [0.0, 1.0], f, np.nextafter(f, -1.0), np.nextafter(f, 2.0)])
    return u[(u >= 0.0) & (u <= 1.0)]


@given(
    clustered_tabulated()
    | st.builds(rv.PiecewiseSymmetricTypes, st.sampled_from([0.0, 0.5]), st.floats(0.51, 0.99)),
    st.lists(st.floats(0.0, 1.0), max_size=50),
)
@settings(max_examples=200, deadline=None)
def test_guide_table_index_equals_searchsorted(dist, us):
    u = knot_draws(dist, us)
    assert np.array_equal(dist._segment(u), np.searchsorted(dist._f, u))
    q = dist.quantile(u)
    assert q.tobytes() == reference_quantile(dist, u).tobytes()
    # one draw at a time, as the scalar API takes it
    assert [dist.quantile(float(x)) for x in u[:8]] == q[:8].tolist()


def test_guide_table_is_built_at_the_first_draw_and_kept():
    dist = rv.TabulatedTypes(points=((-0.5, 0.0), (-0.1, 0.25), (0.2, 0.7), (0.5, 1.0)))
    assert dist._guide is None
    dist.quantile(0.3)
    guide = dist._guide
    buckets, first, passes, padded = guide
    assert buckets == 16 and first.size == buckets + 2
    dist.quantile(np.linspace(0.0, 1.0, 9))
    assert dist._guide is guide
    assert dist == rv.TabulatedTypes(points=dist.points) and "_guide" not in repr(dist)


def test_clustered_knots_stay_within_the_stated_passes():
    # 190 of 200 knots inside 2e-10 of F = 0.3: one bucket holds them all
    fs = np.concatenate([
        np.linspace(0.0, 0.2, 5), 0.3 + np.arange(190) * 1e-12, np.linspace(0.5, 1.0, 5)
    ])
    dist = rv.TabulatedTypes(points=tuple(zip(np.linspace(-0.5, 0.5, 200).tolist(), fs)))
    u = np.concatenate([np.linspace(0.0, 1.0, 1001), fs, np.nextafter(fs, 1.0)])
    probes = []
    buckets, first, passes, padded = dist._guide_table()
    take = padded.take

    class Counting(np.ndarray):
        def take(self, k):
            probes.append(np.size(k))
            return take(k)

    object.__setattr__(dist, "_guide", (buckets, first, passes, padded.view(Counting)))
    assert np.array_equal(dist._segment(u), np.searchsorted(dist._f, u))
    # at most 2^passes - 1 knots in a bucket; a pass per bit of that count
    most = int(np.diff(first).max())
    assert most >= 190 and passes == most.bit_length() == 8
    assert passes <= dist._f.size.bit_length()
    assert probes == [u.size] * passes


interval_ends = st.floats(-0.6, 0.6)


@given(
    tabulated_types(),
    st.lists(st.tuples(interval_ends, interval_ends).map(sorted), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
@example(  # unsplit, Simpson steps over the segment 0.01 wide and returns 0.125
    dist=rv.TabulatedTypes(
        ((-0.5, 0), (-0.49, 0.01), (-0.48, 0.02), (0.38, 0.88), (0.39, 0.89390625), (0.5, 1))
    ),
    intervals=[[0.0, 0.5]],
)
def test_tabulated_truncated_mean_matches_simpson(dist, intervals):
    lo, hi = np.clip(np.array(intervals).T, -0.5, 0.5)
    # split at the knots, as value._cdf_integral does: over a whole interval
    # Simpson can step over a narrow segment or miss a knot near an end
    knots = np.broadcast_to(dist.breakpoints, lo.shape + dist.breakpoints.shape)
    edges = np.column_stack((lo, knots, hi)).clip(lo[:, None], hi[:, None])
    parts = _quadrature.adaptive_simpson(dist.cdf, edges[:, :-1], edges[:, 1:], tol=1e-12)
    tail = parts.sum(axis=1)
    by_parts = np.where(hi > lo, hi * dist.cdf(hi) - lo * dist.cdf(lo) - tail, 0.0)
    np.testing.assert_allclose(
        dist.partial_expectation(lo, hi), by_parts, rtol=0, atol=1e-10
    )


@given(piecewise_types | tabulated_types(), st.data())
@settings(max_examples=100, deadline=None)
def test_scalar_results_equal_their_element_in_a_batch(dist, data):
    u = np.array(data.draw(probabilities))
    ends = data.draw(
        st.lists(st.tuples(interval_ends, interval_ends).map(sorted), min_size=len(u),
                 max_size=len(u))
    )
    lo, hi = np.array(ends).T
    quantiles, cdfs = dist.quantile(u), dist.cdf(lo)
    means = dist.partial_expectation(lo, hi)
    for k in range(len(u)):
        assert dist.quantile(float(u[k])) == quantiles[k]
        assert dist.cdf(float(lo[k])) == cdfs[k]
        assert dist.partial_expectation(float(lo[k]), float(hi[k])) == means[k]


@given(
    tabulated_types(),
    st.lists(st.tuples(interval_ends, interval_ends).map(sorted), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_truncated_mean_adds_segments_left_to_right(dist, intervals):
    xs, fs = zip(*dist.points)
    got = dist.partial_expectation(*np.array(intervals).T)
    for k, (lo, hi) in enumerate(intervals):
        lo, hi = max(lo, -0.5), min(hi, 0.5)
        total = 0.0
        for j in range(1, len(xs)):
            a, b = max(lo, xs[j - 1]), min(hi, xs[j])
            if b > a:
                total += (fs[j] - fs[j - 1]) / (xs[j] - xs[j - 1]) * 0.5 * (b * b - a * a)
        assert got[k] == total


# -- the type-interval contract -------------------------------------------------

# quantile(1.0) used to round to 0.5000000000000002 in the top segment
TOP_SEGMENT_OVERSHOOT = rv.TabulatedTypes(points=(
    (-0.5, 0.0), (-0.49, 0.01), (-0.48, 0.02), (-0.47, 0.03), (-0.46, 0.04),
    (-0.45, 0.05), (-0.439999999999, 0.61), (0.5, 1.0),
))
wide_ends = st.floats(-2.0, 2.0) | st.sampled_from([-0.7, -0.6, -0.5, 0.5, 0.6, 0.7])


def test_quantile_never_leaves_the_type_interval_at_the_top():
    assert TOP_SEGMENT_OVERSHOOT.quantile(1.0) == 0.5


@given(any_types | st.just(TOP_SEGMENT_OVERSHOOT), probabilities)
@settings(max_examples=200, deadline=None)
def test_quantiles_lie_in_the_type_interval(dist, us):
    q = dist.quantile(np.array(us + [1.0]))
    assert ((q >= -0.5) & (q <= 0.5)).all()


@pytest.mark.parametrize(
    "dist, lo, hi",
    [
        (rv.UniformTypes(), 0.6, 0.7),
        (rv.PowerTypes(2.5), 0.6, 0.7),
        (rv.PowerTypes(2.5), -0.7, -0.6),
    ],
)
def test_truncated_mean_outside_the_type_interval_is_zero(dist, lo, hi):
    assert dist.partial_expectation(lo, hi) == 0.0


@given(any_types, st.lists(st.tuples(wide_ends, wide_ends).map(sorted), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_truncated_means_clip_both_ends_into_the_type_interval(dist, intervals):
    lo, hi = np.array(intervals).T
    got = dist.partial_expectation(lo, hi)
    clipped = dist.partial_expectation(np.clip(lo, -0.5, 0.5), np.clip(hi, -0.5, 0.5))
    assert np.array_equal(got, clipped)
    assert (got[(hi <= -0.5) | (lo >= 0.5)] == 0.0).all()


@given(any_types, st.lists(wide_ends, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_cdf_clips_its_argument_into_the_type_interval(dist, xs):
    i = np.array(xs)
    assert np.array_equal(dist.cdf(i), dist.cdf(np.clip(i, -0.5, 0.5)))


@given(any_types)
@settings(max_examples=100, deadline=None)
def test_spec_rebuilds_an_equal_distribution(dist):
    spec = dist.spec()
    assert rv.distribution_from_spec(spec) == dist
    with pytest.raises(ModelError, match=r"unknown .* spec keys: \['x'\]"):
        rv.distribution_from_spec({**spec, "x": 1})
