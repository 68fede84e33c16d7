"""Shared generators and regression scenarios for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

import recoval as rv


def random_quality(rng) -> rv.QualityDistribution:
    comps = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    comps = comps / comps.sum()
    return rv.QualityDistribution(*[float(c) for c in comps])


def random_symmetric_tabulated(rng) -> rv.TabulatedTypes:
    """Symmetric tabulated CDF with density bounded away from zero."""
    half = np.sort(rng.uniform(0.02, 0.48, size=3))
    xs = np.concatenate([-half[::-1], [0.0], half, [0.5]])
    xs = np.concatenate([[-0.5], xs])
    gaps = rng.uniform(0.3, 1.0, size=4)
    gaps = gaps / (2.0 * gaps.sum())
    upper = np.concatenate([[0.5], 0.5 + np.cumsum(gaps)])
    upper[-1] = 1.0
    lower = 1.0 - upper[::-1]
    fs = np.concatenate([lower[:-1], upper])
    points = tuple((float(x), float(f)) for x, f in zip(xs, fs))
    dist = rv.TabulatedTypes(points=points)
    assert dist.symmetric
    return dist


def random_distribution(rng, symmetric: bool = False) -> rv.TypeDistribution:
    if symmetric:
        pick = rng.integers(0, 3)
        if pick == 0:
            return rv.UniformTypes()
        if pick == 1:
            return rv.PiecewiseSymmetricTypes(
                beta_target=float(rng.uniform(0.0, 0.5)),
                r_ref=float(rng.uniform(0.55, 0.95)),
            )
        return random_symmetric_tabulated(rng)
    pick = rng.integers(0, 2)
    if pick == 0:
        return rv.PowerTypes(a=float(rng.uniform(0.3, 4.0)))
    return rv.UniformTypes()


def random_system(rng, symmetric: bool = False) -> rv.RecommendationSystem:
    return rv.RecommendationSystem(
        quality=random_quality(rng),
        sender_types=random_distribution(rng, symmetric=symmetric),
        threshold=float(rng.uniform(0.02, 0.98)),
    )


# Hypothesis strategies over the four type families.

@st.composite
def tabulated_types(draw):
    """Tabulated CDFs with 2-12 knots, about 0.01 apart (at least 0.002) in i and F."""
    n = draw(st.integers(0, 10))
    xs = draw(st.lists(st.integers(1, 99), min_size=n, max_size=n, unique=True))
    fs = draw(st.lists(st.integers(1, 99), min_size=n, max_size=n, unique=True))
    jitter = st.floats(-0.004, 0.004)
    inner = [
        (x / 100 - 0.5 + draw(jitter), f / 100 + draw(jitter))
        for x, f in zip(sorted(xs), sorted(fs))
    ]
    return rv.TabulatedTypes(points=((-0.5, 0.0), *inner, (0.5, 1.0)))


piecewise_types = st.builds(
    rv.PiecewiseSymmetricTypes,
    st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
    st.floats(0.51, 0.99),
)


any_types = (
    st.just(rv.UniformTypes())
    | st.builds(rv.PowerTypes, st.floats(0.1, 8.0))
    | piecewise_types
    | tabulated_types()
)

def reference_quantile(dist, u):
    """A type distribution's quantile; for a piecewise-linear one, the
    formula it used before its guide table: every segment row gathered at
    once, at the index ``np.searchsorted`` on the knots gives."""
    if not isinstance(dist, (rv.PiecewiseSymmetricTypes, rv.TabulatedTypes)):
        return dist.quantile(u)
    x0, f0, dx, df = dist._segments.take(np.searchsorted(dist._f, u), axis=1)
    x = np.asarray(x0 + (u - f0) * dx / df)
    return np.minimum(x, 0.5, out=x)


# Quality vectors, often with zero-mass versions.
probability_vectors = (
    st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda p: sum(p) > 0.0)
    .map(lambda p: [x / sum(p) for x in p])
)


# Regression scenarios exercised by the Monte Carlo concordance check.
S1 = rv.RecommendationSystem(
    rv.QualityDistribution(0.4, 0.2, 0.2, 0.2), rv.UniformTypes(), 0.5
)
S2 = rv.symmetric_system(0.2, 1.0, rv.PowerTypes(2.0), 0.5)
S3 = rv.RecommendationSystem(
    rv.QualityDistribution(0.02, 0.45, 0.45, 0.08), rv.PowerTypes(6.0), 0.5
)
S4_QUALITY = rv.QualityDistribution(0.03, 0.7, 0.1, 0.17)
S4_PAIR = rv.ThresholdPair(low=0.4, high=0.8)  # uniform: shares 0.6 and 0.2
S5_QUALITY = rv.QualityDistribution(0.25, 0.25, 0.25, 0.25)
S6_QUALITY = rv.quality_from_params(0.25, 1.0, 2.0)
