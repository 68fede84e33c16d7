"""Adaptive Simpson as a batched recursion: the same bits and the same errors
as the explicit node stack it replaced, kept here as the reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recoval as rv
from recoval import _quadrature
from recoval.errors import ModelError

from conftest import piecewise_types, tabulated_types


def stack_simpson(f, a, b, tol=1e-10):
    """``_quadrature.adaptive_simpson`` as it was with an explicit node stack
    and fold frames, reading the module's limits at call time."""
    chunk, max_depth, max_evals = (
        _quadrature.CHUNK, _quadrature.MAX_DEPTH, _quadrature.MAX_EVALS
    )
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    live = ~(b <= a)
    a, b = a[live], b[live]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ModelError("quadrature bounds must be finite")
    budget = max_evals * a.size

    def sample(*points):
        nonlocal budget
        x = np.concatenate(points)
        budget -= x.size
        if budget < 0:
            raise ModelError(f"quadrature over {max_evals} evaluations per interval")
        y = np.asarray(f(x), dtype=float)
        if not np.isfinite(y).all():
            raise ModelError("quadrature integrand is not finite")
        return y.reshape(len(points), -1)

    stack = []

    def push(nodes, depth, dest):
        for lo in range(0, dest.size, chunk):
            stack.append((nodes[:, lo : lo + chunk], depth, dest[lo : lo + chunk]))

    m = 0.5 * (a + b)
    fa, fm, fb = sample(a, m, b)
    result = np.empty(a.size)
    push(np.array((a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb))), 0, result)
    while stack:
        nodes, depth, dest = stack.pop()
        if depth is None:
            values, split, halves = nodes
            values[split] = halves[: halves.size // 2] + halves[halves.size // 2 :]
            dest[:] = values
            continue
        ta, tb, fa, fm, fb, whole = nodes
        m = 0.5 * (ta + tb)
        flm, frm = sample(0.5 * (ta + m), 0.5 * (m + tb))
        left = (m - ta) / 6.0 * (fa + 4.0 * flm + fm)
        right = (tb - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        values = left + right + delta / 15.0
        split = ~(np.abs(delta) <= 15.0 * tol * 0.5**depth)
        if depth >= max_depth or not split.any():
            dest[:] = values
            continue
        halves = np.empty(2 * np.count_nonzero(split))
        stack.append(((values, split, halves), None, dest))
        lefts = np.array((ta, m, fa, flm, fm, left))[:, split]
        rights = np.array((m, tb, fm, frm, fb, right))[:, split]
        push(np.concatenate((lefts, rights), axis=1), depth + 1, halves)
    out[live] = result
    return out


def outcome(quadrature, *args):
    """The result's bytes, or the message of the ModelError it raised."""
    try:
        return quadrature(*args).tobytes()
    except ModelError as exc:
        return f"ModelError: {exc}"


families = (
    st.just(rv.UniformTypes())
    | st.builds(rv.PowerTypes, st.sampled_from([0.1, 10.0]) | st.floats(0.1, 10.0))
    | piecewise_types
    | tabulated_types()
)
tolerances = st.sampled_from([1e-6, 1e-10, 1e-12])
# empty, one, across a CHUNK edge, several CHUNKs
counts = st.sampled_from([0, 1, _quadrature.CHUNK + 1, 3000]) | st.integers(0, 3000)


def intervals(seed, n, bad=False):
    """n random intervals over and beyond the type interval, about a tenth of
    them empty and half reversed; with ``bad``, one live bound not finite."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-0.6, 0.6, (2, n))
    empty = rng.random(n) < 0.1
    b[empty] = a[empty]
    if bad and n:
        k = int(rng.integers(n))
        a[k], b[k] = rng.choice([(np.nan, 0.1), (-np.inf, 0.1), (-0.1, np.inf)])
    return a, b


@given(dist=families, tol=tolerances, n=counts, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(dist=rv.PowerTypes(0.1), tol=1e-12, n=3000, seed=1)
def test_recursion_equals_the_node_stack_bit_for_bit(dist, tol, n, seed):
    a, b = intervals(seed, n)
    got = _quadrature.adaptive_simpson(dist.cdf, a, b, tol)
    assert got.tobytes() == stack_simpson(dist.cdf, a, b, tol).tobytes()


@given(
    dist=families,
    tol=tolerances,
    n=counts,
    seed=st.integers(0, 2**32 - 1),
    bad=st.booleans(),
    max_evals=st.sampled_from([5, 9, 20, 60, 200]),
)
@settings(max_examples=60, deadline=None)
def test_recursion_raises_what_the_node_stack_raises(dist, tol, n, seed, bad, max_evals):
    a, b = intervals(seed, min(n, 300), bad)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_quadrature, "MAX_EVALS", max_evals)
        got = outcome(_quadrature.adaptive_simpson, dist.cdf, a, b, tol)
        assert got == outcome(stack_simpson, dist.cdf, a, b, tol)
