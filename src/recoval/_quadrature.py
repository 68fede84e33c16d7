"""Adaptive Simpson quadrature of a CDF, batched over intervals; it serves
only the integral route of ``value`` that cross-checks the closed forms."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ModelError

# Integrand evaluations allowed per interval, on average over a batch.
MAX_EVALS = 1 << 20

# Most intervals refined by one vectorized step; bounds the working set.
CHUNK = 1024

# Most halvings of an interval.
MAX_DEPTH = 40


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integrate a vectorized ``f`` over every ``[a_k, b_k]`` to absolute ``tol``.

    Simpson with Richardson correction; an interval whose halves miss the
    tolerance is split and each half refined to half of it, at most
    ``MAX_DEPTH`` times.  Refinement recurses depth-first on the split
    halves, ``CHUNK`` intervals at a time, and each integral sums its halves
    over the same binary tree whatever the batch, so no element depends on
    the others.  Empty intervals integrate to 0.  Raises ``ModelError`` on
    non-finite values or beyond ``MAX_EVALS`` evaluations per interval.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    live = ~(b <= a)
    a, b = a[live], b[live]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ModelError("quadrature bounds must be finite")
    budget = MAX_EVALS * a.size

    def sample(*points):
        nonlocal budget
        x = np.concatenate(points)
        budget -= x.size
        if budget < 0:
            raise ModelError(f"quadrature over {MAX_EVALS} evaluations per interval")
        y = np.asarray(f(x), dtype=float)
        if not np.isfinite(y).all():
            raise ModelError("quadrature integrand is not finite")
        return y.reshape(len(points), -1)

    def refine(nodes, depth, dest):
        # integrate the columns (a, b, f(a), f(m), f(b), whole) of nodes into dest
        for lo in range(0, dest.size, CHUNK):
            ta, tb, fa, fm, fb, whole = nodes[:, lo : lo + CHUNK]
            m = 0.5 * (ta + tb)
            flm, frm = sample(0.5 * (ta + m), 0.5 * (m + tb))
            left = (m - ta) / 6.0 * (fa + 4.0 * flm + fm)
            right = (tb - m) / 6.0 * (fm + 4.0 * frm + fb)
            delta = left + right - whole
            values = left + right + delta / 15.0
            split = ~(np.abs(delta) <= 15.0 * tol * 0.5**depth)
            if depth < MAX_DEPTH and split.any():
                # the left halves of the split intervals, then their right halves
                lefts = np.array((ta, m, fa, flm, fm, left))[:, split]
                rights = np.array((m, tb, fm, frm, fb, right))[:, split]
                children = np.concatenate((lefts, rights), axis=1)
                n = lefts.shape[1]
                halves = np.empty(2 * n)
                # free this level's arrays: up to MAX_DEPTH levels wait on the recursion
                del m, flm, frm, left, right, delta, lefts, rights
                refine(children, depth + 1, halves)
                values[split] = halves[:n] + halves[n:]
            dest[lo : lo + CHUNK] = values

    fa, fm, fb = sample(a, 0.5 * (a + b), b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = np.empty(a.size)
    refine(np.array((a, b, fa, fm, fb, whole)), 0, result)
    out[live] = result
    return out
