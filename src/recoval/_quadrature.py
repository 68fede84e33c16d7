"""Adaptive Simpson quadrature for CDF-based integrals, batched over intervals."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ModelError

# Integrand evaluations allowed per interval, on average over a batch.
MAX_EVALS = 1 << 20

# Most intervals refined by one vectorized step; bounds the working set.
CHUNK = 1024


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> np.ndarray:
    """Integrate a vectorized ``f`` over every ``[a_k, b_k]`` to absolute ``tol``.

    Simpson with Richardson correction; an interval whose halves miss the
    tolerance is split and each half refined to half of it, at most
    ``max_depth`` times.  Unconverged intervals are refined breadth-first,
    ``CHUNK`` at a time, and each integral sums its halves over the same
    binary tree whatever the batch, so no element depends on the others.
    Empty intervals integrate to 0.  Raises ``ModelError`` on non-finite
    values or beyond ``MAX_EVALS`` evaluations per interval.
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

    stack = []

    def push(nodes, depth, dest):
        # refine the columns (a, b, f(a), f(m), f(b), whole) of nodes into
        # the view dest, CHUNK at a time
        for lo in range(0, dest.size, CHUNK):
            stack.append((nodes[:, lo : lo + CHUNK], depth, dest[lo : lo + CHUNK]))

    m = 0.5 * (a + b)
    fa, fm, fb = sample(a, m, b)
    result = np.empty(a.size)
    push(np.array((a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb))), 0, result)
    while stack:
        nodes, depth, dest = stack.pop()
        if depth is None:  # the halves of these split intervals are all done
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
        # the left halves of the split intervals, then their right halves
        lefts = np.array((ta, m, fa, flm, fm, left))[:, split]
        rights = np.array((m, tb, fm, frm, fb, right))[:, split]
        push(np.concatenate((lefts, rights), axis=1), depth + 1, halves)
    out[live] = result
    return out
