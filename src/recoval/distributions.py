"""Consumer-type distributions on [-1/2, 1/2].

Four families are supported:

* ``UniformTypes`` -- F(i) = i + 1/2.
* ``PowerTypes(a)`` -- F(i) = (i + 1/2)^a for a shape exponent a > 0.
* ``PiecewiseSymmetricTypes(beta_target, r_ref)`` -- a three-segment
  piecewise-linear symmetric CDF whose polarization is controlled by
  ``beta_target``; used to study mean-preserving spreads.
* ``TabulatedTypes(points)`` -- monotone linear interpolation through
  user-supplied (i, F(i)) pairs.

The last two share one piecewise-linear implementation.

All distributions are immutable and safe for concurrent use.  Every
family has closed-form means, truncated means and quantiles; the
piecewise-linear ones sum exact per-segment terms and find the segment
of a quantile through a guide table on the knots (Chen and Asau, 1974;
Devroye, 1986, section III.2.4), built at the first draw.  It gives the
index ``searchsorted`` gives, in a few vectorized passes that cost less
than a binary search on random keys.

``TypeDistribution`` alone holds the type-interval contract: ``cdf``
clips i into [-1/2, 1/2], ``partial_expectation`` needs lo <= hi and
clips both, ``quantile`` needs u in [0, 1] and stays in [-1/2, 1/2];
each takes scalars or arrays (a scalar in, a Python float out).
Families implement ``_cdf``, ``_quantile`` and ``_partial_expectation``
on arguments already inside the interval, and list the kinks of their
CDF as ``breakpoints`` (none for the uniform and power families).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyIntervalError, ModelError, require_finite

LO = -0.5
HI = 0.5


class TypeDistribution:
    """Common interface for the type-distribution families."""

    symmetric: bool = False
    # the CDF's kinks inside the type interval, ascending
    breakpoints = np.empty(0)

    def cdf(self, i):
        """F(i), with ``i`` clipped into the type interval."""
        return _scalar_or_array(self._cdf(_clip(i)))

    def quantile(self, u):
        """Generalized inverse CDF inf{i : F(i) >= u} for u in [0, 1]."""
        u = np.asarray(u, dtype=float)
        # one pass each way, and false for nan
        if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
            raise ModelError("quantile argument must lie in [0, 1]")
        return _scalar_or_array(self._quantile(u))

    def partial_expectation(self, lo, hi):
        """Integral of i over [lo, hi], clipped into the type interval,
        against the distribution."""
        return _scalar_or_array(self._partial_expectation(*_clip_interval(lo, hi)))

    def mean(self) -> float:
        return self.partial_expectation(LO, HI)

    def conditional_mean(self, lo: float, hi: float) -> float:
        """E[i | lo <= i <= hi]; raises if the interval carries no mass."""
        lo, hi = _clip_interval(lo, hi)
        weight = self.cdf(hi) - self.cdf(lo)
        if weight <= 0.0:
            raise EmptyIntervalError(f"no mass on [{lo}, {hi}] for conditional mean")
        return self.partial_expectation(lo, hi) / weight

    def spec(self) -> dict:
        """JSON-ready description of the family and its parameters."""
        raise NotImplementedError


def _clip(x):
    """``x`` clipped into [LO, HI]; ``np.clip`` without the Python-level
    dispatch that dominates small inputs, and no ufunc for a float."""
    if isinstance(x, float):
        return min(max(x, LO), HI)
    return np.minimum(np.maximum(x, LO), HI)


def _clip_interval(lo, hi):
    if (np.asarray(lo) > hi).any():
        raise ModelError(f"interval bounds out of order: [{lo}, {hi}]")
    return _clip(lo), _clip(hi)


def _scalar_or_array(x):
    """A Python float for a 0-d result, the array otherwise."""
    return x if getattr(x, "ndim", 0) else float(x)


@dataclass(frozen=True)
class UniformTypes(TypeDistribution):
    """Uniform types; equals the power family with exponent 1."""

    symmetric = True

    def _cdf(self, i):
        return i + 0.5

    def _quantile(self, u):
        return u - 0.5

    def _partial_expectation(self, lo, hi):
        return 0.5 * (hi * hi - lo * lo)

    def spec(self) -> dict:
        return {"kind": "uniform"}


@dataclass(frozen=True)
class PowerTypes(TypeDistribution):
    """F(i) = (i + 1/2)^a; convex for a > 1, concave for a < 1."""

    a: float

    def __post_init__(self):
        require_finite("power exponent", self.a)
        if not self.a > 0.0:
            raise ModelError(f"power exponent must be positive, got {self.a}")

    @property
    def symmetric(self) -> bool:  # type: ignore[override]
        return self.a == 1.0

    def _cdf(self, i):
        return (i + 0.5) ** self.a

    def _quantile(self, u):
        return u ** (1.0 / self.a) - 0.5

    def _partial_expectation(self, lo, hi):
        return self._antideriv(hi) - self._antideriv(lo)

    def _antideriv(self, i):
        # integral of i * a (i+1/2)^(a-1), by parts
        return (i + 0.5) ** self.a * (self.a * i - 0.5) / (self.a + 1.0)

    def spec(self) -> dict:
        return {"kind": "power", "a": self.a}


@dataclass(frozen=True)
class _PiecewiseLinearTypes(TypeDistribution):
    """CDF through knots (x_k, F_k), linear in between; segments may be flat.

    Front-ends validate their parameters and call ``_set_knots`` once;
    the arrays are cached and excluded from equality, hashing and repr.
    Truncated means are exact: each segment contributes
    slope * (b^2 - a^2) / 2 over its part of [lo, hi], summed left to
    right.  Quantiles are the generalized inverse inf{i : F(i) >= u},
    so a flat segment maps to its left end.
    """

    _x: np.ndarray = field(init=False, repr=False, compare=False)
    _f: np.ndarray = field(init=False, repr=False, compare=False)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)
    _segments: np.ndarray = field(init=False, repr=False, compare=False)
    # (buckets, first, passes, padded f), built by the first quantile
    _guide: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def _set_knots(self, xs, fs):
        dx = [b - a for a, b in zip(xs, xs[1:])]
        df = [b - a for a, b in zip(fs, fs[1:])]
        # quantile segments (left i, left F, rise in i, rise in F), indexed
        # by searchsorted(f, u): segment k runs from knot k - 1 to knot k.
        # The constant ends take u <= f[0] to LO and u > f[-1] to HI; a
        # flat segment is never picked, so 1 keeps its quotient finite.
        segments = np.array([
            (LO, *xs[:-1], HI), (0.0, *fs[:-1], 0.0),
            (0.0, *dx, 0.0), (1.0, *(d if d > 0.0 else 1.0 for d in df), 1.0),
        ])
        object.__setattr__(self, "_x", np.array(xs, dtype=float))
        object.__setattr__(self, "_f", np.array(fs, dtype=float))
        object.__setattr__(self, "_slope", np.array(df, dtype=float) / dx)
        object.__setattr__(self, "_segments", segments)
        object.__setattr__(self, "breakpoints", self._x[1:-1])

    def _cdf(self, i):
        return np.interp(i, self._x, self._f)

    def _quantile(self, u):
        k = self._segment(u)
        x0, f0, dx, df = self._segments
        # x0 + (u - f0) * dx / df, a row at a time
        x = u - f0.take(k)
        x *= dx.take(k)
        x /= df.take(k)
        x += x0.take(k)
        x = np.asarray(x)
        # rounding in the top segment can land an ulp or two above HI
        return np.minimum(x, HI, out=x)

    def _guide_table(self):
        """Bucket b of M covers u in [b/M, (b+1)/M) and starts at
        ``first[b] = searchsorted(f, b/M)``; bucket M holds u = 1.  M is a
        power of two of at least four per knot, so ``u * M`` floors exactly
        and most buckets hold at most one knot."""
        if self._guide is None:
            f = self._f
            buckets = 1 << (4 * f.size - 1).bit_length()
            first = np.searchsorted(f, np.arange(buckets + 2) / buckets)
            passes = int(np.diff(first).max()).bit_length()
            padded = np.concatenate([f, np.full(1 << passes, np.inf)])
            object.__setattr__(self, "_guide", (buckets, first, passes, padded))
        return self._guide

    def _segment(self, u):
        """``np.searchsorted(self._f, u)`` for u in [0, 1].

        The knots below u are those before u's bucket and the first few of
        it, at most ``2^passes - 1``; a branch-free binary search counts
        them, one vectorized pass per bit.  It may look past the bucket's
        knots, but those are at least (b+1)/M > u and count nothing."""
        buckets, first, passes, padded = self._guide_table()
        k = first.take((u * buckets).astype(np.intp))
        for p in reversed(range(passes)):
            step = 1 << p
            below = padded.take(k + (step - 1)) < u
            k += below if step == 1 else below * step
        return k

    def _partial_expectation(self, lo, hi):
        a = np.maximum(np.asarray(lo)[..., None], self._x[:-1])
        b = np.minimum(np.asarray(hi)[..., None], self._x[1:])
        part = np.where(b > a, self._slope * 0.5 * (b * b - a * a), 0.0)
        # segments added left to right (np.sum would pair them up)
        return 0.0 + np.cumsum(part, axis=-1)[..., -1]


@dataclass(frozen=True)
class PiecewiseSymmetricTypes(_PiecewiseLinearTypes):
    """Symmetric three-segment piecewise-linear CDF.

    The knots sit at +/-(r_ref - 1/2) and the CDF passes through
    ``beta_target`` at the lower knot, so evaluated at a threshold equal
    to ``r_ref`` the willing-to-recommend share is exactly
    ``beta_target``.  Raising ``beta_target`` from 0 to 1/2 is a
    mean-preserving spread.  Segments may be flat, so full support is
    deliberately relaxed.
    """

    beta_target: float
    r_ref: float

    def __post_init__(self):
        if not 0.0 <= self.beta_target <= 0.5:
            raise ModelError(
                f"beta_target must lie in [0, 1/2], got {self.beta_target}"
            )
        if not 0.5 < self.r_ref < 1.0:
            raise ModelError(f"r_ref must lie in (1/2, 1), got {self.r_ref}")
        k = self.r_ref - 0.5
        beta = self.beta_target
        self._set_knots((LO, -k, k, HI), (0.0, beta, 1.0 - beta, 1.0))

    symmetric = True

    def spec(self) -> dict:
        return {
            "kind": "piecewise_symmetric",
            "beta_target": self.beta_target,
            "R_ref": self.r_ref,
        }


@dataclass(frozen=True)
class TabulatedTypes(_PiecewiseLinearTypes):
    """CDF interpolated linearly through supplied (i, F) points.

    Points must be strictly increasing in both coordinates and anchored
    at (-1/2, 0) and (1/2, 1).  Truncated means and quantiles are those
    of the piecewise-linear family: exact per segment, and through the
    guide table on the knots.
    """

    points: tuple[tuple[float, float], ...]
    _symmetric: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self):
        pts = tuple((float(i), float(p)) for i, p in self.points)
        require_finite("tabulated points", *(v for pt in pts for v in pt))
        if len(pts) < 2:
            raise ModelError("tabulated CDF needs at least two points")
        xs, fs = zip(*pts)
        if abs(xs[0] - LO) > 1e-12 or abs(fs[0]) > 1e-12:
            raise ModelError("tabulated CDF must start at (-1/2, 0)")
        if abs(xs[-1] - HI) > 1e-12 or abs(fs[-1] - 1.0) > 1e-12:
            raise ModelError("tabulated CDF must end at (1/2, 1)")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ModelError("tabulated abscissae must be strictly increasing")
        if any(b <= a for a, b in zip(fs, fs[1:])):
            raise ModelError("tabulated CDF values must be strictly increasing")
        object.__setattr__(self, "points", pts)
        self._set_knots(xs, fs)
        grid = np.linspace(LO, HI, 201)
        mirror = np.abs(self.cdf(grid) + self.cdf(-grid) - 1.0).max()
        object.__setattr__(self, "_symmetric", bool(mirror < 1e-12))

    @property
    def symmetric(self) -> bool:  # type: ignore[override]
        return self._symmetric

    def spec(self) -> dict:
        return {"kind": "tabulated", "points": [list(p) for p in self.points]}


def distribution_from_spec(data: dict) -> TypeDistribution:
    """Build a distribution from its JSON description (see ``spec()``);
    keys that ``spec()`` does not write are rejected."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ModelError("type distribution spec must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "uniform":
        dist = UniformTypes()
    elif kind == "power":
        dist = PowerTypes(a=float(data["a"]))
    elif kind == "piecewise_symmetric":
        dist = PiecewiseSymmetricTypes(
            beta_target=float(data["beta_target"]), r_ref=float(data["R_ref"])
        )
    elif kind == "tabulated":
        dist = TabulatedTypes(points=tuple(tuple(p) for p in data["points"]))
    else:
        raise ModelError(f"unknown type distribution kind: {kind!r}")
    unknown = set(data) - set(dist.spec())
    if unknown:
        raise ModelError(f"unknown {kind!r} spec keys: {sorted(unknown, key=repr)}")
    return dist
