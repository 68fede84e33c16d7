"""Consumer-type distributions on [-1/2, 1/2].

Four families are supported:

* ``UniformTypes`` -- F(i) = i + 1/2.
* ``PowerTypes(a)`` -- F(i) = (i + 1/2)^a for a shape exponent a > 0.
* ``PiecewiseSymmetricTypes(beta_target, r_ref)`` -- a three-segment
  piecewise-linear symmetric CDF whose polarization is controlled by
  ``beta_target``; used to study mean-preserving spreads.
* ``TabulatedTypes(points)`` -- monotone linear interpolation through
  user-supplied (i, F(i)) pairs.

All distributions are immutable and safe for concurrent use.  ``cdf``,
``partial_expectation`` and ``quantile`` accept scalars or numpy arrays
(a scalar in, a Python float out).  Means and truncated means use closed
forms where the family admits them; the tabulated family falls back on
adaptive Simpson quadrature of the CDF (absolute tolerance 1e-10) and
bisection for quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._quadrature import adaptive_simpson
from .errors import EmptyIntervalError, ModelError, require_finite

LO = -0.5
HI = 0.5

_QUAD_TOL = 1e-10
_QUAD_DEPTH = 40
_BISECT_TOL = 1e-12


class TypeDistribution:
    """Common interface for the type-distribution families."""

    symmetric: bool = False

    def cdf(self, i):
        """F(i), clipped to the type interval."""
        raise NotImplementedError

    def quantile(self, u):
        """Generalized inverse CDF."""
        raise NotImplementedError

    def partial_expectation(self, lo, hi):
        """Integral of i over [lo, hi] against the distribution."""
        raise NotImplementedError

    def mass(self, lo: float, hi: float) -> float:
        lo, hi = _clip_interval(lo, hi)
        return self.cdf(hi) - self.cdf(lo)

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


def _clip_interval(lo, hi):
    if (np.asarray(lo) > hi).any():
        raise ModelError(f"interval bounds out of order: [{lo}, {hi}]")
    return np.maximum(lo, LO), np.minimum(hi, HI)


def _clip(x, lo, hi):
    """``np.clip`` without the Python-level dispatch that dominates small inputs."""
    return np.minimum(np.maximum(x, lo), hi)


def _scalar_or_array(x):
    """A Python float for a 0-d result, the array otherwise."""
    return x if getattr(x, "ndim", 0) else float(x)


def _check_u(u):
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ModelError("quantile argument must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class UniformTypes(TypeDistribution):
    """Uniform types; equals the power family with exponent 1."""

    symmetric = True

    def cdf(self, i):
        return _scalar_or_array(_clip(np.asarray(i) + 0.5, 0.0, 1.0))

    def quantile(self, u):
        return _scalar_or_array(_check_u(u) - 0.5)

    def partial_expectation(self, lo, hi):
        lo, hi = _clip_interval(lo, hi)
        return _scalar_or_array(0.5 * (hi * hi - lo * lo))

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

    def cdf(self, i):
        return _scalar_or_array(_clip(np.asarray(i) + 0.5, 0.0, 1.0) ** self.a)

    def quantile(self, u):
        return _scalar_or_array(_check_u(u) ** (1.0 / self.a) - 0.5)

    def partial_expectation(self, lo, hi):
        lo, hi = _clip_interval(lo, hi)
        return _scalar_or_array(self._antideriv(hi) - self._antideriv(lo))

    def _antideriv(self, i):
        # integral of i * a (i+1/2)^(a-1), by parts
        return (i + 0.5) ** self.a * (self.a * i - 0.5) / (self.a + 1.0)

    def spec(self) -> dict:
        return {"kind": "power", "a": self.a}


@dataclass(frozen=True)
class PiecewiseSymmetricTypes(TypeDistribution):
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

    symmetric = True

    @property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        k = self.r_ref - 0.5
        x = np.array([LO, -k, k, HI])
        f = np.array([0.0, self.beta_target, 1.0 - self.beta_target, 1.0])
        return x, f

    def cdf(self, i):
        x, f = self._knots
        return _scalar_or_array(np.interp(_clip(i, LO, HI), x, f))

    def quantile(self, u):
        arr = np.atleast_1d(_check_u(u)).astype(float)
        x, f = self._knots
        out = np.empty_like(arr)
        # generalized inverse: walk the segments with positive mass
        prev_f = f[0]
        prev_x = x[0]
        filled = np.zeros(arr.shape, dtype=bool)
        for j in range(1, len(x)):
            if f[j] > prev_f:
                sel = (~filled) & (arr <= f[j])
                out[sel] = prev_x + (arr[sel] - prev_f) * (x[j] - prev_x) / (
                    f[j] - prev_f
                )
                filled |= sel
                prev_f, prev_x = f[j], x[j]
            else:
                prev_x = x[j]
        out[~filled] = HI
        out[arr == 0.0] = LO
        return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))

    def partial_expectation(self, lo, hi):
        lo, hi = _clip_interval(lo, hi)
        x, f = self._knots
        a = np.maximum(np.asarray(lo)[..., None], x[:-1])
        b = np.minimum(np.asarray(hi)[..., None], x[1:])
        slope = (f[1:] - f[:-1]) / (x[1:] - x[:-1])
        part = np.where(b > a, slope * 0.5 * (b * b - a * a), 0.0)
        return _scalar_or_array(0.0 + part[..., 0] + part[..., 1] + part[..., 2])

    def spec(self) -> dict:
        return {
            "kind": "piecewise_symmetric",
            "beta_target": self.beta_target,
            "R_ref": self.r_ref,
        }


@dataclass(frozen=True)
class TabulatedTypes(TypeDistribution):
    """CDF interpolated linearly through supplied (i, F) points.

    Points must be strictly increasing in both coordinates and anchored
    at (-1/2, 0) and (1/2, 1).  Truncated means are computed by adaptive
    Simpson quadrature of the CDF; quantiles by bisection.
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
        grid = np.linspace(LO, HI, 201)
        mirror = np.abs(self.cdf(grid) + self.cdf(-grid) - 1.0).max()
        object.__setattr__(self, "_symmetric", bool(mirror < 1e-12))

    @property
    def symmetric(self) -> bool:  # type: ignore[override]
        return self._symmetric

    @property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        xs, fs = zip(*self.points)
        return np.array(xs), np.array(fs)

    def cdf(self, i):
        return _scalar_or_array(np.interp(_clip(i, LO, HI), *self._knots))

    def quantile(self, u):
        arr = np.atleast_1d(_check_u(u)).astype(float)
        lo = np.full(arr.shape, LO)
        hi = np.full(arr.shape, HI)
        xs, fs = self._knots
        while np.max(hi - lo) > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            fmid = np.interp(mid, xs, fs)
            take_hi = fmid >= arr
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        out = 0.5 * (lo + hi)
        return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))

    def partial_expectation(self, lo, hi):
        lo, hi = _clip_interval(lo, hi)
        # integral i dF = [i F] - integral F di, with quadrature on F
        tail = adaptive_simpson(self.cdf, lo, hi, tol=_QUAD_TOL, max_depth=_QUAD_DEPTH)
        out = hi * self.cdf(hi) - lo * self.cdf(lo) - tail
        return _scalar_or_array(np.where(hi <= lo, 0.0, out))

    def spec(self) -> dict:
        return {"kind": "tabulated", "points": [list(p) for p in self.points]}


def distribution_from_spec(data: dict) -> TypeDistribution:
    """Build a distribution from its JSON description (see ``spec()``)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ModelError("type distribution spec must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "uniform":
        return UniformTypes()
    if kind == "power":
        return PowerTypes(a=float(data["a"]))
    if kind == "piecewise_symmetric":
        return PiecewiseSymmetricTypes(
            beta_target=float(data["beta_target"]), r_ref=float(data["R_ref"])
        )
    if kind == "tabulated":
        return TabulatedTypes(points=tuple(tuple(p) for p in data["points"]))
    raise ModelError(f"unknown type distribution kind: {kind!r}")
