"""Threshold design and comparative statics.

For symmetric populations the value is monotone in the threshold and
the direction depends only on the good/bad odds.  For power-family
populations with equally likely controversial versions, the value has a
closed form whose coefficients decide between boundary and interior
optima.  A grid search refined by shrinking grids over the bracket of
its argmax realizes the optimum numerically without relying on
quasiconcavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RecommendationSystem
from .distributions import PowerTypes
from .errors import (
    ClosedFormInapplicableError,
    ModelError,
    require_finite,
    require_integers,
    require_positive,
)
from .receiver import acceptance_region
from .value import quality_from_params, system_value, system_values

INCREASING = "increasing_in_R"
DECREASING = "decreasing_in_R"
CONSTANT = "constant_in_R"
INTERIOR = "interior_optimum"

REGION_MAPS = ("interior", "panelA", "panelB", "panelC")

_GRID_LO = 1e-4
_GRID_HI = 1.0 - 1e-4
_CONSTANT_TOL = 1e-9
# final bracket width around the argmax, points per refinement round (the
# bracket shrinks 16x), and the distance from a grid end within which an
# argmax counts as that edge (a monotone verdict)
_REFINE_TOL = 1e-8
_REFINE_POINTS = 33
_EDGE_MARGIN = 0.01
_SIGN_SCAN = 33  # points scanned for a sign change before bisecting
# largest grid (optimize_threshold, region_map, CLI --steps); a value batch
# this size with a 31-knot tabulated receiver takes about 1 s and 50 MB
MAX_GRID_POINTS = 100_001

# Below this prevalence the boundary-direction classification is exact in
# the limit and still accurate across a wide odds range; above it we
# refuse to guess.
SMALL_PREVALENCE = 0.1


@dataclass(frozen=True)
class DesignVerdict:
    """Outcome of threshold optimization or monotonicity analysis."""

    kind: str
    optimum_threshold: float | None
    optimum_value: float
    diagnostics: str = ""

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "R_star": self.optimum_threshold,
            "value": self.optimum_value,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """Coefficients of the power-family value closed form.

    V(R) = c0 + prevalence / (a + 1) * [c1 (1 - R^a) + c2 (1 - R)^a].
    """

    c0: float
    c1: float
    c2: float
    a: float
    prevalence: float
    good_odds: float


@dataclass(frozen=True)
class PrevalenceVerdict:
    """Effect of the controversial-product share on the value."""

    kind: str  # "decreasing" or "interior"
    q_star: float | None = None


def symmetric_slope(prevalence: float, good_odds: float) -> float:
    """Derivative of the symmetric value in the buy share."""
    require_finite("prevalence", prevalence)
    require_positive("good odds", good_odds)
    q, s = prevalence, good_odds
    return q * (1.0 - 2.0 * q) * (1.0 - s) / (1.0 + s)


def monotonicity_class_symmetric(good_odds: float) -> str:
    """Monotonicity of the value in the threshold, symmetric population."""
    require_positive("good odds", good_odds)
    if abs(good_odds - 1.0) < 1e-12:
        return CONSTANT
    return INCREASING if good_odds > 1.0 else DECREASING


def closed_form_coefficients(
    a: float, prevalence: float, good_odds: float
) -> ClosedFormCoefficients:
    require_positive("shape exponent and good odds", a, good_odds)
    require_finite("prevalence", prevalence)
    q, s = prevalence, good_odds
    shift = (a + 1.0) * (q * (s - 1.0) - s) / (s + 1.0)
    return ClosedFormCoefficients(
        c0=(1.0 - 2.0 * q) * s * (q * (s - 1.0) + 1.0) / (s + 1.0) ** 2,
        c1=a + shift,
        c2=1.0 + shift,
        a=a,
        prevalence=q,
        good_odds=s,
    )


def closed_form_value(
    a: float, prevalence: float, good_odds: float, threshold: float
) -> float:
    """Power-family value closed form, valid in the all-accept regime.

    Raises if some types reject recommendations at this threshold, in
    which case the case-based :func:`recoval.value.system_value` must be
    used instead.
    """
    system = RecommendationSystem(
        quality=quality_from_params(prevalence, good_odds),
        sender_types=PowerTypes(a),
        threshold=threshold,
    )
    if acceptance_region(system).kind != "all":
        raise ClosedFormInapplicableError(
            "closed form requires all types to accept at this threshold"
        )
    coef = closed_form_coefficients(a, prevalence, good_odds)
    return coef.c0 + prevalence / (a + 1.0) * (
        coef.c1 * (1.0 - threshold**a) + coef.c2 * (1.0 - threshold) ** a
    )


def interior_conditions(a: float, prevalence: float, good_odds: float) -> str:
    """Classify the optimal threshold for a power-family population.

    Returns "interior" when the sufficient conditions for an interior
    optimum hold (large prevalence, or good odds inside the band set by
    the shape exponent).  Outside the band the value is monotone as the
    prevalence vanishes: "boundary_low" (value maximal at low
    thresholds) or "boundary_high".  For larger prevalence outside the
    interior band the limit argument loses force and the answer is
    "indeterminate".
    """
    require_positive("shape exponent and good odds", a, good_odds)
    if not 0.0 <= prevalence < 0.5:
        raise ModelError(f"prevalence must lie in [0, 1/2), got {prevalence}")
    band = _interior_band(a, prevalence)
    if band is None or band[0] <= good_odds <= band[1]:
        return "interior"
    if prevalence > SMALL_PREVALENCE:
        return "indeterminate"
    return "boundary_low" if good_odds < band[0] else "boundary_high"


def _interior_band(a: float, prevalence: float) -> tuple[float, float] | None:
    """Good-odds band (lo, hi) of interior optima for shape exponent ``a``.

    None when the prevalence alone makes the optimum interior for every
    odds value, including where the band degenerates exactly as the
    prevalence condition takes over.
    """
    if prevalence > 1.0 - max(a / (a + 1.0), 1.0 / (a + 1.0)):
        return None
    num1 = 1.0 - prevalence * (a + 1.0)
    num2 = a - prevalence * (a + 1.0)
    if num1 <= 0.0 or num2 <= 0.0:
        return None
    r1, r2 = num1 / num2, num2 / num1
    return min(r1, r2), max(r1, r2)


def optimize_threshold(
    system: RecommendationSystem, grid_points: int = 2001
) -> DesignVerdict:
    """Maximize the system value over the threshold.

    A dense grid of ``grid_points`` thresholds on [1e-4, 1 - 1e-4] guards
    against multimodality.  An argmax at an end of a grid no coarser than
    the edge margin of 0.01 is that end.  Otherwise rounds of 33 points
    over the bracket of the argmax shrink it to at most 1e-8; the optimum
    is its midpoint, or the grid end the argmax stayed at if that is
    higher.  An optimum within the edge margin of either end is reported
    as the matching monotone verdict instead of an interior optimum.
    """
    require_integers("grid points", grid_points)
    if grid_points < 2:
        raise ModelError(f"need at least 2 grid points, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ModelError(
            f"need at most {MAX_GRID_POINTS} grid points, got {grid_points}"
        )
    grid = np.linspace(_GRID_LO, _GRID_HI, grid_points)
    values = system_values(system, grid).value
    spread = values.max() - values.min()
    if spread < _CONSTANT_TOL:
        note = f"grid range {spread:.2e} below tolerance"
        return DesignVerdict(CONSTANT, None, float(values[len(grid) // 2]), note)
    k = int(values.argmax())
    note = f"grid argmax at {grid[k]:.6f} refined by bracket search"
    if k in (0, grid.size - 1) and grid[1] - grid[0] <= _EDGE_MARGIN:
        best_r, best_v = float(grid[k]), float(values[k])
    else:
        while True:
            lo, hi = float(grid[max(k - 1, 0)]), float(grid[min(k + 1, grid.size - 1)])
            if hi - lo <= _REFINE_TOL:
                break
            grid = np.linspace(lo, hi, _REFINE_POINTS)
            values = system_values(system, grid).value
            k = int(values.argmax())
        best_r = 0.5 * (lo + hi)
        best_v = system_value(system.with_threshold(best_r)).value
        if grid[k] in (_GRID_LO, _GRID_HI) and best_v < values[k]:
            best_r, best_v = float(grid[k]), float(values[k])
    if best_r <= _GRID_LO + _EDGE_MARGIN:
        kind, note = DECREASING, "argmax at the low edge of the grid"
    elif best_r >= _GRID_HI - _EDGE_MARGIN:
        kind, note = INCREASING, "argmax at the high edge of the grid"
    else:
        kind = INTERIOR
    return DesignVerdict(kind, best_r, best_v, note)


def polarization_effect(good_odds: float, threshold: float) -> str:
    """Effect of a mean-preserving spread of a symmetric population.

    Spreading the population raises the willing-to-recommend share for
    thresholds above 1/2 and lowers it below, so the direction flips
    with both the odds and the threshold side.
    """
    if threshold == 0.5:
        raise ModelError(
            "direction undefined at threshold 1/2: symmetry pins the buy share"
        )
    if not 0.0 < threshold < 1.0:
        raise ModelError(f"threshold {threshold} outside (0, 1)")
    require_positive("good odds", good_odds)
    if good_odds == 1.0:
        return "neutral"
    value_rises_with_share = good_odds < 1.0
    spread_raises_share = threshold > 0.5
    return "increases" if value_rises_with_share == spread_raises_share else "decreases"


def prevalence_statics(good_odds: float, buy_share: float) -> PrevalenceVerdict:
    """How the value responds to the controversial-product share.

    The value is quadratic in the share; it is either decreasing
    throughout or maximized at an interior share q_star in (0, 1/2).
    """
    require_positive("good odds", good_odds)
    if not 0.0 <= buy_share <= 1.0:
        raise ModelError(f"buy share must lie in [0, 1], got {buy_share}")
    s, b = good_odds, buy_share
    disc = 3.0 * s - b - s * s + s * s * b
    if disc >= 0.0:
        return PrevalenceVerdict(kind="decreasing")
    q_star = disc / (4.0 * s - 4.0 * b - 4.0 * s * s + 4.0 * s * s * b)
    return PrevalenceVerdict(kind="interior", q_star=q_star)


def _objective_effect_symmetric(prevalence, good_odds, buy_share):
    """Objective effect of a buy recommendation; floats or arrays."""
    q_h = (1.0 - 2.0 * prevalence) * good_odds / (1.0 + good_odds)
    return (
        (q_h + prevalence * buy_share) / (q_h + 2.0 * prevalence * buy_share)
        - q_h
        - prevalence
    )


def region_map(
    kind: str,
    x_from: float | None = None,
    x_to: float | None = None,
    steps: int = 101,
    prevalence: float = 0.1,
) -> list[tuple[float, float, str]]:
    """Boundary curves of the design regions, as (x, y, label) rows, at
    ``steps`` values of x from ``x_from`` to ``x_to`` (0.05 and 10 if None).

    * ``interior``: x is the shape exponent; rows give the lower/upper
      good-odds edges of the interior-optimum band at the given
      prevalence.  Columns with no rows are interior for every odds
      value.
    * ``panelA``: x is the good odds; row gives the buy share at which
      the value switches from decreasing in the prevalence to having an
      interior prevalence optimum.
    * ``panelB``: buy share above which the buy probability rises with
      the prevalence (analytic curve s / (1 + s)).
    * ``panelC``: buy share at which the objective effect stops rising
      with the prevalence: the first sign change of a central difference
      (h = 1e-6) on a 33-point scan of [0, 1] (a NaN is none), bisected
      to 1e-10 in lockstep over all columns.
    """
    if kind not in REGION_MAPS:
        raise ModelError(f"unknown region map kind {kind!r}")
    require_integers("grid points", steps)
    if steps < 1:
        raise ModelError(f"need at least 1 grid point, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise ModelError(f"need at most {MAX_GRID_POINTS} grid points, got {steps}")
    x_from = 0.05 if x_from is None else x_from
    x_to = 10.0 if x_to is None else x_to
    xs = np.linspace(x_from, x_to, steps)
    rows: list[tuple[float, float, str]] = []
    if kind == "interior":
        for a in xs:
            band = _interior_band(a, prevalence) if a > 0.0 else None
            if band is None:
                continue
            lo, hi = band
            if math.isfinite(lo) and lo > 0.0:
                rows.append((float(a), lo, "lower"))
            if math.isfinite(hi) and hi < 1e6:
                rows.append((float(a), hi, "upper"))
        return rows
    s = xs[~(xs <= 0.0)]  # NaN columns stay and give no row
    with np.errstate(all="ignore"):  # 0/0 and overflow give NaN: no row
        if kind == "panelB":
            y, found, label = s / (1.0 + s), s > 0.0, "buy_probability_boundary"
        elif kind == "panelA":
            s = s[~(abs(s - 1.0) < 1e-9)]
            y = (s * s - 3.0 * s) / (s * s - 1.0)
            found, label = (0.0 <= y) & (y <= 1.0), "interior_prevalence_boundary"
        else:
            y, found = _objective_boundary(s, prevalence)
            label = "objective_effect_boundary"
    return [(x, b, label) for x, b in zip(s[found].tolist(), y[found].tolist())]


def _objective_boundary(s: np.ndarray, prevalence: float):
    """panelC's buy share for each good-odds column ``s``, and which have one."""
    h = 1e-6

    def slope(b):
        return (
            _objective_effect_symmetric(prevalence + h, s, b)
            - _objective_effect_symmetric(prevalence - h, s, b)
        ) / (2.0 * h)

    grid = np.linspace(0.0, 1.0, _SIGN_SCAN)
    vals = slope(grid[:, None])  # one row per scan point
    zero = vals[:-1] == 0.0
    hit = zero | (vals[:-1] * vals[1:] < 0.0)
    j, cols, found = hit.argmax(axis=0), np.arange(s.size), hit.any(axis=0)
    a, b, fa, zero = grid[j], grid[j + 1], vals[j, cols], zero[j, cols]
    run = found & ~zero  # a zero at the first hit is the root itself
    while (run := run & (b - a > 1e-10)).any():
        m = 0.5 * (a + b)
        fm = slope(m)
        left = fa * fm <= 0.0
        b = np.where(run & left, m, b)
        a, fa = np.where(run & ~left, m, a), np.where(run & ~left, fm, fa)
    return np.where(zero, a, 0.5 * (a + b)), found
