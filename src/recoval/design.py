"""Threshold design and comparative statics.

For symmetric populations the value is monotone in the threshold and
the direction depends only on the good/bad odds.  For power-family
populations with equally likely controversial versions, the value has a
closed form whose coefficients decide between boundary and interior
optima.  A grid search with golden-section refinement realizes the
optimum numerically without relying on quasiconcavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RecommendationSystem
from .distributions import PowerTypes
from .errors import ClosedFormInapplicableError, ModelError
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
    q, s = prevalence, good_odds
    return q * (1.0 - 2.0 * q) * (1.0 - s) / (1.0 + s)


def monotonicity_class_symmetric(good_odds: float, tol: float = 1e-12) -> str:
    """Monotonicity of the value in the threshold, symmetric population."""
    if abs(good_odds - 1.0) < tol:
        return CONSTANT
    return INCREASING if good_odds > 1.0 else DECREASING


def closed_form_coefficients(
    a: float, prevalence: float, good_odds: float
) -> ClosedFormCoefficients:
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


def interior_conditions(
    a: float,
    prevalence: float,
    good_odds: float,
    small_prevalence: float = SMALL_PREVALENCE,
) -> str:
    """Classify the optimal threshold for a power-family population.

    Returns "interior" when the sufficient conditions for an interior
    optimum hold (large prevalence, or good odds inside the band set by
    the shape exponent).  Outside the band the value is monotone as the
    prevalence vanishes: "boundary_low" (value maximal at low
    thresholds) or "boundary_high".  For larger prevalence outside the
    interior band the limit argument loses force and the answer is
    "indeterminate".
    """
    if a <= 0.0 or not 0.0 <= prevalence < 0.5 or good_odds <= 0.0:
        raise ModelError("need a > 0, prevalence in [0, 1/2), positive odds")
    band = _interior_band(a, prevalence)
    if band is None or band[0] <= good_odds <= band[1]:
        return "interior"
    if prevalence > small_prevalence:
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


def _golden_section_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi_sq = (3.0 - math.sqrt(5.0)) / 2.0
    dist = hi - lo
    if dist <= tol:
        mid = 0.5 * (lo + hi)
        return mid, fn(mid)
    n = int(math.ceil(math.log(tol / dist) / math.log(inv_phi)))
    c = lo + inv_phi_sq * dist
    d = lo + inv_phi * dist
    yc, yd = fn(c), fn(d)
    for _ in range(n - 1):
        if yc > yd:
            hi, d, yd = d, c, yc
            dist *= inv_phi
            c = lo + inv_phi_sq * dist
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            dist *= inv_phi
            d = lo + inv_phi * dist
            yd = fn(d)
    x = 0.5 * (lo + d) if yc > yd else 0.5 * (c + hi)
    return x, fn(x)


def optimize_threshold(
    system: RecommendationSystem,
    grid_points: int = 2001,
    interior_margin: float = 0.01,
    tol: float = 1e-8,
) -> DesignVerdict:
    """Maximize the system value over the threshold.

    A dense grid guards against multimodality; golden-section then
    refines around the grid argmax to ``tol`` in the threshold.  An
    argmax within ``interior_margin`` of either end of the grid is
    reported as the matching monotone verdict instead of an interior
    optimum.
    """
    if grid_points < 2:
        raise ModelError(f"need at least 2 grid points, got {grid_points}")
    grid = np.linspace(_GRID_LO, _GRID_HI, grid_points)
    values = system_values(system, grid).value
    spread = values.max() - values.min()
    if spread < _CONSTANT_TOL:
        note = f"grid range {spread:.2e} below tolerance"
        return DesignVerdict(CONSTANT, None, float(values[len(grid) // 2]), note)
    k = int(values.argmax())
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, grid_points - 1)])
    best_r, best_v = _golden_section_max(
        lambda r: system_value(system.with_threshold(r)).value, lo, hi, tol
    )
    if best_v < values[k]:
        best_r, best_v = float(grid[k]), float(values[k])
    if best_r <= _GRID_LO + interior_margin:
        kind, note = DECREASING, "argmax at the low edge of the grid"
    elif best_r >= _GRID_HI - interior_margin:
        kind, note = INCREASING, "argmax at the high edge of the grid"
    else:
        kind, note = INTERIOR, f"grid argmax at {grid[k]:.6f} refined by golden section"
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
    if good_odds <= 0.0 or not 0.0 <= buy_share <= 1.0:
        raise ModelError("need positive odds and buy share in [0, 1]")
    s, b = good_odds, buy_share
    disc = 3.0 * s - b - s * s + s * s * b
    if disc >= 0.0:
        return PrevalenceVerdict(kind="decreasing")
    q_star = disc / (4.0 * s - 4.0 * b - 4.0 * s * s + 4.0 * s * s * b)
    return PrevalenceVerdict(kind="interior", q_star=q_star)


def _objective_effect_symmetric(
    prevalence: float, good_odds: float, buy_share: float
) -> float:
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
    """Boundary curves of the design regions, as (x, y, label) rows.

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
      with the prevalence; located by sign-change bisection on a central
      difference (h = 1e-6) at the given prevalence.
    """
    if kind not in REGION_MAPS:
        raise ModelError(f"unknown region map kind {kind!r}")
    if x_from is None or x_to is None:
        x_from, x_to = (0.05, 10.0)
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
    if kind == "panelA":
        for s in xs:
            if abs(s - 1.0) < 1e-9 or s <= 0.0:
                continue
            b = (s * s - 3.0 * s) / (s * s - 1.0)
            if 0.0 <= b <= 1.0:
                rows.append((float(s), b, "interior_prevalence_boundary"))
        return rows
    if kind == "panelB":
        label = "buy_probability_boundary"
        return [(float(s), s / (1.0 + s), label) for s in xs if s > 0.0]
    h = 1e-6
    for s in xs:
        if s <= 0.0:
            continue

        def slope(b: float) -> float:
            return (
                _objective_effect_symmetric(prevalence + h, s, b)
                - _objective_effect_symmetric(prevalence - h, s, b)
            ) / (2.0 * h)

        b_star = _bisect_sign_change(slope, 0.0, 1.0)
        if b_star is not None:
            rows.append((float(s), b_star, "objective_effect_boundary"))
    return rows


def _bisect_sign_change(fn, lo: float, hi: float, scan: int = 33) -> float | None:
    grid = np.linspace(lo, hi, scan)
    vals = [fn(float(b)) for b in grid]
    for j in range(1, scan):
        if vals[j - 1] == 0.0:
            return float(grid[j - 1])
        if vals[j - 1] * vals[j] < 0.0:
            a, b = float(grid[j - 1]), float(grid[j])
            fa = vals[j - 1]
            while b - a > 1e-10:
                m = 0.5 * (a + b)
                fm = fn(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            return 0.5 * (a + b)
    return None
