"""Value of a recommendation system to a randomly drawn receiver.

The value is the expected payoff gain from one random sender's
recommendation relative to choosing on priors alone.  One core,
:func:`value_core`, computes it at an array of points, each with its own
prior masses, version buy probabilities and threshold, against one
receiver distribution: :func:`system_values` feeds it a threshold grid,
and CLI ``sweep`` a grid of Q, sigma or sender exponents.  A scalar
route, :func:`system_value`, does one threshold.  Both compute the value
two ways at every point: a case-based closed form driven by the
acceptance region, and an independent integral of the per-type payoff
gains against the receiver distribution (quadrature on the CDF).  The
two routes must agree to 1e-9 at every point or the call fails loudly.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from ._quadrature import adaptive_simpson
from .core import (
    MAX_THRESHOLD,
    MIN_THRESHOLD,
    QualityDistribution,
    Recommendation,
    RecommendationSystem,
    posterior,
    posterior_probs,
    recommendation_probabilities,
    version_buy_probabilities,
)
from .distributions import HI, LO, TypeDistribution
from .errors import ModelError, UnreachableRecommendationError
from .receiver import (
    ALL,
    UPPER,
    AcceptanceRegion,
    EffectPair,
    acceptance_region,
    effect_arrays,
    effects,
    expected_utility,
    region_arrays,
)

_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class SymmetricParams:
    """Reduced parameterization of a quality distribution.

    ``prevalence`` is the controversial share (q_1 + q_2) / 2,
    ``good_odds`` the ratio q_h / q_l and ``controversial_odds`` the
    ratio q_1 / q_2; the odds are None when their denominators vanish.
    """

    prevalence: float
    good_odds: float | None
    controversial_odds: float | None


@dataclass(frozen=True)
class ValueReport:
    """System value together with its ingredients and per-branch split."""

    value: float
    pi_buy: float
    buy_effects: EffectPair
    dont_effects: EffectPair | None
    region: AcceptanceRegion
    accepting_contribution: float
    rejecting_contribution: float
    case: str

    def to_record(self) -> dict:
        """Flat record with the stable wire field names."""
        dont = self.dont_effects
        return {
            "value": self.value,
            "pi_buy": self.pi_buy,
            "delta_O_B": self.buy_effects.objective,
            "delta_S_B": self.buy_effects.subjective,
            "delta_O_D": dont.objective if dont is not None else None,
            "delta_S_D": dont.subjective if dont is not None else None,
            "region": self.region.kind,
            "i_tilde": self.region.cutoff,
        }


def value_no_rec(i: float, quality: QualityDistribution) -> float:
    """Expected payoff of type ``i`` without any recommendation."""
    return expected_utility(i, quality.as_tuple())


def value_accepting(system: RecommendationSystem, i: float) -> float:
    """Expected payoff of a type-``i`` receiver who accepts recommendations."""
    pi_buy, _ = recommendation_probabilities(system)
    u_buy = expected_utility(i, posterior(system, Recommendation.BUY))
    u_0 = value_no_rec(i, system.quality)
    return pi_buy * u_buy + (1.0 - pi_buy) * u_0


def value_rejecting(system: RecommendationSystem, i: float) -> float:
    """Expected payoff of a type-``i`` receiver who goes against them."""
    pi_buy, pi_dont = recommendation_probabilities(system)
    u_0 = value_no_rec(i, system.quality)
    with suppress(UnreachableRecommendationError):  # unless every dont-buy weight is 0
        u_dont = expected_utility(i, posterior(system, Recommendation.DONT_BUY))
        return pi_buy * u_0 + pi_dont * u_dont
    return u_0


@dataclass(frozen=True)
class ValueBatch:
    """System values at an array of points; :meth:`report` gives point k.

    ``effects`` stacks the buy objective and subjective effects and the
    dont-buy ones (NaN where no dont-buy recommendation occurs); ``region``
    holds :data:`recoval.receiver.REGION_KINDS` codes and ``cutoff`` is NaN
    where every type accepts.  ``integral`` is the independent route.
    """

    value: np.ndarray
    integral: np.ndarray
    pi_buy: np.ndarray
    effects: np.ndarray
    region: np.ndarray
    cutoff: np.ndarray
    accepting: np.ndarray
    rejecting: np.ndarray

    def report(self, k: int) -> ValueReport:
        o_b, s_b, o_d, s_d = self.effects[:, k].tolist()
        region = AcceptanceRegion.from_arrays(self.region, self.cutoff, k)
        dont = EffectPair(o_d, s_d, Recommendation.DONT_BUY)
        return ValueReport(
            value=float(self.value[k]),
            pi_buy=float(self.pi_buy[k]),
            buy_effects=EffectPair(o_b, s_b, Recommendation.BUY),
            dont_effects=None if np.isnan(o_d) else dont,
            region=region,
            accepting_contribution=float(self.accepting[k]),
            rejecting_contribution=float(self.rejecting[k]),
            case=f"{region.kind}_accept",
        )


def system_values(system: RecommendationSystem, thresholds) -> ValueBatch:
    """Closed-form system value at every threshold, each cross-checked;
    only the threshold of ``system`` varies (see :func:`value_core`)."""
    r = np.array(thresholds, dtype=float, ndmin=1)
    inside = (r >= MIN_THRESHOLD) & (r <= MAX_THRESHOLD)
    if not inside.all():
        raise ModelError(
            f"threshold {r[~inside][0]} outside ({MIN_THRESHOLD}, {MAX_THRESHOLD})"
        )
    masses = np.broadcast_to(np.array(system.quality.as_tuple())[:, None], (4, r.size))
    phi_1, phi_2 = version_buy_probabilities(system.sender_types, r)
    return value_core(masses, phi_1, phi_2, r, system.receiver_types)


def value_core(masses, phi_1, phi_2, thresholds, dist: TypeDistribution) -> ValueBatch:
    """Closed-form system value at every point, each cross-checked.

    Point k has prior masses ``masses[:, k]`` (a (4, n) array), version
    buy probabilities ``phi_1[k]`` and ``phi_2[k]`` and threshold
    ``thresholds[k]`` (arrays of n; the threshold is named in errors); all
    points share the receiver distribution ``dist``.  The payoff gain of a
    type is pi_buy (dO_B - i dS_B) where it accepts and pi_dont
    (dO_D - i dS_D) where it rejects: linear in i on each side of the
    region cutoff, so the value is a sum of linear integrals against the
    receiver CDF.  The closed form uses truncated means; the integral route
    reduces the integrals by parts and does the CDF integral by adaptive
    Simpson quadrature (tolerance 1e-10), split at the CDF's breakpoints.
    If the routes differ by more than 1e-9 at any point, the batch raises.
    """
    n = thresholds.size
    q_h, q_1, q_2, q_l = masses
    pi_buy = q_h + q_1 * phi_1 + q_2 * phi_2
    pi_dont = 1.0 - pi_buy
    # gated on the dont-buy weights: pi_dont can be an ulp above 0 without them
    has_dont = q_1 * (1.0 - phi_1) + q_2 * (1.0 - phi_2) + q_l > 0.0
    effects = np.full((4, n), np.nan)
    buy = posterior_probs(masses, phi_1, phi_2, Recommendation.BUY)
    effects[:2] = effect_arrays(masses, buy)
    q = masses[:, has_dont]
    dont = posterior_probs(q, phi_1[has_dont], phi_2[has_dont], Recommendation.DONT_BUY)
    effects[2:, has_dont] = effect_arrays(q, dont)
    o_b, s_b, o_d, s_d = effects
    region, cutoff = region_arrays(o_b, s_b)
    # two pieces per threshold, [LO, c] and [c, HI] (empty where all
    # accept); the types on the first accept unless high types do
    lo, hi, c = np.full(n, LO), np.full(n, HI), np.where(region == ALL, HI, cutoff)
    a, b = np.array((lo, c)), np.array((c, hi))
    accepts = np.array((region != UPPER, region == UPPER))
    const = np.where(accepts, pi_buy * o_b, np.where(has_dont, pi_dont * o_d, 0.0))
    slope = np.where(accepts, -pi_buy * s_b, np.where(has_dont, -pi_dont * s_d, 0.0))
    f_a, f_b = dist.cdf(a), dist.cdf(b)  # the CDF clips to the type interval
    c = np.minimum(np.maximum(c, LO), HI)
    truncated = dist.partial_expectation(np.array((lo, c)), np.array((c, hi)))
    mass = f_b - f_a
    closed = np.where(b > a, const * mass + slope * truncated, 0.0)
    accepting = np.where(accepts, closed, 0.0).sum(axis=0)
    rejecting = np.where(accepts, 0.0, closed).sum(axis=0)
    value = accepting + rejecting
    tail = _cdf_integral(dist, a, b)
    parts = np.where(b > a, const * mass + slope * (b * f_b - a * f_a - tail), 0.0)
    integral = 0.0 + parts[0] + parts[1]
    agree = np.abs(value - integral) <= _AGREEMENT_TOL
    if not agree.all():
        k = int(np.argmin(agree))
        raise ModelError(
            f"closed-form value {value[k]} disagrees with integral {integral[k]}"
            f" at threshold {thresholds[k]}"
        )
    return ValueBatch(
        value, integral, pi_buy, effects, region, cutoff, accepting, rejecting
    )


def _cdf_integral(dist: TypeDistribution, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of ``dist.cdf`` over every piece [a_k, b_k] by adaptive Simpson,
    each piece split at the CDF's breakpoints inside it and its parts summed
    left to right: Simpson's error estimate can miss a kink, and on a linear
    stretch it is exact."""
    knots = dist.breakpoints
    if not knots.size:
        return adaptive_simpson(dist.cdf, a, b)
    lo, hi = a[..., None], b[..., None]
    inner = np.broadcast_to(knots, a.shape + knots.shape)
    # knots outside a piece clip to its ends, and empty parts integrate to 0
    edges = np.minimum(np.maximum(np.concatenate((lo, inner, hi), axis=-1), lo), hi)
    parts = adaptive_simpson(dist.cdf, edges[..., :-1], edges[..., 1:])
    return np.cumsum(parts, axis=-1)[..., -1]


def _linear_pieces(system):
    """Non-empty linear integrands (a, b, const, slope, label) of the type gain.

    The scalar counterpart of the pieces :func:`system_values` builds,
    assembled from the public scalar API.
    """
    pi_buy, pi_dont = recommendation_probabilities(system)
    eff_b = effects(system, Recommendation.BUY)
    eff_d = None
    reject = (0.0, 0.0, "reject")
    with suppress(UnreachableRecommendationError):  # unless every dont-buy weight is 0
        eff_d = effects(system, Recommendation.DONT_BUY)
        reject = (pi_dont * eff_d.objective, -pi_dont * eff_d.subjective, "reject")
    region = acceptance_region(system)
    accept = (pi_buy * eff_b.objective, -pi_buy * eff_b.subjective, "accept")
    # [LO, c] and [c, HI], dropped where empty (the second where all accept)
    c = HI if region.kind == "all" else region.cutoff
    first, second = (reject, accept) if region.kind == "upper" else (accept, reject)
    pieces = [(LO, c, *first), (c, HI, *second)]
    return [p for p in pieces if p[1] > p[0]], pi_buy, eff_b, eff_d, region


def integral_system_value(system: RecommendationSystem) -> float:
    """System value at one threshold by the independent integral route.

    Rebuilds its pieces from the scalar API rather than sharing them with
    the closed form of :func:`system_value`.
    """
    pieces, *_ = _linear_pieces(system)
    dist = system.receiver_types
    ends = np.array([piece[:2] for piece in pieces]).T
    tails = _cdf_integral(dist, *ends).tolist()
    total = 0.0
    for (a, b, const, slope, _label), tail in zip(pieces, tails):
        f_a, f_b = dist.cdf(a), dist.cdf(b)
        total += const * (f_b - f_a) + slope * (b * f_b - a * f_a - tail)
    return total


def system_value(system: RecommendationSystem) -> ValueReport:
    """Closed-form system value at one threshold, cross-checked against
    :func:`integral_system_value`; :func:`system_values` does many at once."""
    pieces, pi_buy, eff_b, eff_d, region = _linear_pieces(system)
    dist = system.receiver_types
    parts = {"accept": 0.0, "reject": 0.0}
    for a, b, const, slope, label in pieces:
        mass = dist.cdf(b) - dist.cdf(a)
        parts[label] += const * mass + slope * dist.partial_expectation(a, b)
    accepting, rejecting = parts["accept"], parts["reject"]
    value = accepting + rejecting
    check = integral_system_value(system)
    if abs(value - check) > _AGREEMENT_TOL:
        raise ModelError(f"closed-form value {value} disagrees with integral {check}")
    return ValueReport(
        value=value,
        pi_buy=pi_buy,
        buy_effects=eff_b,
        dont_effects=eff_d,
        region=region,
        accepting_contribution=accepting,
        rejecting_contribution=rejecting,
        case=f"{region.kind}_accept",
    )


def symmetric_value(prevalence: float, good_odds: float, buy_share: float) -> float:
    """Closed-form value under a symmetric sender/receiver population.

    ``buy_share`` is F(1/2 - R); for a fixed symmetric distribution it is
    inversely related to the threshold.  The value is linear in it.
    """
    if not 0.0 <= prevalence < 0.5:
        raise ModelError(f"prevalence must lie in [0, 1/2), got {prevalence}")
    if not good_odds > 0.0:
        raise ModelError(f"good odds must be positive, got {good_odds}")
    if not 0.0 <= buy_share <= 1.0:
        raise ModelError(f"buy share must lie in [0, 1], got {buy_share}")
    q, s, b = prevalence, good_odds, buy_share
    return (1.0 - 2.0 * q) * (s + q * (b - s + s * s * (1.0 - b))) / (1.0 + s) ** 2


def symmetric_buy_probability(
    prevalence: float, good_odds: float, buy_share: float
) -> float:
    """Buy-recommendation probability in the reduced parameterization."""
    return (1.0 - 2.0 * prevalence) * good_odds / (1.0 + good_odds) + (
        2.0 * prevalence * buy_share
    )


def reparameterize(quality: QualityDistribution) -> SymmetricParams:
    """Reduce a quality distribution to (prevalence, odds) parameters."""
    good = quality.q_h / quality.q_l if quality.q_l > 0.0 else None
    contro = quality.q_1 / quality.q_2 if quality.q_2 > 0.0 else None
    return SymmetricParams(quality.prevalence, good, contro)


def quality_from_params(
    prevalence: float, good_odds: float, controversial_odds: float = 1.0
) -> QualityDistribution:
    """Inverse of :func:`reparameterize`."""
    if not 0.0 <= prevalence <= 0.5:
        raise ModelError(f"prevalence must lie in [0, 1/2], got {prevalence}")
    if not good_odds > 0.0 or not controversial_odds > 0.0:
        raise ModelError("odds parameters must be positive")
    q, s, lam = prevalence, good_odds, controversial_odds
    return QualityDistribution(
        q_h=(1.0 - 2.0 * q) * s / (1.0 + s),
        q_1=2.0 * q * lam / (lam + 1.0),
        q_2=2.0 * q / (lam + 1.0),
        q_l=(1.0 - 2.0 * q) / (1.0 + s),
    )


def symmetric_system(
    prevalence: float,
    good_odds: float,
    dist: TypeDistribution,
    threshold: float,
    controversial_odds: float = 1.0,
) -> RecommendationSystem:
    """Convenience constructor from the reduced parameterization."""
    return RecommendationSystem(
        quality=quality_from_params(prevalence, good_odds, controversial_odds),
        sender_types=dist,
        threshold=threshold,
    )
