"""Value of a recommendation system to a randomly drawn receiver.

The value is the expected payoff gain from one random sender's
recommendation over choosing on priors alone.  A type's gain is linear
in the type on each side of the acceptance cutoff, so the value sums
linear integrals against the receiver CDF, taken by truncated means (the
closed form) and, independently, by parts with quadrature on the CDF;
the two must agree to 1e-9 at every point or the call fails loudly.  One
set of rules serves two entry points: :func:`value_core` on arrays of
points (:func:`system_values`, CLI ``sweep``) and :func:`system_value` on
the scalar API's results at one threshold.  The latter builds its pieces
twice, itself and in :func:`integral_system_value`, because ``perfbench``
pins the calls per value (8 version buy probabilities, 6 effect pairs).
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
    _posterior_weights,
    posterior,
    posterior_probs,
    recommendation_probabilities,
    version_buy_probabilities,
)
from .distributions import HI, LO, TypeDistribution, _clip
from .errors import (
    ModelError,
    UnreachableRecommendationError,
    require_finite,
    require_positive,
)
from .receiver import (
    ALL,
    REGION_KINDS,
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
    points share the receiver distribution ``dist``.  An accepting type
    gains pi_buy (dO_B - i dS_B), a rejecting one pi_dont (dO_D - i dS_D).
    """
    pi_buy = sum(_posterior_weights(masses, phi_1, phi_2, Recommendation.BUY)[1])
    # gated on the dont-buy weights: 1 - pi_buy can be an ulp above 0 without them
    dont_weights = _posterior_weights(masses, phi_1, phi_2, Recommendation.DONT_BUY)[1]
    has_dont = sum(dont_weights) > 0.0
    effects = np.full((4, thresholds.size), np.nan)
    buy = posterior_probs(masses, phi_1, phi_2, Recommendation.BUY)
    effects[:2] = effect_arrays(masses, buy)
    q = masses[:, has_dont]
    dont = posterior_probs(q, phi_1[has_dont], phi_2[has_dont], Recommendation.DONT_BUY)
    effects[2:, has_dont] = effect_arrays(q, dont)
    region, cutoff = region_arrays(effects[0], effects[1])
    a, b, const, slope, accepts = _pieces(pi_buy, has_dont, effects, region, cutoff)
    accepting, rejecting, value = _split(_closed(dist, a, b, const, slope), accepts)
    integral = _integral(dist, a, b, const, slope)
    _gate(value, integral, thresholds)
    return ValueBatch(
        value, integral, pi_buy, effects, region, cutoff, accepting, rejecting
    )


def _pieces(pi_buy, has_dont, effects, region, cutoff):
    """Pieces [LO, c] and [c, HI] of the type gain: ends a, b, gain const + slope i
    and whether the types accept.  The first accepts unless high types do; where
    all accept, c is HI; without a dont-buy report rejecting types gain nothing."""
    o_b, s_b, o_d, s_d = effects
    pi_dont = 1.0 - pi_buy
    c = np.where(region == ALL, HI, cutoff)
    a, b = np.array((np.full_like(c, LO), c)), np.array((c, np.full_like(c, HI)))
    accepts = np.array((region != UPPER, region == UPPER))
    const = np.where(accepts, pi_buy * o_b, np.where(has_dont, pi_dont * o_d, 0.0))
    slope = np.where(accepts, -pi_buy * s_b, np.where(has_dont, -pi_dont * s_d, 0.0))
    return a, b, const, slope, accepts


def _split(closed, accepts):
    """The accepting and the rejecting types' parts of the value, and the value."""
    accepting = np.where(accepts, closed, 0.0).sum(axis=0)
    rejecting = np.where(accepts, 0.0, closed).sum(axis=0)
    return accepting, rejecting, accepting + rejecting


def _closed(dist: TypeDistribution, a, b, const, slope):
    """Integral of const + slope i against ``dist`` over each piece [a, b], clipped
    to the type interval, by mass and truncated mean; +0.0 for an empty piece."""
    a, b = _clip(a), _clip(b)
    mass = dist.cdf(b) - dist.cdf(a)
    return np.where(b > a, const * mass + slope * dist.partial_expectation(a, b), 0.0)


def _integral(dist: TypeDistribution, a, b, const, slope):
    """The same integrals summed, independently: by parts, i dF integrates to
    b F(b) - a F(a) minus the integral of F (:func:`_cdf_integral`)."""
    a, b = _clip(a), _clip(b)
    f_a, f_b = dist.cdf(a), dist.cdf(b)
    by_parts = b * f_b - a * f_a - _cdf_integral(dist, a, b)
    parts = np.where(b > a, const * (f_b - f_a) + slope * by_parts, 0.0)
    return 0.0 + parts[0] + parts[1]


def _gate(value, integral, thresholds) -> None:
    """Raise unless the closed form and the integral agree to 1e-9 everywhere."""
    value, integral, thresholds = np.atleast_1d(value, integral, thresholds)
    agree = np.abs(value - integral) <= _AGREEMENT_TOL
    if not agree.all():
        k = int(np.argmin(agree))
        raise ModelError(
            f"closed-form value {value[k]} disagrees with integral {integral[k]}"
            f" at threshold {thresholds[k]}"
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
    """:func:`_pieces` at the threshold of ``system``, from the scalar API,
    with the report's pi_buy, effects and region."""
    pi_buy, _ = recommendation_probabilities(system)
    eff_b = effects(system, Recommendation.BUY)
    eff_d = None
    with suppress(UnreachableRecommendationError):  # unless every dont-buy weight is 0
        eff_d = effects(system, Recommendation.DONT_BUY)
    region = acceptance_region(system)
    dont = (np.nan, np.nan) if eff_d is None else (eff_d.objective, eff_d.subjective)
    gain = (eff_b.objective, eff_b.subjective, *dont)
    kind = REGION_KINDS.index(region.kind)
    cutoff = HI if region.cutoff is None else region.cutoff
    pieces = _pieces(pi_buy, eff_d is not None, gain, kind, cutoff)
    return pieces, pi_buy, eff_b, eff_d, region


def integral_system_value(system: RecommendationSystem) -> float:
    """System value at one threshold by the independent integral route, on
    pieces it builds again rather than share with :func:`system_value`."""
    (a, b, const, slope, _), *_ = _linear_pieces(system)
    return float(_integral(system.receiver_types, a, b, const, slope))


def system_value(system: RecommendationSystem) -> ValueReport:
    """Closed-form system value at one threshold, cross-checked against
    :func:`integral_system_value`; :func:`system_values` does many at once."""
    (a, b, const, slope, accepts), pi_buy, eff_b, eff_d, region = _linear_pieces(system)
    closed = _closed(system.receiver_types, a, b, const, slope)
    accepting, rejecting, value = map(float, _split(closed, accepts))
    _gate(value, integral_system_value(system), system.threshold)
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
    require_positive("good odds", good_odds)
    if not 0.0 <= buy_share <= 1.0:
        raise ModelError(f"buy share must lie in [0, 1], got {buy_share}")
    q, s, b = prevalence, good_odds, buy_share
    return (1.0 - 2.0 * q) * (s + q * (b - s + s * s * (1.0 - b))) / (1.0 + s) ** 2


def symmetric_buy_probability(
    prevalence: float, good_odds: float, buy_share: float
) -> float:
    """Buy-recommendation probability in the reduced parameterization."""
    require_finite("prevalence and buy share", prevalence, buy_share)
    require_positive("good odds", good_odds)
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
