"""Value of a recommendation system to a randomly drawn receiver.

The value is the expected payoff gain from one random sender's
recommendation relative to choosing on priors alone.  It is computed
for an array of thresholds at once (:func:`system_values`) or for one
(:func:`system_value`), each time two ways at every threshold: a
case-based closed form driven by the acceptance region, and an
independent integral of the per-type payoff gains against the receiver
distribution (quadrature on the CDF).  The two routes must agree to
1e-9 at every threshold or the call fails loudly.
"""

from __future__ import annotations

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
from .errors import ModelError
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
    ``buy_share`` is the fraction of a symmetric population willing to
    recommend a controversial version, F(1/2 - R); it is threshold
    dependent and therefore optional here.
    """

    prevalence: float
    good_odds: float | None
    controversial_odds: float | None
    buy_share: float | None = None


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
    if pi_dont <= 0.0:
        return u_0
    u_dont = expected_utility(i, posterior(system, Recommendation.DONT_BUY))
    return pi_buy * u_0 + pi_dont * u_dont


@dataclass(frozen=True)
class ValueBatch:
    """System values at an array of thresholds; :meth:`report` gives threshold k.

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
    """Closed-form system value at every threshold, each cross-checked.

    Only the threshold of ``system`` varies.  The payoff gain of a type
    is pi_buy (dO_B - i dS_B) where it accepts and pi_dont (dO_D - i dS_D)
    where it rejects: linear in i on each side of the region cutoff, so
    the value is a sum of linear integrals against the receiver CDF.  The
    closed form uses truncated means; the integral route reduces the
    integrals by parts and does the CDF integral by adaptive Simpson
    quadrature (tolerance 1e-10).  If the routes differ by more than 1e-9
    at any threshold, the whole batch raises.
    """
    r = np.array(thresholds, dtype=float, ndmin=1)
    inside = (r >= MIN_THRESHOLD) & (r <= MAX_THRESHOLD)
    if not inside.all():
        raise ModelError(
            f"threshold {r[~inside][0]} outside ({MIN_THRESHOLD}, {MAX_THRESHOLD})"
        )
    q, n = system.quality, r.size
    phi_1, phi_2 = version_buy_probabilities(system.sender_types, r)
    pi_buy = q.q_h + q.q_1 * phi_1 + q.q_2 * phi_2
    pi_dont = 1.0 - pi_buy
    has_dont = pi_dont > 0.0
    effects = np.full((4, n), np.nan)
    effects[:2] = effect_arrays(q, posterior_probs(q, phi_1, phi_2, Recommendation.BUY))
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
    dist = system.receiver_types
    f_a, f_b = dist.cdf(a), dist.cdf(b)  # the CDF clips to the type interval
    c = np.minimum(np.maximum(c, LO), HI)
    truncated = dist.partial_expectation(np.array((lo, c)), np.array((c, hi)))
    mass = f_b - f_a
    closed = np.where(b > a, const * mass + slope * truncated, 0.0)
    accepting = np.where(accepts, closed, 0.0).sum(axis=0)
    rejecting = np.where(accepts, 0.0, closed).sum(axis=0)
    value = accepting + rejecting
    tail = adaptive_simpson(dist.cdf, a, b)
    parts = np.where(b > a, const * mass + slope * (b * f_b - a * f_a - tail), 0.0)
    integral = 0.0 + parts[0] + parts[1]
    agree = np.abs(value - integral) <= _AGREEMENT_TOL
    if not agree.all():
        k = int(np.argmin(agree))
        raise ModelError(
            f"closed-form value {value[k]} disagrees with integral {integral[k]}"
            f" at threshold {r[k]}"
        )
    return ValueBatch(
        value, integral, pi_buy, effects, region, cutoff, accepting, rejecting
    )


def _linear_pieces(system):
    """Per-piece linear integrands (a, b, const, slope, label) of the type gain.

    The scalar counterpart of the pieces :func:`system_values` builds,
    assembled from the public scalar API.
    """
    pi_buy, pi_dont = recommendation_probabilities(system)
    eff_b = effects(system, Recommendation.BUY)
    eff_d = effects(system, Recommendation.DONT_BUY) if pi_dont > 0.0 else None
    region = acceptance_region(system)
    accept_piece = (pi_buy * eff_b.objective, -pi_buy * eff_b.subjective)
    if eff_d is None:
        reject_piece = (0.0, 0.0)
    else:
        reject_piece = (pi_dont * eff_d.objective, -pi_dont * eff_d.subjective)
    if region.kind == "all":
        pieces = [(LO, HI, *accept_piece, "accept")]
    elif region.kind == "upper":
        pieces = [
            (LO, region.cutoff, *reject_piece, "reject"),
            (region.cutoff, HI, *accept_piece, "accept"),
        ]
    else:
        pieces = [
            (LO, region.cutoff, *accept_piece, "accept"),
            (region.cutoff, HI, *reject_piece, "reject"),
        ]
    return pieces, pi_buy, eff_b, eff_d, region


def integral_system_value(system: RecommendationSystem) -> float:
    """System value at one threshold by the independent integral route.

    Rebuilds its pieces from the scalar API rather than sharing them with
    the closed form of :func:`system_value`.
    """
    pieces, *_ = _linear_pieces(system)
    dist = system.receiver_types
    total = 0.0
    for a, b, const, slope, _label in pieces:
        if b <= a:
            continue
        f_a, f_b = dist.cdf(a), dist.cdf(b)
        tail = float(adaptive_simpson(dist.cdf, a, b))
        total += const * (f_b - f_a) + slope * (b * f_b - a * f_a - tail)
    return total


def system_value(system: RecommendationSystem) -> ValueReport:
    """Closed-form system value at one threshold, cross-checked against
    :func:`integral_system_value`; :func:`system_values` does many at once."""
    pieces, pi_buy, eff_b, eff_d, region = _linear_pieces(system)
    dist = system.receiver_types
    accepting = 0.0
    rejecting = 0.0
    for a, b, const, slope, label in pieces:
        if b <= a:
            continue
        mass = dist.cdf(b) - dist.cdf(a)
        part = const * mass + slope * dist.partial_expectation(a, b)
        if label == "accept":
            accepting += part
        else:
            rejecting += part
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
