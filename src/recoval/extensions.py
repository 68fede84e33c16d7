"""Extensions: distinct populations, three-level and repeated recommendations.

Three relaxations of the single-threshold benchmark:

* senders drawn from one (symmetric) distribution and receivers from
  another;
* two thresholds producing buy / neutral / dont-buy recommendations,
  where a neutral recommendation reveals that the product is
  controversial;
* several independent recommendations, up to the infinite-learning
  limit in which good and bad products are perfectly revealed and mixed
  reports pin the posterior odds of the controversial versions at their
  prior ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Posterior,
    QualityDistribution,
    Recommendation,
    RecommendationSystem,
    _normalized,
    _posterior_weights,
    version_buy_probabilities,
)
from .design import CONSTANT, DECREASING, INCREASING, optimize_threshold
from .distributions import HI, LO, TypeDistribution
from .errors import (
    IndeterminateConfigurationError,
    ModelError,
    UnsupportedConfigurationError,
    require_integers,
)
from .value import ValueReport, symmetric_value, system_value

_EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class ThresholdPair:
    """Two payoff thresholds splitting reports into three levels.

    Payoffs at or above ``high`` trigger a buy recommendation, payoffs
    below ``low`` a dont-buy, and the band in between a neutral report.
    """

    low: float
    high: float

    def __post_init__(self):
        if not 0.0 < self.low <= self.high < 1.0:
            raise ModelError(
                f"need 0 < low <= high < 1, got ({self.low}, {self.high})"
            )

    def buy_shares(self, dist: TypeDistribution) -> tuple[float, float]:
        """Willing-to-recommend shares (share_low, share_high)."""
        return dist.cdf(0.5 - self.low), dist.cdf(0.5 - self.high)


@dataclass(frozen=True)
class MultiRecCount:
    """Observed counts of buy and dont-buy recommendations."""

    buys: int
    dont_buys: int

    def __post_init__(self):
        require_integers("report counts", self.buys, self.dont_buys)
        if self.buys < 0 or self.dont_buys < 0 or self.buys + self.dont_buys < 1:
            raise ModelError("need non-negative counts with at least one report")


@dataclass(frozen=True)
class InfiniteLearningPolicy:
    """Receiver policy in the infinite-learning limit.

    Good products are always bought and bad ones never.  For products
    revealed as controversial, ``direction`` says which side of
    ``cutoff`` buys: "above", "below", "all" or "none".
    """

    cutoff: float
    direction: str


def distinct_value(
    quality: QualityDistribution,
    sender_types: TypeDistribution,
    receiver_types: TypeDistribution,
    threshold: float,
) -> ValueReport:
    """System value when receivers come from their own distribution.

    The sender distribution must be symmetric; every receiver then
    accepts and the value weighs the sender-driven effects by the
    receiver population's mean type.
    """
    if not sender_types.symmetric:
        raise UnsupportedConfigurationError(
            "distinct-population value requires a symmetric sender distribution"
        )
    system = RecommendationSystem(
        quality=quality,
        sender_types=sender_types,
        threshold=threshold,
        receiver_types=receiver_types,
    )
    return system_value(system)


def distinct_monotonicity(
    quality: QualityDistribution, receiver_mean: float
) -> str:
    """Direction of the distinct-population value in the threshold.

    Compares the good/bad odds with a tipping ratio built from the
    controversial split and the receiver population's mean type.
    """
    prevalence = quality.prevalence
    if prevalence <= 0.0:
        raise ModelError("monotonicity ratio needs controversial products")
    spread = (quality.q_1 - quality.q_2) * receiver_mean
    denominator = prevalence - spread
    if denominator <= 0.0:
        raise IndeterminateConfigurationError(
            "tipping ratio undefined: receiver lean overwhelms the prevalence"
        )
    ratio = (prevalence + spread) / denominator
    sigma = quality.good_odds
    if abs(sigma - ratio) <= _EQUALITY_TOL:
        return CONSTANT
    return DECREASING if sigma < ratio else INCREASING


def three_level_posterior(
    quality: QualityDistribution,
    dist: TypeDistribution,
    pair: ThresholdPair,
    rec: Recommendation,
) -> Posterior:
    """Posterior for one of the three recommendation levels."""
    q = quality
    if rec in (Recommendation.BUY, Recommendation.DONT_BUY):
        r = pair.high if rec is Recommendation.BUY else pair.low
        phi_1, phi_2 = version_buy_probabilities(dist, r)
        weights = _posterior_weights(quality, phi_1, phi_2, rec)[2]
    elif rec is Recommendation.NEUTRAL:
        gamma_1 = max(dist.cdf(pair.high - 0.5) - dist.cdf(pair.low - 0.5), 0.0)
        gamma_2 = max(dist.cdf(0.5 - pair.low) - dist.cdf(0.5 - pair.high), 0.0)
        weights = (0.0, q.q_1 * gamma_1, q.q_2 * gamma_2, 0.0)
    else:
        raise ModelError(f"three-level systems do not emit {rec}")
    return _normalized(rec, weights, sum(weights), f"{rec.value} recommendation")


def neutral_indifferent_type(quality: QualityDistribution) -> float:
    """Type indifferent about buying a product known to be controversial.

    May land outside [-1/2, 1/2], meaning every type (or none) buys.
    With an even controversial split the convention is -1/2 (all buy)
    when bad products are at least as likely as good ones, else +1/2.
    """
    q = quality
    if q.q_1 == q.q_2:
        return -0.5 if q.q_l >= q.q_h else 0.5
    if q.q_h + q.q_l <= 0.0:
        return -0.5 if q.q_1 > q.q_2 else 0.5
    return (
        0.5
        * (q.q_h - q.q_l)
        * (q.q_1 + q.q_2)
        / ((q.q_1 - q.q_2) * (q.q_h + q.q_l))
    )


def _controversial_gain_integral(
    quality: QualityDistribution, dist: TypeDistribution
) -> float:
    """Integral over buying types of the gain from a revealed-controversial buy.

    The per-type gain is (q_l - q_h)/2 + i (1 - q_1 - q_2)(q_1 - q_2) /
    (q_1 + q_2); the buyer set is the side of the indifferent type on
    which the gain is non-negative, clipped to the type interval.
    """
    q = quality
    both = q.q_1 + q.q_2
    if both <= 0.0:
        return 0.0
    const = 0.5 * (q.q_l - q.q_h)
    slope = (1.0 - both) * (q.q_1 - q.q_2) / both
    cutoff = min(max(neutral_indifferent_type(quality), LO), HI)
    lo, hi = (cutoff, HI) if q.q_1 >= q.q_2 else (LO, cutoff)
    if hi <= lo:
        return 0.0
    mass = dist.cdf(hi) - dist.cdf(lo)
    return const * mass + slope * dist.partial_expectation(lo, hi)


def two_threshold_value(
    quality: QualityDistribution, dist: TypeDistribution, pair: ThresholdPair
) -> float:
    """Value of a three-level system under a symmetric population.

    Buy recommendations create value exactly as in the single-threshold
    system at the high threshold; neutral recommendations add value for
    the types that buy a product revealed to be controversial.
    """
    if not dist.symmetric:
        raise UnsupportedConfigurationError(
            "two-threshold value requires a symmetric population"
        )
    q = quality
    share_low, share_high = pair.buy_shares(dist)
    prevalence = q.prevalence
    pi_buy = q.q_h + 2.0 * prevalence * share_high
    buy_part = q.q_h + prevalence * share_high - pi_buy * (q.q_h + prevalence)
    neutral_part = (
        (q.q_1 + q.q_2)
        * (share_low - share_high)
        * _controversial_gain_integral(quality, dist)
    )
    return buy_part + neutral_part


def two_threshold_partials(
    quality: QualityDistribution, dist: TypeDistribution, pair: ThresholdPair
) -> tuple[float, float]:
    """Partials of the three-level value in the two willing shares.

    Returns (d_high_share, d_low_share): the derivative in the share
    willing to recommend at the high threshold and at the low one.  They
    do not depend on the pair, because the value is linear in both
    shares; ``ThresholdPair`` validates itself when it is built.
    """
    if not dist.symmetric:
        raise UnsupportedConfigurationError(
            "two-threshold partials require a symmetric population"
        )
    q = quality
    gain = (q.q_1 + q.q_2) * _controversial_gain_integral(quality, dist)
    d_low_share = gain
    d_high_share = q.prevalence * (q.q_l - q.q_h) - gain
    return d_high_share, d_low_share


def multi_weights(
    quality: QualityDistribution,
    dist: TypeDistribution,
    threshold: float,
    counts: MultiRecCount,
) -> tuple[float, float, float, float]:
    """Per version, prior mass times the chance of one ordered report sequence.

    comb(b + d, b) times their sum is the probability of the counts.
    """
    q, b, d = quality, counts.buys, counts.dont_buys
    phi_1, phi_2 = version_buy_probabilities(dist, threshold)
    try:  # a count beyond float range cannot be an exponent
        return (
            q.q_h if d == 0 else 0.0,
            q.q_1 * phi_1**b * (1.0 - phi_1) ** d,
            q.q_2 * phi_2**b * (1.0 - phi_2) ** d,
            q.q_l if b == 0 else 0.0,
        )
    except OverflowError as exc:
        raise ModelError(f"report counts: {exc}") from exc


def multi_posterior(
    quality: QualityDistribution,
    dist: TypeDistribution,
    threshold: float,
    counts: MultiRecCount,
) -> Posterior:
    """Posterior after observing repeated independent recommendations.

    One buy report rules out the bad version and one dont-buy report the
    good version, so mixed counts concentrate belief on the
    controversial pair.
    """
    weights = multi_weights(quality, dist, threshold, counts)
    b, d = counts.buys, counts.dont_buys
    if d == 0:
        rec = Recommendation.BUY
    elif b == 0:
        rec = Recommendation.DONT_BUY
    else:
        rec = Recommendation.NEUTRAL
    event = f"observing {b} buys and {d} dont-buys"
    return _normalized(rec, weights, sum(weights), event)


def infinite_learning_policy(quality: QualityDistribution) -> InfiniteLearningPolicy:
    """Optimal receiver policy with unboundedly many recommendations."""
    q = quality
    if q.q_l <= 0.0 or q.q_2 <= 0.0:
        raise ModelError(
            "infinite-learning policy needs positive bad and controversial-2 mass"
        )
    lam = quality.controversial_odds
    sigma = quality.good_odds
    if lam == 1.0:
        if sigma <= 1.0:
            return InfiniteLearningPolicy(cutoff=-0.5, direction="all")
        return InfiniteLearningPolicy(cutoff=0.5, direction="none")
    cutoff = neutral_indifferent_type(quality)
    direction = "above" if lam > 1.0 else "below"
    return InfiniteLearningPolicy(cutoff=cutoff, direction=direction)


def infinite_learning_value(
    quality: QualityDistribution, dist: TypeDistribution
) -> float:
    """Value of full category revelation plus prior-odds mixed signals.

    Each type learns whether the product is good, bad or controversial;
    good products are bought (gain 1 - prior payoff), bad ones avoided
    (no gain), and controversial ones bought exactly when the
    prior-odds payoff beats the outside option.
    """
    q = quality
    mean_prior_payoff = (
        q.q_h + 0.5 * (q.q_1 + q.q_2) + (q.q_1 - q.q_2) * dist.mean()
    )
    good_part = q.q_h * (1.0 - mean_prior_payoff)
    controversial_part = (q.q_1 + q.q_2) * _controversial_gain_integral(
        quality, dist
    )
    return good_part + controversial_part


def infinite_no_gain(controversial_odds: float, good_odds: float) -> bool:
    """Whether infinite learning fails to beat the best single threshold.

    True when the controversial versions are evenly split, or when the
    good/bad odds fall strictly outside the band spanned by the
    controversial odds and its reciprocal.  Band endpoints count as
    inside (gain treated as possible).
    """
    lam, sigma = controversial_odds, good_odds
    if lam <= 0.0 or sigma <= 0.0:
        raise ModelError("odds must be positive")
    if lam == 1.0:
        return True
    lo, hi = min(lam, 1.0 / lam), max(lam, 1.0 / lam)
    return sigma < lo or sigma > hi


def single_threshold_optimum(
    quality: QualityDistribution, dist: TypeDistribution
) -> float:
    """Supremum of the single-threshold value over all thresholds.

    For symmetric populations the value is linear in the willing share,
    so the supremum sits at a share of 0 or 1 and is evaluated in
    closed form (the boundary thresholds themselves are excluded from
    the design space, so a grid search cannot reach it).  Other
    configurations fall back on the numeric optimizer.
    """
    if dist.symmetric and quality.q_l > 0.0 and quality.q_h > 0.0:
        prevalence = quality.prevalence
        if prevalence < 0.5:
            sigma = quality.good_odds
            return max(
                symmetric_value(prevalence, sigma, 0.0),
                symmetric_value(prevalence, sigma, 1.0),
            )
    system = RecommendationSystem(
        quality=quality, sender_types=dist, threshold=0.5
    )
    return optimize_threshold(system).optimum_value
