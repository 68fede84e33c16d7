"""Model primitives: products, payoffs, sender behavior, and posteriors.

A product version is a pair of quality bits.  Version (1, 1) pays 1 to
every consumer, (0, 0) pays 0, and the two controversial versions
(1, 0) and (0, 1) pay more to consumers whose taste leans toward the
high-quality dimension.  A sender who consumed the product issues a buy
recommendation exactly when her realized payoff reached the threshold,
and receivers update on that event by Bayes' rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .distributions import TypeDistribution
from .errors import (
    DecompositionUndefinedError,
    ModelError,
    UnreachableRecommendationError,
    require_finite,
)

GOOD = (1, 1)
CONTROVERSIAL_1 = (1, 0)
CONTROVERSIAL_2 = (0, 1)
BAD = (0, 0)
VERSIONS = (GOOD, CONTROVERSIAL_1, CONTROVERSIAL_2, BAD)

MIN_THRESHOLD = 1e-9
MAX_THRESHOLD = 1.0 - 1e-9

_PROB_TOL = 1e-12
_TYPE_TOL = 1e-12


class Recommendation(str, enum.Enum):
    BUY = "buy"
    DONT_BUY = "dont_buy"
    NEUTRAL = "neutral"
    NONE = "none"


@dataclass(frozen=True)
class QualityDistribution:
    """Prior over the four product versions.

    Components are ordered (good, controversial-1, controversial-2, bad)
    and must form a probability vector.
    """

    q_h: float
    q_1: float
    q_2: float
    q_l: float

    def __post_init__(self):
        comps = self.as_tuple()
        require_finite("quality probabilities", *comps)
        if any(c < 0.0 for c in comps):
            raise ModelError(f"negative probability in {comps}")
        if abs(sum(comps) - 1.0) > _PROB_TOL:
            raise ModelError(f"probabilities sum to {sum(comps)}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.q_h, self.q_1, self.q_2, self.q_l)

    def __iter__(self):
        return iter(self.as_tuple())

    @property
    def prevalence(self) -> float:
        """Share of controversial products, (q_1 + q_2) / 2."""
        return 0.5 * (self.q_1 + self.q_2)

    @property
    def good_odds(self) -> float:
        """Odds of a good versus a bad product, q_h / q_l."""
        if self.q_l <= 0.0:
            raise ModelError("good/bad odds undefined when q_l = 0")
        return self.q_h / self.q_l

    @property
    def controversial_odds(self) -> float:
        """Odds between the controversial versions, q_1 / q_2."""
        if self.q_2 <= 0.0:
            raise ModelError("controversial odds undefined when q_2 = 0")
        return self.q_1 / self.q_2


@dataclass(frozen=True)
class RecommendationSystem:
    """A decision environment plus a recommendation threshold.

    ``receiver_types`` defaults to the sender distribution; supplying a
    different one puts the system in distinct-populations mode.
    """

    quality: QualityDistribution
    sender_types: TypeDistribution
    threshold: float
    receiver_types: TypeDistribution | None = None

    def __post_init__(self):
        if not MIN_THRESHOLD <= self.threshold <= MAX_THRESHOLD:
            raise ModelError(
                f"threshold {self.threshold} outside ({MIN_THRESHOLD}, {MAX_THRESHOLD})"
            )
        if self.receiver_types is None:
            object.__setattr__(self, "receiver_types", self.sender_types)

    def with_threshold(self, threshold: float) -> "RecommendationSystem":
        return replace(self, threshold=threshold)


@dataclass(frozen=True)
class Posterior:
    """Belief over product versions after observing a recommendation."""

    recommendation: Recommendation
    probs: tuple[float, float, float, float]

    def __post_init__(self):
        p = self.probs
        if not (all(c >= -_PROB_TOL for c in p) and abs(sum(p) - 1.0) <= _PROB_TOL):
            raise ModelError(f"posterior {p} is not a probability vector")
        if self.recommendation is Recommendation.BUY and p[3] != 0.0:
            raise ModelError("buy posterior must rule out the bad version")
        if self.recommendation is Recommendation.DONT_BUY and p[0] != 0.0:
            raise ModelError("dont-buy posterior must rule out the good version")
        if self.recommendation is Recommendation.NEUTRAL and (
            p[0] != 0.0 or p[3] != 0.0
        ):
            raise ModelError("neutral posterior must rule out both extremes")

    @property
    def p_h(self) -> float:
        return self.probs[0]

    @property
    def p_1(self) -> float:
        return self.probs[1]

    @property
    def p_2(self) -> float:
        return self.probs[2]

    @property
    def p_l(self) -> float:
        return self.probs[3]


@dataclass(frozen=True)
class BeliefDecomposition:
    """Three-step split of the belief shift after a buy recommendation.

    Step 1 removes the bad version (``after_bad_removed``), step 2
    raises the good version while preserving controversial odds through
    the scale factor ``k`` (``after_good_raised``), and step 3 lands on
    the posterior.  The three step differences telescope exactly to
    posterior minus prior.
    """

    prior: tuple[float, float, float, float]
    after_bad_removed: tuple[float, float, float, float]
    after_good_raised: tuple[float, float, float, float]
    posterior: tuple[float, float, float, float]
    k: float


def check_posteriors(probs: np.ndarray, rec: Recommendation) -> None:
    """Raise unless every column of ``probs`` (shape (4,) or (4, n)) is a
    probability vector that rules out the versions ``rec`` excludes."""
    ok = (probs >= -_PROB_TOL).all(axis=0) & (abs(probs.sum(axis=0) - 1.0) <= _PROB_TOL)
    if not ok.all():
        bad = tuple(np.reshape(probs, (4, -1))[:, np.argmin(ok)].tolist())
        raise ModelError(f"posterior {bad} is not a probability vector")
    if rec is Recommendation.BUY and probs[3].any():
        raise ModelError("buy posterior must rule out the bad version")
    if rec is Recommendation.DONT_BUY and probs[0].any():
        raise ModelError("dont-buy posterior must rule out the good version")
    if rec is Recommendation.NEUTRAL and (probs[0].any() or probs[3].any()):
        raise ModelError("neutral posterior must rule out both extremes")


def payoff(version: tuple[int, int], i: float) -> float:
    """Realized payoff of a type-``i`` consumer from ``version``."""
    if version not in VERSIONS:
        raise ModelError(f"unknown product version {version}")
    if not -0.5 - _TYPE_TOL <= i <= 0.5 + _TYPE_TOL:
        raise ModelError(f"type {i} outside [-1/2, 1/2]")
    return (0.5 + i) * version[0] + (0.5 - i) * version[1]


def sender_recommendation(
    version: tuple[int, int], i: float, threshold: float
) -> Recommendation:
    """Mechanical sender rule: buy iff the payoff reaches the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ModelError(f"threshold {threshold} outside (0, 1)")
    if payoff(version, i) >= threshold:
        return Recommendation.BUY
    return Recommendation.DONT_BUY


def version_buy_probabilities(dist: TypeDistribution, threshold):
    """Probability of a buy recommendation for each controversial version.

    A random sender recommends (1, 0) when her type is at least
    threshold - 1/2, and (0, 1) when it is at most 1/2 - threshold.
    ``threshold`` may be an array of thresholds.
    """
    t = np.asarray(threshold)
    if not ((t > 0.0) & (t < 1.0)).all():
        raise ModelError(f"threshold {threshold} outside (0, 1)")
    phi_1 = 1.0 - dist.cdf(threshold - 0.5)
    phi_2 = dist.cdf(0.5 - threshold)
    return phi_1, phi_2


def recommendation_probabilities(system: RecommendationSystem) -> tuple[float, float]:
    """Unconditional probabilities of (buy, dont-buy) recommendations."""
    phi_1, phi_2 = version_buy_probabilities(system.sender_types, system.threshold)
    _, weights = _posterior_weights(system.quality, phi_1, phi_2, Recommendation.BUY)
    pi_buy = sum(weights)
    return pi_buy, 1.0 - pi_buy


def _posterior_weights(masses, phi_1, phi_2, rec: Recommendation):
    """Name and unnormalized posterior weights of ``rec``; their sum is its
    probability and the posterior's divisor (1 - pi_buy cancels near 1).
    The four prior ``masses``, ``phi_1`` and ``phi_2`` may be floats or arrays."""
    q_h, q_1, q_2, q_l = masses
    if rec is Recommendation.BUY:
        return "buy", (q_h, q_1 * phi_1, q_2 * phi_2, 0.0)
    if rec is Recommendation.DONT_BUY:
        return "dont-buy", (0.0, q_1 * (1.0 - phi_1), q_2 * (1.0 - phi_2), q_l)
    raise ModelError(f"single-threshold systems emit buy/dont-buy, not {rec}")


def posterior_probs(masses, phi_1, phi_2, rec: Recommendation) -> np.ndarray:
    """Checked posteriors as a (4, n) array, one column per point."""
    name, weights = _posterior_weights(masses, phi_1, phi_2, rec)
    total = sum(weights)
    if (total <= 0.0).any():
        raise UnreachableRecommendationError(
            f"{name} recommendation has zero probability"
        )
    probs = np.array([w / total for w in weights])
    check_posteriors(probs, rec)
    return probs


def _normalized(rec: Recommendation, weights, total: float, event: str) -> Posterior:
    """The posterior ``weights / total`` after ``rec``; raises when ``event``,
    of probability ``total``, cannot occur."""
    if total <= 0.0:
        raise UnreachableRecommendationError(f"{event} has zero probability")
    return Posterior(recommendation=rec, probs=tuple(w / total for w in weights))


def posterior(system: RecommendationSystem, rec: Recommendation) -> Posterior:
    """Bayesian posterior over versions given a recommendation."""
    phi_1, phi_2 = version_buy_probabilities(system.sender_types, system.threshold)
    name, weights = _posterior_weights(system.quality, phi_1, phi_2, rec)
    return _normalized(rec, weights, sum(weights), f"{name} recommendation")


def belief_decomposition(system: RecommendationSystem) -> BeliefDecomposition:
    """Split the buy-recommendation belief shift into its three steps."""
    q = system.quality
    if q.q_1 + q.q_2 <= 0.0:
        raise DecompositionUndefinedError(
            "no controversial mass: odds-preserving scale factor is 0/0"
        )
    if q.q_l >= 1.0:
        raise DecompositionUndefinedError("prior is all bad products")
    post = posterior(system, Recommendation.BUY)
    keep = 1.0 - q.q_l
    step1 = (q.q_h / keep, q.q_1 / keep, q.q_2 / keep, 0.0)
    k = (1.0 - post.p_h) * keep / (q.q_1 + q.q_2)
    step2 = (post.p_h, k * q.q_1 / keep, k * q.q_2 / keep, 0.0)
    return BeliefDecomposition(
        prior=q.as_tuple(),
        after_bad_removed=step1,
        after_good_raised=step2,
        posterior=post.probs,
        k=k,
    )


