"""Receiver behavior: utilities, recommendation effects, and acceptance.

A recommendation moves the receiver's belief in two ways.  The
objective effect is the type-independent gain in expected payoff; the
subjective effect is the shift in relative probability between the two
controversial versions, which helps some types and hurts others.  A
receiver accepts a recommendation exactly when the objective effect
outweighs his type-weighted subjective effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Posterior, Recommendation, RecommendationSystem, posterior
from .errors import ModelError

# Below this magnitude the subjective effect is treated as exactly zero,
# preventing a spurious indifferent type far outside the type interval.
SUBJECTIVE_ZERO = 1e-12

# Boundary tolerance in the all-accept comparison; ties accept.
REGION_EPS = 1e-12

# Acceptance-region kinds, indexed by the codes that region_arrays returns.
REGION_KINDS = ("all", "upper", "lower")
ALL, UPPER, LOWER = range(3)


@dataclass(frozen=True)
class EffectPair:
    """Objective and subjective effect of one recommendation."""

    objective: float
    subjective: float
    recommendation: Recommendation


@dataclass(frozen=True)
class AcceptanceRegion:
    """Set of receiver types that accept the recommendation.

    ``kind`` is one of ``all``, ``upper`` (types at or above ``cutoff``
    accept) or ``lower`` (types at or below ``cutoff`` accept).
    """

    kind: str
    cutoff: float | None = None

    @classmethod
    def from_arrays(cls, kind: np.ndarray, cutoff: np.ndarray, k: int):
        """Element ``k`` of the arrays returned by :func:`region_arrays`."""
        return cls(REGION_KINDS[kind[k]], None if kind[k] == ALL else float(cutoff[k]))

    def contains(self, i: float) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "upper":
            return i >= self.cutoff
        return i <= self.cutoff


def expected_utility(i: float, belief: Posterior | Sequence[float]) -> float:
    """Expected payoff of type ``i`` buying under the given belief."""
    probs = belief.probs if isinstance(belief, Posterior) else tuple(belief)
    if len(probs) != 4:
        raise ModelError("belief must have four components")
    p_h, p_1, p_2, _ = probs
    return p_h + (0.5 + i) * p_1 + (0.5 - i) * p_2


def effect_arrays(masses, probs):
    """Objective and subjective effects of posterior ``probs`` against the
    prior ``masses``: one of each, or (4, n) arrays with a column per point."""
    q_h, q_1, q_2, _ = masses
    d_h, d_1, d_2 = probs[0] - q_h, probs[1] - q_1, probs[2] - q_2
    return d_h + 0.5 * d_1 + 0.5 * d_2, d_2 - d_1


def effects(system: RecommendationSystem, rec: Recommendation) -> EffectPair:
    """Objective and subjective effect of recommendation ``rec``."""
    objective, subjective = effect_arrays(system.quality, posterior(system, rec).probs)
    return EffectPair(objective=objective, subjective=subjective, recommendation=rec)


def accepts(system: RecommendationSystem, i: float) -> bool:
    """Whether type ``i`` accepts recommendations from this system.

    Acceptance of buy and dont-buy recommendations is a single decision:
    the type buys after a buy recommendation iff he declines after a
    dont-buy one.  Indifferent types accept.
    """
    if not -0.5 <= i <= 0.5:
        raise ModelError(f"type {i} outside [-1/2, 1/2]")
    eff = effects(system, Recommendation.BUY)
    return eff.objective >= i * eff.subjective


def indifferent_type(system: RecommendationSystem) -> float | None:
    """Type exactly indifferent between accepting and not, if defined.

    Returns None when the subjective effect vanishes (everyone accepts,
    no indifferent type exists).
    """
    eff = effects(system, Recommendation.BUY)
    if abs(eff.subjective) < SUBJECTIVE_ZERO:
        return None
    return eff.objective / eff.subjective


def region_arrays(objective, subjective) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance-region kind code and cutoff (NaN for ALL) per buy-effect pair.

    Out-of-range cutoffs collapse to "all".  A negative subjective effect
    means buy recommendations favor version (1, 0): high types accept.
    """
    nan = np.full(objective.shape, np.nan)
    # all-accept test first: o / 1e-323 can overflow
    divide = ~(np.abs(subjective) <= 2.0 * objective + REGION_EPS) & (subjective != 0.0)
    cutoff = np.divide(objective, subjective, out=nan, where=divide)
    favors_1 = subjective < 0.0
    everyone = ~divide | np.where(favors_1, cutoff <= -0.5, cutoff >= 0.5)
    kind = np.where(everyone, ALL, np.where(favors_1, UPPER, LOWER))
    return kind, np.where(everyone, np.nan, cutoff)


def acceptance_region(system: RecommendationSystem) -> AcceptanceRegion:
    """Classify which types accept, collapsing out-of-range cutoffs."""
    eff = effects(system, Recommendation.BUY)
    pair = np.array([[eff.objective], [eff.subjective]])
    return AcceptanceRegion.from_arrays(*region_arrays(*pair), 0)
