"""Independent Monte Carlo verification of the analytic formulas.

Samples products, sender types and receiver types, simulates the
mechanical sender rule and the receiver's optimal response, and reports
empirical estimates with standard errors.  The sample index space is
partitioned into fixed 65536-sample blocks; block ``j`` draws from a
counter-based Philox stream jumped ``j`` times from the seed, and the
per-block results are reduced in block order.  Estimates are therefore
bit-identical for a given (seed, sample count) regardless of how many
worker threads run the blocks.  Worker parallelism is capped by the
``RECO_THREADS`` environment variable (0 or unset = auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    QualityDistribution,
    Recommendation,
    RecommendationSystem,
)
from .distributions import TypeDistribution
from .errors import ModelError, UnsupportedConfigurationError, require_finite
from .extensions import MultiRecCount, ThresholdPair
from .receiver import effects

BLOCK_SIZE = 1 << 16

_W1 = np.array([1.0, 1.0, 0.0, 0.0])
_W2 = np.array([1.0, 0.0, 1.0, 0.0])


@dataclass(frozen=True)
class SimulationConfig:
    """Sample count, seed and simulation mode.

    ``mode`` is one of ``single``, ``two_threshold``, ``multi`` (with
    ``buys``/``dont_buys`` counts) or ``infinite``.
    """

    samples: int = 1_000_000
    seed: int = 0
    mode: str = "single"
    buys: int | None = None
    dont_buys: int | None = None

    def __post_init__(self):
        require_finite("samples and seed", self.samples, self.seed)
        if self.samples < 1000:
            raise ModelError("need at least 1000 samples")
        if self.mode not in {"single", "two_threshold", "multi", "infinite"}:
            raise ModelError(f"unknown simulation mode {self.mode!r}")
        if self.mode == "multi":
            counts = MultiRecCount(self.buys or 0, self.dont_buys or 0)
            object.__setattr__(self, "buys", counts.buys)
            object.__setattr__(self, "dont_buys", counts.dont_buys)


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with a normal-approximation standard error."""

    estimate: float
    stderr: float
    samples: int
    seed: int

    def to_record(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "n": self.samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MultiEstimate:
    """Value estimate plus an empirical posterior table."""

    value: EstimateWithError
    posterior: tuple[EstimateWithError, ...]


def _worker_count() -> int:
    raw = os.environ.get("RECO_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = min(os.cpu_count() or 1, 8)
    return n


def _run_blocks(seed: int, total: int, block_fn):
    """Run ``block_fn(rng, count)`` over all blocks, in block order."""
    blocks = range(0, total, BLOCK_SIZE)
    plans = [(j, min(BLOCK_SIZE, total - start)) for j, start in enumerate(blocks)]
    key = seed & 0xFFFFFFFFFFFFFFFF  # Philox keys are unsigned

    def run(plan):
        block_index, count = plan
        rng = np.random.Generator(np.random.Philox(key=key).jumped(block_index))
        return block_fn(rng, count)

    workers = _worker_count()
    if workers <= 1 or len(plans) <= 1:
        return [run(p) for p in plans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, plans))


def _mean_estimate(parts, seed: int) -> EstimateWithError:
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    mean = s1 / n
    var = max(s2 - s1 * s1 / n, 0.0) / (n - 1)
    return EstimateWithError(
        estimate=mean, stderr=float(np.sqrt(var / n)), samples=n, seed=seed
    )


def _proportion(count: float, total: int, seed: int) -> EstimateWithError:
    if total <= 1:
        return EstimateWithError(float("nan"), float("nan"), int(total), seed)
    p = count / total
    var = (count - count * count / total) / (total - 1)
    return EstimateWithError(
        estimate=p, stderr=float(np.sqrt(var / total)), samples=int(total), seed=seed
    )


def _table(tallies, kept: float, seed: int) -> tuple[EstimateWithError, ...]:
    return tuple(_proportion(float(t), int(kept), seed) for t in tallies)


def _sample_versions(quality: QualityDistribution, u: np.ndarray) -> np.ndarray:
    cuts = np.cumsum(quality.as_tuple())
    return np.minimum(np.searchsorted(cuts, u, side="right"), 3)


def _payoffs(versions: np.ndarray, types: np.ndarray) -> np.ndarray:
    return (0.5 + types) * _W1[versions] + (0.5 - types) * _W2[versions]


def _gain(buy, versions, alternatives, receivers) -> np.ndarray:
    """Payoff gain of buying where ``buy`` over the baseline that buys the
    independent alternative product."""
    baseline = _payoffs(alternatives, receivers)
    return np.where(buy, _payoffs(versions, receivers), baseline) - baseline


def _moments(gain: np.ndarray, count: int):
    return float(gain.sum()), float((gain * gain).sum()), count


def _buys_controversial(quality: QualityDistribution, types: np.ndarray) -> np.ndarray:
    """Whether each type buys a product known to be controversial: the
    prior-odds payoff of the controversial pair beats the prior payoff."""
    q = quality
    both = q.q_1 + q.q_2
    lean = (q.q_1 - q.q_2) / both if both > 0.0 else 0.0
    return 0.5 + types * lean >= q.q_h + (0.5 + types) * q.q_1 + (0.5 - types) * q.q_2


def estimate_pi_buy(
    system: RecommendationSystem, config: SimulationConfig
) -> EstimateWithError:
    """Empirical probability that a random sender recommends buying."""
    quality, dist, threshold = system.quality, system.sender_types, system.threshold

    def block(rng, count):
        u = rng.random((2, count))
        versions = _sample_versions(quality, u[0])
        senders = dist.quantile(u[1])
        buys = _payoffs(versions, senders) >= threshold
        s = float(buys.sum())
        return s, s, count

    return _mean_estimate(_run_blocks(config.seed, config.samples, block), config.seed)


def estimate_value(
    system: RecommendationSystem, config: SimulationConfig
) -> EstimateWithError:
    """Empirical system value from simulated sender-receiver pairs.

    Each pair draws a recommended product, a sender, a receiver and an
    independent alternative product.  The receiver follows his optimal
    accept/reject rule; the paired baseline buys the alternative, so the
    per-pair payoff difference is an unbiased draw of the value.
    """
    quality, threshold = system.quality, system.threshold
    sender_dist, receiver_dist = system.sender_types, system.receiver_types
    eff = effects(system, Recommendation.BUY)

    def block(rng, count):
        u = rng.random((4, count))
        versions = _sample_versions(quality, u[0])
        senders = sender_dist.quantile(u[1])
        receivers = receiver_dist.quantile(u[2])
        alternatives = _sample_versions(quality, u[3])
        rec_buy = _payoffs(versions, senders) >= threshold
        accept = eff.objective >= receivers * eff.subjective
        gain = _gain(accept == rec_buy, versions, alternatives, receivers)
        return _moments(gain, count)

    return _mean_estimate(_run_blocks(config.seed, config.samples, block), config.seed)


def estimate_two_threshold(
    quality: QualityDistribution,
    dist: TypeDistribution,
    pair: ThresholdPair,
    config: SimulationConfig,
) -> EstimateWithError:
    """Empirical value of a three-level system (symmetric population)."""
    if not dist.symmetric:
        raise UnsupportedConfigurationError(
            "two-threshold simulation requires a symmetric population"
        )

    def block(rng, count):
        u = rng.random((4, count))
        versions = _sample_versions(quality, u[0])
        senders = dist.quantile(u[1])
        receivers = dist.quantile(u[2])
        alternatives = _sample_versions(quality, u[3])
        sender_pay = _payoffs(versions, senders)
        rec_buy = sender_pay >= pair.high
        rec_dont = sender_pay < pair.low
        buy_neutral = _buys_controversial(quality, receivers)
        buy_product = rec_buy | (~rec_buy & ~rec_dont & buy_neutral)
        return _moments(_gain(buy_product, versions, alternatives, receivers), count)

    return _mean_estimate(_run_blocks(config.seed, config.samples, block), config.seed)


def estimate_multi(
    system: RecommendationSystem, config: SimulationConfig
) -> MultiEstimate:
    """Empirical posterior table for repeated or unbounded recommendations.

    In ``multi`` mode the value slot holds the probability of observing
    exactly the configured report counts, and the posterior table the
    conditional version frequencies given those counts.  In ``infinite``
    mode the value slot holds the infinite-learning value and the table
    the version frequencies conditional on a controversial product.
    """
    if config.mode == "multi":
        return _estimate_multi_counts(system, config)
    if config.mode == "infinite":
        return _estimate_infinite(system, config)
    raise ModelError("estimate_multi needs mode 'multi' or 'infinite'")


def _estimate_multi_counts(system, config) -> MultiEstimate:
    quality, dist, threshold = system.quality, system.sender_types, system.threshold
    n_reports = config.buys + config.dont_buys

    def block(rng, count):
        u_version = rng.random(count)
        u_senders = rng.random((n_reports, count))
        versions = _sample_versions(quality, u_version)
        buy_counts = np.zeros(count, dtype=np.int64)
        for j in range(n_reports):
            senders = dist.quantile(u_senders[j])
            buy_counts += _payoffs(versions, senders) >= threshold
        kept = buy_counts == config.buys
        tallies = np.bincount(versions[kept], minlength=4).astype(float)
        return float(kept.sum()), tallies, count

    parts = _run_blocks(config.seed, config.samples, block)
    kept_total = sum(p[0] for p in parts)
    event = _proportion(kept_total, sum(p[2] for p in parts), config.seed)
    tallies = sum(p[1] for p in parts)
    return MultiEstimate(event, _table(tallies, kept_total, config.seed))


def _estimate_infinite(system, config) -> MultiEstimate:
    quality = system.quality
    dist = system.receiver_types

    def block(rng, count):
        u = rng.random((3, count))
        versions = _sample_versions(quality, u[0])
        receivers = dist.quantile(u[1])
        alternatives = _sample_versions(quality, u[2])
        good = versions == 0
        controversial = (versions == 1) | (versions == 2)
        buy_mixed = _buys_controversial(quality, receivers)
        buy_product = good | (controversial & buy_mixed)
        gain = _gain(buy_product, versions, alternatives, receivers)
        tallies = np.bincount(versions[controversial], minlength=4).astype(float)
        return (*_moments(gain, count), tallies, float(controversial.sum()))

    parts = _run_blocks(config.seed, config.samples, block)
    value = _mean_estimate([(p[0], p[1], p[2]) for p in parts], config.seed)
    tallies, contro_total = sum(p[3] for p in parts), sum(p[4] for p in parts)
    return MultiEstimate(value, _table(tallies, contro_total, config.seed))


def estimate_posterior(
    system: RecommendationSystem, rec: Recommendation, config: SimulationConfig
) -> tuple[EstimateWithError, ...]:
    """Empirical posterior over versions after one recommendation."""
    if rec is Recommendation.BUY:
        counts = (1, 0)
    elif rec is Recommendation.DONT_BUY:
        counts = (0, 1)
    else:
        raise ModelError("single recommendations are buy or dont-buy")
    cfg = replace(config, mode="multi", buys=counts[0], dont_buys=counts[1])
    return estimate_multi(system, cfg).posterior
