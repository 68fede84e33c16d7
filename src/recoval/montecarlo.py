"""Independent Monte Carlo verification of the analytic formulas.

Samples products, sender types and receiver types, simulates the
mechanical sender rule and the receiver's optimal response, and reports
empirical estimates with standard errors.  The sample index space is
partitioned into fixed 65536-sample blocks; block ``j`` draws from the
seed's counter-based Philox stream started at counter (0, 0, j, 0), which
is the stream jumped ``j`` times, and block results fold into running
totals in block order.  Estimates are thus bit-identical for a given
(seed, sample count) whatever the number of worker threads, and memory
does not grow with the sample count.  Worker parallelism is capped by the
``RECO_THREADS`` environment variable (0 or unset = auto; anything but a
non-negative integer is a ``ModelError``).

``_run_blocks`` owns the uniforms: each worker keeps one
``4 x BLOCK_SIZE`` buffer for the whole estimate, and a block asks for
its next ``rows x count`` uniforms with ``draw(rows)``, which fills the
front of that buffer from the block's generator in stream order.  A
block that allocated its own uniforms and a few block-sized temporaries
freed them all at its end; glibc then gave the pages back to the kernel
and the next block faulted them in again, which cost a quarter of the
CPU time of an estimate.  The block kernels below work in place where a
temporary is not needed, in the operation order they always had.

``estimate_single`` takes the buy probability, both posterior tables and
the value from one pass; CLI ``simulate`` on one threshold makes that
one call.  Its blocks draw four rows of uniforms: row 0 versions, row 1
senders, row 2 receivers, row 3 alternatives.  A Philox generator hands
out doubles in stream order, so rows 0 and 1 are the numbers a
one-report ``multi`` block draws one row at a time, and the fused
estimates equal ``estimate_pi_buy``, ``estimate_posterior``
and ``estimate_value`` bit for bit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .core import (
    QualityDistribution,
    Recommendation,
    RecommendationSystem,
)
from .distributions import TypeDistribution
from .errors import ModelError, UnsupportedConfigurationError, require_integers
from .extensions import MultiRecCount, ThresholdPair
from .receiver import effects

BLOCK_SIZE = 1 << 16

# Most reports a ``multi`` estimate simulates per sample.
MAX_REPORTS = 1000

# Most samples one estimate draws: 2^20 blocks.  Memory does not grow with
# the count, but time does: this bounds how long one estimate runs.
MAX_SAMPLES = 1 << 36

# Most uniforms one estimate draws, samples x draws per sample: a single,
# pair or infinite estimate at MAX_SAMPLES, or a ``multi`` one at 1 + 3
# reports.  Time grows with the draws, so this bounds every mode.
MAX_DRAWS = 4 * MAX_SAMPLES

# Uniforms per sample of the modes with a fixed count; ``multi`` draws the
# version and then one per report.  No block takes more rows at once.
_DRAWS_PER_SAMPLE = {"single": 4, "two_threshold": 4, "infinite": 3}
_ROWS = 4

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
        require_integers("samples and seed", self.samples, self.seed)
        if self.samples < 1000:
            raise ModelError("need at least 1000 samples")
        if self.samples > MAX_SAMPLES:
            raise ModelError(f"simulation takes at most {MAX_SAMPLES} samples")
        if self.mode not in {"single", "two_threshold", "multi", "infinite"}:
            raise ModelError(f"unknown simulation mode {self.mode!r}")
        if self.mode == "multi":
            counts = MultiRecCount(self.buys or 0, self.dont_buys or 0)
            if counts.buys + counts.dont_buys > MAX_REPORTS:
                raise ModelError(f"simulation takes at most {MAX_REPORTS} reports")
            object.__setattr__(self, "buys", counts.buys)
            object.__setattr__(self, "dont_buys", counts.dont_buys)
            per_sample = 1 + counts.buys + counts.dont_buys
        else:
            per_sample = _DRAWS_PER_SAMPLE[self.mode]
        if self.samples * per_sample > MAX_DRAWS:
            raise ModelError(
                f"simulation takes at most {MAX_DRAWS} draws, got {self.samples}"
                f" samples x {per_sample} draws per sample"
            )


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


@dataclass(frozen=True)
class SingleEstimate:
    """Buy probability, posterior tables after a buy and after a dont-buy
    report, and system value of one single-threshold system."""

    pi_buy: EstimateWithError
    buy_posterior: tuple[EstimateWithError, ...]
    dont_posterior: tuple[EstimateWithError, ...]
    value: EstimateWithError


def _worker_count(raw: str | None, blocks: int) -> int:
    """Workers for ``blocks`` blocks under ``RECO_THREADS=raw``: at most one
    per block; unset, empty or 0 means one per core, at most 8."""
    try:
        n = int(raw or 0)
    except ValueError:
        n = -1
    if n < 0:
        raise ModelError(f"RECO_THREADS must be a non-negative integer, got {raw!r}")
    if n == 0:
        n = min(os.cpu_count() or 1, 8)
    return max(1, min(n, blocks))


def _run_blocks(seed: int, total: int, block_fn):
    """Sum the tuples ``block_fn(draw, count)`` returns, element by element in
    block order; several workers take rounds of four blocks per worker.

    ``draw(rows)`` fills the front of the running worker's buffer with the
    block's next ``rows x count`` uniforms and returns them as a
    ``(rows, count)`` view, valid until the block's next ``draw``."""
    blocks = range(-(-total // BLOCK_SIZE))
    key = seed & 0xFFFFFFFFFFFFFFFF  # Philox keys are unsigned
    worker = threading.local()  # each thread's buffer, made at its first draw

    def run(block_index):
        counter = [0, 0, block_index, 0]  # as jumped(block_index), one bit generator
        rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        count = min(BLOCK_SIZE, total - block_index * BLOCK_SIZE)

        def draw(rows):
            buffer = getattr(worker, "buffer", None)
            if buffer is None:
                buffer = worker.buffer = np.empty(_ROWS * BLOCK_SIZE)
            return rng.random(out=buffer[: rows * count].reshape(rows, count))

        return block_fn(draw, count)

    def merge(acc, part):
        return tuple(a + b for a, b in zip(acc, part))

    workers = _worker_count(os.environ.get("RECO_THREADS"), len(blocks))
    if workers == 1:
        return reduce(merge, map(run, blocks))
    step = 4 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rounds = (pool.map(run, blocks[i : i + step]) for i in blocks[::step])
        return reduce(merge, (part for results in rounds for part in results))


@dataclass(frozen=True)
class _Moments:
    """Sum, mean, squared deviations from the mean (M2) and count of samples.
    ``a + b`` merges two by the pairwise update of Chan, Golub and LeVeque
    (1983), which does not cancel like sum(x^2) - sum(x)^2/n."""

    total: float
    mean: float
    m2: float
    n: int

    def __add__(self, other: _Moments) -> _Moments:
        merged = self.n + other.n
        delta = other.mean - self.mean
        m2 = self.m2 + (other.m2 + delta * delta * (self.n * other.n / merged))
        mean = self.mean + delta * (other.n / merged)
        return _Moments(self.total + other.total, mean, m2, merged)

    def estimate(self, seed: int) -> EstimateWithError:
        stderr = float(np.sqrt(self.m2 / (self.n - 1) / self.n))
        return EstimateWithError(self.total / self.n, stderr, self.n, seed)


def _proportion(count: float, total: int, seed: int) -> EstimateWithError:
    if total <= 1:
        return EstimateWithError(float("nan"), float("nan"), int(total), seed)
    p = count / total
    var = (count - count * count / total) / (total - 1)
    return EstimateWithError(p, float(np.sqrt(var / total)), int(total), seed)


def _table(tallies, kept: float, seed: int) -> tuple[EstimateWithError, ...]:
    return tuple(_proportion(float(t), int(kept), seed) for t in tallies)


def _sample_versions(quality: QualityDistribution, u: np.ndarray) -> np.ndarray:
    """Version index of each uniform draw: the number of the first three
    cumulative quality masses at or below it.  The cuts never decrease, so
    this is ``min(searchsorted(cuts, u, "right"), 3)`` without the search."""
    cuts = np.cumsum(quality.as_tuple())
    versions = (u >= cuts[0]).astype(np.intp)
    versions += u >= cuts[1]
    versions += u >= cuts[2]
    return versions


def _payoffs(versions: np.ndarray, types: np.ndarray) -> np.ndarray:
    """(0.5 + types) * W1[versions] + (0.5 - types) * W2[versions]."""
    pay = types + 0.5
    pay *= _W1[versions]
    low = 0.5 - types
    low *= _W2[versions]
    pay += low
    return pay


def _gain(buy, versions, alternatives, receivers) -> np.ndarray:
    """Payoff gain of buying where ``buy`` over the baseline that buys the
    independent alternative product: where(buy, payoff, baseline) - baseline."""
    baseline = _payoffs(alternatives, receivers)
    gain = _payoffs(versions, receivers)
    np.copyto(gain, baseline, where=~buy)
    gain -= baseline
    return gain


def _moments(gain: np.ndarray, count: int) -> _Moments:
    """Moments of a block's ``count`` samples."""
    s = float(gain.sum())
    dev = gain - s / count
    dev *= dev
    return _Moments(s, s / count, float(dev.sum()), count)


def _buys_controversial(quality: QualityDistribution, types: np.ndarray) -> np.ndarray:
    """Whether each type buys a product known to be controversial: the
    prior-odds payoff of the controversial pair beats the prior payoff."""
    q = quality
    both = q.q_1 + q.q_2
    lean = (q.q_1 - q.q_2) / both if both > 0.0 else 0.0
    # 0.5 + types * lean >= q_h + (0.5 + types) * q_1 + (0.5 - types) * q_2
    mixed = types * lean
    mixed += 0.5
    prior = types + 0.5
    prior *= q.q_1
    prior += q.q_h
    low = 0.5 - types
    low *= q.q_2
    prior += low
    return mixed >= prior


def estimate_pi_buy(
    system: RecommendationSystem, config: SimulationConfig
) -> EstimateWithError:
    """Empirical probability that a random sender recommends buying: the
    probability of one buy report in ``multi`` mode."""
    one_buy = replace(config, mode="multi", buys=1, dont_buys=0)
    return estimate_multi(system, one_buy).value


def estimate_single(
    system: RecommendationSystem, config: SimulationConfig
) -> SingleEstimate:
    """Every single-report estimate of ``system`` from one pass.

    Each pair draws a recommended product, a sender, a receiver and an
    independent alternative product (rows 0-3 of the block's uniforms).
    The buy reports give the buy probability and, with the version
    tallies, both posterior tables.  The receiver follows his optimal
    accept/reject rule; the paired baseline buys the alternative, so the
    per-pair payoff difference is an unbiased draw of the value.
    """
    quality, threshold = system.quality, system.threshold
    sender_dist, receiver_dist = system.sender_types, system.receiver_types
    eff = effects(system, Recommendation.BUY)

    def block(draw, count):
        u = draw(4)
        versions = _sample_versions(quality, u[0])
        rec_buy = _payoffs(versions, sender_dist.quantile(u[1])) >= threshold
        receivers = receiver_dist.quantile(u[2])
        alternatives = _sample_versions(quality, u[3])
        accept = eff.objective >= receivers * eff.subjective
        gain = _gain(accept == rec_buy, versions, alternatives, receivers)
        # column 1 tallies the versions of buy reports, column 0 of dont-buys
        tallies = np.bincount(2 * versions + rec_buy, minlength=8).reshape(4, 2)
        return _moments(rec_buy, count), tallies.astype(float), _moments(gain, count)

    buys, tallies, value = _run_blocks(config.seed, config.samples, block)
    seed = config.seed
    return SingleEstimate(
        pi_buy=buys.estimate(seed),
        buy_posterior=_table(tallies[:, 1], buys.total, seed),
        dont_posterior=_table(tallies[:, 0], config.samples - buys.total, seed),
        value=value.estimate(seed),
    )


def estimate_value(
    system: RecommendationSystem, config: SimulationConfig
) -> EstimateWithError:
    """Empirical system value from simulated sender-receiver pairs (see
    ``estimate_single``)."""
    return estimate_single(system, config).value


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

    def block(draw, count):
        u = draw(4)
        versions = _sample_versions(quality, u[0])
        sender_pay = _payoffs(versions, dist.quantile(u[1]))
        rec_buy = sender_pay >= pair.high
        rec_dont = sender_pay < pair.low
        del sender_pay  # each block-sized array lives no longer than it is needed
        receivers = dist.quantile(u[2])
        buy_neutral = _buys_controversial(quality, receivers)
        buy_product = rec_buy | (~rec_buy & ~rec_dont & buy_neutral)
        alternatives = _sample_versions(quality, u[3])
        return (_moments(_gain(buy_product, versions, alternatives, receivers), count),)

    (value,) = _run_blocks(config.seed, config.samples, block)
    return value.estimate(config.seed)


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

    def block(draw, count):
        versions = _sample_versions(quality, draw(1)[0])
        buy_counts = np.zeros(count, dtype=np.int64)
        for _ in range(n_reports):  # a report at a time, each into the one row
            senders = dist.quantile(draw(1)[0])
            buy_counts += _payoffs(versions, senders) >= threshold
        kept = buy_counts == config.buys
        tallies = np.bincount(versions[kept], minlength=4).astype(float)
        return _moments(kept, count), tallies

    event, tallies = _run_blocks(config.seed, config.samples, block)
    table = _table(tallies, event.total, config.seed)
    return MultiEstimate(event.estimate(config.seed), table)


def _estimate_infinite(system, config) -> MultiEstimate:
    quality = system.quality
    dist = system.receiver_types

    def block(draw, count):
        u = draw(3)
        versions = _sample_versions(quality, u[0])
        receivers = dist.quantile(u[1])
        alternatives = _sample_versions(quality, u[2])
        good = versions == 0
        controversial = (versions == 1) | (versions == 2)
        buy_mixed = _buys_controversial(quality, receivers)
        buy_product = good | (controversial & buy_mixed)
        gain = _gain(buy_product, versions, alternatives, receivers)
        tallies = np.bincount(versions[controversial], minlength=4).astype(float)
        return _moments(gain, count), tallies

    value, tallies = _run_blocks(config.seed, config.samples, block)
    table = _table(tallies, tallies.sum(), config.seed)
    return MultiEstimate(value.estimate(config.seed), table)


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
