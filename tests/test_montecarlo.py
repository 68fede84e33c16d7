"""Monte Carlo harness: determinism, sampling, estimator concordance."""

import json
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoval as rv
from recoval import cli, montecarlo
from recoval.errors import ModelError, UnreachableRecommendationError

from conftest import S1, S4_PAIR, S4_QUALITY, S5_QUALITY, any_types, probability_vectors

REC = rv.Recommendation
UNIFORM = rv.UniformTypes()

FAST = rv.SimulationConfig(samples=50_000, seed=7)


def philox_state(bit_generator) -> str:
    return json.dumps(bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


def within(est: rv.EstimateWithError, truth: float, sigmas: float = 3.0) -> bool:
    return abs(est.estimate - truth) <= sigmas * est.stderr + 1e-15


class TestInverseSampling:
    def test_examples(self):
        assert UNIFORM.quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert rv.PowerTypes(2.0).quantile(0.25) == pytest.approx(0.0, abs=1e-12)
        assert UNIFORM.quantile(0.0) == -0.5

    def test_sampled_moments(self):
        rng = np.random.default_rng(0)
        u = rng.random(200_000)
        draws = rv.PowerTypes(2.0).quantile(u)
        assert np.mean(draws) == pytest.approx(1 / 6, abs=0.002)


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        a = rv.estimate_value(S1, FAST)
        b = rv.estimate_value(S1, FAST)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("RECO_THREADS", "1")
        serial = rv.estimate_value(S1, FAST)
        monkeypatch.setenv("RECO_THREADS", "6")
        threaded = rv.estimate_value(S1, FAST)
        assert serial.estimate == threaded.estimate
        assert serial.stderr == threaded.stderr

    @pytest.mark.parametrize("key", [0, 7, 123456789, 2**64 - 1])
    def test_each_block_draws_the_seed_stream_jumped_to_its_index(self, key, monkeypatch):
        monkeypatch.setenv("RECO_THREADS", "1")
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1)
        seen = []
        montecarlo._run_blocks(key, 17, lambda rng, count: seen.append(rng) or (count,))
        assert [philox_state(rng.bit_generator) for rng in seen] == [
            philox_state(np.random.Philox(key=key).jumped(j)) for j in range(17)
        ]
        # the counter that _run_blocks gives block j equals j jumps for every
        # block index below MAX_SAMPLES // BLOCK_SIZE = 2^20, and just beyond
        for j in (0, 1, 2, 7, 15, 16, 1000, 2**20 - 1, 2**20):
            counted = np.random.Philox(key=key, counter=[0, 0, j, 0])
            jumped = np.random.Philox(key=key).jumped(j)
            assert philox_state(counted) == philox_state(jumped)
            draws = [np.random.Generator(bg).random(4000) for bg in (counted, jumped)]
            assert np.array_equal(*draws)

    def test_seed_changes_results(self):
        other = rv.SimulationConfig(samples=50_000, seed=8)
        assert rv.estimate_pi_buy(S1, FAST).estimate != (
            rv.estimate_pi_buy(S1, other).estimate
        )


class TestWorkers:
    @pytest.mark.parametrize("raw", [None, "", "0"])
    def test_unset_or_zero_means_one_per_core(self, raw):
        assert montecarlo._worker_count(raw, 64) == min(os.cpu_count() or 1, 8)
        assert montecarlo._worker_count(raw, 1) == 1

    def test_never_more_workers_than_blocks(self):
        assert montecarlo._worker_count("3", 100) == 3
        assert montecarlo._worker_count("1000000", 16) == 16
        assert montecarlo._worker_count(str(10**50), 2) == 2

    @pytest.mark.parametrize("raw", ["two", "1.5", "-1", " ", "4x"])
    def test_bad_values_raise(self, raw):
        with pytest.raises(ModelError, match="RECO_THREADS"):
            montecarlo._worker_count(raw, 4)

    def test_pool_is_asked_for_at_most_one_worker_per_block(self, monkeypatch):
        requested = []

        class InlinePool:
            """Records the pool size and runs the blocks on this thread."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setenv("RECO_THREADS", "100000")
        total = 2 * montecarlo.BLOCK_SIZE + 5
        counts = []

        def block(rng, count):
            counts.append(count)
            return (count,)

        assert montecarlo._run_blocks(3, total, block) == (total,)
        assert counts == [montecarlo.BLOCK_SIZE, montecarlo.BLOCK_SIZE, 5]
        assert requested == [3]

    def test_blocks_go_to_the_pool_a_few_per_worker_at_a_time(self, monkeypatch):
        rounds = []

        class InlinePool:
            """Records the blocks of each ``map`` call and runs them on this thread."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                rounds.append(list(items))
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setenv("RECO_THREADS", "2")
        total = 19 * montecarlo.BLOCK_SIZE + 1
        assert montecarlo._run_blocks(3, total, lambda rng, count: (count,)) == (total,)
        assert rounds == [list(range(0, 8)), list(range(8, 16)), list(range(16, 20))]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failing_block_ends_the_run_before_later_blocks_start(
        self, monkeypatch, threads
    ):
        monkeypatch.setenv("RECO_THREADS", threads)
        calls, lock = [], threading.Lock()

        def block(rng, count):
            with lock:
                calls.append(count)
                first = len(calls) == 1
            if first:
                # the other worker has time to run every block it is given
                time.sleep(0.05)
                raise ArithmeticError("block failed")
            return (count,)

        with pytest.raises(ArithmeticError, match="block failed"):
            montecarlo._run_blocks(3, 64 * montecarlo.BLOCK_SIZE, block)
        assert len(calls) <= 4 * int(threads)

    def test_blocks_fold_in_block_order_under_thread_switching(self, monkeypatch):
        # strings add by concatenation, so the fold shows the order it took
        def block(rng, count):
            return (f"{rng.integers(1 << 30)}:{count},",)

        total = 49 * montecarlo.BLOCK_SIZE + 3
        monkeypatch.setenv("RECO_THREADS", "1")
        (inline,) = montecarlo._run_blocks(11, total, block)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            monkeypatch.setenv("RECO_THREADS", "5")  # more workers than cores
            (threaded,) = montecarlo._run_blocks(11, total, block)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == inline
        assert inline.count(",") == 50 and inline.endswith(":3,")


def stub_block(rng, count):
    """A block result of the shape the estimators fold: moments and a tally."""
    return montecarlo._moments(np.ones(4), 4), np.ones(4)


class TestMemory:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_peak_does_not_grow_with_the_block_count(self, monkeypatch, threads):
        monkeypatch.setenv("RECO_THREADS", threads)
        blocks = 1 << 12
        tracemalloc.start()
        try:
            montecarlo._run_blocks(1, 64 * montecarlo.BLOCK_SIZE, stub_block)  # warm-up
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            moments, tally = montecarlo._run_blocks(
                1, blocks * montecarlo.BLOCK_SIZE, stub_block
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert moments.n == 4 * blocks and tally.tolist() == [blocks] * 4
        # holding every block's result, and the list of blocks, took 1.6 MiB
        # at one worker and 7.8 MiB at two; the fold takes about 0.1 MiB
        assert peak - before < 0.5 * 2**20


class TestVariance:
    def test_large_common_offset_does_not_cancel(self, monkeypatch):
        # sum(x^2) - sum(x)^2 / n loses every digit of the variance here
        monkeypatch.setenv("RECO_THREADS", "1")  # blocks are taken in order
        rng = np.random.default_rng(5)
        gains = 1e9 + rng.standard_normal(2 * montecarlo.BLOCK_SIZE + 1000)
        blocks = np.split(gains, [montecarlo.BLOCK_SIZE, 2 * montecarlo.BLOCK_SIZE])
        pending = iter(blocks)
        (moments,) = montecarlo._run_blocks(
            0, gains.size, lambda rng, count: (montecarlo._moments(next(pending), count),)
        )
        est = moments.estimate(seed=0)
        assert est.samples == gains.size
        assert est.estimate == sum(float(block.sum()) for block in blocks) / gains.size
        want = np.sqrt(np.var(gains, ddof=1) / gains.size)
        assert est.stderr == pytest.approx(want, rel=1e-6)


def reference_run_blocks(seed, total, block_fn):
    """Every block's result, in block order: the collect step of the
    collect-then-reduce that ``_run_blocks`` replaced by a running fold."""
    blocks = range(0, total, montecarlo.BLOCK_SIZE)
    plans = [(j, min(montecarlo.BLOCK_SIZE, total - start)) for j, start in enumerate(blocks)]
    key = seed & 0xFFFFFFFFFFFFFFFF
    return [
        block_fn(np.random.Generator(np.random.Philox(key=key).jumped(j)), count)
        for j, count in plans
    ]


def reference_moments(gain, count):
    """(sum, sum of squared deviations from the mean, count) of a block."""
    s = float(gain.sum())
    dev = gain - s / count
    return s, float((dev * dev).sum()), count


def reference_mean_estimate(parts, seed):
    """Mean and standard error from per-block ``(sum, M2, count)`` parts,
    merged in block order by the update of Chan, Golub and LeVeque."""
    n, mean, m2 = 0, 0.0, 0.0
    for s, block_m2, count in parts:
        delta = s / count - mean
        merged = n + count
        m2 += block_m2 + delta * delta * (n * count / merged)
        mean += delta * (count / merged)
        n = merged
    estimate = sum(p[0] for p in parts) / n
    return rv.EstimateWithError(estimate, float(np.sqrt(m2 / (n - 1) / n)), n, seed)


def reference_pi_buy(system, config):
    """The block function ``estimate_pi_buy`` ran before it became a
    one-report ``multi`` estimate."""
    quality, dist, threshold = system.quality, system.sender_types, system.threshold

    def block(rng, count):
        u = rng.random((2, count))
        versions = montecarlo._sample_versions(quality, u[0])
        senders = dist.quantile(u[1])
        return reference_moments(montecarlo._payoffs(versions, senders) >= threshold, count)

    parts = reference_run_blocks(config.seed, config.samples, block)
    return reference_mean_estimate(parts, config.seed)


def reference_value(system, config):
    """The block function ``estimate_value`` ran before the single-report
    estimates shared one pass."""
    quality, threshold = system.quality, system.threshold
    sender_dist, receiver_dist = system.sender_types, system.receiver_types
    eff = rv.effects(system, REC.BUY)

    def block(rng, count):
        u = rng.random((4, count))
        versions = montecarlo._sample_versions(quality, u[0])
        senders = sender_dist.quantile(u[1])
        receivers = receiver_dist.quantile(u[2])
        alternatives = montecarlo._sample_versions(quality, u[3])
        rec_buy = montecarlo._payoffs(versions, senders) >= threshold
        accept = eff.objective >= receivers * eff.subjective
        gain = montecarlo._gain(accept == rec_buy, versions, alternatives, receivers)
        return reference_moments(gain, count)

    parts = reference_run_blocks(config.seed, config.samples, block)
    return reference_mean_estimate(parts, config.seed)


def bits(estimates):
    """Estimates as text: equal exactly when every float has the same bits,
    with nan (the table of a report nobody sent) equal to nan."""
    return repr(estimates)


qualities = probability_vectors.map(lambda p: rv.QualityDistribution(*p))


def reference_versions(quality, u):
    """The draw ``_sample_versions`` made with a binary search."""
    cuts = np.cumsum(quality.as_tuple())
    return np.minimum(np.searchsorted(cuts, u, side="right"), 3)


class TestSampleVersions:
    @given(qualities, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_counting_cuts_equals_the_binary_search(self, quality, us):
        cuts = np.cumsum(quality.as_tuple())
        # draws exactly on each cut and on its neighbours
        u = np.array([*us, *cuts, *np.nextafter(cuts, 0.0), *np.nextafter(cuts, 1.0)])
        u = u[u < 1.0]
        got = montecarlo._sample_versions(quality, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, reference_versions(quality, u))

    def test_cuts_summing_below_one(self):
        quality = rv.QualityDistribution(0.7, 0.1, 0.1, 0.1)
        cuts = np.cumsum(quality.as_tuple())
        assert cuts[3] == np.nextafter(1.0, 0.0)
        u = np.array([cuts[3], cuts[2], np.nextafter(cuts[2], 0.0)])
        got = montecarlo._sample_versions(quality, u)
        assert got.tolist() == [3, 3, 2]
        assert np.array_equal(got, reference_versions(quality, u))


class TestSingleReport:
    @pytest.mark.parametrize(
        "dist",
        [
            UNIFORM,
            rv.PowerTypes(2.5),
            rv.PiecewiseSymmetricTypes(beta_target=0.2, r_ref=0.7),
            rv.TabulatedTypes(points=((-0.5, 0.0), (-0.1, 0.25), (0.2, 0.7), (0.5, 1.0))),
        ],
    )
    def test_pi_buy_equals_the_old_block_function_bit_for_bit(self, dist):
        system = rv.RecommendationSystem(
            rv.QualityDistribution(0.3, 0.25, 0.1, 0.35), dist, 0.55
        )
        config = rv.SimulationConfig(samples=70_001, seed=5)
        assert rv.estimate_pi_buy(system, config) == reference_pi_buy(system, config)

    @given(
        quality=qualities,
        senders=any_types,
        receivers=st.none() | any_types,
        threshold=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**64 - 1),
        samples=st.integers(1000, 2 * montecarlo.BLOCK_SIZE + 1000)
        | st.sampled_from([montecarlo.BLOCK_SIZE + 1, 70_001, 2 * montecarlo.BLOCK_SIZE - 1]),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_pass_equals_the_separate_estimates(
        self, quality, senders, receivers, threshold, seed, samples
    ):
        system = rv.RecommendationSystem(quality, senders, threshold, receivers)
        config = rv.SimulationConfig(samples=samples, seed=seed)
        try:
            single = rv.estimate_single(system, config)
        except UnreachableRecommendationError:
            # no buy report can happen: the value needs the buy posterior
            with pytest.raises(UnreachableRecommendationError):
                reference_value(system, config)
            return
        assert single.pi_buy == rv.estimate_pi_buy(system, config)
        assert bits(single.buy_posterior) == bits(rv.estimate_posterior(system, REC.BUY, config))
        assert bits(single.dont_posterior) == bits(
            rv.estimate_posterior(system, REC.DONT_BUY, config)
        )
        assert single.value == reference_value(system, config)

    def test_cli_simulate_makes_one_pass(self, monkeypatch, tmp_path):
        passes = []
        run_blocks = montecarlo._run_blocks

        def counted(seed, total, block_fn):
            passes.append(total)
            return run_blocks(seed, total, block_fn)

        monkeypatch.setattr(montecarlo, "_run_blocks", counted)
        monkeypatch.setenv("RECO_THREADS", "1")
        scenario = tmp_path / "s1.json"
        scenario.write_text(json.dumps({
            "quality": {"qH": 0.4, "q1": 0.2, "q2": 0.2, "qL": 0.2},
            "sender_types": {"kind": "uniform"},
            "threshold": 0.5,
        }))
        argv = ["simulate", "--scenario", str(scenario), "--samples", "2000",
                "--out", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0
        assert passes == [2000]


def reference_estimate(mode, parts, config):
    """The block-ordered reduction each estimator made of its collected
    block results before the results were folded as they arrived."""
    seed = config.seed

    def mean(k):
        return reference_mean_estimate([(p[k].total, p[k].m2, p[k].n) for p in parts], seed)

    if mode == "two_threshold":
        return mean(0)
    tallies = sum(p[1] for p in parts)
    if mode == "single":
        buys = sum(p[0].total for p in parts)
        return rv.SingleEstimate(
            pi_buy=mean(0),
            buy_posterior=montecarlo._table(tallies[:, 1], buys, seed),
            dont_posterior=montecarlo._table(tallies[:, 0], config.samples - buys, seed),
            value=mean(2),
        )
    if mode == "multi":
        kept = sum(p[0].total for p in parts)
    else:  # a block's controversial count is the sum of its tallies
        kept = sum(float(p[1].sum()) for p in parts)
    return rv.MultiEstimate(mean(0), montecarlo._table(tallies, kept, seed))


SKEWED = rv.RecommendationSystem(
    rv.QualityDistribution(0.3, 0.25, 0.1, 0.35), rv.PowerTypes(2.5), 0.55,
    rv.TabulatedTypes(points=((-0.5, 0.0), (-0.1, 0.25), (0.2, 0.7), (0.5, 1.0))),
)

ESTIMATORS = {
    "single": lambda config: rv.estimate_single(SKEWED, config),
    "two_threshold": lambda config: rv.estimate_two_threshold(
        S4_QUALITY, UNIFORM, S4_PAIR, config
    ),
    "multi": lambda config: rv.estimate_multi(
        SKEWED, replace(config, mode="multi", buys=2, dont_buys=1)
    ),
    "infinite": lambda config: rv.estimate_multi(SKEWED, replace(config, mode="infinite")),
}


class TestFold:
    @pytest.mark.parametrize("mode", sorted(ESTIMATORS))
    @pytest.mark.parametrize("threads", ["1", "2", None])
    @pytest.mark.parametrize("samples", [1000, montecarlo.BLOCK_SIZE + 17])
    def test_estimates_equal_the_collect_then_reduce_bit_for_bit(
        self, monkeypatch, mode, threads, samples
    ):
        if threads is None:
            monkeypatch.delenv("RECO_THREADS", raising=False)
        else:
            monkeypatch.setenv("RECO_THREADS", threads)
        blocks = []
        run_blocks = montecarlo._run_blocks

        def recorded(seed, total, block_fn):
            blocks.append(block_fn)
            return run_blocks(seed, total, block_fn)

        monkeypatch.setattr(montecarlo, "_run_blocks", recorded)
        config = rv.SimulationConfig(samples=samples, seed=2**64 - 3)
        got = ESTIMATORS[mode](config)
        (block_fn,) = blocks
        parts = reference_run_blocks(config.seed, samples, block_fn)
        assert len(parts) == -(-samples // montecarlo.BLOCK_SIZE)
        assert bits(got) == bits(reference_estimate(mode, parts, config))


class TestEstimators:
    def test_pi_buy_baseline(self):
        est = rv.estimate_pi_buy(S1, FAST)
        assert within(est, 0.6)
        assert est.samples == FAST.samples
        assert est.seed == FAST.seed

    def test_value_baseline(self):
        assert within(rv.estimate_value(S1, FAST), 0.14)

    def test_value_split_region(self):
        system = rv.RecommendationSystem(
            rv.QualityDistribution(0.02, 0.45, 0.45, 0.08), rv.PowerTypes(6.0), 0.5
        )
        est = rv.estimate_value(system, FAST)
        assert within(est, rv.system_value(system).value)

    def test_value_lower_region(self):
        # concave mirror of the split-region scenario: low types accept
        system = rv.RecommendationSystem(
            rv.QualityDistribution(0.02, 0.45, 0.45, 0.08),
            rv.PowerTypes(1.0 / 6.0),
            0.5,
        )
        report = rv.system_value(system)
        assert report.region.kind == "lower"
        assert within(rv.estimate_value(system, FAST), report.value)

    def test_posterior_components(self):
        table = rv.estimate_posterior(S1, REC.BUY, FAST)
        for est, truth in zip(table, (2 / 3, 1 / 6, 1 / 6, 0.0)):
            assert within(est, truth)

    def test_multi_counts_posterior(self):
        config = rv.SimulationConfig(samples=50_000, seed=11, mode="multi", buys=2, dont_buys=1)
        result = rv.estimate_multi(S1, config)
        analytic = rv.multi_posterior(
            S1.quality, S1.sender_types, S1.threshold, rv.MultiRecCount(2, 1)
        )
        for est, truth in zip(result.posterior, analytic.probs):
            assert within(est, truth)

    def test_multi_event_probability(self):
        config = rv.SimulationConfig(samples=50_000, seed=13, mode="multi", buys=1, dont_buys=1)
        result = rv.estimate_multi(S1, config)
        # P(one buy then one dont-buy, in order-free counts) = 2 sum_s q_s p_s (1 - p_s)
        q = S1.quality.as_tuple()
        per_version = (1.0, 0.5, 0.5, 0.0)
        truth = 2.0 * sum(qs * p * (1 - p) for qs, p in zip(q, per_version))
        assert within(result.value, truth)

    def test_two_threshold_value(self):
        config = rv.SimulationConfig(samples=50_000, seed=17, mode="two_threshold")
        est = rv.estimate_two_threshold(S4_QUALITY, UNIFORM, S4_PAIR, config)
        truth = rv.two_threshold_value(S4_QUALITY, UNIFORM, S4_PAIR)
        assert within(est, truth)

    def test_infinite_learning_value(self):
        config = rv.SimulationConfig(samples=50_000, seed=19, mode="infinite")
        system = rv.RecommendationSystem(S5_QUALITY, UNIFORM, 0.5)
        result = rv.estimate_multi(system, config)
        assert within(result.value, 0.125)
        # mixed-signal posterior follows the prior split of the two versions
        assert within(result.posterior[1], 0.5)

    def test_uneven_blocks(self):
        config = rv.SimulationConfig(samples=70_001, seed=23)
        est = rv.estimate_pi_buy(S1, config)
        assert est.samples == 70_001

    def test_all_bad_products_never_buy(self):
        quality = rv.QualityDistribution(0.0, 0.0, 0.0, 1.0)
        system = rv.RecommendationSystem(quality, UNIFORM, 0.5)
        est = rv.estimate_pi_buy(system, FAST)
        assert est.estimate == 0.0
        assert est.stderr == 0.0

    def test_even_odds_value_indistinguishable_across_thresholds(self):
        # with even good/bad odds the analytic value is threshold-free;
        # the estimates at two thresholds agree within sampling noise
        base = rv.symmetric_system(0.25, 1.0, UNIFORM, 0.3)
        low = rv.estimate_value(base, FAST)
        high = rv.estimate_value(base.with_threshold(0.7), FAST)
        assert abs(low.estimate - high.estimate) <= 3.0 * (low.stderr + high.stderr)

    def test_long_buy_run_reveals_good(self):
        config = rv.SimulationConfig(
            samples=50_000, seed=29, mode="multi", buys=30, dont_buys=0
        )
        result = rv.estimate_multi(S1, config)
        assert result.posterior[0].estimate == pytest.approx(1.0, abs=1e-3)


class TestConfigValidation:
    def test_minimum_samples(self):
        with pytest.raises(ModelError):
            rv.SimulationConfig(samples=10, seed=0)

    def test_samples_are_capped(self):
        cap = montecarlo.MAX_SAMPLES
        assert rv.SimulationConfig(samples=cap, seed=0).samples == cap
        with pytest.raises(ModelError, match=f"at most {cap} samples"):
            rv.SimulationConfig(samples=cap + 1, seed=0)

    @pytest.mark.parametrize(
        "samples, seed, bad", [(2000.0, 0, "2000.0"), (2000, 1.5, "1.5"), (2000, True, "True")]
    )
    def test_samples_and_seed_are_integers(self, samples, seed, bad):
        with pytest.raises(ModelError, match=f"samples and seed must be integers, got {bad}"):
            rv.SimulationConfig(samples=samples, seed=seed)

    def test_unknown_mode(self):
        with pytest.raises(ModelError):
            rv.SimulationConfig(samples=2_000, seed=0, mode="bogus")

    def test_simulated_reports_are_capped(self):
        cap = montecarlo.MAX_REPORTS
        rv.SimulationConfig(samples=2_000, seed=0, mode="multi", buys=cap - 1, dont_buys=1)
        with pytest.raises(ModelError, match=f"at most {cap} reports"):
            rv.SimulationConfig(samples=2_000, seed=0, mode="multi", buys=cap, dont_buys=1)

    def test_multi_mode_needs_counts(self):
        with pytest.raises(ModelError):
            rv.SimulationConfig(samples=2_000, seed=0, mode="multi")
        with pytest.raises(ModelError):
            rv.estimate_multi(S1, rv.SimulationConfig(samples=2_000, seed=0))

    def test_record_fields(self):
        record = rv.estimate_pi_buy(S1, FAST).to_record()
        assert set(record) == {"estimate", "stderr", "n", "seed"}
