"""Monte Carlo harness: determinism, sampling, estimator concordance."""

import numpy as np
import pytest

import recoval as rv
from recoval.errors import ModelError

from conftest import S1, S4_PAIR, S4_QUALITY, S5_QUALITY

REC = rv.Recommendation
UNIFORM = rv.UniformTypes()

FAST = rv.SimulationConfig(samples=50_000, seed=7)


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

    def test_seed_changes_results(self):
        other = rv.SimulationConfig(samples=50_000, seed=8)
        assert rv.estimate_pi_buy(S1, FAST).estimate != (
            rv.estimate_pi_buy(S1, other).estimate
        )


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

    def test_unknown_mode(self):
        with pytest.raises(ModelError):
            rv.SimulationConfig(samples=2_000, seed=0, mode="bogus")

    def test_multi_mode_needs_counts(self):
        with pytest.raises(ModelError):
            rv.SimulationConfig(samples=2_000, seed=0, mode="multi")
        with pytest.raises(ModelError):
            rv.estimate_multi(S1, rv.SimulationConfig(samples=2_000, seed=0))

    def test_record_fields(self):
        record = rv.estimate_pi_buy(S1, FAST).to_record()
        assert set(record) == {"estimate", "stderr", "n", "seed"}
