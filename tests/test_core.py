"""Primitives: payoffs, sender rule, recommendation probabilities, posteriors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoval as rv
from recoval.errors import (
    DecompositionUndefinedError,
    ModelError,
    UnreachableRecommendationError,
)

from conftest import S1, random_quality, random_system

REC = rv.Recommendation


class TestPayoff:
    def test_good_pays_one_for_everyone(self):
        for i in (-0.5, -0.1, 0.0, 0.4, 0.5):
            assert rv.payoff(rv.GOOD, i) == 1.0

    def test_bad_pays_zero_for_everyone(self):
        for i in (-0.5, 0.0, 0.5):
            assert rv.payoff(rv.BAD, i) == 0.0

    def test_controversial_depends_on_type(self):
        assert rv.payoff(rv.CONTROVERSIAL_1, 0.3) == pytest.approx(0.8, abs=1e-15)
        assert rv.payoff(rv.CONTROVERSIAL_2, 0.3) == pytest.approx(0.2, abs=1e-15)

    def test_out_of_range_type_rejected(self):
        with pytest.raises(ModelError):
            rv.payoff(rv.GOOD, 0.6)
        with pytest.raises(ModelError):
            rv.payoff((2, 0), 0.0)


class TestSenderRule:
    def test_good_always_buy(self):
        for r in (0.1, 0.5, 0.99):
            assert rv.sender_recommendation(rv.GOOD, -0.5, r) is REC.BUY

    def test_threshold_tie_gives_buy(self):
        # payoff exactly at the threshold counts as good enough
        assert rv.sender_recommendation(rv.CONTROVERSIAL_1, 0.25, 0.75) is REC.BUY
        assert (
            rv.sender_recommendation(rv.CONTROVERSIAL_1, 0.24, 0.75) is REC.DONT_BUY
        )

    def test_bad_never_buy(self):
        assert rv.sender_recommendation(rv.BAD, 0.5, 0.1) is REC.DONT_BUY


class TestBuyProbabilitiesByVersion:
    def test_uniform_three_quarters(self):
        phi_1, phi_2 = rv.version_buy_probabilities(rv.UniformTypes(), 0.75)
        assert phi_1 == pytest.approx(0.25, abs=1e-15)
        assert phi_2 == pytest.approx(0.25, abs=1e-15)

    def test_extreme_thresholds_vanish(self):
        phi_1, phi_2 = rv.version_buy_probabilities(rv.UniformTypes(), 1 - 1e-9)
        assert phi_1 == pytest.approx(0.0, abs=1e-8)
        assert phi_2 == pytest.approx(0.0, abs=1e-8)

    def test_power_family_split(self):
        phi_1, phi_2 = rv.version_buy_probabilities(rv.PowerTypes(2.0), 0.5)
        assert phi_1 == pytest.approx(0.75, abs=1e-15)
        assert phi_2 == pytest.approx(0.25, abs=1e-15)

    def test_symmetric_families_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dist = rv.PiecewiseSymmetricTypes(
                beta_target=float(rng.uniform(0, 0.5)),
                r_ref=float(rng.uniform(0.55, 0.95)),
            )
            r = float(rng.uniform(0.02, 0.98))
            phi_1, phi_2 = rv.version_buy_probabilities(dist, r)
            assert phi_1 == pytest.approx(phi_2, abs=1e-12)


class TestRecommendationProbabilities:
    def test_baseline_scenario(self):
        pi_buy, pi_dont = rv.recommendation_probabilities(S1)
        assert pi_buy == pytest.approx(0.6, abs=1e-15)
        assert pi_dont == pytest.approx(0.4, abs=1e-15)

    def test_limits(self):
        q = rv.QualityDistribution(0.4, 0.2, 0.2, 0.2)
        low = rv.RecommendationSystem(q, rv.UniformTypes(), 1e-6)
        high = rv.RecommendationSystem(q, rv.UniformTypes(), 1 - 1e-6)
        assert rv.recommendation_probabilities(low)[0] == pytest.approx(
            1.0 - q.q_l, abs=1e-5
        )
        assert rv.recommendation_probabilities(high)[0] == pytest.approx(
            q.q_h, abs=1e-5
        )

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            system = random_system(rng)
            grid = np.linspace(0.02, 0.98, 41)
            pis = [
                rv.recommendation_probabilities(system.with_threshold(float(r)))[0]
                for r in grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(pis, pis[1:]))


class TestPosterior:
    def test_baseline_buy_posterior(self):
        post = rv.posterior(S1, REC.BUY)
        np.testing.assert_allclose(
            post.probs, (2 / 3, 1 / 6, 1 / 6, 0.0), atol=1e-14
        )

    def test_extreme_threshold_reveals_good(self):
        system = S1.with_threshold(1 - 1e-6)
        post = rv.posterior(system, REC.BUY)
        assert post.p_h == pytest.approx(1.0, abs=1e-5)

    def test_symmetric_split(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q_contro = float(rng.uniform(0.05, 0.3))
            q_h = float(rng.uniform(0.05, 1 - 2 * q_contro - 0.05))
            quality = rv.QualityDistribution(
                q_h, q_contro, q_contro, 1 - q_h - 2 * q_contro
            )
            system = rv.RecommendationSystem(
                quality, rv.UniformTypes(), float(rng.uniform(0.05, 0.95))
            )
            post = rv.posterior(system, REC.BUY)
            assert post.p_1 == pytest.approx(post.p_2, abs=1e-12)

    def test_unreachable_buy(self):
        quality = rv.QualityDistribution(0.0, 0.0, 0.0, 1.0)
        system = rv.RecommendationSystem(quality, rv.UniformTypes(), 0.5)
        with pytest.raises(UnreachableRecommendationError):
            rv.posterior(system, REC.BUY)

    def test_buy_rules_out_bad(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            system = random_system(rng)
            assert rv.posterior(system, REC.BUY).p_l == 0.0
            assert rv.posterior(system, REC.DONT_BUY).p_h == 0.0


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_total_probability_identity(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    pi_buy, pi_dont = rv.recommendation_probabilities(system)
    buy = rv.posterior(system, REC.BUY).probs
    dont = rv.posterior(system, REC.DONT_BUY).probs
    for q_s, b, d in zip(system.quality.as_tuple(), buy, dont):
        assert abs(q_s - pi_buy * b - pi_dont * d) < 1e-12


class TestBeliefDecomposition:
    def test_equal_prior_steps(self):
        q = rv.QualityDistribution(0.25, 0.25, 0.25, 0.25)
        system = rv.RecommendationSystem(q, rv.UniformTypes(), 0.5)
        decomp = rv.belief_decomposition(system)
        np.testing.assert_allclose(
            decomp.after_bad_removed, (1 / 3, 1 / 3, 1 / 3, 0.0), atol=1e-14
        )
        assert decomp.after_good_raised[0] == pytest.approx(0.5, abs=1e-14)
        assert decomp.k == pytest.approx(0.75, abs=1e-14)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            system = random_system(rng)
            decomp = rv.belief_decomposition(system)
            for idx in range(4):
                steps = (
                    (decomp.after_bad_removed[idx] - decomp.prior[idx])
                    + (decomp.after_good_raised[idx] - decomp.after_bad_removed[idx])
                    + (decomp.posterior[idx] - decomp.after_good_raised[idx])
                )
                assert abs(steps - (decomp.posterior[idx] - decomp.prior[idx])) < 1e-13

    def test_intermediate_vectors_are_distributions(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            system = random_system(rng)
            decomp = rv.belief_decomposition(system)
            for vec in (decomp.after_bad_removed, decomp.after_good_raised):
                assert all(c >= -1e-15 for c in vec)
                assert sum(vec) == pytest.approx(1.0, abs=1e-12)

    def test_undefined_without_controversial_mass(self):
        quality = rv.QualityDistribution(0.5, 0.0, 0.0, 0.5)
        system = rv.RecommendationSystem(quality, rv.UniformTypes(), 0.5)
        with pytest.raises(DecompositionUndefinedError):
            rv.belief_decomposition(system)


class TestValidation:
    def test_quality_must_sum_to_one(self):
        with pytest.raises(ModelError):
            rv.QualityDistribution(0.5, 0.3, 0.3, 0.0)
        with pytest.raises(ModelError):
            rv.QualityDistribution(-0.1, 0.5, 0.3, 0.3)

    def test_threshold_bounds(self):
        q = random_quality(np.random.default_rng(0))
        with pytest.raises(ModelError):
            rv.RecommendationSystem(q, rv.UniformTypes(), 0.0)
        with pytest.raises(ModelError):
            rv.RecommendationSystem(q, rv.UniformTypes(), 1.0)

    def test_posterior_validation(self):
        with pytest.raises(ModelError):
            rv.Posterior(recommendation=REC.BUY, probs=(0.5, 0.2, 0.2, 0.1))

    def test_posterior_rejects_non_finite_components(self):
        with pytest.raises(ModelError):
            rv.Posterior(recommendation=REC.BUY, probs=(float("nan"), 0.5, 0.5, 0.0))

    def test_batched_posterior_check_covers_every_column(self):
        from recoval.core import check_posteriors

        probs = np.array([[0.5, 0.5, 0.5], [0.3, 0.3, 0.4], [0.2, 0.2, 0.2], [0.0] * 3])
        check_posteriors(probs[:, :2], REC.BUY)
        with pytest.raises(ModelError, match="0.4"):
            check_posteriors(probs, REC.BUY)
        probs[[0, 3], 1] = 0.499, 0.001
        with pytest.raises(ModelError, match="rule out the bad version"):
            check_posteriors(probs[:, :2], REC.BUY)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: rv.QualityDistribution(x, 0.2, 0.2, 0.2),
            lambda x: rv.PowerTypes(x),
            lambda x: rv.TabulatedTypes(((-0.5, 0.0), (0.1, x), (0.5, 1.0))),
            lambda x: rv.MultiRecCount(buys=x, dont_buys=1),
            lambda x: rv.SimulationConfig(samples=x),
        ],
    )
    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_inputs_are_rejected(self, build, x):
        with pytest.raises(ModelError, match="finite"):
            build(x)

    def test_receiver_defaults_to_sender(self):
        system = rv.RecommendationSystem(
            random_quality(np.random.default_rng(1)), rv.PowerTypes(2.0), 0.4
        )
        assert system.receiver_types is system.sender_types

    def test_derived_parameters(self):
        q = rv.QualityDistribution(0.4, 0.2, 0.2, 0.2)
        assert q.prevalence == pytest.approx(0.2, abs=1e-15)
        assert q.good_odds == pytest.approx(2.0, abs=1e-15)
        assert q.controversial_odds == pytest.approx(1.0, abs=1e-15)
        degenerate = rv.QualityDistribution(0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ModelError):
            degenerate.good_odds
        with pytest.raises(ModelError):
            degenerate.controversial_odds
