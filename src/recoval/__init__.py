"""Recommendations under preference heterogeneity.

Bayesian posteriors after coarse threshold recommendations, receiver
acceptance behavior, the value of a recommendation system, optimal
threshold design, comparative statics, and the distinct-population,
three-level and repeated-recommendation extensions, all cross-validated
by a deterministic Monte Carlo harness.
"""

from .core import (
    BAD,
    CONTROVERSIAL_1,
    CONTROVERSIAL_2,
    GOOD,
    VERSIONS,
    BeliefDecomposition,
    Posterior,
    QualityDistribution,
    Recommendation,
    RecommendationSystem,
    belief_decomposition,
    payoff,
    posterior,
    recommendation_probabilities,
    sender_recommendation,
    version_buy_probabilities,
)
from .design import (
    ClosedFormCoefficients,
    DesignVerdict,
    PrevalenceVerdict,
    closed_form_coefficients,
    closed_form_value,
    interior_conditions,
    monotonicity_class_symmetric,
    optimize_threshold,
    polarization_effect,
    prevalence_statics,
    region_map,
    symmetric_slope,
)
from .distributions import (
    PiecewiseSymmetricTypes,
    PowerTypes,
    TabulatedTypes,
    TypeDistribution,
    UniformTypes,
    distribution_from_spec,
)
from .errors import (
    ClosedFormInapplicableError,
    DecompositionUndefinedError,
    EmptyIntervalError,
    IndeterminateConfigurationError,
    ModelError,
    UnreachableRecommendationError,
    UnsupportedConfigurationError,
)
from .extensions import (
    InfiniteLearningPolicy,
    MultiRecCount,
    ThresholdPair,
    distinct_monotonicity,
    distinct_value,
    infinite_learning_policy,
    infinite_learning_value,
    infinite_no_gain,
    multi_posterior,
    neutral_indifferent_type,
    single_threshold_optimum,
    three_level_posterior,
    two_threshold_partials,
    two_threshold_value,
)
from .montecarlo import (
    EstimateWithError,
    MultiEstimate,
    SimulationConfig,
    estimate_multi,
    estimate_pi_buy,
    estimate_posterior,
    estimate_two_threshold,
    estimate_value,
)
from .receiver import (
    AcceptanceRegion,
    EffectPair,
    acceptance_region,
    accepts,
    effects,
    expected_utility,
    indifferent_type,
)
from .value import (
    SymmetricParams,
    ValueReport,
    integral_system_value,
    quality_from_params,
    reparameterize,
    symmetric_buy_probability,
    symmetric_system,
    symmetric_value,
    system_value,
    system_values,
    value_accepting,
    value_no_rec,
    value_rejecting,
)

__version__ = "0.1.0"
