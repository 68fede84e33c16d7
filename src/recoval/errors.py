"""Exception types shared across the package."""

import math


class ModelError(ValueError):
    """Base class for domain and configuration errors."""


class UnreachableRecommendationError(ModelError):
    """Conditioning on a recommendation event that has zero probability."""


class EmptyIntervalError(ModelError):
    """Conditional expectation requested on an interval with zero mass."""


class DecompositionUndefinedError(ModelError):
    """Belief decomposition requested where its scaling factor is 0/0."""


class UnsupportedConfigurationError(ModelError):
    """Operation requires a structural property the inputs do not have."""


class IndeterminateConfigurationError(ModelError):
    """Inputs fall outside the regime where a classification is valid."""


class ClosedFormInapplicableError(ModelError):
    """Closed-form shortcut requested outside its validity region."""


def require_finite(what: str, *values) -> None:
    """Raise ModelError unless every value is an integer or a finite float."""
    for v in values:
        if not (isinstance(v, int) or math.isfinite(v)):
            raise ModelError(f"{what} must be finite, got {v}")
