"""Shared plumbing: exceptions, validation, RNG handling, ASCII rendering."""

from repro.common.errors import (
    ConfigurationError,
    ControlError,
    NotTrainedError,
    ReproError,
    SimulationError,
)
from repro.common.rng import spawn_rng
from repro.common.validation import (
    require_between,
    require_in,
    require_non_negative,
    require_positive,
    require_probability_vector,
)

__all__ = [
    "ConfigurationError",
    "ControlError",
    "NotTrainedError",
    "ReproError",
    "SimulationError",
    "require_between",
    "require_in",
    "require_non_negative",
    "require_positive",
    "require_probability_vector",
    "spawn_rng",
]
