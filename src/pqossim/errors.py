"""Exception types shared across the package."""

import math


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class CheckpointError(ValueError):
    """An agent checkpoint file is missing fields or inconsistent."""


def check_finite(config) -> None:
    """Raise ConfigError naming the first float field of `config` that is NaN or infinite."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
