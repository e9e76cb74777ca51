"""Exception types shared across the toolkit, and the config field checks
that both config dataclasses run."""

import dataclasses
import math


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (e.g. zero-norm vector fed to cosine)."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown config key."""


class DataFormatError(ValueError):
    """Corrupt or unreadable on-disk artifact (bad magic, truncation, checksum)."""


class NumericalError(ArithmeticError):
    """Non-finite value encountered where a finite one is required."""


def check_seed_and_floats(config) -> None:
    """Reject a seed that is not a non-negative int, and any non-finite float.

    A bool is not accepted as a seed. Float fields are found by the type of
    their value, so NaN and infinity cannot slip through comparisons.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "seed":
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"seed must be a non-negative integer, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
