"""Exception types shared across the toolkit, the config field checks that
both config dataclasses run, and the parser of every JSON document read from
disk."""

import dataclasses
import json
import math


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (e.g. no clean pair to hold out)."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown config key."""


class DataFormatError(ValueError):
    """Corrupt or unreadable on-disk artifact (bad magic, truncation, checksum)."""


class NumericalError(ArithmeticError):
    """Non-finite value encountered where a finite one is required."""


def is_json_type(value, kind: type) -> bool:
    """Whether value, parsed from JSON, has the type kind: a bool only where
    kind is bool, and an int also where kind is float."""
    kinds = (int, float) if kind is float else kind
    return isinstance(value, bool) is (kind is bool) and isinstance(value, kinds)


def parse_json(data: bytes, error: type[Exception], what: str):
    """The JSON document in UTF-8 bytes; one that is not UTF-8, not JSON or
    nested too deep to parse raises error."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{what}: {exc}") from None


def check_field_types(config) -> None:
    """Reject a field whose value is not of its default's JSON type, a
    non-finite float and a negative seed."""
    for f in dataclasses.fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        if not is_json_type(value, kind):
            raise ConfigError(f"{f.name} must be a JSON {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    if config.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {config.seed!r}")
