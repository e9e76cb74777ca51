"""Run configuration: one JSON file describing dataset and training knobs.

The schema is strict: the root and each section must be a JSON object, and
unknown keys are rejected so a typo cannot silently fall back to a default.
Missing keys take the documented defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError, parse_json
from .synth import DatasetSpec
from .trainer import TrainConfig

_SECTIONS = {"dataset": DatasetSpec, "train": TrainConfig}


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    train: TrainConfig


def _object(raw, known, what: str) -> dict:
    """raw, if it is a JSON object whose keys are all in known."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: {sorted(unknown)}")
    return raw


def load_run_config(path: str) -> RunConfig:
    with open(path, "rb") as fh:
        raw = _object(parse_json(fh.read(), ConfigError, "config is not valid JSON"),
                      _SECTIONS, "config root")
    cfg = RunConfig(**{
        name: cls(**_object(raw.get(name, {}), [f.name for f in dataclasses.fields(cls)],
                            f"'{name}' section"))
        for name, cls in _SECTIONS.items()})
    cfg.dataset.validate()
    cfg.train.validate()
    return cfg
