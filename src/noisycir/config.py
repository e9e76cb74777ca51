"""Run configuration: one JSON file describing dataset and training knobs.

The schema is strict: unknown keys are rejected so a typo cannot silently
fall back to a default. Missing keys take the documented defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError, parse_json
from .synth import DatasetSpec
from .trainer import TrainConfig

_SECTIONS = ("dataset", "train")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    train: TrainConfig


def _build_section(cls, raw: dict, section: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown key(s) in '{section}' section: {sorted(unknown)}")
    return cls(**raw)


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {sorted(unknown)}")
    cfg = RunConfig(
        dataset=_build_section(DatasetSpec, raw.get("dataset", {}), "dataset"),
        train=_build_section(TrainConfig, raw.get("train", {}), "train"),
    )
    cfg.dataset.validate()
    cfg.train.validate()
    return cfg


def load_run_config(path: str) -> RunConfig:
    with open(path, "rb") as fh:
        raw = parse_json(fh.read(), ConfigError, "config is not valid JSON")
    try:
        return run_config_from_dict(raw)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
