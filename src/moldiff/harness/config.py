"""Experiment configuration: flat JSON, strict keys, fail-fast validation."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

# the flow kind (see moldiff.flows.build) that each experiment trains
FLOW_KINDS = {
    "gnn_gaussian": "ddpm_gnn",
    "egnn_gaussian": "ddpm_egnn",
    "input_space_gaussian": "ddpm_gnn",
    "heat_1d": "heat",
    "flow_matching": "flow_matching",
}

EXPERIMENTS = tuple(FLOW_KINDS)

LATENT_WIDTHS = (1, 2, 6)

DATA_ENV_VAR = "MOLDIFF_DATA"


class ConfigInvalid(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    latent_z: int = 2
    epochs: int = 20
    lr: float = 0.001
    dataset: str | None = None
    subset: int | None = None
    seed: int = 0
    sample_count: int | None = None
    sample_range: tuple[int, int] = (100, 500)
    output_dir: str = "runs"
    repetitions: int = 5

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.experiment == "heat_1d":
            self.latent_z = 1  # the 1-D pipeline admits no other width
        if self.latent_z not in LATENT_WIDTHS:
            raise ConfigInvalid(f"latent_z must be one of {LATENT_WIDTHS}")
        if self.epochs < 1:
            raise ConfigInvalid("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigInvalid("lr must be positive")
        if self.subset is not None and self.subset < 1:
            raise ConfigInvalid("subset must be >= 1")
        self.sample_range = (int(self.sample_range[0]), int(self.sample_range[1]))
        if self.sample_range[0] > self.sample_range[1]:
            raise ConfigInvalid("sample_range low must be <= high")
        if self.sample_count is not None and self.sample_count < 1:
            raise ConfigInvalid("sample_count must be >= 1")
        if self.repetitions < 1:
            raise ConfigInvalid("repetitions must be >= 1")

    @property
    def run_name(self) -> str:
        return f"{self.experiment}_z{self.latent_z}_seed{self.seed}"

    @property
    def run_dir(self) -> Path:
        return Path(self.output_dir) / self.run_name

    def dataset_path(self) -> str | None:
        """Configured dataset path, overridden by the environment when set."""
        return os.environ.get(DATA_ENV_VAR) or self.dataset

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["sample_range"] = list(self.sample_range)
        return json.dumps(d, indent=2, sort_keys=True)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object; unknown keys are an error."""
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigInvalid("config needs an 'experiment' key")
    kwargs = dict(raw)
    if "sample_range" in kwargs:
        sr = kwargs["sample_range"]
        if not (isinstance(sr, (list, tuple)) and len(sr) == 2):
            raise ConfigInvalid("sample_range must be a [low, high] pair")
        kwargs["sample_range"] = (sr[0], sr[1])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot load config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a flat JSON object")
    return config_from_dict(raw)
