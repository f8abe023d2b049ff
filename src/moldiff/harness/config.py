"""Experiment configuration: flat JSON, strict keys, fail-fast validation."""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, fields
from pathlib import Path


class Kinds(typing.NamedTuple):
    codec: str  # see moldiff.codec.build
    flow: str  # see moldiff.flows.build


# what each experiment trains
EXPERIMENTS = {
    "gnn_gaussian": Kinds("gnn", "ddpm_gnn"),
    "egnn_gaussian": Kinds("egnn", "ddpm_egnn"),
    "input_space_gaussian": Kinds("input", "ddpm_gnn"),
    "heat_1d": Kinds("gnn", "heat"),
    "flow_matching": Kinds("gnn", "flow_matching"),
}

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
    output_dir: str = "runs"
    repetitions: int = 5

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(
                f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}")
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


def _fits(value, hint) -> bool:
    """Whether a JSON value has the annotated type: a bool is no int, an
    int is a float."""
    kinds = typing.get_args(hint) or (hint,)  # X | None lists its members
    if float in kinds:
        kinds += (int,)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object; unknown keys and values of
    the wrong type are an error."""
    hints = typing.get_type_hints(ExperimentConfig)
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigInvalid("config needs an 'experiment' key")
    for key, value in raw.items():
        hint = hints[key]
        if not _fits(value, hint):
            want = str(hint) if typing.get_args(hint) else hint.__name__
            raise ConfigInvalid(f"{key} must be {want}, got {value!r}")
    return ExperimentConfig(**raw)


def read_config_file(path) -> dict:
    """The JSON object in a config file, not yet validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot load config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a flat JSON object")
    return raw


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_config_file(path))
