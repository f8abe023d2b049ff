"""Dataset resolution for experiment runs."""

from __future__ import annotations

from ..chem import Dataset, load_dataset, synthetic_molecules
from .config import ExperimentConfig

# molecules in the synthetic fallback of a run that sets no subset
DEFAULT_SYNTHETIC_COUNT = 10_000


class DatasetError(ValueError):
    pass


def synthetic_dataset(count: int, seed: int = 0) -> Dataset:
    """In-memory stand-in dataset built from the synthetic corpus."""
    return Dataset.of(synthetic_molecules(count, seed), source=f"synthetic:{count}:{seed}")


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    """Load the configured SMILES file, or fall back to the synthetic corpus.

    The fallback keeps desk-scale runs self-contained when no real dataset
    file is mounted.
    """
    path = cfg.dataset_path()
    if path is None:
        count = cfg.subset or DEFAULT_SYNTHETIC_COUNT
        return synthetic_dataset(count, seed=0)
    try:
        return load_dataset(path)
    except OSError as exc:
        raise DatasetError(f"dataset unavailable: {exc}") from exc
