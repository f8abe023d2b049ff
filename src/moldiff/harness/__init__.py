"""Experiment orchestration: config, training, generation, metrics, reports."""

from .config import ConfigInvalid, ExperimentConfig, config_from_dict, load_config
from .data import DatasetError, resolve_dataset, synthetic_dataset
from .generate import generate_molecules
from .metrics import EmptyCandidateSet, MetricsReport, evaluate, latent_mmd, mean_report
from .report import read_results_csv, write_report, write_results_csv
from .sweep import SWEEP_ROWS, run_all, run_experiment
from .train import (
    CheckpointMismatch,
    Standardizer,
    TrainedPipeline,
    load_pipeline,
    train_experiment,
)

__all__ = [
    "CheckpointMismatch", "ConfigInvalid", "DatasetError", "EmptyCandidateSet",
    "ExperimentConfig", "MetricsReport", "SWEEP_ROWS", "Standardizer",
    "TrainedPipeline", "config_from_dict", "evaluate",
    "generate_molecules", "latent_mmd", "load_config", "load_pipeline", "mean_report",
    "read_results_csv", "resolve_dataset", "run_all", "run_experiment",
    "synthetic_dataset", "train_experiment", "write_report", "write_results_csv",
]
