"""Full experiment sweep: every flow/width row, trained, sampled, scored."""

from __future__ import annotations

import dataclasses
import json

from ..chem import Dataset
from .config import ExperimentConfig
from .data import resolve_dataset
from .generate import generate_molecules, sample_clouds
from .metrics import MetricsReport, evaluate, latent_mmd, mean_report
from .report import write_report
from .train import TrainedPipeline, run_streams, standardized_clouds, train_experiment

# sampled clouds per latent_mmd
LATENT_SAMPLES = 200

# the inclusive range each repetition draws its molecule count from when
# the config sets no sample_count
SAMPLE_RANGE = (100, 500)

SWEEP_ROWS: tuple[tuple[str, int], ...] = (
    ("gnn_gaussian", 2),
    ("gnn_gaussian", 6),
    ("egnn_gaussian", 2),
    ("egnn_gaussian", 6),
    ("input_space_gaussian", 2),
    ("input_space_gaussian", 6),
    ("heat_1d", 1),
    ("flow_matching", 2),
    ("flow_matching", 6),
)


def run_experiment(cfg: ExperimentConfig,
                   dataset: Dataset | None = None) -> tuple[MetricsReport, TrainedPipeline]:
    """Train one configuration, generate with repetition, and score it.

    The number of molecules per repetition is cfg.sample_count when given,
    otherwise drawn uniformly from SAMPLE_RANGE; percentages are
    averaged over cfg.repetitions draws. The report's ``latent_mmd``
    compares LATENT_SAMPLES standardized clouds of the flow with the
    standardized training clouds; they draw from the run's ``latent``
    stream, so the molecules scored for V/U/N do not depend on it.
    """
    pipeline = train_experiment(cfg, dataset)
    rngs = run_streams(cfg.seed)

    reps = []
    for _ in range(cfg.repetitions):
        if cfg.sample_count is not None:
            count = cfg.sample_count
        else:
            lo, hi = SAMPLE_RANGE
            count = int(rngs["generate"].integers(lo, hi + 1))
        candidates = generate_molecules(pipeline, count, rngs["generate"])
        rep = evaluate(candidates, pipeline.dataset)
        rep.experiment = cfg.experiment
        rep.latent_z = cfg.latent_z
        reps.append(rep)

    report = mean_report(reps)
    report.ae_seconds = pipeline.ae_seconds
    report.flow_seconds = pipeline.flow_seconds
    report.params = pipeline.param_count
    sampled = [cloud for _, cloud in sample_clouds(
        pipeline, LATENT_SAMPLES, rngs["latent"])]
    report.latent_mmd = latent_mmd(sampled, standardized_clouds(pipeline))
    (cfg.run_dir / "metrics.json").write_text(
        json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return report, pipeline


def run_all(template: ExperimentConfig) -> list[MetricsReport]:
    """Run every row of SWEEP_ROWS, each as ``template`` with the row's
    experiment and latent_z, and write results.csv plus the three figures
    under ``template.output_dir``. The dataset is resolved once, from the
    template, and every row trains and scores on it."""
    dataset = resolve_dataset(template)
    reports = [run_experiment(dataclasses.replace(template, experiment=e, latent_z=z), dataset)[0]
               for e, z in SWEEP_ROWS]
    write_report(template.output_dir, reports)
    return reports
