"""Command-line interface.

Subcommands: train, generate, evaluate, report, run-all. Flags mirror the
ExperimentConfig fields; a JSON config file can stand in for flags.
``evaluate`` reads candidates by the training-file rule (``chem.read_smiles``);
a line whose SMILES does not parse counts as an unparsed candidate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from ..chem import load_dataset, read_smiles, write_smiles
from .config import EXPERIMENTS, ExperimentConfig, config_from_dict, read_config_file
from .generate import generate_molecules
from .metrics import evaluate
from .report import read_results_csv, write_report
from .sweep import run_all
from .train import load_pipeline, train_experiment


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--latent-z", type=int, dest="latent_z")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--dataset")
    p.add_argument("--subset", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-count", type=int, dest="sample_count")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--output-dir", dest="output_dir")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _given_fields(args) -> dict:
    """The config fields that the command line sets."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)
            if getattr(args, f.name, None) is not None}


def _build_config(args) -> ExperimentConfig:
    raw = read_config_file(args.config) if args.config else {}
    return config_from_dict({**raw, **_given_fields(args)})


def _cmd_train(args) -> int:
    cfg = _build_config(args)
    pipeline = train_experiment(cfg)
    print(f"trained {cfg.run_name}: "
          f"ae {pipeline.ae_seconds:.1f}s, flow {pipeline.flow_seconds:.1f}s, "
          f"{pipeline.param_count} parameters -> {cfg.run_dir}")
    return 0


def _cmd_generate(args) -> int:
    cfg = _build_config(args)
    pipeline = load_pipeline(cfg)
    rng = np.random.default_rng(args.gen_seed if args.gen_seed is not None else cfg.seed)
    mols = generate_molecules(pipeline, args.count, rng)
    out = Path(args.out or (cfg.run_dir / "generated.smi"))
    out.write_text("\n".join(write_smiles(m) for m in mols) + "\n", encoding="utf-8")
    print(f"wrote {len(mols)} molecules to {out}")
    return 0


def _cmd_evaluate(args) -> int:
    training = load_dataset(args.dataset)
    report = evaluate(read_smiles(args.candidates), training)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_report(args) -> int:
    reports = read_results_csv(args.results)
    paths = write_report(args.out, reports)
    for p in paths:
        print(p)
    return 0


def _cmd_run_all(args) -> int:
    # every sweep row replaces the template's experiment
    template = ExperimentConfig(experiment=EXPERIMENTS[0], **_given_fields(args))
    reports = run_all(template)
    for r in reports:
        print(f"{r.experiment:>22} z={r.latent_z}: validity {r.validity:5.1f}%  "
              f"uniqueness {r.uniqueness:5.1f}%  novelty {r.novelty:5.1f}%")
    print(f"report written under {template.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="moldiff",
        description="latent-space molecular graph generation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one experiment configuration")
    _add_config_flags(p_train)
    p_train.set_defaults(fn=_cmd_train)

    p_gen = sub.add_parser("generate", help="sample molecules from checkpoints")
    _add_config_flags(p_gen)
    p_gen.add_argument("--count", type=_positive, default=100)
    p_gen.add_argument("--gen-seed", type=int, dest="gen_seed")
    p_gen.add_argument("--out")
    p_gen.set_defaults(fn=_cmd_generate)

    p_eval = sub.add_parser("evaluate", help="score a SMILES file of candidates")
    p_eval.add_argument("--candidates", required=True, help="read by the training-file rule:"
                        " the first token of each line, blank and '#' lines skipped")
    p_eval.add_argument("--dataset", required=True)
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_rep = sub.add_parser("report", help="rebuild CSV + figures from results.csv")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--out", default="report")
    p_rep.set_defaults(fn=_cmd_report)

    p_all = sub.add_parser("run-all", help="train and score the full sweep")
    p_all.add_argument("--seed", type=int, required=True)
    p_all.add_argument("--dataset")
    p_all.add_argument("--subset", type=int)
    p_all.add_argument("--epochs", type=int)
    p_all.add_argument("--sample-count", type=int, dest="sample_count")
    p_all.add_argument("--repetitions", type=int)
    p_all.add_argument("--output-dir", dest="output_dir")
    p_all.set_defaults(fn=_cmd_run_all)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
