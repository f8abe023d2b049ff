"""Command-line interface.

Subcommands: train, generate, evaluate, report, run-all. Each of train,
generate and run-all has a flag for each ExperimentConfig field it reads,
from the one table ``FLAGS``. A JSON config file can stand in for the flags
of train and generate; it is checked against every field, so one file
serves both.
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


# argparse keywords of each config field's flag, --field-name
FLAGS = {
    "experiment": {"choices": EXPERIMENTS}, "latent_z": {"type": int}, "epochs": {"type": int},
    "lr": {"type": float}, "dataset": {}, "subset": {"type": int}, "seed": {"type": int},
    "sample_count": {"type": int}, "repetitions": {"type": int}, "output_dir": {},
}

# the config fields that train reads; generate reads them but epochs and lr
TRAIN_FIELDS = ("experiment", "latent_z", "epochs", "lr", "dataset", "subset", "seed",
                "output_dir")
GENERATE_FIELDS = tuple(f for f in TRAIN_FIELDS if f not in ("epochs", "lr"))
RUN_ALL_FIELDS = ("seed", "dataset", "subset", "epochs", "sample_count", "repetitions",
                  "output_dir")


def _add_field_flags(p: argparse.ArgumentParser, names, required=()) -> None:
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, required=name in required,
                       **FLAGS[name])


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
    template = ExperimentConfig(experiment=next(iter(EXPERIMENTS)), **_given_fields(args))
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
    p_train.add_argument("--config", help="JSON config file; flags override it")
    _add_field_flags(p_train, TRAIN_FIELDS)
    p_train.set_defaults(fn=_cmd_train)

    p_gen = sub.add_parser("generate", help="sample molecules from checkpoints")
    p_gen.add_argument("--config", help="JSON config file; flags override it")
    _add_field_flags(p_gen, GENERATE_FIELDS)
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
    _add_field_flags(p_all, RUN_ALL_FIELDS, required=("seed",))
    p_all.set_defaults(fn=_cmd_run_all)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
