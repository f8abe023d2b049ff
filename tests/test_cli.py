"""Config validation, the command line, and the results CSV."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moldiff
from moldiff import harness
from moldiff.chem import load_dataset, parse_smiles
from moldiff.harness import ConfigInvalid, ExperimentConfig, MetricsReport, cli
from moldiff.harness.config import config_from_dict
from moldiff.harness.report import CSV_COLUMNS, ResultsUnreadable


def write_json(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestConfig:
    @pytest.mark.parametrize("raw", [
        {"experiment": "gnn_gaussian", "epochs": "3"},
        {"experiment": "gnn_gaussian", "seed": True},
        {"experiment": "gnn_gaussian", "lr": "0.01"},
        {"experiment": "gnn_gaussian", "lr": False},
        {"experiment": "gnn_gaussian", "subset": 2.0},
        {"experiment": "gnn_gaussian", "dataset": 7},
        {"experiment": "gnn_gaussian", "sample_count": "4"},
        {"experiment": "gnn_gaussian", "repetitions": 2.5},
        {"experiment": "gnn_gaussian", "output_dir": None},
        {"experiment": ["gnn_gaussian"]},
    ])
    def test_wrong_type_is_config_invalid(self, raw):
        with pytest.raises(ConfigInvalid):
            config_from_dict(raw)

    def test_accepted_types(self):
        cfg = config_from_dict({"experiment": "gnn_gaussian", "lr": 1, "subset": None,
                                "dataset": None, "seed": 7})
        assert cfg.lr == 1 and cfg.seed == 7

    def test_sample_range_is_an_unknown_key(self):
        """A sweep's counts come from ``sweep.SAMPLE_RANGE``; no config sets them."""
        with pytest.raises(ConfigInvalid, match="unknown config keys: \\['sample_range'\\]"):
            config_from_dict({"experiment": "gnn_gaussian", "sample_range": [3, 4]})

    def test_cli_config_error_names_the_key(self, tmp_path):
        path = write_json(tmp_path, {"experiment": "gnn_gaussian", "lr": "0.01"})
        with pytest.raises(ConfigInvalid, match="lr must be float, got '0.01'"):
            cli.main(["train", "--config", str(path)])

    @pytest.mark.parametrize("obj", [[1, 2], "gnn_gaussian", None])
    def test_cli_rejects_a_config_that_is_not_an_object(self, obj, tmp_path):
        path = write_json(tmp_path, obj)
        with pytest.raises(ConfigInvalid):
            cli.main(["train", "--config", str(path), "--epochs", "1"])

    def test_cli_rejects_unparseable_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            cli.main(["train", "--config", str(path), "--experiment", "heat_1d"])

    def test_cli_rejects_wrong_type_in_config(self, tmp_path):
        path = write_json(tmp_path, {"experiment": "gnn_gaussian", "epochs": "3"})
        with pytest.raises(ConfigInvalid):
            cli.main(["train", "--config", str(path)])

    def test_heat_runs_one_latent_column(self):
        assert ExperimentConfig(experiment="heat_1d", latent_z=2).latent_z == 1


# every config field, set to a value other than its default
EVERY_FIELD = {"experiment": "flow_matching", "latent_z": 6, "epochs": 3, "lr": 0.5,
               "dataset": "mols.smi", "subset": 7, "seed": 11, "sample_count": 4,
               "output_dir": "elsewhere", "repetitions": 2}

# the flags of each command that reads config fields
COMMAND_FLAGS = {
    "train": {"--config", "--experiment", "--latent-z", "--epochs", "--lr", "--dataset",
              "--subset", "--seed", "--output-dir"},
    "generate": {"--config", "--experiment", "--latent-z", "--dataset", "--subset", "--seed",
                 "--output-dir", "--count", "--gen-seed", "--out"},
    "run-all": {"--seed", "--dataset", "--subset", "--epochs", "--sample-count",
                "--repetitions", "--output-dir"},
}


def flag(field: str) -> str:
    return "--" + field.replace("_", "-")


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_has_exactly_its_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"} == \
        COMMAND_FLAGS[command]


@pytest.mark.parametrize("command, field", [
    (command, field) for command, flags in COMMAND_FLAGS.items()
    for field in EVERY_FIELD if flag(field) not in flags])
def test_a_field_the_command_does_not_read_is_a_usage_error(command, field, capsys):
    """``generate --epochs 1`` is refused, not ignored."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "5", flag(field), str(EVERY_FIELD[field])])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag(field)}" in capsys.readouterr().err


class Built(Exception):
    """Stops a command once it has built its config."""


def capture_configs(monkeypatch, *entries) -> list:
    """Stop the commands at ``entries``; the list of the configs they get."""
    seen = []

    def capture(cfg, *_):
        seen.append(cfg)
        raise Built

    for entry in entries:
        monkeypatch.setattr(cli, entry, capture)
    return seen


@pytest.mark.parametrize("command, entry", [("train", "train_experiment"),
                                            ("generate", "load_pipeline")])
def test_each_flag_sets_its_field(command, entry, monkeypatch):
    assert set(EVERY_FIELD) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    given = {k: v for k, v in EVERY_FIELD.items() if flag(k) in COMMAND_FLAGS[command]}
    seen = capture_configs(monkeypatch, entry)
    with pytest.raises(Built):
        cli.main([command, *(arg for k, v in given.items() for arg in (flag(k), str(v)))])
    assert seen == [ExperimentConfig(**given)]


def test_one_config_file_serves_train_and_generate(tmp_path, monkeypatch):
    """A config file is checked against every field, so the fields only
    training reads may sit in the file that generate is given."""
    path = write_json(tmp_path, {"experiment": "heat_1d", "epochs": 3, "lr": 0.5, "seed": 4})
    seen = capture_configs(monkeypatch, "train_experiment", "load_pipeline")
    for command in ("train", "generate"):
        with pytest.raises(Built):
            cli.main([command, "--config", str(path)])
    assert seen == [ExperimentConfig(experiment="heat_1d", epochs=3, lr=0.5, seed=4)] * 2


# every run-all flag, set to a value other than its config default
RUN_ALL_FLAGS = {
    "dataset": ("--dataset", "mols.smi"),
    "subset": ("--subset", "7"),
    "epochs": ("--epochs", "3"),
    "sample_count": ("--sample-count", "4"),
    "repetitions": ("--repetitions", "2"),
    "output_dir": ("--output-dir", "elsewhere"),
}


@pytest.mark.parametrize("given", [(), tuple(RUN_ALL_FLAGS)], ids=["seed-only", "every-flag"])
def test_run_all_rows_are_the_config_with_the_flags_given(given, tmp_path, monkeypatch):
    """A flag that is not given leaves its ``ExperimentConfig`` default."""
    monkeypatch.chdir(tmp_path)
    rows, written = [], []

    def run(cfg, dataset):
        rows.append(cfg)
        return MetricsReport(experiment=cfg.experiment, latent_z=cfg.latent_z), None

    monkeypatch.setattr(harness.sweep, "run_experiment", run)
    monkeypatch.setattr(harness.sweep, "resolve_dataset", lambda cfg: None)
    monkeypatch.setattr(harness.sweep, "write_report", lambda out, reports: written.append(out))
    argv = ["run-all", "--seed", "5", *(arg for k in given for arg in RUN_ALL_FLAGS[k])]
    assert cli.main(argv) == 0
    fields = {"dataset": "mols.smi", "subset": 7, "epochs": 3, "sample_count": 4,
              "repetitions": 2, "output_dir": "elsewhere"} if given else {}
    assert rows == [ExperimentConfig(experiment=e, latent_z=z, seed=5, **fields)
                    for e, z in harness.SWEEP_ROWS]
    assert written == [fields.get("output_dir", "runs")]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_refuses_a_count_below_one(count, tmp_path, capsys):
    out = tmp_path / "generated.smi"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--experiment", "gnn_gaussian", "--output-dir", str(tmp_path),
                  "--count", count, "--out", str(out)])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


class TestEvaluateCommand:
    def test_prints_the_report(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.smi"
        candidates.write_text("# generated\nCCO\nCCO\n\nCCN\n", encoding="utf-8")
        training = tmp_path / "train.smi"
        training.write_text("CCO\nCC(=O)N\n", encoding="utf-8")
        assert cli.main(["evaluate", "--candidates", str(candidates),
                         "--dataset", str(training)]) == 0
        printed = json.loads(capsys.readouterr().out)
        want = harness.evaluate([parse_smiles(s) for s in ("CCO", "CCO", "CCN")],
                                load_dataset(training))
        assert printed == want.to_dict()
        assert printed["count"] == 3 and printed["validity"] == 100.0
        assert printed["uniqueness"] == pytest.approx(200.0 / 3)
        assert printed["novelty"] == 50.0
        assert printed["unparsed"] == 0

    def test_unparseable_line_counts_as_invalid(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.smi"
        candidates.write_text("CCO\nC(\nCCN\n", encoding="utf-8")
        training = tmp_path / "train.smi"
        training.write_text("CCO\n", encoding="utf-8")
        assert cli.main(["evaluate", "--candidates", str(candidates),
                         "--dataset", str(training)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["count"] == 3 and printed["unparsed"] == 1
        assert printed["validity"] == pytest.approx(200.0 / 3)
        assert printed["uniqueness"] == 100.0 and printed["novelty"] == 50.0

    def test_non_ascii_digit_counts_as_unparsed(self, tmp_path, capsys):
        # int() of '\u00b2' raises a bare ValueError, and '\u0663' is a digit
        # to str.isdigit(); neither is a ring label
        candidates = tmp_path / "candidates.smi"
        candidates.write_text("CCO\nC\u00b2\nC\u0663CC\u0663\nCCN\n", encoding="utf-8")
        training = tmp_path / "train.smi"
        training.write_text("CCO\nC\u00b2\n", encoding="utf-8")
        assert cli.main(["evaluate", "--candidates", str(candidates),
                         "--dataset", str(training)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["count"] == 4 and printed["unparsed"] == 2
        assert printed["validity"] == 50.0 and printed["novelty"] == 50.0

    def test_no_line_parses(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.smi"
        candidates.write_text("C(\nC1CC\n", encoding="utf-8")
        training = tmp_path / "train.smi"
        training.write_text("CCO\n", encoding="utf-8")
        assert cli.main(["evaluate", "--candidates", str(candidates),
                         "--dataset", str(training)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["count"] == 2 and printed["unparsed"] == 2
        assert printed["validity"] == 0.0 and printed["degenerate"]

    def test_a_name_after_the_smiles_changes_nothing(self, tmp_path, capsys):
        training = tmp_path / "train.smi"
        training.write_text("CCO ethanol\nCC(=O)N acetamide\n", encoding="utf-8")
        printed = []
        for name, text in (("bare", "CCO\nCCN\nC(\n"),
                           ("named", "CCO ethanol\nCCN amine\nC( broken\n")):
            candidates = tmp_path / f"{name}.smi"
            candidates.write_text(text, encoding="utf-8")
            assert cli.main(["evaluate", "--candidates", str(candidates),
                             "--dataset", str(training)]) == 0
            printed.append(json.loads(capsys.readouterr().out))
        assert printed[1] == printed[0]
        assert printed[1]["count"] == 3 and printed[1]["unparsed"] == 1
        assert printed[1]["validity"] == pytest.approx(200.0 / 3)


class TestResultsCsv:
    def test_round_trips_every_column(self, tmp_path):
        reports = [
            MetricsReport(experiment="gnn_gaussian", latent_z=2, validity=1 / 3,
                          uniqueness=100.0, novelty=0.1 + 0.2, ae_seconds=12.345678901234567,
                          flow_seconds=1e-7, params=51234, count=500, latent_mmd=0.1 + 0.7),
            MetricsReport(experiment="heat_1d", latent_z=1, validity=0.0,
                          uniqueness=0.0, novelty=0.0, ae_seconds=0.5,
                          flow_seconds=2.0, params=8577, count=100),
        ]
        path = tmp_path / "results.csv"
        harness.write_results_csv(path, reports)
        back = harness.read_results_csv(path)
        assert len(back) == len(reports)
        for got, want in zip(back, reports):
            for col in CSV_COLUMNS:
                g, w = getattr(got, col), getattr(want, col)
                assert g == w or (col == "latent_mmd" and math.isnan(g) and math.isnan(w)), col
                assert type(g) is type(w), col

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [without(r, "validity") for r in rows], ": no column 'validity'"),
        (lambda rows: [rows[0], [rows[1][0], "two", *rows[1][2:]]],
         ", line 2, column 'latent_z': 'two' is not int"),
        (lambda rows: [rows[0], rows[1][:-1]], ", line 2, column 'count': no value"),
        (lambda rows: [rows[0], rows[1] + ["EXTRA", "7"]], ", line 2: 2 values past the header"),
        (lambda rows: rows[:1], ": no rows"),
        (lambda rows: [], " is empty"),
    ])
    def test_a_bad_file_raises_a_typed_error(self, edit, message, tmp_path):
        path = one_row_csv(tmp_path, edit)
        with pytest.raises(ResultsUnreadable, match=re.escape(f"{path}{message}")):
            harness.read_results_csv(path)

    def test_a_missing_file_raises_a_typed_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(ResultsUnreadable, match=re.escape(f"cannot read {path}")):
            cli.main(["report", "--results", str(path), "--out", str(tmp_path / "out")])

    def test_a_file_without_latent_mmd_reads_nan(self, tmp_path):
        path = one_row_csv(tmp_path, lambda rows: [without(r, "latent_mmd") for r in rows])
        (report,) = harness.read_results_csv(path)
        assert math.isnan(report.latent_mmd) and report.params == 8577


def without(row: list[str], column: str) -> list[str]:
    k = CSV_COLUMNS.index(column)
    return row[:k] + row[k + 1:]


def one_row_csv(tmp_path, edit) -> Path:
    """A one-report results.csv whose rows ``edit`` has rewritten."""
    path = tmp_path / "results.csv"
    harness.write_results_csv(path, [MetricsReport(
        experiment="heat_1d", latent_z=1, validity=0.0, uniqueness=0.0, novelty=0.0,
        ae_seconds=0.5, flow_seconds=2.0, params=8577, count=100)])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = edit(list(csv.reader(fh)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


@pytest.mark.slow
def test_run_all_writes_every_row(tmp_path, monkeypatch):
    monkeypatch.delenv("MOLDIFF_DATA", raising=False)
    out = tmp_path / "sweep"
    assert cli.main(["run-all", "--seed", "0", "--subset", "12", "--epochs", "1",
                     "--sample-count", "2", "--repetitions", "1",
                     "--output-dir", str(out)]) == 0
    reports = harness.read_results_csv(out / "results.csv")
    assert [(r.experiment, r.latent_z) for r in reports] == list(harness.SWEEP_ROWS)
    for figure in ("fig_params_vs_quality.svg", "fig_validity_vs_uniqueness.svg",
                   "fig_training_times.svg"):
        assert (out / figure).is_file()
    for experiment, z in harness.SWEEP_ROWS:
        cfg = ExperimentConfig(experiment=experiment, latent_z=z, seed=0, output_dir=str(out))
        assert (cfg.run_dir / "metrics.json").is_file()


def _train_and_generate(out: Path, hash_seed: str) -> dict[str, bytes]:
    """Train and sample input_space_gaussian through the command line in
    fresh interpreters; the bytes of the run's outputs."""
    env = {k: v for k, v in os.environ.items() if k != "MOLDIFF_DATA"}
    env.update(PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(moldiff.__file__).parents[1]))
    flags = ["--experiment", "input_space_gaussian", "--subset", "12", "--seed", "0",
             "--output-dir", str(out)]
    for command in (["train", "--epochs", "1"], ["generate", "--count", "20"]):
        subprocess.run([sys.executable, "-m", "moldiff.harness.cli", *command, *flags],
                       env=env, check=True, capture_output=True)
    run_dir = out / "input_space_gaussian_z2_seed0"
    return {f: (run_dir / f).read_bytes()
            for f in ("generated.smi", "codec.mdl1", "flow.mdl1")}


def test_runs_in_other_processes_give_the_same_bytes(tmp_path):
    """Neither string hashing nor anything else of one interpreter reaches
    the checkpoints or the generated SMILES."""
    first = _train_and_generate(tmp_path / "a", "0")
    assert len(first["generated.smi"].splitlines()) == 20
    assert _train_and_generate(tmp_path / "b", "1") == first
