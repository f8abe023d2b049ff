"""Config validation, the command line, and the results CSV."""

import json

import pytest

from moldiff import harness
from moldiff.chem import load_dataset, parse_smiles
from moldiff.harness import ConfigInvalid, ExperimentConfig, MetricsReport, cli
from moldiff.harness.config import config_from_dict, load_config
from moldiff.harness.report import CSV_COLUMNS


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
        {"experiment": "gnn_gaussian", "sample_range": [100, "500"]},
        {"experiment": "gnn_gaussian", "sample_range": [100, 200, 300]},
        {"experiment": "gnn_gaussian", "sample_range": 100},
        {"experiment": ["gnn_gaussian"]},
    ])
    def test_wrong_type_is_config_invalid(self, raw):
        with pytest.raises(ConfigInvalid):
            config_from_dict(raw)

    def test_accepted_types(self):
        cfg = config_from_dict({"experiment": "gnn_gaussian", "lr": 1, "subset": None,
                                "dataset": None, "sample_range": [3, 4], "seed": 7})
        assert cfg.lr == 1 and cfg.sample_range == (3, 4) and cfg.seed == 7

    def test_load_config_rejects_wrong_type(self, tmp_path):
        path = write_json(tmp_path, {"experiment": "gnn_gaussian", "epochs": "3"})
        with pytest.raises(ConfigInvalid):
            load_config(path)

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


class TestResultsCsv:
    def test_round_trips_every_column(self, tmp_path):
        reports = [
            MetricsReport(experiment="gnn_gaussian", latent_z=2, validity=1 / 3,
                          uniqueness=100.0, novelty=0.1 + 0.2, ae_seconds=12.345678901234567,
                          flow_seconds=1e-7, params=51234, count=500),
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
                assert getattr(got, col) == getattr(want, col), col
                assert type(getattr(got, col)) is type(getattr(want, col)), col
