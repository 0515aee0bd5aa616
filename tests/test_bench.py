"""Tests for the experiment harness and CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

from modhilb.bench import (EXPERIMENTS, ExperimentConfig, RNG_ALGORITHM,
                           SCHEMA_VERSION, make_rng, run)
from modhilb.cli import main


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig("no-such-thing", {}).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig("weyl-scan", {"bogus": 1}).validate()

    def test_seed_required_for_randomized(self):
        with pytest.raises(ValueError):
            ExperimentConfig("ttstar", {"s_list": [2]}).validate()
        ExperimentConfig("ttstar", {"s_list": [2], "seed": 0}).validate()

    def test_from_json_schema_check(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 99,
                                    "experiment": "weyl-scan"}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(str(path))
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                    "experiment": "weyl-scan",
                                    "params": {"q_max": 6}}))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.experiment == "weyl-scan"
        assert cfg.params == {"q_max": 6}

    @pytest.mark.parametrize("raw, field", [
        pytest.param({"schema_version": SCHEMA_VERSION}, "experiment",
                     id="no-experiment"),
        pytest.param({"schema_version": SCHEMA_VERSION,
                      "experiment": "weyl-scan", "params": [6]}, "params",
                     id="params-not-object"),
    ])
    def test_from_json_malformed_field_named(self, tmp_path, raw, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f'"{field}"'):
            ExperimentConfig.from_json(str(path))

    def test_scalar_values_cast_to_declared_type(self):
        params = ExperimentConfig("hua-fit", {"q_max": 60.0}).validate()
        assert params["q_max"] == 60 and type(params["q_max"]) is int
        with pytest.raises(ValueError):
            ExperimentConfig("hua-fit", {"q_max": 60.5}).validate()


class TestReports:
    def run_small(self, tmp_path):
        cfg = ExperimentConfig("weyl-scan", {"q_max": 8, "d_list": [2]},
                               str(tmp_path))
        return run(cfg)

    def test_outputs_written(self, tmp_path):
        rep = self.run_small(tmp_path)
        assert rep.passed
        csv_path = tmp_path / "weyl-scan.csv"
        json_path = tmp_path / "weyl-scan.summary.json"
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["rng"] == RNG_ALGORITHM
        assert payload["pass"] is True

    def test_byte_identical_reruns(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            cfg = ExperimentConfig("ttstar",
                                   {"s_list": [2, 3], "n_pairs": 6, "seed": 5},
                                   str(out))
            run(cfg)
        assert ((a_dir / "ttstar.csv").read_bytes()
                == (b_dir / "ttstar.csv").read_bytes())
        assert ((a_dir / "ttstar.summary.json").read_bytes()
                == (b_dir / "ttstar.summary.json").read_bytes())

    def test_defaults_written_as_params(self, tmp_path):
        run(ExperimentConfig("hua-fit", {}, str(tmp_path)))
        payload = json.loads((tmp_path / "hua-fit.summary.json").read_text())
        assert payload["params"] == {"q_max": 200, "d": 2}

    def test_summary_reruns_as_config(self, tmp_path, monkeypatch):
        # the default r_list holds inf, which the summary writes as Infinity
        first = tmp_path / "first"
        run(ExperimentConfig("variation", {"n_max": 4}, str(first)))
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        monkeypatch.chdir(rerun)
        assert main(["run", "--config",
                     str(first / "variation.summary.json")]) == 0
        assert ((rerun / "variation.csv").read_bytes()
                == (first / "variation.csv").read_bytes())

    def test_floats_full_precision(self, tmp_path):
        self.run_small(tmp_path)
        text = (tmp_path / "weyl-scan.csv").read_text()
        header, row = text.strip().splitlines()
        max_abs = row.split(",")[-1]
        assert float(max_abs) < 1e-12  # round-trips through 17 digits


class TestLightExperiments:
    def test_variation_experiment(self, tmp_path):
        cfg = ExperimentConfig("variation", {"n_max": 5}, str(tmp_path))
        rep = run(cfg)
        assert rep.passed
        assert rep.summary["max_abs_diff"] < 1e-12

    def test_carleson_delta_pattern(self, tmp_path):
        cfg = ExperimentConfig("carleson", {"N": 256, "J": 5, "grid_size": 8},
                               str(tmp_path))
        rep = run(cfg)
        assert rep.passed

    def test_hua_fit_small(self, tmp_path):
        cfg = ExperimentConfig("hua-fit", {"q_max": 60}, str(tmp_path))
        rep = run(cfg)
        assert rep.passed
        assert rep.summary["fitted_exponent"] <= -0.4

    def test_square_function(self, tmp_path):
        cfg = ExperimentConfig("square-function", {"seed": 1}, str(tmp_path))
        rep = run(cfg)
        assert rep.passed

    def test_kernel_identity_small(self, tmp_path):
        cfg = ExperimentConfig("kernel-identity", {"q_max": 12,
                                                   "d_list": [2, 3]},
                               str(tmp_path))
        rep = run(cfg)
        assert rep.passed


class TestMakeRng:
    def test_streams_independent(self):
        a = make_rng(3, 0).random(4)
        b = make_rng(3, 1).random(4)
        c = make_rng(3, 0).random(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "modhilb.cli", *args],
                              capture_output=True, text=True)

    def test_subcommand_style(self, tmp_path):
        res = self.run_cli("variation", "--n_max", "4", "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "variation.csv").exists()

    def test_config_style(self, tmp_path):
        cfg = {"schema_version": SCHEMA_VERSION, "experiment": "weyl-scan",
               "params": {"q_max": 6}, "output_path": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self.run_cli("run", "--config", str(path))
        assert res.returncode == 0
        assert (tmp_path / "weyl-scan.summary.json").exists()

    def test_failing_assertion_nonzero_exit(self, tmp_path):
        # an impossible hua threshold cannot fail, so use a bad config
        res = self.run_cli("run", "--config", str(tmp_path / "missing.json"))
        assert res.returncode != 0


def test_every_experiment_registered():
    assert set(EXPERIMENTS) == {
        "weyl-scan", "hua-fit", "kernel-identity", "major-arc-error",
        "ej-decay", "xj-restricted", "carleson", "stationary-phase",
        "square-function", "ttstar", "ergodic", "variation"}
