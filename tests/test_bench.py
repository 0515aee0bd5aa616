"""Tests for the experiment harness and CLI."""

import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from modhilb import circle, farey, osc, spectral, weyl
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

    @pytest.mark.parametrize("name, params", [
        pytest.param("ttstar", {"seed": True, "s_list": [2, 3]},
                     id="bool-as-int"),
        pytest.param("stationary-phase", {"seed": 0, "tol": False},
                     id="bool-as-float"),
        pytest.param("weyl-scan", {"d_list": [True]},
                     id="bool-in-int-list"),
        pytest.param("carleson", {"input": 5}, id="int-as-str"),
        pytest.param("hua-fit", {"q_max": "60"}, id="str-as-int"),
        pytest.param("stationary-phase", {"seed": 0, "tol": "nan"},
                     id="nan-str-as-float"),
        pytest.param("stationary-phase", {"seed": 0, "tol": math.nan},
                     id="nan-as-float"),
        pytest.param("variation", {"r_list": [2.0, "nan"]},
                     id="nan-in-float-list"),
    ])
    def test_wrong_scalar_type_rejected(self, name, params):
        # Python would convert each of these: True to 1, False to 0.0, 5 to
        # "5", "nan" to a float that is no number (a NaN tol ran to a nan
        # threshold and a fail); a config that says so is a mistake, not a
        # value.  inf is a float: variation's r_list default holds it
        with pytest.raises(ValueError, match="is not a valid"):
            ExperimentConfig(name, params).validate()

    def test_infinite_circle_exponent_rejected(self, tmp_path):
        # 1e400 parses to inf, a valid float; ApproxParams refuses it
        # before the run reaches int(j ** C)
        with pytest.raises(ValueError, match="exponent_C"):
            run(ExperimentConfig("ej-decay", {"seed": 0, "C": 1e400},
                                 str(tmp_path)))

    @pytest.mark.parametrize("name, params", [
        pytest.param("ej-decay", {"seed": 0, "j_min": 8, "j_max": 10},
                     id="ej-decay-3j"),
        pytest.param("ttstar", {"seed": 0, "s_list": [4]},
                     id="ttstar-one-scale"),
        pytest.param("ttstar", {"seed": 0, "s_list": [4, 4]},
                     id="ttstar-repeated-scale"),
        # s = 1 has no distinct pair of fractions to draw: it would never
        # return
        pytest.param("ttstar", {"seed": 0, "s_list": [1]}, id="ttstar-s1"),
        pytest.param("ttstar", {"seed": 0, "s_list": [1, 2]},
                     id="ttstar-s1-s2"),
        pytest.param("major-arc-error", {"seed": 0, "j_min": 9, "j_max": 9},
                     id="major-arc-error-1j"),
        pytest.param("major-arc-error", {"seed": 0, "epsilon": 0.2},
                     id="major-arc-error-epsilon"),
        pytest.param("stationary-phase", {"seed": 0, "l_min": 8, "l_max": 8},
                     id="stationary-phase-1l"),
        pytest.param("ergodic", {"seed": 0, "J_list": [4]}, id="ergodic-1J"),
        # ranges that would check nothing and report a pass
        pytest.param("weyl-scan", {"q_max": 1}, id="weyl-scan-q1"),
        pytest.param("weyl-scan", {"d_list": []}, id="weyl-scan-no-d"),
        # hua-fit's -0.4 threshold is Hua's bound at d = 2 only
        pytest.param("hua-fit", {"q_max": 40, "d": 3}, id="hua-fit-d3"),
        pytest.param("kernel-identity", {"q_max": 0},
                     id="kernel-identity-q0"),
        pytest.param("kernel-identity", {"d_list": []},
                     id="kernel-identity-no-d"),
        pytest.param("variation", {"n_max": 1}, id="variation-n1"),
        pytest.param("variation", {"r_list": []}, id="variation-no-r"),
        pytest.param("xj-restricted", {"seed": 0, "n_seeds": 0},
                     id="xj-restricted-no-seeds"),
        pytest.param("ergodic", {"seed": 0, "n_seeds": 0},
                     id="ergodic-no-seeds"),
        # one grid point per interval is the anchor itself: every sum is 0
        pytest.param("ergodic", {"seed": 0, "grid_per_interval": 1},
                     id="ergodic-one-grid-point"),
        pytest.param("stationary-phase", {"seed": 0, "n_xi": 0},
                     id="stationary-phase-no-xi"),
        pytest.param("ej-decay", {"seed": 0, "samples": 0},
                     id="ej-decay-no-samples"),
        # an input that is neither "delta" nor "random" (a typo)
        pytest.param("carleson", {"input": "deltax", "N": 64, "J": 3},
                     id="carleson-unknown-input"),
    ])
    def test_range_too_short_rejected(self, tmp_path, monkeypatch, name,
                                      params):
        # rejected before any computation: every operation the bodies
        # would call first fails the test if reached
        def no_compute(*args, **kwargs):
            raise AssertionError("computed on a rejected range")

        for module, attr in [(circle, "error_Ej"),
                             (circle, "restricted_sup_outside_Xj"),
                             (farey, "dirichlet_approx"),
                             (osc, "G_hat_direct"),
                             (osc, "H_j"),
                             (spectral, "carleson_apply"),
                             (spectral, "multiplier_Mj"),
                             (spectral, "oscillation_sum"),
                             (spectral, "r_variation"),
                             (weyl, "_admissible_table"),
                             (weyl, "weyl_kernel_identity")]:
            monkeypatch.setattr(module, attr, no_compute)
        with pytest.raises(ValueError, match="need"):
            run(ExperimentConfig(name, params, str(tmp_path)))
        assert not any(tmp_path.iterdir())


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

    @pytest.mark.parametrize("name, params", [
        # the default r_list holds inf, which the summary writes as Infinity
        pytest.param("variation", {"n_max": 4}, id="variation"),
        pytest.param("weyl-scan", {"q_max": 12, "d_list": [2, 3]},
                     id="weyl-scan"),
        pytest.param("hua-fit", {"q_max": 30}, id="hua-fit"),
        # seeded and list-valued, with d filled in from its default
        pytest.param("ttstar", {"seed": 0, "s_list": [3, 4], "n_pairs": 8},
                     id="ttstar"),
    ])
    def test_summary_reruns_as_config(self, tmp_path, monkeypatch, name,
                                      params):
        first = tmp_path / "first"
        run(ExperimentConfig(name, params, str(first)))
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        monkeypatch.chdir(rerun)
        assert main(["run", "--config",
                     str(first / f"{name}.summary.json")]) == 0
        assert ((rerun / f"{name}.csv").read_bytes()
                == (first / f"{name}.csv").read_bytes())

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
        # the JSON boolean true, not the string "True"
        summary = json.loads((tmp_path / "carleson.summary.json").read_text())
        assert summary["pass"] is True

    def test_carleson_random_checked_against_oracle(self, tmp_path,
                                                    monkeypatch):
        params = {"N": 64, "J": 3, "grid_size": 4, "input": "random"}
        rep = run(ExperimentConfig("carleson", params, str(tmp_path / "a")))
        assert rep.passed
        assert rep.summary["oracle_max_diff"] < 1e-9
        # a direct convolution that disagrees by 1e-6 fails the run
        oracle = spectral.carleson_direct_oracle

        def perturbed(*args):
            out = oracle(*args)
            return spectral.Signal(out.offset, out.values + 1e-6)

        monkeypatch.setattr(spectral, "carleson_direct_oracle", perturbed)
        rep = run(ExperimentConfig("carleson", params, str(tmp_path / "b")))
        assert not rep.passed
        assert rep.summary["oracle_max_diff"] > 1e-9

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

    def test_major_arc_error_reports_scanned_boxes(self, tmp_path):
        # Q_max = 3 clamps to int(2^(epsilon j)): 1 at j = 8, 9 and 2 at
        # j = 10, whose boxes are 0/1 and the three coprime (A, B)/2
        cfg = ExperimentConfig("major-arc-error",
                               {"seed": 7, "j_min": 8, "j_max": 10,
                                "samples_per_box": 1}, str(tmp_path))
        rep = run(cfg)
        payload = json.loads(
            (tmp_path / "major-arc-error.summary.json").read_text())
        assert payload["summary"]["clamped_Q_max"] == {"8": 1, "9": 1,
                                                       "10": 2}
        assert payload["summary"]["boxes"] == {"8": 1, "9": 1, "10": 4}
        assert [row["j"] for row in rep.rows] == [8, 9, 10]
        assert all(row["sup_error"] >= 0.0 for row in rep.rows)


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


# For each experiment a small base config and, for each of its options,
# one other legal value chosen where the option takes effect.
OPTION_CHANGES = {
    "weyl-scan": ({"q_max": 6}, {"q_max": 7, "d_list": [3]}),
    # d has one legal value (its -0.4 threshold is Hua's bound at d = 2)
    "hua-fit": ({"q_max": 12}, {"q_max": 13}),
    "kernel-identity": ({"q_max": 4}, {"q_max": 5, "d_list": [3]}),
    # Q_max clamps to int(2^(epsilon j)), which is 1 below j = 10
    "major-arc-error": ({"seed": 0, "j_min": 10, "j_max": 11,
                         "samples_per_box": 1},
                        {"seed": 1, "j_min": 9, "j_max": 12, "d": 3,
                         "epsilon": 0.05, "Q_max": 1, "samples_per_box": 2,
                         "smoothness": 3}),
    "ej-decay": ({"seed": 0, "j_min": 8, "j_max": 11, "samples": 2},
                 {"seed": 1, "j_min": 7, "j_max": 12, "d": 3, "kappa": 0.1,
                  "C": 1.5, "samples": 3, "smoothness": 3}),
    "xj-restricted": ({"seed": 0, "n_seeds": 1, "n_lams": 32, "N": 256,
                       "j_lo": 6, "j_hi": 8},
                      {"seed": 1, "j_lo": 5, "j_hi": 9, "d": 3, "C": 1.5,
                       "n_seeds": 2, "n_lams": 16, "N": 512,
                       "smoothness": 3}),
    # the delta input's output is 1/|x| whatever d and the grid
    "carleson": ({"N": 64, "J": 3, "grid_size": 4, "input": "random"},
                 {"N": 128, "J": 2, "d": 3, "grid_size": 5,
                  "input": "delta", "seed": 1}),
    "stationary-phase": ({"seed": 0, "l_min": 8, "l_max": 9, "n_xi": 1},
                         {"seed": 1, "d": 3, "tol": 1e-6, "l_min": 7,
                          "l_max": 10, "n_xi": 2}),
    "square-function": ({"seed": 0, "k_min": 2, "k_max": 2},
                        {"seed": 1, "d": 3, "l": 1, "k_min": 1,
                         "k_max": 3}),
    "ttstar": ({"seed": 0, "s_list": [3, 4], "n_pairs": 2},
               {"seed": 1, "s_list": [3, 5], "d": 3, "n_pairs": 3}),
    # the kernel radius is min(2^(J_mult+1), N/4): J_mult = 3 is below it
    "ergodic": ({"seed": 0, "N": 256, "J_list": [2, 4], "n_seeds": 1,
                 "grid_per_interval": 2},
                {"seed": 1, "N": 512, "d": 3, "J_list": [2, 3],
                 "n_seeds": 2, "grid_per_interval": 3, "J_mult": 3}),
    "variation": ({"n_max": 3, "r_list": [1.0, 2.0]},
                  {"n_max": 4, "r_list": [1.0, 3.0]}),
}


def _outputs(name: str, params: dict):
    cfg = ExperimentConfig(name, params)
    rows, summary, _ = EXPERIMENTS[name](**cfg.validate())
    return rows, summary


def test_every_option_moves_a_reported_number():
    # an option that changes no row and no summary value is a config key
    # that reaches no number, and the summary's params would overstate
    # what the run depends on
    assert set(OPTION_CHANGES) == set(EXPERIMENTS)
    uncovered, dead = [], []
    for name, (base, changes) in OPTION_CHANGES.items():
        options = set(inspect.signature(EXPERIMENTS[name]).parameters)
        exempt = {"d"} if name == "hua-fit" else set()
        uncovered += [f"{name} {opt}"
                      for opt in sorted(options - exempt - set(changes))]
        reference = _outputs(name, base)
        for opt, value in changes.items():
            if _outputs(name, {**base, opt: value}) == reference:
                dead.append(f"{name} {opt}")
    assert not uncovered and not dead, (
        f"options with no changed value: {uncovered}; "
        f"options that change nothing reported: {dead}")
